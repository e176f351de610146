//! # Real network RPC plane
//!
//! PlatoD2GL's deployed architecture (Sec. VII) is trainers issuing
//! sampling and update RPCs to graph servers that own hash-partitioned
//! shards. This crate is that wire boundary, dependency-free (std
//! `TcpListener`/`TcpStream`, same zero-dep discipline as
//! `platod2gl-admin`), in three layers:
//!
//! * [`codec`] — length-prefixed, CRC32C-framed binary messages; every
//!   frame carries a `req_id` correlation id. Record layouts and sizes
//!   come from [`platod2gl_server::wire`], the same functions the
//!   in-process cluster's traffic accounting uses, so simulated and real
//!   `net.*` byte counts agree by construction. A message body is a
//!   [`codec::Payload`] — one `put`/`get` declaration per type, one generic
//!   `encode`/`decode` — and where the workspace already has a type for
//!   the value (`BatchReport`, `ObsSnapshot`, `SpanRecord`, `graph::Error`
//!   ↔ `ErrorReply`) the payload is that type: each value has one type on
//!   both sides of the boundary.
//! * [`GraphServiceServer`] — hosts a shared
//!   [`GraphService`](platod2gl_server::GraphService) (an `Arc<Cluster>` +
//!   its registry) on a readiness-driven event loop (epoll-backed,
//!   non-blocking connections, zero-copy frame decode, out-of-order
//!   replies). It has no knobs: write-path frames, whose handlers may
//!   issue nested RPCs, run on offload threads and everything else inline
//!   on the loop thread. Requests feed the cluster's span tracer and
//!   slow-op log — client trace ids show up in the server's
//!   `GET /debug/slow` — and the loop's connection and in-flight counts
//!   are `rpc.server.*` metrics on the same registry, served at
//!   `GET /metrics`.
//! * [`RemoteCluster`] — the client. Implements `GraphService` — each
//!   remote operation is that trait's method and nothing else — so
//!   `KHopSampler` and `TrainingPipeline` run against a remote server
//!   unmodified. Every call rides one exchange (n frames out, n
//!   correlated replies back in request order, one retry loop) whose
//!   attempt body is per mode: a pooled connection (with idle-timeout
//!   reaping), or — in [`ConnectionMode::Multiplexed`] — many in-flight
//!   requests over a few shared sockets, routed back by `req_id`.
//!   Transport failure maps onto per-request
//!   [`DegradedPolicy`](platod2gl_server::DegradedPolicy) fallbacks
//!   instead of erroring the batch.
//!
//! ## Determinism across the wire
//!
//! A trainer with a fixed RNG seed produces bit-identical mini-batches
//! against a local `Cluster` and a `RemoteCluster`: the client draws
//! exactly one `u64` per request and ships it; the server derives the
//! sampling stream from that seed exactly as the in-process path does.
//! Neither the server's dispatch shape nor the connection mode enters
//! that contract — seeds are pre-drawn before any I/O, and replies are re-stitched to
//! request order before decoding.

mod client;
pub mod codec;
mod dispatch;
mod event;
mod poll;
mod server;

pub use client::{ClientConfig, ConnectionMode, RemoteCluster, RemoteClusterConfig};
pub use server::GraphServiceServer;

/// Lock a mutex whose data every holder leaves valid at each step, so a
/// panicked holder's poison is ignored.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
