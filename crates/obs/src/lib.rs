//! Unified observability for PlatoD2GL: one registry per cluster, shared
//! by every layer stacked on it.
//!
//! The paper's results are *measurements* — per-stage update and sampling
//! latencies on billion-scale graphs (Sec. VIII) — and production
//! deployments of PlatoGL-style systems run on per-component counters.
//! Before this crate the repo had three disjoint stat mechanisms (server
//! latency histograms, per-cluster traffic atomics, hand-rolled pipeline
//! JSON); none could show a single run end-to-end. This crate replaces them
//! with:
//!
//! * [`Counter`] / [`Gauge`] — sharded-atomic counters (cache-line-striped
//!   hot path) and plain gauges;
//! * [`Histogram`] — the log2 latency histogram formerly in
//!   `crates/server/src/latency.rs`, now shared by storage, WAL, server,
//!   and pipeline;
//! * [`SpanTracer`] — enter/exit spans with monotonic timing, parent
//!   linkage, and a ring buffer of recent completions;
//! * [`SlowLog`] — a bounded ring of over-threshold operations, each
//!   captured with its span tree ([`span_subtree`]) and request
//!   provenance, so a single slow request is explainable after the fact;
//! * [`Registry`] — names → handles; components resolve their handles once
//!   and the hot path never touches a lock or a map;
//! * [`ObsSnapshot`] — a point-in-time view with two exposition formats:
//!   Prometheus text ([`ObsSnapshot::to_prometheus`]) and the JSON report
//!   shape ([`ObsSnapshot::to_json`]).
//!
//! Each value has one type wherever it travels: the rpc codec encodes
//! [`ObsSnapshot`], [`SlowOpRecord`] and [`SpanRecord`] as they are, and a
//! fleet admin plane merges the decoded values with the same renderers
//! ([`fleet_prometheus`], [`SlowOpRecord::to_json_tagged`]) the local
//! endpoints use. Records hold their names as `Cow<'static, str>`:
//! borrowed where they were recorded, owned once decoded from a peer.
//!
//! Naming convention: dot-separated lowercase paths rooted at the
//! subsystem (`samtree.leaf_splits`, `wal.append_bytes`,
//! `pipeline.cache.hits`); duration histograms end in `_ns`.

mod expo;
mod export;
mod hist;
mod metrics;
mod registry;
mod slow;
mod span;

pub use expo::{fleet_prometheus, json_escape, HistogramJson};
pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use registry::{ObsSnapshot, Registry};
pub use slow::{span_subtree, SlowLog, SlowOpRecord, DEFAULT_SLOW_CAPACITY};
pub use span::{
    current_trace_context, SpanGuard, SpanRecord, SpanTracer, TraceContext, DEFAULT_SPAN_CAPACITY,
};
