//! The graph-service TCP server.
//!
//! [`GraphServiceServer`] hosts any shared [`GraphService`] (in practice an
//! `Arc<Cluster>` with its registry) and serves the frame protocol of
//! [`codec`](crate::codec) from a readiness-driven loop on a single
//! thread: epoll-backed poller (portable fallback available),
//! non-blocking connections with per-connection read/write buffers,
//! zero-copy frame decode, replies correlated by `req_id` so clients may
//! be answered out of order. See [`crate::event`]; [`ServerConfig`] shapes
//! the loop (dispatch workers, connection ceiling, poller).
//!
//! Every frame goes through [`dispatch`](crate::dispatch), which owns the
//! request semantics (determinism contract, deadline handling, failure
//! mapping, slow-op capture with client trace ids).
//!
//! Observability flows through the *service's* registry: the cluster's
//! root spans and slow-op captures land in the same ring the admin server
//! reads — `GET /debug/slow` works across the wire — and the event loop
//! publishes its own gauges (`rpc.server.ready_queue_depth`,
//! `rpc.server.in_flight_requests`, `rpc.server.accept_backlog`,
//! `rpc.server.open_connections`).
//!
//! ## Deadlines
//!
//! Sample and update batches carry a `deadline_ms` budget measured from
//! frame receipt. The check is between requests, not preemptive — a
//! single slow shard call can overshoot the deadline by its own duration,
//! which is the same contract the paper's servers offer (cancellation is
//! cooperative).

use crate::event;
use crate::stats::{RpcServerStats, ServerIntrospect};
use platod2gl_graph::Error;
use platod2gl_server::GraphService;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Validated server shape. Build via [`ServerConfig::builder`]; the
/// zero-argument [`Default`] serves requests inline on the loop thread.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Dispatch worker threads. `0` (default) serves requests inline on
    /// the loop thread — the right choice when handlers are short; workers
    /// add out-of-order completion for slow handlers at the cost of one
    /// payload copy per frame.
    pub workers: usize,
    /// Connection-table ceiling. Accepts beyond it are dropped (and
    /// counted) instead of exhausting fds.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            max_connections: 16_384,
        }
    }
}

impl ServerConfig {
    /// Start building a config.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// Builder for [`ServerConfig`] — the validated construction path.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Dispatch worker threads (`0` = inline).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Connection-table ceiling.
    pub fn max_connections(mut self, n: usize) -> Self {
        self.cfg.max_connections = n;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ServerConfig, Error> {
        if self.cfg.max_connections == 0 {
            return Err(Error::invalid_config(
                "server max_connections must be at least 1",
            ));
        }
        if self.cfg.workers > 256 {
            return Err(Error::invalid_config(
                "server workers above 256 is certainly a mistake",
            ));
        }
        Ok(self.cfg)
    }
}

/// A running graph-service TCP server. The loop thread and its workers
/// are joined on [`GraphServiceServer::shutdown`] (or drop), so shutdown
/// is clean — no detached threads left running.
pub struct GraphServiceServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wake: crate::poll::Waker,
    stats: Arc<RpcServerStats>,
    handle: Option<JoinHandle<()>>,
}

impl GraphServiceServer {
    /// Bind `addr` (port 0 for an ephemeral port) and serve `service` with
    /// the default config.
    pub fn bind<S>(addr: impl ToSocketAddrs, service: Arc<S>) -> io::Result<Self>
    where
        S: GraphService + Send + Sync + 'static,
    {
        Self::bind_with(addr, service, ServerConfig::default())
    }

    /// Bind with an explicit [`ServerConfig`].
    pub fn bind_with<S>(
        addr: impl ToSocketAddrs,
        service: Arc<S>,
        cfg: ServerConfig,
    ) -> io::Result<Self>
    where
        S: GraphService + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = RpcServerStats::new();
        let (handle, wake) = event::spawn(
            listener,
            service,
            Arc::clone(&stop),
            Arc::clone(&stats),
            cfg,
        )?;
        Ok(Self {
            addr: local,
            stop,
            wake,
            stats,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cheap handle onto the live connection table, for the admin
    /// plane's `GET /debug/rpc` (see
    /// [`RpcIntrospect`](platod2gl_admin::RpcIntrospect)).
    pub fn introspect(&self) -> ServerIntrospect {
        ServerIntrospect(Arc::clone(&self.stats))
    }

    /// Stop accepting, drain connection state, and join everything.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.wake.wake();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for GraphServiceServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::SeedRng;
    use platod2gl_server::{DegradedPolicy, SampleRequest, SampleResponse};
    use rand::RngCore;

    #[test]
    fn seed_rng_first_draw_is_the_seed() {
        let mut rng = SeedRng(42);
        assert_eq!(rng.next_u64(), 42);
        // Further draws are defined and distinct, but the contract says
        // they must never be requested on the sampling path.
        assert_ne!(rng.next_u64(), 42);
    }

    #[test]
    fn degraded_response_honors_policy() {
        use platod2gl_graph::{EdgeType, VertexId};
        use platod2gl_server::SlotSource;
        let req = SampleRequest::new(VertexId(5), EdgeType::DEFAULT, 3);
        let empty = SampleResponse::degraded(&req, 1);
        assert!(empty.degraded && empty.neighbors.is_empty());
        let looped = SampleResponse::degraded(&req.on_degraded(DegradedPolicy::SelfLoop), 1);
        assert_eq!((looped.degraded, looped.shard), (true, 1));
        assert_eq!(looped.neighbors, vec![VertexId(5); 3]);
        assert_eq!(looped.sources, vec![SlotSource::SelfLoop; 3]);
    }

    #[test]
    fn server_config_builder_validates() {
        let cfg = ServerConfig::builder().workers(2).build().expect("valid");
        assert_eq!(cfg.workers, 2);
        assert!(ServerConfig::builder().max_connections(0).build().is_err());
        assert!(ServerConfig::builder().workers(1000).build().is_err());
    }
}
