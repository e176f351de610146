//! The graph-service TCP server.
//!
//! [`GraphServiceServer`] hosts any shared [`GraphService`] (in practice an
//! `Arc<Cluster>` with its registry) and serves the frame protocol of
//! [`codec`](crate::codec) from a readiness-driven loop on a single
//! thread: epoll-backed poller (portable fallback available),
//! non-blocking connections with per-connection read/write buffers,
//! zero-copy frame decode, replies correlated by `req_id` so clients may
//! be answered out of order. See [`crate::event`]. The server has no
//! knobs: where a frame runs is decided by its kind, and open connections
//! are capped at 16,384.
//!
//! Every frame goes through [`dispatch`](crate::dispatch), which owns the
//! request semantics (determinism contract, deadline handling, failure
//! mapping, slow-op capture with client trace ids).
//!
//! Observability flows through the *service's* registry: the cluster's
//! root spans and slow-op captures land in the same ring the admin server
//! reads — `GET /debug/slow` works across the wire — and the event loop
//! publishes its own gauges and connection counters there
//! (`rpc.server.open_connections`, `rpc.server.connections`,
//! `rpc.server.rejected_connections`, …; see [`crate::event`]), so
//! `GET /metrics` is the one place every server number is read.
//!
//! ## Deadlines
//!
//! Sample and update batches carry a `deadline_ms` budget measured from
//! frame receipt. The check is between requests, not preemptive — a
//! single slow shard call can overshoot the deadline by its own duration,
//! which is the same contract the paper's servers offer (cancellation is
//! cooperative).

use crate::event;
use platod2gl_server::GraphService;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Connection ceiling. Accepts beyond it are dropped (and counted in
/// `rpc.server.rejected_connections`) instead of exhausting fds.
const MAX_CONNECTIONS: usize = 16_384;

/// A running graph-service TCP server. The loop thread is joined on
/// [`GraphServiceServer::shutdown`] (or drop), so shutdown is clean — no
/// detached loop left running.
pub struct GraphServiceServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wake: crate::poll::Waker,
    handle: Option<JoinHandle<()>>,
}

impl GraphServiceServer {
    /// Bind `addr` (port 0 for an ephemeral port) and serve `service`.
    pub fn bind<S>(addr: impl ToSocketAddrs, service: Arc<S>) -> io::Result<Self>
    where
        S: GraphService + Send + Sync + 'static,
    {
        Self::bind_capped(addr, service, MAX_CONNECTIONS)
    }

    fn bind_capped<S>(
        addr: impl ToSocketAddrs,
        service: Arc<S>,
        max_connections: usize,
    ) -> io::Result<Self>
    where
        S: GraphService + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (handle, wake) = event::spawn(listener, service, Arc::clone(&stop), max_connections)?;
        Ok(Self {
            addr: local,
            stop,
            wake,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
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

    fn one_shard_cluster() -> Arc<platod2gl_server::Cluster> {
        use platod2gl_server::{Cluster, ClusterConfig};
        Arc::new(Cluster::new(
            ClusterConfig::builder()
                .num_shards(1)
                .build()
                .expect("valid config"),
        ))
    }

    /// The connection ceiling: an accept beyond it is dropped and counted,
    /// and the connections already admitted keep being served.
    #[test]
    fn accepts_beyond_the_ceiling_are_reset_and_counted() {
        use crate::codec::{read_frame, write_frame, FrameError, FrameKind};
        use std::net::TcpStream;
        use std::time::Duration;

        let cluster = one_shard_cluster();
        let server =
            GraphServiceServer::bind_capped("127.0.0.1:0", Arc::clone(&cluster), 2).expect("bind");
        let connect = || {
            let stream = TcpStream::connect(server.local_addr()).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            stream
        };
        let probe = |stream: &mut TcpStream| {
            write_frame(stream, FrameKind::HealthProbe, 7, &[])?;
            let (header, _) = read_frame(stream)?;
            Ok::<_, FrameError>(header.kind)
        };

        // A served probe proves the loop admitted the connection (the TCP
        // handshake alone only proves the kernel queued it).
        let mut admitted = [connect(), connect()];
        for stream in &mut admitted {
            assert_eq!(probe(stream).expect("admitted"), FrameKind::HealthReply);
        }
        // The third is accepted by the kernel, then dropped by the loop:
        // the peer sees a reset or EOF, never a reply.
        let mut third = connect();
        assert!(matches!(probe(&mut third), Err(FrameError::Io(_))));

        let snap = cluster.obs().snapshot();
        assert_eq!(snap.counter("rpc.server.connections"), Some(2));
        assert_eq!(snap.counter("rpc.server.rejected_connections"), Some(1));
        assert_eq!(snap.gauge("rpc.server.open_connections"), Some(2));
        for stream in &mut admitted {
            assert_eq!(probe(stream).expect("still served"), FrameKind::HealthReply);
        }
        server.shutdown();
    }

    /// A connection that closes while its offloaded write still runs
    /// leaves in-flight debt: `settle` pays it when the connection closes,
    /// and the late completion is dropped, so neither gauge is left
    /// counting a request nobody will answer.
    #[test]
    fn a_close_under_an_offloaded_write_settles_the_in_flight_debt() {
        use crate::codec::{encode, write_frame, FrameKind, UpdateBatch};
        use platod2gl_graph::{Edge, GraphStore, UpdateOp, VertexId};
        use std::net::TcpStream;
        use std::time::{Duration, Instant};

        let cluster = one_shard_cluster();
        cluster.faults().slow_shard(0, Duration::from_millis(300));
        let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&cluster)).expect("bind");
        let batch = UpdateBatch {
            deadline_ms: 0,
            ctx: None,
            ops: vec![UpdateOp::Insert(Edge::new(VertexId(1), VertexId(2), 1.0))],
        };
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write_frame(&mut stream, FrameKind::UpdateBatch, 9, &encode(&batch)).expect("write");
        drop(stream);

        // The write landing proves the frame was dispatched (and counted
        // in flight); the slow shard holds it long past the close.
        let deadline = Instant::now() + Duration::from_secs(5);
        let settled = loop {
            let snap = cluster.obs().snapshot();
            let gauges = (
                snap.gauge("rpc.server.in_flight_requests"),
                snap.gauge("rpc.server.open_connections"),
            );
            if cluster.num_edges() == 1 && gauges == (Some(0), Some(0)) {
                break true;
            }
            if Instant::now() > deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(
            settled,
            "in-flight debt of a closed connection never settled"
        );
        server.shutdown();
    }
}
