//! End-to-end tests over real sockets: a `GraphServiceServer` hosting a
//! live `Cluster` on an ephemeral port, driven by `RemoteCluster` (and,
//! for protocol-edge cases, a raw `TcpStream`).
//!
//! The contracts under test are the ones the trainer relies on:
//! bit-identical sampling local vs. remote under a shared seed, update
//! batches and heals round-tripping, server-side faults surfacing as
//! degraded responses (not client errors), deadlines degrading
//! late-in-batch requests, and transport loss mapping to per-request
//! degraded fallbacks. Every client-driven scenario runs once per
//! [`ConnectionMode`]: the modes differ in how calls map onto sockets,
//! never in what a call returns.

use platod2gl_graph::{
    Edge, EdgeType, Error, GraphStore, GraphTxn, ShardHealth, TxnError, TxnReceipt, UpdateOp,
    VertexId,
};
use platod2gl_obs::Registry;
use platod2gl_rpc::codec::{
    decode, encode, encode_frame, error_code, read_frame, take_timing_echo, write_frame,
    ErrorReply, FrameError, FrameKind, SampleBatch, MAX_FRAME_BYTES,
};
use platod2gl_rpc::{ConnectionMode, GraphServiceServer, RemoteCluster, RemoteClusterConfig};
use platod2gl_server::{
    route_for, BatchReport, Cluster, ClusterConfig, DegradedPolicy, GraphService, SampleRequest,
    SampleResponse, SlotSource,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const ET: EdgeType = EdgeType::DEFAULT;
const MODES: [ConnectionMode; 2] = [ConnectionMode::Pooled, ConnectionMode::Multiplexed];

/// A 3-shard cluster with a dense ring so every vertex has neighbors, and
/// a zero slow-op threshold so every request is capturable.
fn loaded_cluster() -> Arc<Cluster> {
    let config = ClusterConfig::builder()
        .num_shards(3)
        .build()
        .expect("valid config");
    let cluster = Arc::new(Cluster::new(config));
    cluster.obs().slow_log().set_threshold(Duration::ZERO);
    for v in 0..90u64 {
        for k in 1..=4u64 {
            cluster.insert_edge(Edge::new(VertexId(v), VertexId((v + k * 13) % 90), 1.0));
        }
    }
    cluster
}

fn serve(cluster: &Arc<Cluster>, mode: ConnectionMode) -> (GraphServiceServer, RemoteCluster) {
    let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(cluster)).expect("bind");
    let client = RemoteCluster::connect(
        server.local_addr(),
        RemoteClusterConfig::default().mode(mode),
    )
    .expect("connect");
    (server, client)
}

fn counter(client: &RemoteCluster, name: &str) -> u64 {
    client.registry().snapshot().counter(name).unwrap_or(0)
}

/// Vertices owned by `shard` under the shared routing hash.
fn vertices_on_shard(shard: usize, num_shards: usize) -> Vec<VertexId> {
    (0..90u64)
        .map(VertexId)
        .filter(|&v| route_for(v, num_shards) == shard)
        .collect()
}

#[test]
fn remote_sampling_is_bit_identical_to_local() {
    for mode in MODES {
        let cluster = loaded_cluster();
        let (server, remote) = serve(&cluster, mode);

        let reqs: Vec<SampleRequest> = (0..40u64)
            .map(|v| SampleRequest::new(VertexId(v), ET, 8))
            .collect();
        // Same seed on both sides: the remote path must consume exactly one
        // u64 per request (shipped on the wire), like the local path.
        let local = cluster.sample_many(&reqs, &mut StdRng::seed_from_u64(0xD2D2));
        let over_wire = remote.sample_many(&reqs, &mut StdRng::seed_from_u64(0xD2D2));
        assert_eq!(local, over_wire, "wire transport must not perturb draws");
        assert!(over_wire.iter().all(|r| !r.degraded));

        // And the batch is insensitive to client-side chunking: 600
        // requests span three 256-request frames in one exchange.
        let wide: Vec<SampleRequest> = (0..600u64)
            .map(|v| SampleRequest::new(VertexId(v % 90), ET, 8))
            .collect();
        let local = cluster.sample_many(&wide, &mut StdRng::seed_from_u64(0xD2D2));
        let frames = || cluster.obs().snapshot().counter("rpc.server.frames");
        let before = frames().unwrap_or(0);
        let pipelined = remote.sample_many(&wide, &mut StdRng::seed_from_u64(0xD2D2));
        assert_eq!(local, pipelined, "chunking must not change results");
        assert_eq!(frames(), Some(before + 3), "{mode:?}");

        server.shutdown();
    }
}

#[test]
fn updates_and_heal_round_trip_over_the_wire() {
    for mode in MODES {
        let cluster = loaded_cluster();
        let (server, remote) = serve(&cluster, mode);
        assert_eq!(remote.num_shards(), 3);

        let before = cluster.num_edges();
        let ops: Vec<UpdateOp> = (0..20u64)
            .map(|i| UpdateOp::Insert(Edge::new(VertexId(200 + i), VertexId(300 + i), 0.5)))
            .collect();
        let report = remote.apply_updates(&ops).expect("apply over wire");
        assert_eq!(report.applied_ops, 20);
        assert_eq!(report.queued_ops, 0);
        assert_eq!(cluster.num_edges(), before + 20);

        // Fail a shard: its ops queue server-side instead of applying, and
        // the remote heal drains them.
        let shard = 1;
        cluster.faults().fail_shard(shard);
        let queued_ops: Vec<UpdateOp> = vertices_on_shard(shard, 3)
            .iter()
            .take(5)
            .map(|&v| UpdateOp::Insert(Edge::new(v, VertexId(777), 1.0)))
            .collect();
        let report = remote
            .apply_updates(&queued_ops)
            .expect("queued, not error");
        assert_eq!(report.queued_ops, 5);
        assert_eq!(remote.shard_healths()[shard], ShardHealth::Failed);

        let drained = remote.heal(shard);
        assert_eq!(drained, 5, "heal must drain the queued ops");
        assert_eq!(remote.shard_healths()[shard], ShardHealth::Healthy);

        // Healing an out-of-range shard is a no-op, not a server fault.
        assert_eq!(remote.heal(99), 0);

        // A txn commits once, replays from the ledger under the same id,
        // and a phase-1 rejection comes back as a verdict, not an error
        // frame.
        let txn = GraphTxn::new(0x7A00).insert_edge(Edge::new(VertexId(400), VertexId(401), 1.0));
        let receipt = remote.apply_txn(&txn).expect("commits");
        assert_eq!((receipt.ops_applied, receipt.deduped), (1, false));
        assert!(remote.apply_txn(&txn).expect("replay").deduped);
        let dangling = GraphTxn::new(0x7A01).delete_edge(VertexId(400), VertexId(999), ET);
        assert!(matches!(
            remote.apply_txn(&dangling),
            Err(TxnError::Rejected { txn_id: 0x7A01, .. })
        ));
        server.shutdown();
    }
}

#[test]
fn worker_panic_maps_to_shard_panicked_error() {
    for mode in MODES {
        let cluster = loaded_cluster();
        let (server, remote) = serve(&cluster, mode);

        let shard = 2;
        cluster.faults().panic_next_batch(shard);
        let ops: Vec<UpdateOp> = vertices_on_shard(shard, 3)
            .iter()
            .take(3)
            .map(|&v| UpdateOp::Insert(Edge::new(v, VertexId(888), 1.0)))
            .collect();
        match remote.apply_updates(&ops) {
            Err(Error::ShardPanicked { shard: s, .. }) => assert_eq!(s, shard),
            other => panic!("expected ShardPanicked, got {other:?}"),
        }
        server.shutdown();
    }
}

/// A service whose every write fails with the error `fail` builds. The
/// replica entry points are the trait's defaults, so all four write
/// frames reach these two methods.
struct FailingWrites {
    registry: Arc<Registry>,
    fail: fn() -> Error,
}

impl GraphService for FailingWrites {
    fn sample_one(&self, req: &SampleRequest, _rng: &mut dyn RngCore) -> SampleResponse {
        SampleResponse::degraded(req, 0)
    }
    fn apply_updates(&self, _ops: &[UpdateOp]) -> Result<BatchReport, Error> {
        Err((self.fail)())
    }
    fn apply_txn(&self, _txn: &GraphTxn) -> Result<TxnReceipt, TxnError> {
        Err(TxnError::Store((self.fail)()))
    }
    fn graph_version(&self) -> u64 {
        0
    }
    fn num_shards(&self) -> usize {
        8
    }
    fn shard_healths(&self) -> Vec<ShardHealth> {
        vec![ShardHealth::Healthy; 8]
    }
    fn heal(&self, _shard: usize) -> usize {
        0
    }
    fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

/// A store error crosses the wire as the variant the service raised, with
/// its shard, on the update and the txn path, first-hand and replica
/// alike. (A relay leg's `Io` used to arrive as "worker for shard 0
/// panicked".) What has no code of its own arrives as `Io` naming the
/// cause.
#[test]
fn store_errors_keep_their_variant_over_the_wire() {
    let variants: [fn() -> Error; 4] = [
        || Error::ShardPanicked {
            shard: 5,
            detail: "boom".to_string(),
        },
        || Error::ShardUnavailable { shard: 6 },
        || {
            Error::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "relay leg down",
            ))
        },
        || Error::Corrupt {
            what: "journal overflowed".to_string(),
        },
    ];
    for fail in variants {
        let service = Arc::new(FailingWrites {
            registry: Arc::new(Registry::new()),
            fail,
        });
        let server = GraphServiceServer::bind("127.0.0.1:0", service).expect("bind");
        let remote = RemoteCluster::connect(server.local_addr(), RemoteClusterConfig::default())
            .expect("connect");
        let ops = [UpdateOp::Insert(Edge::new(VertexId(1), VertexId(2), 1.0))];
        let txn = GraphTxn::new(9).insert_edge(Edge::new(VertexId(1), VertexId(2), 1.0));
        let store = |r: Result<TxnReceipt, TxnError>| match r {
            Err(TxnError::Store(e)) => e,
            other => panic!("expected a store error, got {other:?}"),
        };
        let seen = [
            remote.apply_updates(&ops).expect_err("update"),
            remote
                .apply_replica_updates(&ops)
                .expect_err("replica update"),
            store(remote.apply_txn(&txn)),
            store(remote.apply_replica_txn(&txn)),
        ];
        for got in seen {
            match (fail(), got) {
                (Error::ShardPanicked { shard, .. }, Error::ShardPanicked { shard: s, .. })
                | (Error::ShardUnavailable { shard }, Error::ShardUnavailable { shard: s }) => {
                    assert_eq!(s, shard)
                }
                (Error::Io(sent), Error::Io(got)) => assert_eq!(got.to_string(), sent.to_string()),
                (sent @ Error::Corrupt { .. }, Error::Io(got)) => {
                    assert_eq!(got.to_string(), sent.to_string())
                }
                (sent, got) => panic!("sent {sent:?}, the client saw {got:?}"),
            }
        }
        server.shutdown();
    }
}

#[test]
fn server_side_shard_fault_degrades_sampling_without_client_errors() {
    for mode in MODES {
        let cluster = loaded_cluster();
        let (server, remote) = serve(&cluster, mode);

        let shard = 0;
        cluster.faults().fail_shard(shard);
        let reqs: Vec<SampleRequest> = vertices_on_shard(shard, 3)
            .iter()
            .take(6)
            .map(|&v| {
                SampleRequest::new(v, ET, 4)
                    .on_degraded(DegradedPolicy::SelfLoop)
                    .with_trace_id(0xFA01)
            })
            .collect();
        let responses = remote.sample_many(&reqs, &mut StdRng::seed_from_u64(1));
        for (req, resp) in reqs.iter().zip(&responses) {
            assert!(resp.degraded, "failed shard must degrade, not error");
            assert_eq!(resp.shard, shard);
            // The degraded policy travelled the wire: router-side self-loop
            // padding, full fanout, provenance marked.
            assert_eq!(resp.neighbors, vec![req.vertex; 4]);
            assert_eq!(resp.sources, vec![SlotSource::SelfLoop; 4]);
        }

        // The trace id crossed the wire into the server's slow-op log — the
        // same ring `GET /debug/slow` serves.
        let captures = cluster.obs().slow_log().recent();
        assert!(
            captures.iter().any(|c| c.trace_id == Some(0xFA01)),
            "client trace id must reach the server's slow-op log"
        );
        server.shutdown();
    }
}

#[test]
fn transport_loss_degrades_sampling_and_errors_updates() {
    for mode in MODES {
        let cluster = loaded_cluster();
        let (server, remote) = serve(&cluster, mode);
        server.shutdown(); // the server goes away *after* connect

        let reqs = [
            SampleRequest::new(VertexId(3), ET, 5).on_degraded(DegradedPolicy::SelfLoop),
            SampleRequest::new(VertexId(4), ET, 5),
        ];
        let responses = remote.sample_many(&reqs, &mut StdRng::seed_from_u64(9));
        assert_eq!(responses.len(), 2);
        assert!(responses.iter().all(|r| r.degraded));
        assert_eq!(responses[0].neighbors, vec![VertexId(3); 5]);
        assert!(responses[1].neighbors.is_empty());
        // The predicted owner is the shared routing hash, so provenance stays
        // meaningful even without a server.
        assert_eq!(responses[0].shard, route_for(VertexId(3), 3));

        let snap = remote.registry().snapshot();
        assert_eq!(snap.counter("rpc.client.degraded_fallbacks"), Some(2));
        assert!(snap.counter("rpc.client.retries").unwrap_or(0) >= 1);

        // Updates must NOT silently degrade — dropped writes are data loss.
        let err =
            remote.apply_updates(&[UpdateOp::Insert(Edge::new(VertexId(1), VertexId(2), 1.0))]);
        assert!(matches!(err, Err(Error::Io(_))));

        // Version/health probes fall back to the last observed state.
        assert_eq!(remote.graph_version(), cluster.graph_version());
        assert_eq!(remote.shard_healths().len(), 3);
    }
}

/// A server restart leaves every socket the client holds dead. Pooled:
/// the dead stream is evicted and the call redialed without spending a
/// retry. Multiplexed: the dead channel is replaced, at the cost of at
/// most the retry budget (none if its reader saw the close first).
#[test]
fn server_restart_is_ridden_out_within_the_retry_budget() {
    for mode in MODES {
        let cluster = loaded_cluster();
        let (server, remote) = serve(&cluster, mode);
        let addr = server.local_addr();
        server.shutdown();
        let server = GraphServiceServer::bind(addr, Arc::clone(&cluster)).expect("rebind");

        let reconnects = counter(&remote, "rpc.client.reconnects");
        let reqs = [SampleRequest::new(VertexId(3), ET, 5)];
        let local = cluster.sample_many(&reqs, &mut StdRng::seed_from_u64(4));
        let over_wire = remote.sample_many(&reqs, &mut StdRng::seed_from_u64(4));
        assert_eq!(
            local, over_wire,
            "{mode:?}: the restart must not degrade the call"
        );
        assert!(
            counter(&remote, "rpc.client.reconnects") > reconnects,
            "{mode:?}"
        );
        match mode {
            ConnectionMode::Pooled => {
                assert_eq!(
                    counter(&remote, "rpc.client.retries"),
                    0,
                    "eviction is free"
                );
                assert_eq!(counter(&remote, "rpc.client.pool_evictions"), 1);
            }
            ConnectionMode::Multiplexed => {
                assert!(
                    counter(&remote, "rpc.client.retries") <= 2,
                    "within the budget"
                );
            }
        }
        server.shutdown();
    }
}

/// A reply that does not come within `request_timeout` is a transport
/// error: retried up to the budget, then degraded per request. In
/// Multiplexed mode the timeout also kills the channel (its stream order
/// is unknowable once a reply is abandoned), so every attempt redials.
#[test]
fn request_timeout_spends_the_budget_then_degrades() {
    for mode in MODES {
        let cluster = loaded_cluster();
        let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&cluster)).expect("bind");
        let config = RemoteClusterConfig::default()
            .mode(mode)
            .request_timeout(Duration::from_millis(40));
        let remote = RemoteCluster::connect(server.local_addr(), config).expect("connect");
        for shard in 0..3 {
            cluster
                .faults()
                .slow_shard(shard, Duration::from_millis(250));
        }

        let reqs = [SampleRequest::new(VertexId(3), ET, 5).on_degraded(DegradedPolicy::SelfLoop)];
        let responses = remote.sample_many(&reqs, &mut StdRng::seed_from_u64(9));
        assert!(responses[0].degraded, "{mode:?}");
        assert_eq!(responses[0].neighbors, vec![VertexId(3); 5]);
        assert_eq!(counter(&remote, "rpc.client.retries"), 2, "{mode:?}");
        assert_eq!(counter(&remote, "rpc.client.degraded_fallbacks"), 1);
        if mode == ConnectionMode::Multiplexed {
            // One dial at connect, then one per attempt: with one of its
            // two sockets open, each attempt dials the second, and the
            // attempt's timeout kills it again.
            assert_eq!(counter(&remote, "rpc.client.reconnects"), 4);
        }

        server.shutdown();
    }
}

#[test]
fn deadline_lapse_degrades_remaining_requests_server_side() {
    let cluster = loaded_cluster();
    let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&cluster)).expect("bind");

    // Make every shard slow, then ship a batch whose deadline only the
    // first request can beat: the server must answer the rest degraded
    // without touching the (slow) shards.
    for shard in 0..3 {
        cluster
            .faults()
            .slow_shard(shard, Duration::from_millis(25));
    }
    let requests: Vec<(SampleRequest, u64)> = (0..4u64)
        .map(|v| {
            (
                SampleRequest::new(VertexId(v), ET, 3).on_degraded(DegradedPolicy::SelfLoop),
                v + 1,
            )
        })
        .collect();
    let batch = SampleBatch {
        deadline_ms: 1,
        ctx: None,
        requests,
    };
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    write_frame(&mut stream, FrameKind::SampleBatch, 1, &encode(&batch)).expect("send");
    stream.flush().expect("flush");
    let (header, mut payload) = read_frame(&mut stream).expect("reply");
    assert_eq!(header.kind, FrameKind::SampleReply);
    take_timing_echo(&mut payload).expect("echo");
    let responses: Vec<SampleResponse> = decode(&payload).expect("decode");
    assert_eq!(responses.len(), 4);
    assert!(
        !responses[0].degraded,
        "first request starts inside the deadline"
    );
    for resp in &responses[1..] {
        assert!(resp.degraded, "post-deadline requests must degrade");
        assert_eq!(resp.sources, vec![SlotSource::SelfLoop; 3]);
    }
    assert_eq!(
        cluster
            .obs()
            .snapshot()
            .counter("rpc.server.deadline_expired"),
        Some(3)
    );
    server.shutdown();
}

#[test]
fn malformed_frames_get_an_error_reply_then_close() {
    let cluster = loaded_cluster();
    let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&cluster)).expect("bind");

    // A plausible length prefix followed by garbage: CRC cannot match.
    let mut junk = 14u32.to_le_bytes().to_vec();
    junk.extend_from_slice(&[0xAB; 14]);
    // A health probe in the retired version-1 layout (no req_id), CRC
    // valid, padded to the minimum frame length: the version check is
    // what rejects it.
    let mut body = vec![1u8, FrameKind::HealthProbe as u8];
    body.extend_from_slice(&[0u8; 8]);
    body.extend_from_slice(&platod2gl_storage::crc32c::crc32c(&body).to_le_bytes());
    let mut version_1 = (body.len() as u32).to_le_bytes().to_vec();
    version_1.extend_from_slice(&body);
    // A heal request, CRC valid, with three bytes after the shard: the
    // payload decoder refuses the suffix, so the heal is never served.
    let mut heal = encode(&1u32);
    heal.extend_from_slice(&[0xAA; 3]);
    let suffixed = encode_frame(FrameKind::HealRequest, 9, &heal);

    for (bad, names) in [
        (junk, "crc"),
        (version_1, "version 1"),
        (suffixed, "3 bytes after the record"),
    ] {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(&bad).expect("send");
        stream.flush().expect("flush");

        let (header, mut payload) = read_frame(&mut stream).expect("error reply");
        assert_eq!(header.kind, FrameKind::ErrorReply);
        take_timing_echo(&mut payload).expect("echo");
        let err: ErrorReply = decode(&payload).expect("decode");
        assert_eq!(err.code, error_code::BAD_REQUEST);
        assert!(err.message.contains(names), "{}", err.message);

        // The server does not trust the stream past a framing error: closed.
        match read_frame(&mut stream) {
            Err(FrameError::Io(_)) => {}
            other => panic!("expected the connection to close, got {other:?}"),
        }
    }

    // The server itself is unharmed: a fresh connection still works.
    let remote = RemoteCluster::connect(server.local_addr(), RemoteClusterConfig::default())
        .expect("connect after bad peer");
    assert_eq!(remote.num_shards(), 3);
    server.shutdown();
}

/// A peer that writes as fast as it can — its bytes opening with an
/// over-limit length prefix — must neither starve other connections nor
/// grow its read buffer: the loop reads a bounded amount per event, the
/// length check fires on the first pass, and the connection is closed.
#[test]
fn flooding_peer_is_cut_off_and_starves_nobody() {
    let cluster = loaded_cluster();
    let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&cluster)).expect("bind");
    let addr = server.local_addr();

    let blaster = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_write_timeout(Some(Duration::from_secs(20)))
            .expect("write timeout");
        let mut block = vec![0xEEu8; 64 * 1024];
        block[..4].copy_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        // Blast until the server hangs up on us. What it accepts before
        // that is one read budget plus the kernel's socket buffers.
        let mut sent = 0usize;
        loop {
            match stream.write_all(&block) {
                Ok(()) => {
                    sent += block.len();
                    assert!(sent < (64 << 20), "server kept reading a flooding peer");
                }
                Err(e) => {
                    assert!(
                        !matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ),
                        "flooding peer stalled instead of being closed: {e}"
                    );
                    break;
                }
            }
        }
    });

    // Meanwhile a well-behaved connection is answered promptly.
    let mut probe = TcpStream::connect(addr).expect("connect");
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    write_frame(&mut probe, FrameKind::HealthProbe, 7, &[]).expect("probe");
    let (header, _) = read_frame(&mut probe).expect("probe answered while the flood runs");
    assert_eq!((header.kind, header.req_id), (FrameKind::HealthReply, 7));

    blaster.join().expect("blaster saw its connection closed");
    server.shutdown();
}

#[test]
fn health_probe_tracks_graph_version_across_updates() {
    for mode in MODES {
        let cluster = loaded_cluster();
        let (server, remote) = serve(&cluster, mode);

        let v0 = remote.graph_version();
        assert_eq!(v0, cluster.graph_version());
        remote
            .apply_updates(&[UpdateOp::Insert(Edge::new(VertexId(5), VertexId(6), 2.0))])
            .expect("apply");
        assert!(remote.graph_version() > v0, "version advances after writes");
        server.shutdown();
    }
}
