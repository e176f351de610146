//! Soak test for the event-loop serving core.
//!
//! One event-loop server is driven from over a thousand concurrently open
//! connections, each pipelining a randomized interleaving of health
//! probes, sample batches and single-op update batches. The races come
//! from the server's one dispatch rule: probes and samples are answered
//! inline on the loop thread, while every update batch leaves it for an
//! offload thread and completes whenever that thread does — so replies on
//! one connection genuinely overtake each other. Every request targets a
//! vertex whose single out-edge encodes the request's identity, and every
//! frame's correlation id names the request it carries, so each reply
//! proves which request it answers: a lost, duplicated or misrouted reply
//! cannot go unnoticed.

use platod2gl::{
    BatchReport, Cluster, ClusterConfig, Edge, EdgeType, GraphStore, SampleRequest, SampleResponse,
    UpdateOp, VertexId,
};
use platod2gl_rpc::codec::{
    decode, encode, encode_frame, read_frame, take_timing_echo, FrameKind, SampleBatch, UpdateBatch,
};
use platod2gl_rpc::GraphServiceServer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const ET: EdgeType = EdgeType::DEFAULT;

const DRIVERS: usize = 64;
const CONNS_PER_DRIVER: usize = 16;
const REQUESTS_PER_CONN: usize = 8;

/// The vertex a given (driver, conn, seq) request asks about. Its single
/// out-edge points at `raw() + 1`, so the expected reply is fully
/// determined by — and unique to — the request.
fn request_vertex(driver: usize, conn: usize, seq: usize) -> VertexId {
    VertexId((driver as u64) << 32 | (conn as u64) << 16 | seq as u64)
}

/// A cluster holding exactly one out-edge per soak vertex.
fn soak_cluster() -> Arc<Cluster> {
    let cluster = Arc::new(Cluster::new(
        ClusterConfig::builder()
            .num_shards(2)
            .build()
            .expect("valid config"),
    ));
    for driver in 0..DRIVERS {
        for conn in 0..CONNS_PER_DRIVER {
            for seq in 0..REQUESTS_PER_CONN {
                let v = request_vertex(driver, conn, seq);
                cluster.insert_edge(Edge::new(v, VertexId(v.raw() + 1), 1.0));
            }
        }
    }
    cluster
}

/// One sample request for `v`, encoded as a single-request batch payload.
fn sample_payload(v: VertexId) -> Vec<u8> {
    let req = SampleRequest::new(v, ET, 2);
    encode(&SampleBatch {
        deadline_ms: 30_000,
        ctx: None,
        requests: vec![(req, 0x5EED)],
    })
}

/// An idempotent one-op update batch for `v`: its own edge, re-set to the
/// weight it already has, so no sample anywhere can tell it ran.
fn update_payload(v: VertexId) -> Vec<u8> {
    encode(&UpdateBatch {
        deadline_ms: 30_000,
        ctx: None,
        ops: vec![UpdateOp::UpdateWeight(Edge::new(
            v,
            VertexId(v.raw() + 1),
            1.0,
        ))],
    })
}

/// Assert a sample-reply payload answers the request for `v`: two slots
/// (with-replacement fanout over the one edge), both naming `v + 1`.
fn assert_answers(payload: &[u8], v: VertexId, what: &str) {
    let responses: Vec<SampleResponse> = decode(payload).expect("decodable reply");
    assert_eq!(responses.len(), 1, "{what}: one response per request");
    assert!(!responses[0].degraded, "{what}: healthy server");
    assert_eq!(
        responses[0].neighbors,
        vec![VertexId(v.raw() + 1); 2],
        "{what}: reply payload must identify the request it answers"
    );
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// Correlation-id bits marking a frame as a health probe or an update
/// batch; the low bits still carry the request's vertex id, whose top two
/// bits are never set.
const PROBE_BIT: u64 = 1 << 63;
const UPDATE_BIT: u64 = 1 << 62;

/// Over a thousand concurrently open connections, health probes and
/// offloaded update batches mixed into the sample batches, randomized
/// write interleavings, offload threads racing the loop thread's inline
/// completions: no reply is lost, duplicated or misrouted.
#[test]
fn soak_thousand_connections_mixed_protocols() {
    let cluster = soak_cluster();
    let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&cluster)).expect("bind");
    let addr = server.local_addr();

    // +1 party: the main thread audits the server while everything is
    // connected, before any driver starts closing.
    let all_connected = Arc::new(Barrier::new(DRIVERS + 1));
    let may_close = Arc::new(Barrier::new(DRIVERS + 1));

    let drivers: Vec<_> = (0..DRIVERS)
        .map(|driver| {
            let all_connected = Arc::clone(&all_connected);
            let may_close = Arc::clone(&may_close);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xA5A5 + driver as u64);
                // Each connection round-trips a health probe immediately:
                // the reply proves the server *accepted* it (a TCP
                // handshake alone only proves the kernel queued it), and
                // the serial probes pace the thousand-connection flood
                // below the listener backlog.
                let mut conns: Vec<TcpStream> = (0..CONNS_PER_DRIVER)
                    .map(|_| {
                        let mut stream = connect(addr);
                        let frame = encode_frame(FrameKind::HealthProbe, 7, &[]);
                        stream.write_all(&frame).expect("probe");
                        let (header, _) = read_frame(&mut stream).expect("probe reply");
                        assert_eq!(header.kind, FrameKind::HealthReply);
                        stream
                    })
                    .collect();
                all_connected.wait();

                // Write phase: each conn has a queue of requests; send them
                // one frame at a time across conns in random order. The
                // correlation id encodes the request identity, so the reply
                // check is direct. Slots 2 and 6 of every conn are update
                // batches and the odd slots of odd conns health probes, so
                // inline and offloaded handlers race on the same stream.
                let is_update = |seq: usize| seq % 4 == 2;
                let is_probe = |conn: usize, seq: usize| conn % 2 == 1 && seq % 2 == 1;
                let mut next_seq = [0usize; CONNS_PER_DRIVER];
                let mut live: Vec<usize> = (0..CONNS_PER_DRIVER).collect();
                while !live.is_empty() {
                    let pick = rng.random_range(0..live.len());
                    let conn = live[pick];
                    let seq = next_seq[conn];
                    let v = request_vertex(driver, conn, seq);
                    let frame = if is_update(seq) {
                        let id = v.raw() | UPDATE_BIT;
                        encode_frame(FrameKind::UpdateBatch, id, &update_payload(v))
                    } else if is_probe(conn, seq) {
                        encode_frame(FrameKind::HealthProbe, v.raw() | PROBE_BIT, &[])
                    } else {
                        encode_frame(FrameKind::SampleBatch, v.raw(), &sample_payload(v))
                    };
                    conns[conn].write_all(&frame).expect("send");
                    next_seq[conn] += 1;
                    if next_seq[conn] == REQUESTS_PER_CONN {
                        live.swap_remove(pick);
                    }
                }

                // Read phase, conns drained in a fresh random order. Replies
                // may arrive in any order; the ids must cover every request
                // exactly once and each reply must match its id.
                let mut order: Vec<usize> = (0..CONNS_PER_DRIVER).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.random_range(0..=i));
                }
                for conn in order {
                    let mut seen = [false; REQUESTS_PER_CONN];
                    for _ in 0..REQUESTS_PER_CONN {
                        let (header, mut payload) = read_frame(&mut conns[conn]).expect("reply");
                        take_timing_echo(&mut payload).expect("echo");
                        let v = VertexId(header.req_id & !(PROBE_BIT | UPDATE_BIT));
                        let seq = (v.raw() & 0xFFFF) as usize;
                        assert!(seq < REQUESTS_PER_CONN, "id names a real request");
                        assert_eq!(v, request_vertex(driver, conn, seq), "id routes home");
                        assert!(!seen[seq], "no duplicated replies");
                        seen[seq] = true;
                        if header.req_id & UPDATE_BIT != 0 {
                            assert!(is_update(seq), "update id on another slot");
                            assert_eq!(header.kind, FrameKind::UpdateBatchReply);
                            let report: BatchReport = decode(&payload).expect("report");
                            assert_eq!(report.applied_ops, 1, "the one op applied");
                        } else if header.req_id & PROBE_BIT != 0 {
                            assert!(is_probe(conn, seq), "probe id on a sample slot");
                            assert_eq!(header.kind, FrameKind::HealthReply);
                        } else {
                            assert_eq!(header.kind, FrameKind::SampleReply);
                            assert_answers(&payload, v, "correlated");
                        }
                    }
                }
                may_close.wait();
            })
        })
        .collect();

    all_connected.wait();
    // Every driver connection is open right now; the event loop holds
    // them all concurrently.
    let snapshot = cluster.obs().snapshot();
    let open = snapshot
        .gauges
        .iter()
        .find(|(name, _)| name == "rpc.server.open_connections")
        .map_or(0, |(_, value)| *value);
    assert!(
        open >= (DRIVERS * CONNS_PER_DRIVER) as i64,
        "expected >= 1k concurrently open connections, gauge says {open}"
    );
    may_close.wait();

    for driver in drivers {
        driver.join().expect("driver clean");
    }
    let errors = cluster
        .obs()
        .snapshot()
        .counters
        .iter()
        .find(|(name, _)| name == "rpc.server.errors")
        .map_or(0, |(_, value)| *value);
    assert_eq!(errors, 0, "a clean soak serves every frame");
    server.shutdown();
}
