//! Acceptance tests for the transactional batch-op plane: two-phase
//! validated apply on the cluster (all-or-nothing, version bump on commit
//! only), txn-id idempotence through the dedupe ledger, scripted admission
//! aborts, the same semantics over the TCP `GraphService` wire, and the
//! admin plane's `/debug/txns` + storage-health views of it all.

use platod2gl::{
    AdminServer, Cluster, ClusterConfig, Edge, EdgeType, GraphService, GraphServiceServer,
    GraphStore, GraphTxn, RemoteCluster, RemoteClusterConfig, TxnError, VertexId, ViolationKind,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

const ET: EdgeType = EdgeType::DEFAULT;

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn cluster(num_shards: usize) -> Arc<Cluster> {
    let config = ClusterConfig::builder()
        .num_shards(num_shards)
        .build()
        .expect("valid config");
    let cluster = Arc::new(Cluster::new(config));
    for v in 0..30u64 {
        cluster.insert_edge(Edge::new(VertexId(v), VertexId(v + 100), 1.0));
    }
    cluster
}

fn edge(src: u64, dst: u64, w: f64) -> Edge {
    Edge::new(VertexId(src), VertexId(dst), w)
}

/// A committed txn is all-or-nothing across shards, bumps the graph
/// version exactly once, and lands in the journal; a rejected txn changes
/// nothing — not even the version — and reports every violation at once.
#[test]
fn cluster_txns_commit_atomically_and_abort_cleanly() {
    let c = cluster(3);
    let v0 = c.graph_version();
    let e0 = c.num_edges();

    // Multi-shard commit: inserts routed to different shards plus a
    // weight patch on a pre-existing edge.
    let txn = GraphTxn::new(1)
        .insert_edge(edge(1000, 2000, 1.0))
        .insert_edge(edge(1001, 2001, 2.0))
        .patch_weight(edge(0, 100, 9.0));
    let receipt = c.apply_txn(&txn).expect("commit");
    assert_eq!(receipt.ops_applied, 3);
    assert!(!receipt.deduped);
    assert_eq!(c.graph_version(), v0 + 1, "one bump per committed txn");
    assert_eq!(c.num_edges(), e0 + 2);
    assert_eq!(c.edge_weight(VertexId(0), VertexId(100), ET), Some(9.0));

    // Phase-1 abort: one dangling delete poisons the whole batch — the
    // valid insert in the same txn must NOT be applied, and the version
    // must not move (caches stay valid).
    let v1 = c.graph_version();
    let bad = GraphTxn::new(2)
        .insert_edge(edge(3000, 4000, 1.0))
        .delete_edge(VertexId(7777), VertexId(8888), ET);
    let err = c.apply_txn(&bad).expect_err("must reject");
    assert!(err.is_rejected());
    let violations = err.violations();
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].kind, ViolationKind::DanglingDelete);
    assert_eq!(violations[0].op_index, 1);
    assert_eq!(c.graph_version(), v1, "rejected txn must not bump");
    assert_eq!(c.edge_weight(VertexId(3000), VertexId(4000), ET), None);

    // All violations are collected in one pass, not first-error-wins.
    let multi = GraphTxn::new(3)
        .delete_edge(VertexId(7777), VertexId(8888), ET)
        .insert_edge(edge(1, 2, f64::NAN))
        .insert_edge(edge(5, 6, 1.0))
        .insert_edge(edge(5, 6, 2.0));
    let err = c.apply_txn(&multi).expect_err("must reject");
    assert_eq!(err.violations().len(), 3);

    // The journal saw all of it, newest first or oldest first — just
    // check membership and outcomes.
    let journal = c.txn_journal();
    let outcome = |id: u64| {
        journal
            .iter()
            .find(|e| e.txn_id == id)
            .map(|e| e.outcome)
            .expect("journal entry")
    };
    assert_eq!(outcome(1), "committed");
    assert_eq!(outcome(2), "rejected");
    assert_eq!(outcome(3), "rejected");
    assert_eq!(c.txn_abort_streak(), 2);
}

/// Replaying a committed txn id returns the original receipt flagged
/// `deduped` and applies nothing — the at-most-once contract retries
/// lean on.
#[test]
fn txn_ids_are_idempotent_through_the_ledger() {
    let c = cluster(2);
    let txn = GraphTxn::new(77).insert_edge(edge(500, 600, 1.0));
    let first = c.apply_txn(&txn).expect("commit");
    let v = c.graph_version();
    let e = c.num_edges();

    let replay = c.apply_txn(&txn).expect("dedupe");
    assert!(replay.deduped);
    assert_eq!(replay.txn_id, first.txn_id);
    assert_eq!(replay.ops_applied, first.ops_applied);
    assert_eq!(c.graph_version(), v, "dedupe must not re-apply");
    assert_eq!(c.num_edges(), e);
}

/// A scripted `AbortNextTxn` fault aborts exactly one txn at admission —
/// no shard state changes, no health mutation, no version bump — and the
/// next txn sails through.
#[test]
fn scripted_admission_abort_is_clean_and_one_shot() {
    use platod2gl::{route_for, Error, ShardHealth};
    let c = cluster(2);
    let v = c.graph_version();
    let victim = (0..64)
        .map(VertexId)
        .find(|&x| route_for(x, 2) == 0)
        .expect("a vertex routed to shard 0");
    c.faults().abort_next_txn(0);

    let txn = GraphTxn::new(10).insert_edge(Edge::new(victim, VertexId(9000), 1.0));
    let err = c.apply_txn(&txn).expect_err("scripted abort");
    match err {
        TxnError::Store(Error::ShardUnavailable { shard }) => assert_eq!(shard, 0),
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
    assert_eq!(c.graph_version(), v, "admission abort must not bump");
    assert_eq!(c.edge_weight(victim, VertexId(9000), ET), None);
    assert_eq!(
        c.shard_health(0),
        ShardHealth::Healthy,
        "admission aborts never poison shard health"
    );

    // One-shot: a fresh id commits.
    let retry = GraphTxn::new(11).insert_edge(Edge::new(victim, VertexId(9000), 1.0));
    assert!(c.apply_txn(&retry).is_ok());
    assert_eq!(c.edge_weight(victim, VertexId(9000), ET), Some(1.0));
}

/// With a relation limit set, a txn touching a relation at or past it is
/// rejected whole as `UnknownEtype`; with the limit cleared the same txn
/// commits.
#[test]
fn etype_limit_rejects_unknown_relations_until_cleared() {
    let c = cluster(2);
    c.set_etype_limit(Some(2));
    let (v, e) = (c.graph_version(), c.num_edges());
    let foreign = Edge {
        etype: EdgeType(2),
        ..edge(40, 41, 1.0)
    };

    let err = c
        .apply_txn(
            &GraphTxn::new(20)
                .insert_edge(edge(42, 43, 1.0))
                .insert_edge(foreign),
        )
        .expect_err("relation 2 is past the limit");
    assert!(matches!(err, TxnError::Rejected { .. }));
    let violations = err.violations();
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].kind, ViolationKind::UnknownEtype);
    assert_eq!(violations[0].op_index, 1);
    assert_eq!(c.graph_version(), v, "rejected txn must not bump");
    assert_eq!(c.num_edges(), e, "zero ops applied");

    c.set_etype_limit(None);
    let receipt = c
        .apply_txn(
            &GraphTxn::new(21)
                .insert_edge(edge(42, 43, 1.0))
                .insert_edge(foreign),
        )
        .expect("no limit, no rejection");
    assert_eq!(receipt.ops_applied, 2);
    assert_eq!(c.graph_version(), v + 1);
    assert_eq!(
        c.edge_weight(VertexId(40), VertexId(41), EdgeType(2)),
        Some(1.0)
    );
}

/// The full txn contract crosses the TCP wire: `RemoteCluster::apply_txn`
/// commits, rejections arrive with their structured violation list, and a
/// client-side resend of the same txn id is absorbed by the server's
/// ledger as a dedupe — the remote idempotent-retry story end to end.
#[test]
fn remote_txns_match_local_semantics_and_retries_dedupe() {
    let served = cluster(3);
    let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&served)).expect("bind");
    let remote = RemoteCluster::connect(server.local_addr(), RemoteClusterConfig::default())
        .expect("connect");

    let txn = GraphTxn::new(42)
        .insert_edge(edge(800, 900, 1.5))
        .patch_weight(edge(0, 100, 3.0));
    let receipt = remote.apply_txn(&txn).expect("remote commit");
    assert_eq!(receipt.ops_applied, 2);
    assert!(!receipt.deduped);
    assert_eq!(
        served.edge_weight(VertexId(800), VertexId(900), ET),
        Some(1.5)
    );

    // The wire carries the full violation list, not a flattened error.
    let bad = GraphTxn::new(43).delete_edge(VertexId(7777), VertexId(8888), ET);
    let err = remote.apply_txn(&bad).expect_err("remote reject");
    let violations = err.violations();
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].kind, ViolationKind::DanglingDelete);
    assert_eq!(served.edge_weight(VertexId(7777), VertexId(8888), ET), None);

    // Simulated retry: same txn id resent (e.g. after a timeout whose
    // first attempt actually landed) — the server's ledger absorbs it.
    let replay = remote.apply_txn(&txn).expect("deduped");
    assert!(replay.deduped);
    assert_eq!(replay.ops_applied, 2);

    server.shutdown();
}

/// The admin plane exposes the txn ledger at `/debug/txns` and a distinct
/// storage axis in `/healthz` that degrades on an abort streak without
/// ever flipping the shard-liveness probe to 503.
#[test]
fn admin_plane_reports_txn_activity_and_storage_health() {
    let c = cluster(2);
    let admin = AdminServer::bind("127.0.0.1:0", Arc::clone(&c)).expect("bind admin");

    c.apply_txn(&GraphTxn::new(1).insert_edge(edge(600, 700, 1.0)))
        .expect("commit");
    for id in 2..=4 {
        let bad = GraphTxn::new(id).delete_edge(VertexId(9990), VertexId(9991), ET);
        assert!(c.apply_txn(&bad).is_err());
    }

    let (status, body) = http_get(admin.local_addr(), "/debug/txns");
    assert_eq!(status, 200);
    assert!(body.contains("\"committed\":1"), "{body}");
    assert!(body.contains("\"aborted\":3"), "{body}");
    assert!(body.contains("\"abort_streak\":3"), "{body}");
    assert!(body.contains("\"outcome\":\"rejected\""), "{body}");

    // Three aborts in a row degrade the storage axis; the probe itself
    // stays 200 because every shard is alive.
    let (status, body) = http_get(admin.local_addr(), "/healthz");
    assert_eq!(status, 200, "storage sickness never 503s the probe");
    assert!(
        body.contains("\"storage\":{\"status\":\"degraded\""),
        "{body}"
    );

    // A commit clears the streak and the storage axis heals.
    c.apply_txn(&GraphTxn::new(5).insert_edge(edge(601, 701, 1.0)))
        .expect("commit");
    let (_, body) = http_get(admin.local_addr(), "/healthz");
    assert!(body.contains("\"storage\":{\"status\":\"ok\""), "{body}");

    admin.shutdown();
}
