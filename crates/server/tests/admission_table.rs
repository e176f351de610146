//! The write pipeline's admission table: every scripted fault through every
//! write entry point of a 4-shard [`Cluster`] with the migration journal
//! armed, one string per cell pinning everything the call left behind.
//!
//! Recorded at the commit *before* the update-batch and txn write bodies
//! became one `admit → apply → settle` pipeline; the merge had to reproduce
//! it. Three cells differ from that recording, all the same fix: a
//! replica-channel batch that **queues** (`failed`, `failed+seen`, and
//! `transient(100)`, which exhausts the retry budget into `Failed`) used to
//! lose its channel in the queue, so the heal drain bumped the version and
//! fed the journal (`heal d1 v+1 j+1`); a queued op now keeps its origin
//! (`heal d1 v+0 j+0`).
//!
//! Cell: `<the call's result, Debug> | health pend<queue> v+<version delta>
//! j<journal len> | f<failed_requests> r<retried_requests> q<queued_ops>
//! deltas | txn:<last txn-journal outcome(detail)> | heal d<drained> v+ j+`.
//! Batches and txns carry two inserts, one on the faulted shard and one on
//! a healthy shard; single ops target the faulted shard.

use platod2gl_graph::{Edge, EdgeType, GraphStore, GraphTxn, ShardHealth, UpdateOp, VertexId};
use platod2gl_server::{Cluster, ClusterConfig, FaultKind, GraphService};
use std::time::Duration;

const FAULTED: usize = 1;
const MS: Duration = Duration::from_millis(1);
const ENTRIES: &str = "insert delete patch updates replica_updates txn replica_txn";

fn vertex_on(c: &Cluster, shard: usize) -> VertexId {
    (0..)
        .map(VertexId)
        .find(|v| c.route(*v) == shard)
        .expect("some vertex routes to every shard")
}

/// The fault counters a cell reports: `[failed, retried, queued]`.
fn fault_counts(c: &Cluster) -> [u64; 3] {
    let snap = c.obs().snapshot();
    [
        "cluster.failed_requests",
        "cluster.retried_requests",
        "cluster.queued_ops",
    ]
    .map(|name| snap.counter(name).expect("registered"))
}

/// Drive one cell on a fresh cluster and describe what it left behind.
fn cell(fault: Option<FaultKind>, discovered: bool, entry: &str) -> String {
    let c = Cluster::new(ClusterConfig::default()); // 4 shards
    let (hit, live) = (vertex_on(&c, FAULTED), vertex_on(&c, 0));
    c.insert_edge(Edge::new(hit, VertexId(900), 1.0));
    // One partition: every first-hand op that lands is journaled.
    let census = c.begin_migration(0, 1).expect("arms");
    let journal_len = || c.migration_tail(0, census).expect("armed").0.len();
    match fault {
        None => {}
        Some(FaultKind::Failed) => c.faults().fail_shard(FAULTED),
        Some(FaultKind::Transient(n)) => c.faults().inject_transient(FAULTED, n),
        Some(FaultKind::Slow(d)) => c.faults().slow_shard(FAULTED, d),
        Some(FaultKind::PanicNextBatch) => c.faults().panic_next_batch(FAULTED),
        Some(FaultKind::AbortNextTxn) => c.faults().abort_next_txn(FAULTED),
    }
    if discovered {
        // A read runs into the fault first, so the router already holds
        // the shard as `Failed` when the write arrives.
        assert_eq!(c.degree(hit, EdgeType(0)), 0);
    }
    let (v0, t0) = (c.graph_version(), fault_counts(&c));

    let ops = [
        UpdateOp::Insert(Edge::new(hit, VertexId(901), 1.0)),
        UpdateOp::Insert(Edge::new(live, VertexId(902), 1.0)),
    ];
    let txn = GraphTxn::new(7)
        .insert_edge(Edge::new(hit, VertexId(901), 1.0))
        .insert_edge(Edge::new(live, VertexId(902), 1.0));
    let result = match entry {
        "insert" => format!("{:?}", c.insert_edge(Edge::new(hit, VertexId(901), 1.0))),
        "delete" => format!("{:?}", c.delete_edge(hit, VertexId(900), EdgeType(0))),
        "patch" => format!("{:?}", c.update_weight(Edge::new(hit, VertexId(900), 2.0))),
        "updates" => format!("{:?}", c.apply_updates(&ops)),
        "replica_updates" => format!("{:?}", c.apply_replica_updates(&ops)),
        "txn" => format!("{:?}", Cluster::apply_txn(&c, &txn)),
        "replica_txn" => format!("{:?}", c.apply_replica_txn(&txn)),
        other => panic!("unknown entry point {other}"),
    };

    let leaked = (0..4).any(|s| s != FAULTED && c.shard_health(s) != ShardHealth::Healthy);
    assert!(!leaked, "the fault leaked to another shard");
    let (t, v1, j1) = (fault_counts(&c), c.graph_version(), journal_len());
    let last_txn = c
        .txn_journal()
        .last()
        .map_or("-".to_string(), |e| format!("{}({})", e.outcome, e.detail));
    let state = format!(
        "{:?} pend{} v+{} j{j1} | f{} r{} q{} | txn:{last_txn}",
        c.shard_health(FAULTED),
        c.pending_ops(FAULTED),
        v1 - v0,
        t[0] - t0[0],
        t[1] - t0[1],
        t[2] - t0[2],
    );
    let drained = c.heal_shard(FAULTED);
    format!(
        "{result} | {state} | heal d{drained} v+{} j+{}",
        c.graph_version() - v1,
        journal_len() - j1
    )
}

/// (label, scripted fault, whether a read discovered it before the write)
const FAULTS: [(&str, Option<FaultKind>, bool); 8] = [
    ("none", None, false),
    ("failed", Some(FaultKind::Failed), false),
    ("failed+seen", Some(FaultKind::Failed), true),
    ("transient(2)", Some(FaultKind::Transient(2)), false),
    ("transient(100)", Some(FaultKind::Transient(100)), false),
    ("slow", Some(FaultKind::Slow(MS)), false),
    ("panic-next-batch", Some(FaultKind::PanicNextBatch), false),
    ("abort-next-txn", Some(FaultKind::AbortNextTxn), false),
];

/// `fault entry cell`, one line per cell, faults outermost.
const TABLE: &str = r#"none             insert          () | Healthy pend0 v+1 j1 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
none             delete          true | Healthy pend0 v+1 j1 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
none             patch           true | Healthy pend0 v+1 j1 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
none             updates         Ok(BatchReport { applied_ops: 2, queued_ops: 0 }) | Healthy pend0 v+1 j2 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
none             replica_updates Ok(BatchReport { applied_ops: 2, queued_ops: 0 }) | Healthy pend0 v+0 j0 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
none             txn             Ok(TxnReceipt { txn_id: 7, ops_applied: 2, graph_version: 2, deduped: false }) | Healthy pend0 v+1 j2 | f0 r0 q0 | txn:committed() | heal d0 v+0 j+0
none             replica_txn     Ok(TxnReceipt { txn_id: 7, ops_applied: 2, graph_version: 1, deduped: false }) | Healthy pend0 v+0 j0 | f0 r0 q0 | txn:committed() | heal d0 v+0 j+0
failed           insert          () | Failed pend1 v+0 j0 | f1 r0 q1 | txn:- | heal d1 v+1 j+1
failed           delete          false | Failed pend1 v+0 j0 | f1 r0 q1 | txn:- | heal d1 v+1 j+1
failed           patch           false | Failed pend1 v+0 j0 | f1 r0 q1 | txn:- | heal d1 v+1 j+1
failed           updates         Ok(BatchReport { applied_ops: 1, queued_ops: 1 }) | Failed pend1 v+1 j1 | f1 r0 q1 | txn:- | heal d1 v+1 j+1
failed           replica_updates Ok(BatchReport { applied_ops: 1, queued_ops: 1 }) | Failed pend1 v+0 j0 | f1 r0 q1 | txn:- | heal d1 v+0 j+0
failed           txn             Err(Store(ShardUnavailable { shard: 1 })) | Healthy pend0 v+0 j0 | f1 r0 q0 | txn:unavailable(shard 1: unavailable) | heal d0 v+0 j+0
failed           replica_txn     Err(Store(ShardUnavailable { shard: 1 })) | Healthy pend0 v+0 j0 | f1 r0 q0 | txn:unavailable(shard 1: unavailable) | heal d0 v+0 j+0
failed+seen      insert          () | Failed pend1 v+0 j0 | f1 r0 q1 | txn:- | heal d1 v+1 j+1
failed+seen      delete          false | Failed pend1 v+0 j0 | f1 r0 q1 | txn:- | heal d1 v+1 j+1
failed+seen      patch           false | Failed pend1 v+0 j0 | f1 r0 q1 | txn:- | heal d1 v+1 j+1
failed+seen      updates         Ok(BatchReport { applied_ops: 1, queued_ops: 1 }) | Failed pend1 v+1 j1 | f1 r0 q1 | txn:- | heal d1 v+1 j+1
failed+seen      replica_updates Ok(BatchReport { applied_ops: 1, queued_ops: 1 }) | Failed pend1 v+0 j0 | f1 r0 q1 | txn:- | heal d1 v+0 j+0
failed+seen      txn             Err(Store(ShardUnavailable { shard: 1 })) | Failed pend0 v+0 j0 | f1 r0 q0 | txn:unavailable(shard 1: failed) | heal d0 v+0 j+0
failed+seen      replica_txn     Err(Store(ShardUnavailable { shard: 1 })) | Failed pend0 v+0 j0 | f1 r0 q0 | txn:unavailable(shard 1: failed) | heal d0 v+0 j+0
transient(2)     insert          () | Healthy pend0 v+1 j1 | f0 r2 q0 | txn:- | heal d0 v+0 j+0
transient(2)     delete          true | Healthy pend0 v+1 j1 | f0 r2 q0 | txn:- | heal d0 v+0 j+0
transient(2)     patch           true | Healthy pend0 v+1 j1 | f0 r2 q0 | txn:- | heal d0 v+0 j+0
transient(2)     updates         Ok(BatchReport { applied_ops: 2, queued_ops: 0 }) | Degraded pend0 v+1 j2 | f0 r2 q0 | txn:- | heal d0 v+0 j+0
transient(2)     replica_updates Ok(BatchReport { applied_ops: 2, queued_ops: 0 }) | Degraded pend0 v+0 j0 | f0 r2 q0 | txn:- | heal d0 v+0 j+0
transient(2)     txn             Ok(TxnReceipt { txn_id: 7, ops_applied: 2, graph_version: 2, deduped: false }) | Healthy pend0 v+1 j2 | f0 r2 q0 | txn:committed() | heal d0 v+0 j+0
transient(2)     replica_txn     Ok(TxnReceipt { txn_id: 7, ops_applied: 2, graph_version: 1, deduped: false }) | Healthy pend0 v+0 j0 | f0 r2 q0 | txn:committed() | heal d0 v+0 j+0
transient(100)   insert          () | Failed pend1 v+0 j0 | f1 r4 q1 | txn:- | heal d1 v+1 j+1
transient(100)   delete          false | Failed pend1 v+0 j0 | f1 r4 q1 | txn:- | heal d1 v+1 j+1
transient(100)   patch           false | Failed pend1 v+0 j0 | f1 r4 q1 | txn:- | heal d1 v+1 j+1
transient(100)   updates         Ok(BatchReport { applied_ops: 1, queued_ops: 1 }) | Failed pend1 v+1 j1 | f1 r4 q1 | txn:- | heal d1 v+1 j+1
transient(100)   replica_updates Ok(BatchReport { applied_ops: 1, queued_ops: 1 }) | Failed pend1 v+0 j0 | f1 r4 q1 | txn:- | heal d1 v+0 j+0
transient(100)   txn             Err(Store(ShardUnavailable { shard: 1 })) | Healthy pend0 v+0 j0 | f1 r4 q0 | txn:unavailable(shard 1: unavailable) | heal d0 v+0 j+0
transient(100)   replica_txn     Err(Store(ShardUnavailable { shard: 1 })) | Healthy pend0 v+0 j0 | f1 r4 q0 | txn:unavailable(shard 1: unavailable) | heal d0 v+0 j+0
slow             insert          () | Healthy pend0 v+1 j1 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
slow             delete          true | Healthy pend0 v+1 j1 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
slow             patch           true | Healthy pend0 v+1 j1 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
slow             updates         Ok(BatchReport { applied_ops: 2, queued_ops: 0 }) | Healthy pend0 v+1 j2 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
slow             replica_updates Ok(BatchReport { applied_ops: 2, queued_ops: 0 }) | Healthy pend0 v+0 j0 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
slow             txn             Ok(TxnReceipt { txn_id: 7, ops_applied: 2, graph_version: 2, deduped: false }) | Healthy pend0 v+1 j2 | f0 r0 q0 | txn:committed() | heal d0 v+0 j+0
slow             replica_txn     Ok(TxnReceipt { txn_id: 7, ops_applied: 2, graph_version: 1, deduped: false }) | Healthy pend0 v+0 j0 | f0 r0 q0 | txn:committed() | heal d0 v+0 j+0
panic-next-batch insert          () | Healthy pend0 v+1 j1 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
panic-next-batch delete          true | Healthy pend0 v+1 j1 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
panic-next-batch patch           true | Healthy pend0 v+1 j1 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
panic-next-batch updates         Err(ShardPanicked { shard: 1, detail: "injected fault: shard 1 batch worker crashed" }) | Failed pend0 v+1 j1 | f1 r0 q0 | txn:- | heal d0 v+0 j+0
panic-next-batch replica_updates Err(ShardPanicked { shard: 1, detail: "injected fault: shard 1 batch worker crashed" }) | Failed pend0 v+0 j0 | f1 r0 q0 | txn:- | heal d0 v+0 j+0
panic-next-batch txn             Err(Store(ShardPanicked { shard: 1, detail: "injected fault: shard 1 txn worker crashed" })) | Failed pend0 v+1 j1 | f1 r0 q0 | txn:panicked(worker for shard 1 panicked: injected fault: shard 1 txn worker crashed) | heal d0 v+0 j+0
panic-next-batch replica_txn     Err(Store(ShardPanicked { shard: 1, detail: "injected fault: shard 1 txn worker crashed" })) | Failed pend0 v+0 j0 | f1 r0 q0 | txn:panicked(worker for shard 1 panicked: injected fault: shard 1 txn worker crashed) | heal d0 v+0 j+0
abort-next-txn   insert          () | Healthy pend0 v+1 j1 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
abort-next-txn   delete          true | Healthy pend0 v+1 j1 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
abort-next-txn   patch           true | Healthy pend0 v+1 j1 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
abort-next-txn   updates         Ok(BatchReport { applied_ops: 2, queued_ops: 0 }) | Healthy pend0 v+1 j2 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
abort-next-txn   replica_updates Ok(BatchReport { applied_ops: 2, queued_ops: 0 }) | Healthy pend0 v+0 j0 | f0 r0 q0 | txn:- | heal d0 v+0 j+0
abort-next-txn   txn             Err(Store(ShardUnavailable { shard: 1 })) | Healthy pend0 v+0 j0 | f1 r0 q0 | txn:unavailable(shard 1: scripted txn abort) | heal d0 v+0 j+0
abort-next-txn   replica_txn     Err(Store(ShardUnavailable { shard: 1 })) | Healthy pend0 v+0 j0 | f1 r0 q0 | txn:unavailable(shard 1: scripted txn abort) | heal d0 v+0 j+0
"#;

#[test]
fn every_fault_through_every_write_entry_point() {
    let mut observed = String::new();
    for (label, fault, discovered) in FAULTS {
        for entry in ENTRIES.split(' ') {
            let cell = cell(fault, discovered, entry);
            observed.push_str(&format!("{label:<17}{entry:<16}{cell}\n"));
        }
    }
    assert!(
        observed == TABLE,
        "admission table drifted; observed:\n{observed}"
    );
}
