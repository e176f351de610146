//! Crash-matrix sweep for the transactional durability plane: arm every
//! enumerable [`CrashPoint`], kill the store there mid-transaction (or
//! mid-checkpoint), reopen, and prove recovery lands on *exactly* the
//! pre-txn or post-txn graph — never in between — by topology checksum.
//!
//! Run with: `cargo run -p platod2gl --release --example txn_crash_sweep`

use platod2gl::{
    CrashPoint, DurableGraphStore, Edge, EdgeType, GraphTxn, StoreConfig, UpdateOp, VertexId,
};
use std::path::{Path, PathBuf};

const ET: EdgeType = EdgeType::DEFAULT;

/// Order-independent checksum of the full adjacency structure: src, etype,
/// dst, exact weight bits, and edge timestamps all participate. Two stores
/// checksum equal iff they hold the same topology.
fn topology_checksum(store: &DurableGraphStore) -> u64 {
    let mut entries = store.store().export_adjacency();
    for (_, pairs) in entries.iter_mut() {
        pairs.sort_by_key(|&(dst, _, _)| dst);
    }
    entries.sort_by_key(|&((src, etype), _)| (src, etype));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for ((src, etype), pairs) in &entries {
        mix(*src);
        mix(u64::from(*etype));
        for &(dst, w, ts) in pairs {
            mix(dst);
            mix(w.to_bits());
            mix(ts);
        }
    }
    h
}

fn edge(src: u64, dst: u64, w: f64) -> Edge {
    Edge::new(VertexId(src), VertexId(dst), w)
}

/// A fresh store seeded with the base graph and checkpointed, so every
/// sweep iteration starts from an identical durable state.
fn base_store(dir: &Path) -> DurableGraphStore {
    let _ = std::fs::remove_dir_all(dir);
    let (store, _) = DurableGraphStore::open(dir, StoreConfig::default()).expect("open");
    let base: Vec<UpdateOp> = (0..40u64)
        .map(|v| UpdateOp::Insert(edge(v, v + 100, 1.0 + v as f64)))
        .collect();
    store.try_apply_batch(&base, 2).expect("seed");
    store.checkpoint().expect("checkpoint");
    store
}

/// The transaction under test: inserts, a weight patch, and a delete, so
/// recovery divergence on any op kind would shift the checksum.
fn sweep_txn() -> GraphTxn {
    GraphTxn::new(900)
        .insert_edge(edge(500, 600, 2.5))
        .insert_edge(edge(501, 601, 3.5))
        .patch_weight(edge(3, 103, 42.0))
        .delete_edge(VertexId(7), VertexId(107), ET)
}

fn main() {
    let root = std::env::temp_dir().join(format!("platod2gl-txn-sweep-{}", std::process::id()));

    // Reference checksums: the base graph, and the base graph after a
    // clean (uninjected) commit of the sweep transaction.
    let dir = root.join("reference");
    let store = base_store(&dir);
    let pre = topology_checksum(&store);
    store.try_apply_txn(&sweep_txn(), 2).expect("clean commit");
    let post = topology_checksum(&store);
    assert_ne!(pre, post, "the sweep txn must move the checksum");
    drop(store);

    let mut verified = 0usize;

    // --- transaction-path crash points -----------------------------------
    for point in CrashPoint::TXN {
        let dir: PathBuf = root.join(point.name());
        let store = base_store(&dir);
        store.crash_injector().arm(point);
        let err = store
            .try_apply_txn(&sweep_txn(), 2)
            .expect_err("armed point must fire");
        assert!(err.to_string().contains(point.name()), "{err}");
        // Any failed append leaves the tail unknown: the store must
        // fail-stop instead of appending after it.
        assert!(store.is_wal_poisoned(), "{point}: writes fail-stop");
        drop(store); // the "kill"

        let (recovered, _) = DurableGraphStore::open(&dir, StoreConfig::default()).expect("reopen");
        let got = topology_checksum(&recovered);
        let (want, label) = if point.txn_is_committed() {
            (post, "post-txn")
        } else {
            (pre, "pre-txn")
        };
        assert_eq!(
            got, want,
            "{point}: recovery must yield exactly the {label} graph"
        );
        assert_ne!(
            got,
            if point.txn_is_committed() { pre } else { post },
            "{point}: never the other side"
        );
        println!("crash at {point}: recovered {label} graph");
        verified += 1;
    }

    // --- checkpoint-path crash points -------------------------------------
    // A checkpoint crash must never lose data: whatever phase it died in,
    // the snapshot+WAL pair on disk still reconstructs the full graph.
    for point in [
        CrashPoint::CheckpointAfterSnapshotWrite,
        CrashPoint::CheckpointAfterRename,
        CrashPoint::CheckpointAfterDirSync,
        CrashPoint::CheckpointAfterWalReset,
    ] {
        let dir = root.join(point.name());
        let store = base_store(&dir);
        // Leave both a committed txn and a single-op record in the WAL so the
        // dying checkpoint has real state to preserve.
        store.try_apply_txn(&sweep_txn(), 2).expect("commit");
        store
            .try_apply_batch(&[UpdateOp::Insert(edge(800, 801, 5.0))], 1)
            .expect("append");
        let want = topology_checksum(&store);
        store.crash_injector().arm(point);
        store.checkpoint().expect_err("armed point must fire");
        drop(store);
        let (recovered, _) = DurableGraphStore::open(&dir, StoreConfig::default()).expect("reopen");
        assert_eq!(
            topology_checksum(&recovered),
            want,
            "{point}: checkpoint crash must lose nothing"
        );
        println!("crash at {point}: checkpoint crash lost nothing");
        verified += 1;
    }

    assert_eq!(verified, CrashPoint::ALL.len());
    println!(
        "crash matrix: {verified}/{} crash points verified",
        CrashPoint::ALL.len()
    );

    let _ = std::fs::remove_dir_all(&root);
}
