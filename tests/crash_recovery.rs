//! Acceptance tests for the durability and fault-tolerance tentpole:
//! kill-restart recovery through snapshot + WAL, torn-tail truncation at
//! arbitrary byte offsets, and cluster-level shard fault injection with
//! graceful degradation (DESIGN.md "Durability & failure model").

use platod2gl::{
    Cluster, ClusterConfig, DatasetProfile, DurableGraphStore, DynamicGraphStore, Edge, EdgeType,
    GraphService, GraphStore, NeighborSampler, ShardHealth, StoreConfig, UpdateOp, VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty scratch directory unique to this process + call site.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("platod2gl-crash-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The two stores must agree edge-for-edge: identical (src, etype, dst)
/// sets, weights equal to within Fenwick reconstruction noise. Leaf weights
/// are stored as prefix sums (FSTable), so reading an individual weight
/// back subtracts accumulated sums and its last few ULPs depend on the
/// order ops were applied in — exact `f64` equality across the batch-apply
/// and replay paths is not a property even of a store that never crashed.
fn assert_same_graph(recovered: &DynamicGraphStore, reference: &DynamicGraphStore) {
    assert_eq!(recovered.num_edges(), reference.num_edges());
    let mut a = recovered.export_adjacency();
    let mut b = reference.export_adjacency();
    for entry in a.iter_mut().chain(b.iter_mut()) {
        entry.1.sort_by_key(|x| x.0);
    }
    a.sort_by_key(|e| e.0);
    b.sort_by_key(|e| e.0);
    assert_eq!(a.len(), b.len(), "source/relation sets differ");
    for (ea, eb) in a.iter().zip(&b) {
        assert_eq!(ea.0, eb.0, "tree key sets differ");
        assert_eq!(ea.1.len(), eb.1.len(), "degree differs at {:?}", ea.0);
        for (&(da, wa, ta), &(db, wb, tb)) in ea.1.iter().zip(&eb.1) {
            assert_eq!(da, db, "neighbor sets differ at {:?}", ea.0);
            assert!(
                (wa - wb).abs() <= 1e-9 * (1.0 + wa.abs()),
                "weight differs at {:?}->{da}: {wa} vs {wb}",
                ea.0
            );
            assert_eq!(ta, tb, "edge timestamp differs at {:?}->{da}", ea.0);
        }
    }
}

/// Kill-restart: batched updates go through a WAL-enabled store, the
/// process "dies" (drop without a final checkpoint), and recovery replays
/// snapshot + WAL to the exact state of a store that never crashed.
#[test]
fn kill_restart_recovers_every_durable_update() {
    let dir = scratch_dir("kill-restart");
    let profile = DatasetProfile::tiny();
    let ops = profile.update_stream(11).next_batch(4_000);

    {
        let (durable, report) =
            DurableGraphStore::open(&dir, StoreConfig::default()).expect("open fresh");
        assert!(!report.restored_snapshot);
        assert_eq!(report.wal_records, 0);
        let (first_half, second_half) = ops.split_at(ops.len() / 2);
        for chunk in first_half.chunks(256) {
            durable.try_apply_batch(chunk, 2).expect("apply");
        }
        // A checkpoint mid-stream: recovery must stack WAL on snapshot.
        durable.checkpoint().expect("checkpoint");
        for chunk in second_half.chunks(256) {
            durable.try_apply_batch(chunk, 2).expect("apply");
        }
        assert!(durable.wal_records() > 0, "post-checkpoint ops hit the WAL");
        // Crash: dropped with a non-empty WAL and a stale snapshot.
    }

    let (recovered, report) =
        DurableGraphStore::open(&dir, StoreConfig::default()).expect("recover");
    assert!(report.restored_snapshot, "snapshot restored");
    assert!(report.wal_records > 0, "WAL replayed on top");
    assert_eq!(report.torn_tail, None, "clean shutdown leaves no torn tail");

    let reference = DynamicGraphStore::new(StoreConfig::default());
    for chunk in ops.chunks(256) {
        reference.apply_batch_parallel(chunk, 2);
    }
    assert_same_graph(recovered.store(), &reference);
    recovered.store().check_invariants().expect("invariants");

    // The recovered store keeps working: further updates + checkpoint.
    recovered
        .try_apply_batch(
            &[UpdateOp::Insert(Edge::new(VertexId(1), VertexId(2), 9.0))],
            1,
        )
        .expect("post-recovery apply");
    recovered.checkpoint().expect("post-recovery checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Build a WAL of single-op records, remembering the byte offset at which
/// each record ends. Returns (dir, ops, end offsets aligned with ops).
fn build_walled_store(tag: &str, n_ops: usize, seed: u64) -> (PathBuf, Vec<UpdateOp>, Vec<u64>) {
    let dir = scratch_dir(tag);
    let profile = DatasetProfile::tiny();
    let ops = profile.update_stream(seed).next_batch(n_ops);
    let (durable, _) = DurableGraphStore::open(&dir, StoreConfig::default()).expect("open");
    let mut ends = Vec::with_capacity(ops.len());
    for op in &ops {
        durable
            .try_apply_batch(std::slice::from_ref(op), 1)
            .expect("apply");
        ends.push(durable.wal_bytes());
    }
    drop(durable);
    (dir, ops, ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cut the WAL at an arbitrary byte: recovery must yield exactly the
    /// ops whose records fit in the durable prefix, flag the torn tail iff
    /// the cut is mid-record, and leave a structurally valid store.
    #[test]
    fn wal_cut_at_any_byte_recovers_exactly_the_durable_prefix(
        n_ops in 1usize..120,
        cut_frac in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let (dir, ops, ends) = build_walled_store("proptest-cut", n_ops, seed);
        let wal_path = dir.join("wal.log");
        let total = *ends.last().expect("at least one record");
        // Cut anywhere from just after the magic to the full length.
        let cut = 8 + ((total - 8) as f64 * cut_frac) as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .expect("open wal")
            .set_len(cut)
            .expect("truncate");

        let (recovered, report) =
            DurableGraphStore::open(&dir, StoreConfig::default()).expect("recover");
        let durable_ops = ends.iter().take_while(|&&e| e <= cut).count();
        prop_assert_eq!(report.wal_records, durable_ops as u64);
        let cut_mid_record = ends.iter().all(|&e| e != cut);
        prop_assert_eq!(report.torn_tail.is_some(), cut_mid_record);

        let reference = DynamicGraphStore::new(StoreConfig::default());
        for op in &ops[..durable_ops] {
            reference.apply(op);
        }
        assert_same_graph(recovered.store(), &reference);
        recovered.store().check_invariants().expect("invariants");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Checkpoints racing concurrent writers must never lose an acknowledged
/// op: the WAL lock is held across append + in-memory apply, and
/// `checkpoint()` takes the same lock, so a snapshot can never be cut
/// between an op's append (acked) and its apply (visible to the snapshot).
#[test]
fn checkpoint_concurrent_with_writers_loses_nothing() {
    let dir = scratch_dir("ckpt-race");
    let n_threads = 4usize;
    let per_thread = 250usize;
    {
        let (durable, _) = DurableGraphStore::open(&dir, StoreConfig::default()).expect("open");
        let durable = &durable;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                s.spawn(move || {
                    for i in 0..per_thread {
                        let src = VertexId((t * per_thread + i) as u64);
                        durable
                            .try_apply_batch(
                                &[UpdateOp::Insert(Edge::new(src, VertexId(1_000_000), 1.0))],
                                1,
                            )
                            .expect("apply");
                        if i % 64 == 0 {
                            durable
                                .try_apply_batch(
                                    &[UpdateOp::Insert(Edge::new(src, VertexId(2_000_000), 0.5))],
                                    2,
                                )
                                .expect("batch apply");
                        }
                    }
                });
            }
            s.spawn(move || {
                for _ in 0..16 {
                    durable.checkpoint().expect("checkpoint");
                    std::thread::yield_now();
                }
            });
        });
        // Crash: drop without a final checkpoint or sync.
    }
    let (recovered, _) = DurableGraphStore::open(&dir, StoreConfig::default()).expect("recover");
    for t in 0..n_threads {
        for i in 0..per_thread {
            let src = VertexId((t * per_thread + i) as u64);
            assert!(
                recovered
                    .store()
                    .edge_weight(src, VertexId(1_000_000), EdgeType::DEFAULT)
                    .is_some(),
                "acked op for source {src:?} lost across checkpoint race"
            );
            if i % 64 == 0 {
                assert!(
                    recovered
                        .store()
                        .edge_weight(src, VertexId(2_000_000), EdgeType::DEFAULT)
                        .is_some(),
                    "acked batch op for source {src:?} lost across checkpoint race"
                );
            }
        }
    }
    recovered.store().check_invariants().expect("invariants");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One failed shard out of four must not take down the cluster: healthy
/// shards serve at full fidelity, the failed shard degrades explicitly,
/// queued updates drain on heal, and the `cluster.*` counters record all
/// of it.
#[test]
fn one_failed_shard_degrades_gracefully_end_to_end() {
    let cluster = Cluster::new(
        ClusterConfig::builder()
            .num_shards(4)
            .build()
            .expect("valid config"),
    );
    let sample = |v, k, seed| {
        NeighborSampler::new(EdgeType::DEFAULT, k).sample(
            &cluster,
            &[v],
            &mut StdRng::seed_from_u64(seed),
        )
    };
    let profile = DatasetProfile::tiny();
    for e in profile.edge_stream(3) {
        cluster.insert_edge(e);
    }
    let edges_before = cluster.num_edges();

    let dead_shard = 2;
    cluster.faults().fail_shard(dead_shard);

    // Sampling still serves: vertices on live shards answer normally,
    // vertices on the dead shard return explicit degraded (empty) samples
    // instead of panicking.
    let sources = profile.sample_sources(128, 5);
    let mut live_answers = 0usize;
    let mut dead_answers = 0usize;
    for &v in &sources {
        let batch = sample(v, 8, 42);
        if cluster.route(v) == dead_shard {
            assert!(batch[0].is_empty(), "dead shard must not fabricate samples");
            dead_answers += 1;
        } else if !batch[0].is_empty() {
            live_answers += 1;
        }
    }
    assert!(live_answers > 0, "healthy shards must keep serving");
    assert!(dead_answers > 0, "the profile must exercise the dead shard");
    assert_eq!(cluster.shard_health(dead_shard), ShardHealth::Failed);

    // Updates routed to the failed shard queue instead of applying.
    let dead_vertex = (0..)
        .map(VertexId)
        .find(|v| cluster.route(*v) == dead_shard)
        .expect("every shard owns vertices");
    let update = vec![UpdateOp::Insert(Edge::new(
        dead_vertex,
        VertexId(7_777_777),
        1.5,
    ))];
    cluster
        .apply_updates(&update)
        .expect("a failed shard queues, it does not error");
    assert_eq!(cluster.pending_ops(dead_shard), 1);
    assert_eq!(cluster.degree(dead_vertex, EdgeType::DEFAULT), 0);

    // Heal: the queue drains and the shard serves again.
    let drained = cluster.heal_shard(dead_shard);
    assert_eq!(drained, 1);
    assert_eq!(cluster.shard_health(dead_shard), ShardHealth::Healthy);
    assert_eq!(cluster.num_edges(), edges_before + 1);
    let samples = sample(dead_vertex, 4, 7);
    assert_eq!(samples[0].len(), 4, "healed shard samples at full fidelity");

    let snap = cluster.obs().snapshot();
    let count = |name: &str| snap.counter(name).expect("registered");
    assert!(
        count("cluster.failed_requests") > 0,
        "failed requests are counted"
    );
    assert!(
        count("cluster.degraded_responses") > 0,
        "degraded responses are counted"
    );
    assert_eq!(count("cluster.queued_ops"), 1, "queued updates are counted");
}
