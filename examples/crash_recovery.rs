//! Crash-safe durability walkthrough: WAL + checksummed snapshots, a
//! simulated kill -9, recovery, and shard fault injection with graceful
//! degradation (DESIGN.md "Durability & failure model").
//!
//! Acts out the failure story a production deployment lives with:
//!
//! 1. a durable store absorbs batched updates (every batch WAL-logged),
//! 2. a checkpoint writes an atomically-renamed, CRC-checksummed snapshot,
//! 3. more updates land, then the process "crashes" before the next
//!    checkpoint,
//! 4. reopening replays snapshot + WAL and loses nothing durable,
//! 5. separately, one cluster shard fails: sampling degrades instead of
//!    panicking, updates queue, and healing drains the backlog.
//!
//! Run with: `cargo run -p platod2gl --release --example crash_recovery`

use platod2gl::{
    Cluster, ClusterConfig, DatasetProfile, DurableGraphStore, Edge, EdgeType, GraphService,
    GraphStore, SampleRequest, StoreConfig, UpdateOp, VertexId,
};

fn main() {
    let dir = std::env::temp_dir().join(format!("platod2gl-crash-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let profile = DatasetProfile::tiny();
    let ops: Vec<UpdateOp> = profile.update_stream(42).next_batch(6_000);

    // --- 1-3: write, checkpoint, write more, crash -----------------------
    let edges_at_crash;
    {
        let (durable, _) = DurableGraphStore::open(&dir, StoreConfig::default()).expect("open");
        let (before_cp, after_cp) = ops.split_at(ops.len() / 2);
        for chunk in before_cp.chunks(512) {
            durable.try_apply_batch(chunk, 2).expect("apply");
        }
        durable.checkpoint().expect("checkpoint");
        println!(
            "checkpointed {} edges; WAL reset to {} bytes",
            durable.num_edges(),
            durable.wal_bytes()
        );
        for chunk in after_cp.chunks(512) {
            durable.try_apply_batch(chunk, 2).expect("apply");
        }
        edges_at_crash = durable.num_edges();
        println!(
            "crashing with {} edges, {} WAL records ({} bytes) not yet checkpointed",
            edges_at_crash,
            durable.wal_records(),
            durable.wal_bytes()
        );
        // Dropped here without a checkpoint: the snapshot on disk is stale
        // and only the WAL knows about the second half of the stream.
    }

    // --- 4: recover ------------------------------------------------------
    let (recovered, report) =
        DurableGraphStore::open(&dir, StoreConfig::default()).expect("recover");
    println!(
        "recovered: snapshot={}, wal_records={}, wal_ops={}, torn_tail={:?}",
        report.restored_snapshot, report.wal_records, report.wal_ops, report.torn_tail
    );
    assert_eq!(
        recovered.num_edges(),
        edges_at_crash,
        "no durable edge lost"
    );
    recovered.store().check_invariants().expect("invariants");
    println!(
        "recovered store matches the pre-crash state: {} edges\n",
        recovered.num_edges()
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    // --- 5: shard failure with graceful degradation ----------------------
    let cluster = Cluster::new(
        ClusterConfig::builder()
            .num_shards(4)
            .build()
            .expect("valid config"),
    );
    for e in profile.edge_stream(7) {
        cluster.insert_edge(e);
    }
    let dead_shard = 1;
    cluster.faults().fail_shard(dead_shard);
    let dead_vertex = (0..)
        .map(VertexId)
        .find(|v| cluster.route(*v) == dead_shard)
        .expect("every shard owns vertices");

    let served = {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        cluster.sample(
            &SampleRequest::new(dead_vertex, EdgeType::DEFAULT, 8),
            &mut rng,
        )
    };
    println!(
        "shard {dead_shard} failed: sampling {dead_vertex:?} -> degraded={}, {} neighbors",
        served.degraded,
        served.neighbors.len()
    );

    cluster
        .apply_updates(&[UpdateOp::Insert(Edge::new(
            dead_vertex,
            VertexId(424_242),
            1.0,
        ))])
        .expect("a failed shard queues, it does not error");
    println!(
        "update to the failed shard queued ({} pending)",
        cluster.pending_ops(dead_shard)
    );

    let drained = cluster.heal_shard(dead_shard);
    println!(
        "healed shard {dead_shard}: drained {drained} queued op(s), health={:?}",
        cluster.shard_health(dead_shard)
    );
    let snap = cluster.obs().snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    println!(
        "traffic: {} requests, {} failed, {} retried, {} degraded, {} queued",
        count("cluster.requests"),
        count("cluster.failed_requests"),
        count("cluster.retried_requests"),
        count("cluster.degraded_responses"),
        count("cluster.queued_ops")
    );
}
