//! Replays of captured traffic against one level at a time.
//!
//! Layers below the service boundary cannot be wrapped from outside, so the
//! request stream a traced pass captured is run again against
//! `Cluster::sample_one`, against the owning shard's `DynamicGraphStore`,
//! against standalone `SamTree`s rebuilt from the same adjacency, and against
//! `FsTable`/`CsTable`s of the same sizes. The ledger subtracts level from
//! level. Writes are replayed the same way on the graph the untraced pass
//! left behind, continuing that pass's deterministic schedule.

use crate::graph::{ETYPE, WRITE_BATCH};
use crate::trace::SeedReplay;
use crate::txngen::{EdgeLedger, WriteGen};
use platod2gl::{
    validate_and_lower, Cluster, CsTable, FsTable, GraphService, OpStats, SamTree, SampleRequest,
    TimeWindow, UpdateOp, VertexId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Requests replayed per level.
const READ_REPLAY_MAX: usize = 30_000;
/// Write rounds replayed at the storage level, and how many of them are
/// also replayed on standalone samtrees.
const WRITE_REPLAY_ROUNDS: usize = 12;
const WRITE_TREE_ROUNDS: usize = 3;

/// Inclusive replay times for `requests` captured read requests.
pub struct ReadLevels {
    pub requests: usize,
    /// Through `GraphService::sample_one` on the cluster.
    pub server_s: f64,
    /// Through the shard store, windows as captured.
    pub storage_s: f64,
    /// Same, with every window stripped.
    pub storage_unwindowed_s: f64,
    /// Same, with a window on every request.
    pub storage_windowed_s: f64,
    /// Rejection draws kept / attempted in the all-windowed replay.
    pub window_accept_share: f64,
    pub window_fallbacks_per_req: f64,
    /// Tree draws the as-captured storage replay made (kept + rejected).
    pub draws_attempted: u64,
    /// `SamTree::sample_k` per draw on trees rebuilt for the request vertices.
    pub samtree_ns_per_draw: f64,
    /// Leaf FTS and internal ITS per draw on tables of those trees' sizes.
    pub fts_ns_per_draw: f64,
    pub its_ns_per_draw: f64,
    /// The rebuilt trees, for the samtree write probes.
    pub trees: Vec<SamTree>,
}

impl ReadLevels {
    pub fn samtree_s(&self) -> f64 {
        self.samtree_ns_per_draw * self.draws_attempted as f64 / 1e9
    }

    pub fn fts_s(&self) -> f64 {
        self.fts_ns_per_draw * self.draws_attempted as f64 / 1e9
    }

    pub fn its_s(&self) -> f64 {
        self.its_ns_per_draw * self.draws_attempted as f64 / 1e9
    }
}

/// Counters the windowed path keeps in the store's registry.
struct WindowCounters {
    draws: u64,
    retries: u64,
    fallbacks: u64,
}

fn window_counters(cluster: &Cluster) -> WindowCounters {
    let r = cluster.obs();
    WindowCounters {
        draws: r.counter("samtree.sample_draws").get(),
        retries: r.counter("temporal.window_retries").get(),
        fallbacks: r.counter("temporal.window_fallbacks").get(),
    }
}

fn storage_replay(cluster: &Cluster, reads: &[(SampleRequest, u64)]) -> (f64, WindowCounters) {
    let before = window_counters(cluster);
    let t = Instant::now();
    for (req, seed) in reads {
        let store = cluster.server(cluster.route(req.vertex)).topology();
        black_box(store.sample_neighbors_windowed(
            req.vertex,
            req.etype,
            req.fanout,
            req.window,
            &mut StdRng::seed_from_u64(*seed),
        ));
    }
    let elapsed = t.elapsed().as_secs_f64();
    let after = window_counters(cluster);
    (
        elapsed,
        WindowCounters {
            draws: after.draws - before.draws,
            retries: after.retries - before.retries,
            fallbacks: after.fallbacks - before.fallbacks,
        },
    )
}

/// Leaf and internal table sizes of a samtree holding `degree` neighbors at
/// the default capacity (bulk-loaded leaves are three-quarters full).
fn table_sizes(degree: usize, capacity: usize) -> (usize, usize) {
    if degree <= capacity {
        return (degree.max(1), 0);
    }
    let leaves = degree.div_ceil(capacity * 3 / 4);
    (degree / leaves, leaves)
}

/// Replay `reads` (at most [`READ_REPLAY_MAX`]) against every level.
/// `horizon` is the graph's largest event time (0 on a timeless graph).
pub fn replay_reads(
    cluster: &Cluster,
    reads: &[(SampleRequest, u64)],
    horizon: u64,
    seed: u64,
) -> ReadLevels {
    let reads = &reads[..reads.len().min(READ_REPLAY_MAX)];
    assert!(!reads.is_empty(), "a traced pass captures read requests");

    let t = Instant::now();
    for (req, seed) in reads {
        black_box(GraphService::sample_one(
            cluster,
            req,
            &mut SeedReplay::new(std::slice::from_ref(seed)),
        ));
    }
    let server_s = t.elapsed().as_secs_f64();

    let (storage_s, captured) = storage_replay(cluster, reads);

    let unwindowed: Vec<(SampleRequest, u64)> = reads
        .iter()
        .map(|(r, s)| (SampleRequest { window: None, ..*r }, *s))
        .collect();
    let (storage_unwindowed_s, _) = storage_replay(cluster, &unwindowed);

    // On a timeless graph every edge passes any window; `until(1)` still
    // takes the windowed path, which is the fixed cost being priced.
    let mut window_rng = StdRng::seed_from_u64(seed);
    let windowed: Vec<(SampleRequest, u64)> = reads
        .iter()
        .map(|(r, s)| {
            let window = r.window.unwrap_or_else(|| {
                TimeWindow::until(window_rng.random_range(horizon / 2..=horizon).max(1))
            });
            (r.in_window(window), *s)
        })
        .collect();
    let (storage_windowed_s, forced) = storage_replay(cluster, &windowed);
    // Kept rejection draws = returned slots minus those the fallback filled;
    // every rejected draw is a retry.
    let kept = forced.draws.saturating_sub(forced.fallbacks);
    let window_accept_share = if kept + forced.retries == 0 {
        1.0
    } else {
        kept as f64 / (kept + forced.retries) as f64
    };

    // Standalone trees for the distinct request vertices.
    let cfg = cluster.server(0).topology().tree_config();
    let mut tree_of: HashMap<VertexId, usize> = HashMap::new();
    let mut trees: Vec<SamTree> = Vec::new();
    let mut tables: Vec<(FsTable, Option<CsTable>)> = Vec::new();
    let mut weight_rng = StdRng::seed_from_u64(seed ^ 0x7461_626c);
    let mut resolved: Vec<Option<usize>> = Vec::with_capacity(reads.len());
    for (req, _) in reads {
        if let Some(&i) = tree_of.get(&req.vertex) {
            resolved.push(Some(i));
            continue;
        }
        let store = cluster.server(cluster.route(req.vertex)).topology();
        let Some(adjacency) = store.adjacency_of(req.vertex, req.etype) else {
            resolved.push(None);
            continue;
        };
        let pairs: Vec<(u64, f64)> = adjacency.iter().map(|&(dst, w, _)| (dst, w)).collect();
        let (leaf_n, internal_n) = table_sizes(pairs.len(), cfg.capacity);
        let mut weights =
            |n: usize| -> Vec<f64> { (0..n).map(|_| weight_rng.random_range(0.05..1.0)).collect() };
        tables.push((
            FsTable::from_weights(&weights(leaf_n)),
            (internal_n > 0).then(|| CsTable::from_weights(&weights(internal_n))),
        ));
        trees.push(SamTree::bulk_load(&cfg, &pairs));
        tree_of.insert(req.vertex, trees.len() - 1);
        resolved.push(Some(trees.len() - 1));
    }

    let mut draws = 0u64;
    let t = Instant::now();
    for ((req, seed), tree) in reads.iter().zip(&resolved) {
        if let Some(i) = tree {
            let picks = trees[*i].sample_k(req.fanout, &mut StdRng::seed_from_u64(*seed));
            draws += picks.len() as u64;
            black_box(picks);
        }
    }
    let samtree_ns = t.elapsed().as_nanos() as f64;

    let t = Instant::now();
    for ((req, seed), tree) in reads.iter().zip(&resolved) {
        if let Some(i) = tree {
            let mut rng = StdRng::seed_from_u64(*seed);
            let fs = &tables[*i].0;
            for _ in 0..req.fanout {
                black_box(fs.sample_unit(rng.random::<f64>()));
            }
        }
    }
    let fts_ns = t.elapsed().as_nanos() as f64;

    let t = Instant::now();
    for ((req, seed), tree) in reads.iter().zip(&resolved) {
        if let Some(cs) = tree.and_then(|i| tables[i].1.as_ref()) {
            let mut rng = StdRng::seed_from_u64(*seed);
            let total = cs.prefix_sum(cs.len() - 1);
            for _ in 0..req.fanout {
                black_box(cs.its_search(rng.random_range(0.0..total)));
            }
        }
    }
    let its_ns = t.elapsed().as_nanos() as f64;
    let per_draw = |ns: f64| if draws == 0 { 0.0 } else { ns / draws as f64 };

    ReadLevels {
        requests: reads.len(),
        server_s,
        storage_s,
        storage_unwindowed_s,
        storage_windowed_s,
        window_accept_share,
        window_fallbacks_per_req: forced.fallbacks as f64 / reads.len() as f64,
        draws_attempted: captured.draws.saturating_sub(captured.fallbacks) + captured.retries,
        samtree_ns_per_draw: per_draw(samtree_ns),
        fts_ns_per_draw: per_draw(fts_ns),
        its_ns_per_draw: per_draw(its_ns),
        trees,
    }
}

/// Per-op costs of the write path, level by level.
#[derive(Default)]
pub struct WriteLevels {
    /// `validate_and_lower` against the live cluster, per txn op.
    pub validate_ns_per_op: f64,
    /// Shard-store apply per op as wall time: the shards of one batch run
    /// side by side in the cluster, so a batch costs its slowest shard.
    pub storage_wall_ns_per_op: f64,
    /// Shard-store apply per op summed over shards.
    pub storage_cpu_ns_per_op: f64,
    /// Share of the shard-store apply spent inside samtree operations.
    pub samtree_share_of_storage: f64,
    /// Leaf (FSTable) modifications per op, exact.
    pub leaf_ops_per_op: f64,
}

/// Apply `ops` straight to the shard stores, one thread per shard as the
/// cluster does (so the shards contend for the cores the way they do in
/// situ); returns the slowest shard's and the summed time in nanoseconds.
pub fn apply_to_shards(cluster: &Cluster, ops: &[UpdateOp]) -> (u64, u64) {
    let mut per_shard: Vec<Vec<UpdateOp>> = vec![Vec::new(); cluster.num_shards()];
    for op in ops {
        per_shard[cluster.route(op.src())].push(*op);
    }
    let times: Vec<u64> = std::thread::scope(|s| {
        let workers: Vec<_> = per_shard
            .iter()
            .enumerate()
            .filter(|(_, shard_ops)| !shard_ops.is_empty())
            .map(|(shard, shard_ops)| {
                s.spawn(move || {
                    let t = Instant::now();
                    cluster
                        .server(shard)
                        .topology()
                        .apply_batch_parallel(shard_ops, 1);
                    t.elapsed().as_nanos() as u64
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("shard apply does not panic"))
            .collect()
    });
    (times.iter().copied().max().unwrap_or(0), times.iter().sum())
}

/// Run `ops` against standalone copies of the trees they touch, the way the
/// store groups them; returns nanoseconds inside tree operations and the
/// leaf modifications made.
fn apply_to_tree_copies(cluster: &Cluster, ops: &[UpdateOp]) -> (u64, u64) {
    let cfg = cluster.server(0).topology().tree_config();
    let mut sorted: Vec<&UpdateOp> = ops.iter().collect();
    sorted.sort_by_key(|op| (op.src().raw(), op.dst().raw()));
    let mut ns = 0u64;
    let mut stats = OpStats::default();
    for group in sorted.chunk_by(|a, b| a.src() == b.src()) {
        let src = group[0].src();
        let store = cluster.server(cluster.route(src)).topology();
        let pairs: Vec<(u64, f64)> = store
            .adjacency_of(src, ETYPE)
            .unwrap_or_default()
            .iter()
            .map(|&(dst, w, _)| (dst, w))
            .collect();
        let mut tree = SamTree::bulk_load(&cfg, &pairs);
        let mut run: Vec<(u64, f64)> = Vec::new();
        let t = Instant::now();
        for op in group {
            match op {
                UpdateOp::Insert(e) => run.push((e.dst.raw(), e.weight)),
                UpdateOp::UpdateWeight(e) => {
                    tree.insert_batch(&cfg, &run, &mut stats);
                    run.clear();
                    tree.update_weight(&cfg, e.dst.raw(), e.weight, &mut stats);
                }
                UpdateOp::Delete { dst, .. } => {
                    tree.insert_batch(&cfg, &run, &mut stats);
                    run.clear();
                    tree.delete(&cfg, dst.raw(), &mut stats);
                }
            }
        }
        tree.insert_batch(&cfg, &run, &mut stats);
        ns += t.elapsed().as_nanos() as u64;
        black_box(tree);
    }
    (ns, stats.leaf_ops)
}

/// Continue the write schedule on `cluster` (the graph the untraced pass
/// left at the same point), timing each level. The first rounds are also
/// run on standalone tree copies, before the store sees them.
pub fn replay_writes(
    cluster: &Cluster,
    gen: &mut WriteGen,
    ledger: &mut EdgeLedger,
) -> WriteLevels {
    let (mut validate_ns, mut txn_ops) = (0u64, 0u64);
    let (mut wall_ns, mut cpu_ns, mut ops_applied) = (0u64, 0u64, 0u64);
    let (mut tree_ns, mut tree_cpu_ns, mut leaf_ops, mut tree_ops) = (0u64, 0u64, 0u64, 0u64);
    for round in 0..WRITE_REPLAY_ROUNDS {
        let batch = gen.update_batch(WRITE_BATCH);
        let on_trees = round < WRITE_TREE_ROUNDS;
        if on_trees {
            let (ns, leaves) = apply_to_tree_copies(cluster, &batch);
            tree_ns += ns;
            leaf_ops += leaves;
            tree_ops += batch.len() as u64;
        }
        let (slowest, sum) = apply_to_shards(cluster, &batch);
        wall_ns += slowest;
        cpu_ns += sum;
        ops_applied += batch.len() as u64;
        if on_trees {
            tree_cpu_ns += sum;
        }
        batch.iter().for_each(|op| ledger.apply_update(op));

        let txn = gen.valid_txn(WRITE_BATCH, ledger);
        let t = Instant::now();
        let lowered = validate_and_lower(&txn, cluster).expect("generated txns are valid");
        validate_ns += t.elapsed().as_nanos() as u64;
        txn_ops += txn.len() as u64;
        let (slowest, sum) = apply_to_shards(cluster, &lowered);
        wall_ns += slowest;
        cpu_ns += sum;
        ops_applied += lowered.len() as u64;
        ledger.apply_txn(&txn);
    }
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    WriteLevels {
        validate_ns_per_op: per(validate_ns, txn_ops),
        storage_wall_ns_per_op: per(wall_ns, ops_applied),
        storage_cpu_ns_per_op: per(cpu_ns, ops_applied),
        samtree_share_of_storage: if tree_cpu_ns == 0 {
            0.0
        } else {
            (tree_ns as f64 / tree_cpu_ns as f64).min(1.0)
        },
        leaf_ops_per_op: per(leaf_ops, tree_ops),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_sizes_follow_the_tree_shape() {
        assert_eq!(table_sizes(0, 256), (1, 0));
        assert_eq!(table_sizes(11, 256), (11, 0));
        assert_eq!(table_sizes(256, 256), (256, 0));
        // 25 000 neighbors: 131 three-quarter-full leaves under one root.
        assert_eq!(table_sizes(25_000, 256), (190, 131));
    }
}
