//! The samtree-based dynamic topology store (paper Sec. IV-B) and the
//! PALM-style batch-parallel updater (Sec. VI-B, Appendix B).

use crate::directory::{Directory, TreeKey};
use platod2gl_graph::{
    sanitize_weight, Edge, EdgeType, GraphStore, TimeWindow, UpdateOp, VertexId,
};
use platod2gl_mem::DeepSize;
use platod2gl_obs::{Counter, Gauge, Histogram, Registry};
use platod2gl_samtree::{OpStats, Row, SamTree, SamTreeConfig};
use rand::{Rng, RngCore};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One exported adjacency entry: `((src, etype), [(dst, weight, ts), ...])`.
/// `ts == 0` marks a timeless edge (static data, or restored from a pre-v3
/// snapshot).
pub type AdjacencyEntry = ((u64, u16), Vec<(u64, f64, u64)>);

/// Bounded rejection retries per windowed sample slot before falling back
/// to the filtered scan. Retries consume the caller's RNG deterministically,
/// so local and remote windowed sampling stay bit-identical.
const WINDOW_RETRIES: usize = 8;

/// Configuration of the whole store.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreConfig {
    /// Samtree tuning (capacity `c`, slackness `α`, CP-ID compression).
    pub tree: SamTreeConfig,
}

fn key(v: VertexId, etype: EdgeType) -> TreeKey {
    (v.raw(), etype.0)
}

/// The samtree row an edge is stored as.
fn row(e: &Edge) -> Row {
    (e.dst.raw(), sanitize_weight(e.weight), e.ts)
}

/// Outcome of one per-source recency-decay pass (see
/// [`DynamicGraphStore::decay_recency`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecayOutcome {
    /// Edges the pass covered (the source's full out-neighborhood; leaves
    /// holding only timeless edges are skipped without a per-edge look).
    pub scanned: usize,
    /// Edges whose weight actually shrank.
    pub decayed: usize,
    /// Edges clamped at the positive floor this pass.
    pub floored: usize,
}

/// One store's resident topology memory, split into samtree leaves (leaf
/// id lists + Fenwick tables), samtree index (internal nodes, separators,
/// cumulative-sum tables, child spines), and directory overhead (stripe
/// locks, index buckets and the tree slabs). The three parts sum to
/// `total_bytes`, which is exactly [`GraphStore::topology_bytes`]. The leaf
/// part splits again into payload (rows × bytes per row) and spare column
/// capacity, which sum to `leaf_bytes`. The leaves' timestamp columns are
/// not topology in the paper's Table-IV sense and are reported beside it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreMemory {
    /// Bytes holding actual neighbor ids and weights (leaf level):
    /// `leaf_payload_bytes + leaf_slack_bytes`.
    pub leaf_bytes: usize,
    /// The rows themselves: per row one CP-ID suffix (or raw id) and one
    /// Fenwick entry.
    pub leaf_payload_bytes: usize,
    /// Spare capacity of the leaf columns (bounded by the growth rule).
    pub leaf_slack_bytes: usize,
    /// Samtree internal-node bytes (index overhead above the leaves).
    pub internal_bytes: usize,
    /// Directory bytes: the stripe locks, the cuckoo index buckets (keys and
    /// slab indexes, empty slots included) and the tree slabs, each at its
    /// capacity.
    pub directory_bytes: usize,
    /// Total resident topology bytes.
    pub total_bytes: usize,
    /// Leaf timestamp-column bytes (0 on a timeless store), outside
    /// `total_bytes`.
    pub timestamp_bytes: usize,
}

/// PlatoD2GL's dynamic graph topology store: a striped cuckoo directory of
/// per-vertex samtrees held in dense slabs. Implements [`GraphStore`].
///
/// ```
/// use platod2gl_graph::{Edge, EdgeType, GraphStore, VertexId};
/// use platod2gl_storage::DynamicGraphStore;
///
/// let store = DynamicGraphStore::with_defaults();
/// store.insert_edge(Edge::new(VertexId(1), VertexId(2), 0.3));
/// store.insert_edge(Edge::new(VertexId(1), VertexId(3), 0.7));
/// assert_eq!(store.degree(VertexId(1), EdgeType::DEFAULT), 2);
///
/// // O(log n) in-place weight update, immediately visible to sampling.
/// store.update_weight(Edge::new(VertexId(1), VertexId(2), 5.0));
/// let mut rng = rand::rng();
/// let picks = store.sample_neighbors(VertexId(1), EdgeType::DEFAULT, 100, &mut rng);
/// assert!(picks.iter().filter(|v| v.raw() == 2).count() > 50);
/// ```
pub struct DynamicGraphStore {
    tree: SamTreeConfig,
    directory: Directory,
    num_edges: AtomicUsize,
    /// Recency-decay ticks that changed a weight (see
    /// [`DynamicGraphStore::record_decay_tick`]). Bumped with `Release`
    /// after the tick's weights are written and read with `Acquire`, so a
    /// reader that sees a tick counted sees its weights.
    decay_ticks: AtomicU64,
    registry: Arc<Registry>,
    metrics: StoreMetrics,
}

/// Pre-resolved registry handles for the store's hot paths: the samtree
/// operation counters (the paper's Table V), batch-apply timing, sampling
/// traffic, and the resident-edge gauge. Handles are resolved once at
/// construction so recording is pure atomic arithmetic.
#[derive(Debug)]
struct StoreMetrics {
    leaf_ops: Arc<Counter>,
    internal_ops: Arc<Counter>,
    leaf_splits: Arc<Counter>,
    internal_splits: Arc<Counter>,
    merges: Arc<Counter>,
    batches: Arc<Counter>,
    batch_ops: Arc<Counter>,
    apply_batch_ns: Arc<Histogram>,
    sample_requests: Arc<Counter>,
    sample_draws: Arc<Counter>,
    edges: Arc<Gauge>,
    window_retries: Arc<Counter>,
    window_fallbacks: Arc<Counter>,
}

impl StoreMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            leaf_ops: registry.counter("samtree.leaf_ops"),
            internal_ops: registry.counter("samtree.internal_ops"),
            leaf_splits: registry.counter("samtree.leaf_splits"),
            internal_splits: registry.counter("samtree.internal_splits"),
            merges: registry.counter("samtree.merges"),
            batches: registry.counter("storage.batches"),
            batch_ops: registry.counter("storage.batch_ops"),
            apply_batch_ns: registry.histogram("storage.apply_batch_ns"),
            sample_requests: registry.counter("samtree.sample_requests"),
            sample_draws: registry.counter("samtree.sample_draws"),
            edges: registry.gauge("storage.edges"),
            window_retries: registry.counter("temporal.window_retries"),
            window_fallbacks: registry.counter("temporal.window_fallbacks"),
        }
    }

    /// Fold one tree-local [`OpStats`] delta into the registry counters.
    fn add_ops(&self, s: &OpStats) {
        for (counter, n) in [
            (&self.leaf_ops, s.leaf_ops),
            (&self.internal_ops, s.internal_ops),
            (&self.leaf_splits, s.leaf_splits),
            (&self.internal_splits, s.internal_splits),
            (&self.merges, s.merges),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

impl DynamicGraphStore {
    /// Create an empty store with the given configuration and a private
    /// metrics registry.
    pub fn new(config: StoreConfig) -> Self {
        Self::with_registry(config, Arc::new(Registry::new()))
    }

    /// Create an empty store publishing its metrics (`samtree.*`,
    /// `storage.*`) into a shared registry — how the sharded cluster gives
    /// all of its shards one unified snapshot.
    pub fn with_registry(config: StoreConfig, registry: Arc<Registry>) -> Self {
        let metrics = StoreMetrics::new(&registry);
        Self {
            tree: config.tree.validated(),
            directory: Directory::new(&registry),
            num_edges: AtomicUsize::new(0),
            decay_ticks: AtomicU64::new(0),
            registry,
            metrics,
        }
    }

    /// Create with the paper's default parameters (capacity 256, α = 0,
    /// compression on).
    pub fn with_defaults() -> Self {
        Self::new(StoreConfig::default())
    }

    /// The metrics registry this store records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The samtree configuration in effect.
    pub fn tree_config(&self) -> SamTreeConfig {
        self.tree
    }

    /// Snapshot of the accumulated samtree operation counters (Table V),
    /// served from the metrics registry's `samtree.*` counters. On a shared
    /// registry — every shard of a `Cluster` records into one — this is the
    /// registry-wide total, not this store's own share: do not sum it
    /// across stores that share a registry.
    pub fn op_stats(&self) -> OpStats {
        OpStats {
            leaf_ops: self.metrics.leaf_ops.get(),
            internal_ops: self.metrics.internal_ops.get(),
            leaf_splits: self.metrics.leaf_splits.get(),
            internal_splits: self.metrics.internal_splits.get(),
            merges: self.metrics.merges.get(),
        }
    }

    /// Number of (vertex, relation) entries in the directory, i.e. source
    /// vertices with at least one historical out-edge.
    pub fn num_source_entries(&self) -> usize {
        self.directory.len()
    }

    /// Run `f` on the tree of `(v, etype)` under its stripe's read guard;
    /// `None` if the key is not resident.
    fn read_tree<R>(
        &self,
        v: VertexId,
        etype: EdgeType,
        f: impl FnOnce(&SamTree) -> R,
    ) -> Option<R> {
        self.directory.read(key(v, etype), f)
    }

    /// The one write body: `(v, etype)` → stripe write guard → tree → `f`,
    /// then, with the guard dropped, settle what `f` did — the store's edge
    /// count and gauge by the difference in the tree's length, the samtree
    /// op counters by the [`OpStats`] `f` filled. `create` is set by inserts
    /// and batches; single deletes and updates and decay leave a missing key
    /// alone (`None`), as the directory does a key it refuses.
    fn write_tree<R>(
        &self,
        v: VertexId,
        etype: EdgeType,
        create: bool,
        f: impl FnOnce(&mut SamTree, &SamTreeConfig, &mut OpStats) -> R,
    ) -> Option<R> {
        let mut local = OpStats::default();
        let (out, before, after) = self.directory.write(key(v, etype), create, |tree| {
            let before = tree.len();
            let out = f(tree, &self.tree, &mut local);
            (out, before, tree.len())
        })?;
        if after != before {
            // Atomic adds wrap, so a shrunken tree's difference subtracts.
            self.num_edges
                .fetch_add(after.wrapping_sub(before), Ordering::Relaxed);
            self.metrics.edges.add(after as i64 - before as i64);
        }
        self.metrics.add_ops(&local);
        Some(out)
    }

    /// The event time of an edge, or `0` if the edge is timeless (or
    /// absent — callers that need presence use [`GraphStore::edge_weight`]).
    pub fn edge_ts(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> u64 {
        self.read_tree(src, etype, |tree| tree.get_stamped(dst.raw()))
            .flatten()
            .map_or(0, |(_, ts)| ts)
    }

    /// Apply every op of one (src, etype) group under one stripe write guard.
    fn apply_group(&self, group: &[&UpdateOp]) {
        let (src, etype) = (group[0].src(), group[0].etype());
        self.write_tree(src, etype, true, |tree, cfg, stats| {
            // Consecutive inserts are applied as one Appendix-B run (one
            // descent per touched leaf, each touched child's change folded
            // into its parent's CSTable; a run of one is a single insert).
            // Updates/deletes flush the run so same-destination op
            // interleavings keep sequential semantics.
            // An insert's `ts` rides in its row (0 clears a stale stamp:
            // the insert replaces the edge); an update's `ts` sets the
            // stamp only when non-zero; a delete drops the row, stamp
            // included.
            let mut run: Vec<Row> = Vec::new();
            let flush = |tree: &mut SamTree, run: &mut Vec<Row>, stats: &mut OpStats| {
                tree.insert_batch_stamped(cfg, run, stats);
                run.clear();
            };
            for &op in group {
                match op {
                    UpdateOp::Insert(e) => run.push(row(e)),
                    UpdateOp::UpdateWeight(e) => {
                        flush(tree, &mut run, stats);
                        tree.update_weight_stamped(cfg, row(e), stats);
                    }
                    UpdateOp::Delete { dst, .. } => {
                        flush(tree, &mut run, stats);
                        tree.delete(cfg, dst.raw(), stats);
                    }
                }
            }
            flush(tree, &mut run, stats);
        });
    }

    /// The batch-based latch-free concurrent update (Sec. VI-B, App. B).
    ///
    /// Phase 1 sorts the batch by (source, relation, destination) and cuts
    /// it into per-tree groups. Phase 2 assigns each group to exactly one
    /// worker thread, so every samtree is modified by a single owner without
    /// per-node latching; within a group the destination ordering clusters
    /// leaf accesses, and each tree's tables are updated bottom-up by the
    /// samtree code itself. Groups are dealt round-robin for load balance
    /// under Zipf-skewed sources.
    pub fn apply_batch_parallel(&self, ops: &[UpdateOp], threads: usize) {
        assert!(threads >= 1);
        let started = Instant::now();
        self.metrics.batches.inc();
        self.metrics.batch_ops.add(ops.len() as u64);
        // Phase 1: sort and group (App. B "firstly sorts the queries
        // according to the IDs of vertices and then evenly divides them").
        let mut sorted: Vec<&UpdateOp> = ops.iter().collect();
        sorted.sort_by_key(|op| (op.src().raw(), op.etype().0, op.dst().raw()));
        let groups: Vec<&[&UpdateOp]> = sorted
            .chunk_by(|a, b| a.src() == b.src() && a.etype() == b.etype())
            .collect();
        if threads == 1 || groups.len() <= 1 {
            for g in &groups {
                self.apply_group(g);
            }
            self.metrics.apply_batch_ns.record(started.elapsed());
            return;
        }
        // Greedy longest-processing-time assignment: Zipf-skewed batches
        // concentrate a large share of ops on hub sources, so round-robin
        // would leave one worker with the giant group plus its fair share.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(groups[i].len()));
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); threads];
        let mut load = vec![0usize; threads];
        for i in order {
            let t = (0..threads).min_by_key(|&t| load[t]).expect("threads >= 1");
            load[t] += groups[i].len();
            assignment[t].push(i);
        }
        crossbeam::thread::scope(|s| {
            for mine in &assignment {
                let groups = &groups;
                s.spawn(move |_| {
                    for &i in mine {
                        self.apply_group(groups[i]);
                    }
                });
            }
        })
        .expect("batch worker panicked");
        self.metrics.apply_batch_ns.record(started.elapsed());
    }

    /// Bulk-load an edge collection, building each samtree bottom-up in one
    /// pass (`SamTree::bulk_load`) instead of edge-at-a-time insertion — the
    /// snapshot-restore / initial-ingest fast path. Edges for sources that
    /// already have a tree fall back to incremental inserts.
    pub fn bulk_build(&self, edges: impl IntoIterator<Item = Edge>) {
        use std::collections::HashMap;
        let mut groups: HashMap<(VertexId, EdgeType), Vec<Row>> = HashMap::new();
        for e in edges {
            groups.entry((e.src, e.etype)).or_default().push(row(&e));
        }
        for ((src, etype), rows) in groups {
            self.write_tree(src, etype, true, |tree, cfg, stats| {
                if tree.is_empty() {
                    *tree = SamTree::bulk_load_stamped(cfg, rows);
                } else {
                    // Source already populated (concurrent writer or
                    // repeated call): fall back to incremental inserts.
                    for row in rows {
                        tree.insert_stamped(cfg, row, stats);
                    }
                }
            });
        }
    }

    /// Weighted neighbor sampling, optionally restricted to a time window —
    /// the store's one draw loop ([`GraphStore::sample_neighbors`] is this
    /// with `window == None`).
    ///
    /// Each of the `k` slots is drawn by rejection-with-retry: up to
    /// `WINDOW_RETRIES` (8) weighted draws against the full tree, keeping
    /// the first whose timestamp lies in the window (timeless edges always
    /// qualify, and no window admits every draw, so an unwindowed slot is
    /// exactly one draw). A slot that exhausts its retries falls back to one
    /// weighted draw over the *filtered* in-window neighbor list — exact,
    /// built at most once per request, and only paid when the window is
    /// weight-skewed toward out-of-window edges.
    ///
    /// Both paths consume the RNG in a deterministic order, so a
    /// request replayed with the same per-request seed returns the same
    /// slots locally and remotely.
    pub fn sample_neighbors_windowed(
        &self,
        v: VertexId,
        etype: EdgeType,
        k: usize,
        window: Option<TimeWindow>,
        rng: &mut dyn RngCore,
    ) -> Vec<VertexId> {
        // Nested under the cluster's request root when sampling goes
        // through a shared registry, so a slow request's capture shows the
        // samtree descent and the FTS draws as separate levels.
        let _span = self.registry.span("samtree.sample");
        self.metrics.sample_requests.inc();
        // One stripe read guard holds the tree, and its total, still for
        // every draw of the request.
        self.read_tree(v, etype, |tree| self.draw(tree, k, window, rng))
            .unwrap_or_default()
    }

    /// The draws of one sample request (see
    /// [`DynamicGraphStore::sample_neighbors_windowed`]).
    fn draw(
        &self,
        tree: &SamTree,
        k: usize,
        window: Option<TimeWindow>,
        rng: &mut dyn RngCore,
    ) -> Vec<VertexId> {
        let total = tree.total_weight();
        if tree.is_empty() || total <= 0.0 {
            return Vec::new();
        }
        // A windowed request is priced by `samtree.sample` alone: a second
        // span per request is ~140 ns the windowed path never paid.
        let _draw = window
            .is_none()
            .then(|| self.registry.span("samtree.fts_draw"));
        let admits = |ts: u64| window.is_none_or(|win| win.contains(ts));
        let mut picks = Vec::with_capacity(k);
        // Filtered in-window (dst, cumulative weight) list, built lazily on
        // the first fallback and reused for the rest of the request.
        let mut filtered: Option<(Vec<u64>, Vec<f64>)> = None;
        let mut retries = 0u64;
        let mut fallbacks = 0u64;
        'slots: for _ in 0..k {
            for _ in 0..WINDOW_RETRIES {
                let Some((id, ts)) = tree.sample_with_stamped(rng.random_range(0.0..total)) else {
                    break 'slots;
                };
                if admits(ts) {
                    picks.push(VertexId(id));
                    continue 'slots;
                }
                retries += 1;
            }
            fallbacks += 1;
            let (ids, cum) = filtered.get_or_insert_with(|| {
                let mut ids = Vec::new();
                let mut cum = Vec::new();
                let mut acc = 0.0f64;
                tree.for_each_row(|dst, w, ts| {
                    if w > 0.0 && admits(ts) {
                        acc += w;
                        ids.push(dst);
                        cum.push(acc);
                    }
                });
                (ids, cum)
            });
            let Some(&total) = cum.last() else {
                break 'slots; // nothing in-window at all
            };
            let r: f64 = rng.random_range(0.0..total);
            let j = cum.partition_point(|&c| c <= r).min(ids.len() - 1);
            picks.push(VertexId(ids[j]));
        }
        if retries > 0 {
            self.metrics.window_retries.add(retries);
        }
        if fallbacks > 0 {
            self.metrics.window_fallbacks.add(fallbacks);
        }
        self.metrics.sample_draws.add(picks.len() as u64);
        picks
    }

    /// One recency-decay pass over a single source's out-neighborhood:
    /// every stamped edge older than `now` has its weight multiplied by
    /// `exp(-lambda · (now - ts))`, clamped at the strictly positive
    /// `floor`, in one walk over the tree's leaves (floored FSTable updates
    /// in place, one cumulative-table fold per touched node). Timeless
    /// edges (`ts == 0`) and edges at/below the floor are left untouched;
    /// event times are never refreshed by decay.
    ///
    /// The maintenance worker in `platod2gl-temporal` drives this method in
    /// amortized batches of sources.
    pub fn decay_recency(
        &self,
        v: VertexId,
        etype: EdgeType,
        now: u64,
        lambda: f64,
        floor: f64,
    ) -> DecayOutcome {
        assert!(lambda.is_finite() && lambda >= 0.0, "lambda must be >= 0");
        assert!(floor.is_finite() && floor > 0.0, "floor must be positive");
        if lambda == 0.0 {
            return DecayOutcome::default();
        }
        // Leaf weights read back with a few ULPs of prefix-sum
        // reconstruction noise, so an edge clamped at the floor by a
        // previous sweep can read as marginally above it; the relative
        // tolerance keeps such edges skipped instead of "decaying" by
        // denormal-sized deltas every sweep.
        let floor_cut = floor * (1.0 + 1e-9);
        self.write_tree(v, etype, false, |tree, _, stats| {
            let counts = tree.decay_rows(
                floor,
                |w, ts| {
                    if ts >= now || w <= floor_cut {
                        return None;
                    }
                    let factor = (-lambda * (now - ts) as f64).exp();
                    (factor < 1.0).then_some(factor)
                },
                stats,
            );
            DecayOutcome {
                scanned: tree.len(),
                decayed: counts.decayed,
                floored: counts.floored,
            }
        })
        .unwrap_or_default()
    }

    /// Count one recency-decay tick that changed at least one weight. The
    /// decay worker calls it once per such tick, so a cluster can fold
    /// decay into its graph version at the scale one update batch moves it.
    pub fn record_decay_tick(&self) {
        self.decay_ticks.fetch_add(1, Ordering::Release);
    }

    /// Recency-decay ticks that changed a weight, since the store was built.
    pub fn decay_ticks(&self) -> u64 {
        self.decay_ticks.load(Ordering::Acquire)
    }

    /// Drop a source vertex's entire out-neighborhood in one relation
    /// (account deletion / right-to-be-forgotten). Returns the removed
    /// `(dst, weight, ts)` rows, so a caller can log one delete per edge. A
    /// write to the same source lands wholly before the removal (and is
    /// removed with it) or wholly after (on a fresh tree).
    pub fn delete_source(&self, v: VertexId, etype: EdgeType) -> Vec<Row> {
        let Some(tree) = self.directory.remove(key(v, etype)) else {
            return Vec::new();
        };
        let removed = tree.len();
        self.num_edges.fetch_sub(removed, Ordering::Relaxed);
        self.metrics.edges.add(-(removed as i64));
        tree.rows()
    }

    /// Dump the whole adjacency as `((src, etype), [(dst, weight, ts)])`
    /// entries (snapshotting and diagnostics). Each tree's rows are read in
    /// one pass under its stripe's read guard, so a row's `ts` is always one
    /// the edge held together with that weight.
    pub fn export_adjacency(&self) -> Vec<AdjacencyEntry> {
        let mut out = Vec::with_capacity(self.directory.len());
        self.directory.for_each(|key, tree| {
            let rows = tree.rows();
            if !rows.is_empty() {
                out.push((key, rows));
            }
        });
        out
    }

    /// One `(src, etype)` tree's full `(dst, weight, ts)` list, or `None` if
    /// the key is not resident (or its tree is empty). The targeted
    /// counterpart of [`DynamicGraphStore::export_adjacency`]: partition
    /// export streams chunks by materializing only the keys inside the
    /// chunk's budget instead of the whole store.
    pub fn adjacency_of(&self, v: VertexId, etype: EdgeType) -> Option<Vec<(u64, f64, u64)>> {
        let rows = self.read_tree(v, etype, SamTree::rows)?;
        (!rows.is_empty()).then_some(rows)
    }

    /// Visit every resident `(src, etype)` directory key with its current
    /// edge count, without materializing the adjacency lists the way
    /// [`DynamicGraphStore::export_adjacency`] does. Partition accounting
    /// (`/debug/partitions` key counts) walks the whole directory this way.
    /// `f` runs under a directory stripe's read guard, so it must not call
    /// back into the store.
    pub fn for_each_source(&self, mut f: impl FnMut(VertexId, EdgeType, usize)) {
        self.directory.for_each(|(src, etype), tree| {
            let len = tree.len();
            if len > 0 {
                f(VertexId(src), EdgeType(etype), len);
            }
        });
    }

    /// Walk every samtree and split the store's resident topology bytes
    /// into payload vs index (the paper's Table IV memory accounting,
    /// served live at `/debug/memory`). Takes each stripe's read guard in
    /// turn — diagnostics cost, not hot-path cost.
    pub fn memory_breakdown(&self) -> StoreMemory {
        let mut leaf_bytes = 0;
        let mut leaf_payload_bytes = 0;
        let mut internal_bytes = 0;
        let mut timestamp_bytes = 0;
        self.directory.for_each(|_, tree| {
            let (l, i) = tree.memory_breakdown();
            leaf_bytes += l;
            leaf_payload_bytes += tree.leaf_payload_bytes();
            internal_bytes += i;
            timestamp_bytes += tree.timestamp_bytes();
        });
        let total_bytes = self.topology_bytes();
        StoreMemory {
            leaf_bytes,
            leaf_payload_bytes,
            leaf_slack_bytes: leaf_bytes - leaf_payload_bytes,
            internal_bytes,
            directory_bytes: total_bytes.saturating_sub(leaf_bytes + internal_bytes),
            total_bytes,
            timestamp_bytes,
        }
    }

    /// Per-tree diagnostics: (height, leaf count, internal count) of a
    /// vertex's samtree.
    pub fn tree_shape(&self, v: VertexId, etype: EdgeType) -> Option<(usize, usize, usize)> {
        self.read_tree(v, etype, |tree| {
            let (leaves, internals) = tree.node_counts();
            (tree.height(), leaves, internals)
        })
    }

    /// Validate every samtree's invariants (test support; walks everything).
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut err = None;
        self.directory.for_each(|(src, _), tree| {
            if err.is_some() {
                return;
            }
            if let Err(e) = tree.check_invariants(&self.tree) {
                err = Some(format!("tree of src {src}: {e}"));
            }
        });
        err.map_or(Ok(()), Err)
    }
}

impl GraphStore for DynamicGraphStore {
    fn name(&self) -> &'static str {
        "PlatoD2GL"
    }

    fn insert_edge(&self, edge: Edge) {
        self.write_tree(edge.src, edge.etype, true, |tree, cfg, stats| {
            tree.insert_stamped(cfg, row(&edge), stats)
        });
    }

    fn delete_edge(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> bool {
        self.write_tree(src, etype, false, |tree, cfg, stats| {
            tree.delete(cfg, dst.raw(), stats).is_some()
        })
        .unwrap_or(false)
    }

    fn update_weight(&self, edge: Edge) -> bool {
        self.write_tree(edge.src, edge.etype, false, |tree, cfg, stats| {
            tree.update_weight_stamped(cfg, row(&edge), stats)
        })
        .unwrap_or(false)
    }

    fn apply_batch(&self, ops: &[UpdateOp]) {
        // Single-threaded batch still benefits from grouping (one guard
        // and one stats flush per tree).
        self.apply_batch_parallel(ops, 1);
    }

    fn degree(&self, v: VertexId, etype: EdgeType) -> usize {
        self.read_tree(v, etype, SamTree::len).unwrap_or(0)
    }

    fn weight_sum(&self, v: VertexId, etype: EdgeType) -> f64 {
        self.read_tree(v, etype, SamTree::total_weight)
            .unwrap_or(0.0)
    }

    fn edge_weight(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> Option<f64> {
        self.read_tree(src, etype, |tree| tree.get(dst.raw()))?
    }

    fn sample_neighbors(
        &self,
        v: VertexId,
        etype: EdgeType,
        k: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<VertexId> {
        self.sample_neighbors_windowed(v, etype, k, None, rng)
    }

    fn neighbors(&self, v: VertexId, etype: EdgeType) -> Vec<(VertexId, f64)> {
        self.read_tree(v, etype, |tree| {
            let entries = tree.entries().into_iter();
            entries.map(|(id, w)| (VertexId(id), w)).collect()
        })
        .unwrap_or_default()
    }

    fn num_edges(&self) -> usize {
        self.num_edges.load(Ordering::Relaxed)
    }

    fn topology_bytes(&self) -> usize {
        self.directory.heap_bytes()
    }
}

/// Phase-1 reads for a transaction validated against this store (what
/// `DurableGraphStore::try_apply_txn` and each `Cluster` shard answer). No
/// relation schema: every etype is known.
impl platod2gl_graph::TxnView for DynamicGraphStore {
    fn edge_weight(&self, src: VertexId, dst: VertexId, etype: EdgeType) -> Option<f64> {
        GraphStore::edge_weight(self, src, dst, etype)
    }

    fn neighbors(&self, v: VertexId, etype: EdgeType) -> Vec<(VertexId, f64)> {
        GraphStore::neighbors(self, v, etype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platod2gl_graph::{conformance, DatasetProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_store() -> DynamicGraphStore {
        DynamicGraphStore::new(StoreConfig {
            tree: SamTreeConfig {
                capacity: 8,
                alpha: 0,
                compression: true,
            },
        })
    }

    #[test]
    fn conformance_suite() {
        conformance::run_all(small_store);
    }

    #[test]
    fn tree_slab_accounting_is_pinned() {
        // The per-tree figure, pinned on purpose. Before trees moved into
        // stripe slabs, a tree cost a 96 B `RwLock<SamTree>` cell (plus 16 B
        // of `Arc` counters `DeepSize` never counted) and a 32 B index slot
        // (key, value pointer and stored hash). Now it costs one 80 B slab
        // row and a 16 B slot, all of it counted.
        use crate::directory::{StripeLock, TreeSlot};
        assert_eq!(std::mem::size_of::<TreeSlot>(), 16);
        assert_eq!(
            std::mem::size_of::<[TreeSlot; platod2gl_cuckoo::SLOTS]>(),
            64
        );
        assert_eq!(std::mem::size_of::<SamTree>(), 80);
        // An empty store: 64 stripe locks of one or two cache lines each,
        // and 4 empty 64 B buckets per stripe.
        assert_eq!(std::mem::align_of::<StripeLock>(), 64);
        let store = DynamicGraphStore::with_defaults();
        let empty = store.topology_bytes();
        assert_eq!(empty, 64 * std::mem::size_of::<StripeLock>() + 64 * 4 * 64);
        store.insert_edge(Edge::new(VertexId(1), VertexId(7), 1.0));
        // The first tree of a stripe grows its slab by one 80 B row; one
        // CP-ID suffix byte and one Fenwick entry join the tree (before:
        // 96 + 1 + 8 = 105 B in the cell).
        assert_eq!(store.topology_bytes() - empty, 80 + 1 + 8);
    }

    #[test]
    fn conformance_suite_default_config() {
        conformance::run_all(DynamicGraphStore::with_defaults);
    }

    #[test]
    fn conformance_suite_without_compression() {
        conformance::run_all(|| {
            DynamicGraphStore::new(StoreConfig {
                tree: SamTreeConfig {
                    capacity: 16,
                    alpha: 2,
                    compression: false,
                },
            })
        });
    }

    #[test]
    fn parallel_batches_match_sequential() {
        let profile = DatasetProfile::tiny();
        let ops = profile.update_stream(77).next_batch(20_000);
        let par = small_store();
        let seq = small_store();
        par.apply_batch_parallel(&ops, 8);
        for op in &ops {
            seq.apply(op);
        }
        assert_eq!(par.num_edges(), seq.num_edges());
        par.check_invariants().expect("parallel store invariants");
        for src in profile.sample_sources(100, 5) {
            let mut a = par.neighbors(src, EdgeType(0));
            let mut b = seq.neighbors(src, EdgeType(0));
            a.sort_by_key(|(id, _)| id.raw());
            b.sort_by_key(|(id, _)| id.raw());
            assert_eq!(a.len(), b.len());
            for ((ia, wa), (ib, wb)) in a.iter().zip(&b) {
                assert_eq!(ia, ib);
                assert!((wa - wb).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn concurrent_disjoint_batches_are_safe() {
        let store = small_store();
        let per_thread = 2_000u64;
        crossbeam::scope(|s| {
            for t in 0..8u64 {
                let store = &store;
                s.spawn(move |_| {
                    for i in 0..per_thread {
                        // Each thread owns a disjoint source range.
                        let src = VertexId(t * 1_000_000 + (i % 50));
                        let dst = VertexId(i);
                        store.insert_edge(Edge::new(src, dst, 1.0));
                    }
                });
            }
        })
        .expect("threads join");
        store.check_invariants().expect("invariants");
        // 8 threads x 50 sources x 40 distinct dsts per source.
        assert_eq!(store.num_edges(), 8 * 50 * 40);
    }

    #[test]
    fn concurrent_same_source_contention_is_safe() {
        let store = small_store();
        crossbeam::scope(|s| {
            for t in 0..8u64 {
                let store = &store;
                s.spawn(move |_| {
                    for i in 0..2_000u64 {
                        let dst = VertexId(t * 10_000 + i);
                        store.insert_edge(Edge::new(VertexId(1), dst, 0.5));
                    }
                });
            }
        })
        .expect("threads join");
        assert_eq!(store.num_edges(), 16_000);
        assert_eq!(store.degree(VertexId(1), EdgeType(0)), 16_000);
        store.check_invariants().expect("invariants");
    }

    #[test]
    fn ingest_profile_and_sample_deep_trees() {
        let store = DynamicGraphStore::with_defaults();
        // OGBN at 100k edges keeps ~3.9k distinct destinations, enough for
        // the Zipf hub to exceed one leaf at capacity 256.
        let profile = DatasetProfile::ogbn().scaled_to_edges(100_000);
        for e in profile.edge_stream(1).with_bidirected(false) {
            store.insert_edge(e);
        }
        store.check_invariants().expect("invariants");
        // The highest-degree sampled source must have a multi-level samtree.
        let hub = profile
            .sample_sources(200, 2)
            .into_iter()
            .max_by_key(|v| store.degree(*v, EdgeType(0)))
            .expect("non-empty");
        let (h, leaves, internals) = store
            .tree_shape(hub, EdgeType(0))
            .expect("hub has a samtree");
        assert!(h >= 2, "hub tree height {h}");
        assert!(leaves >= 2);
        assert!(internals >= 1);
        // Sampling from the hub returns valid neighbors.
        let mut rng = StdRng::seed_from_u64(8);
        let samples = store.sample_neighbors(hub, EdgeType(0), 50, &mut rng);
        assert_eq!(samples.len(), 50);
        for s in samples {
            assert!(
                store.edge_weight(hub, s, EdgeType(0)).is_some(),
                "sampled non-neighbor {s:?}"
            );
        }
    }

    #[test]
    fn registry_metrics_track_store_activity() {
        let registry = Arc::new(Registry::new());
        let store = DynamicGraphStore::with_registry(
            StoreConfig {
                tree: SamTreeConfig {
                    capacity: 8,
                    alpha: 0,
                    compression: true,
                },
            },
            Arc::clone(&registry),
        );
        let ops: Vec<UpdateOp> = (0..200u64)
            .map(|i| UpdateOp::Insert(Edge::new(VertexId(i % 4), VertexId(i), 1.0)))
            .collect();
        store.apply_batch_parallel(&ops, 2);
        let mut rng = StdRng::seed_from_u64(1);
        store.sample_neighbors(VertexId(0), EdgeType(0), 10, &mut rng);
        store.delete_edge(VertexId(0), VertexId(0), EdgeType(0));

        let snap = registry.snapshot();
        assert_eq!(snap.counter("storage.batches"), Some(1));
        assert_eq!(snap.counter("storage.batch_ops"), Some(200));
        assert!(snap.counter("samtree.leaf_ops").unwrap() >= 200);
        assert!(
            snap.counter("samtree.leaf_splits").unwrap() > 0,
            "50 dsts per tree at capacity 8 must split"
        );
        assert_eq!(snap.counter("samtree.sample_requests"), Some(1));
        assert_eq!(snap.counter("samtree.sample_draws"), Some(10));
        assert_eq!(snap.gauge("storage.edges"), Some(store.num_edges() as i64));
        assert_eq!(snap.histogram("storage.apply_batch_ns").unwrap().count, 1);
        // op_stats is a view over the same counters.
        assert_eq!(
            store.op_stats().leaf_ops,
            snap.counter("samtree.leaf_ops").unwrap()
        );
    }

    #[test]
    fn op_stats_land_mostly_on_leaves() {
        let store = DynamicGraphStore::new(StoreConfig {
            tree: SamTreeConfig {
                capacity: 64,
                alpha: 0,
                compression: true,
            },
        });
        let profile = DatasetProfile::tiny();
        for e in profile.edge_stream(3) {
            store.insert_edge(e);
        }
        let stats = store.op_stats();
        assert!(stats.leaf_ops > 0);
        assert!(
            stats.leaf_fraction() > 0.9,
            "leaf fraction {}",
            stats.leaf_fraction()
        );
    }

    #[test]
    fn compression_flag_changes_memory_not_behavior() {
        let mk = |compression| {
            let store = DynamicGraphStore::new(StoreConfig {
                tree: SamTreeConfig {
                    capacity: 32,
                    alpha: 0,
                    compression,
                },
            });
            // Clustered destination IDs compress well.
            for i in 0..20_000u64 {
                let src = VertexId(i % 20);
                let dst = VertexId(0x00AB_0000_0000_0000 | i);
                store.insert_edge(Edge::new(src, dst, 1.0));
            }
            store
        };
        let on = mk(true);
        let off = mk(false);
        assert_eq!(on.num_edges(), off.num_edges());
        for v in 0..20u64 {
            assert_eq!(
                on.degree(VertexId(v), EdgeType(0)),
                off.degree(VertexId(v), EdgeType(0))
            );
        }
        assert!(
            (on.topology_bytes() as f64) < off.topology_bytes() as f64 * 0.85,
            "compressed {} vs plain {}",
            on.topology_bytes(),
            off.topology_bytes()
        );
    }

    #[test]
    fn delete_source_drops_whole_neighborhood() {
        let store = small_store();
        for i in 0..500u64 {
            store.insert_edge(Edge::new(VertexId(1), VertexId(100 + i), 1.0));
            store.insert_edge(Edge::new(VertexId(2), VertexId(100 + i), 1.0));
        }
        assert_eq!(store.delete_source(VertexId(1), EdgeType(0)).len(), 500);
        assert_eq!(store.num_edges(), 500);
        assert_eq!(store.degree(VertexId(1), EdgeType(0)), 0);
        assert_eq!(store.degree(VertexId(2), EdgeType(0)), 500);
        // Idempotent.
        assert!(store.delete_source(VertexId(1), EdgeType(0)).is_empty());
        // The vertex can come back fresh.
        store.insert_edge(Edge::new(VertexId(1), VertexId(7), 2.0));
        assert_eq!(store.degree(VertexId(1), EdgeType(0)), 1);
        store.check_invariants().expect("invariants");
    }

    #[test]
    fn delete_source_racing_inserts_keeps_the_edge_count_exact() {
        // Inserts and `delete_source` of one source race. An insert that
        // reached the tree must land before the removal or after it, never
        // into a detached tree whose edge `num_edges` and `storage.edges`
        // would still count.
        let store = small_store();
        let rounds = 200_000u64;
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..rounds {
                    store.insert_edge(Edge::new(VertexId(1), VertexId(i % 64), 1.0));
                }
            });
            s.spawn(|| {
                for _ in 0..rounds {
                    store.delete_source(VertexId(1), EdgeType(0));
                }
            });
        });
        let rows: usize = store.export_adjacency().iter().map(|(_, r)| r.len()).sum();
        assert_eq!(store.num_edges(), rows);
        let gauge = store.registry().snapshot().gauge("storage.edges");
        assert_eq!(gauge, Some(rows as i64));
        store.check_invariants().expect("invariants");
    }

    #[test]
    fn keys_built_to_collide_under_an_invertible_hash_stay_apart() {
        // One key per relation 0..=8, built by inverting `splitmix64` so
        // that `splitmix64(splitmix64(src ^ SALT) ^ etype)` is the same for
        // all nine. Under that hash they would share both candidate buckets
        // (8 slots), and no table size separates them. Keys come from
        // clients: the directory must place all nine without growing.
        use platod2gl_graph::splitmix64;
        fn unshift(y: u64, s: u32) -> u64 {
            (0..64 / s).fold(y, |x, _| y ^ (x >> s))
        }
        fn inverse(c: u64) -> u64 {
            (0..6).fold(c, |i, _| {
                i.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(i)))
            })
        }
        fn unsplitmix(z: u64) -> u64 {
            let x = unshift(z, 31).wrapping_mul(inverse(0x94d0_49bb_1331_11eb));
            let x = unshift(x, 27).wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9));
            unshift(x, 30).wrapping_sub(0x9e37_79b9_7f4a_7c15)
        }
        const SALT: u64 = 0xd1ec_7000_0000_0001;
        let target = 0x0123_4567_89ab_cdef;
        let keys: Vec<(u64, u16)> = (0..=8u16)
            .map(|e| (unsplitmix(unsplitmix(target) ^ u64::from(e)) ^ SALT, e))
            .collect();
        for &(src, e) in &keys {
            assert_eq!(splitmix64(splitmix64(src ^ SALT) ^ u64::from(e)), target);
        }
        let store = small_store();
        for &(src, e) in &keys {
            store.insert_edge(Edge {
                etype: EdgeType(e),
                ..Edge::new(VertexId(src), VertexId(1), 1.0)
            });
        }
        let snap = store.registry().snapshot();
        assert_eq!(snap.counter("storage.directory_grows"), Some(0));
        assert_eq!(snap.counter("storage.directory_refused"), Some(0));
        assert_eq!(store.num_edges(), 9);
        for &(src, e) in &keys {
            assert_eq!(store.degree(VertexId(src), EdgeType(e)), 1, "{src}/{e}");
        }
        store.check_invariants().expect("invariants");
    }

    #[test]
    fn readers_of_one_tree_are_undisturbed_by_churn_in_its_stripe() {
        // Readers sample one tree while a writer creates and drops other
        // sources of the same stripe: slab rows move on every swap-remove,
        // and the slab and index grow and shrink under the readers.
        let keys = crate::directory::same_stripe_keys(120);
        let edge = |(src, etype): TreeKey, dst: u64| Edge {
            etype: EdgeType(etype),
            ..Edge::new(VertexId(src), VertexId(dst), 1.0)
        };
        let store = small_store();
        let (home, others) = (keys[0], &keys[1..]);
        let mine = 1_000_000..1_000_064u64;
        for dst in mine.clone() {
            store.insert_edge(edge(home, dst));
        }
        std::thread::scope(|s| {
            for seed in 0..2u64 {
                let (store, mine) = (&store, mine.clone());
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let (v, etype) = (VertexId(home.0), EdgeType(home.1));
                    for _ in 0..2_000 {
                        let picks = store.sample_neighbors(v, etype, 8, &mut rng);
                        assert_eq!(picks.len(), 8);
                        assert!(picks.iter().all(|p| mine.contains(&p.raw())), "{picks:?}");
                    }
                });
            }
            s.spawn(|| {
                for round in 0..20u64 {
                    for (i, &key) in others.iter().enumerate() {
                        store.insert_edge(edge(key, round * 1_000 + i as u64));
                    }
                    for &key in others.iter().rev().step_by(2) {
                        store.delete_source(VertexId(key.0), EdgeType(key.1));
                    }
                }
            });
        });
        assert_eq!(store.degree(VertexId(home.0), EdgeType(home.1)), 64);
        store.check_invariants().expect("invariants");
    }

    #[test]
    fn bulk_build_matches_incremental() {
        let profile = DatasetProfile::tiny();
        let bulk = small_store();
        bulk.bulk_build(profile.edge_stream(4));
        let inc = small_store();
        for e in profile.edge_stream(4) {
            inc.insert_edge(e);
        }
        assert_eq!(bulk.num_edges(), inc.num_edges());
        bulk.check_invariants().expect("bulk invariants");
        for src in profile.sample_sources(64, 6) {
            let mut a = bulk.neighbors(src, EdgeType(0));
            let mut b = inc.neighbors(src, EdgeType(0));
            a.sort_by_key(|(id, _)| id.raw());
            b.sort_by_key(|(id, _)| id.raw());
            assert_eq!(a.len(), b.len(), "src {src:?}");
            for ((ia, wa), (ib, wb)) in a.iter().zip(&b) {
                assert_eq!(ia, ib);
                assert!((wa - wb).abs() < 1e-6);
            }
        }
        // Repeated bulk call over the same data degrades to updates, not
        // duplicates.
        bulk.bulk_build(profile.edge_stream(4));
        assert_eq!(bulk.num_edges(), inc.num_edges());
    }

    #[test]
    fn batch_thread_sweep_is_consistent() {
        let profile = DatasetProfile::tiny();
        let ops = profile.update_stream(123).next_batch(8_000);
        let reference = small_store();
        reference.apply_batch_parallel(&ops, 1);
        for threads in [2usize, 4, 16] {
            let store = small_store();
            store.apply_batch_parallel(&ops, threads);
            assert_eq!(
                store.num_edges(),
                reference.num_edges(),
                "threads={threads}"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn non_finite_weight_asserts_at_ingest_in_debug() {
        // The sanitize_weight policy: debug builds assert so the producer of
        // the bad value is caught in tests.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let store = DynamicGraphStore::with_defaults();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                store.insert_edge(Edge::new(VertexId(1), VertexId(2), bad));
            }));
            assert!(
                caught.is_err(),
                "weight {bad} must trip the debug assertion"
            );
        }
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn non_finite_weight_clamps_at_ingest_in_release() {
        // Release builds clamp to 0.0: the edge exists but is never sampled,
        // and weight sums stay finite.
        let store = DynamicGraphStore::with_defaults();
        store.insert_edge(Edge::new(VertexId(1), VertexId(2), f64::NAN));
        store.insert_edge(Edge::new(VertexId(1), VertexId(3), 2.0));
        assert_eq!(
            store.edge_weight(VertexId(1), VertexId(2), EdgeType(0)),
            Some(0.0)
        );
        assert!(store.weight_sum(VertexId(1), EdgeType(0)).is_finite());
        store
            .check_invariants()
            .expect("invariants with clamped weight");
    }
}
