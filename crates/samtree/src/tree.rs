//! The samtree proper: nodes, insertion (Alg. 2 run through App. B's sorted
//! run descent: a single insert is a run of one), deletion (Sec. IV-D) and
//! the combined ITS + FTS neighbor sampling descent (Sec. V-C).

use crate::idlist::IdList;
use crate::split::{alpha_split, IdWeight, Row};
use crate::{OpStats, SamTreeConfig};
use platod2gl_fenwick::FsTable;
use platod2gl_mem::{slack_within_bound, DeepSize};
use platod2gl_sampling::{CsTable, WeightedIndex};
use rand::Rng;

/// What an insert did (Alg. 2 lines 3-6: an existing neighbor gets its
/// weight updated instead of a second entry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The neighbor was new and has been appended.
    Inserted,
    /// The neighbor already existed; its weight was set to the new value.
    Updated,
}

/// A samtree node: leaves carry neighbor IDs plus an FSTable, internal
/// nodes carry ordered separators, a CSTable over child subtree weights and
/// the children themselves.
///
/// `Internal` is boxed: internal nodes are rare (most trees are a single
/// leaf), and unboxed the larger variant would set the size of every node
/// and of every tree's inline root.
#[derive(Clone, Debug)]
pub enum Node {
    Leaf(Leaf),
    Internal(Box<Internal>),
}

impl Default for Node {
    fn default() -> Self {
        Node::Leaf(Leaf::default())
    }
}

#[derive(Clone, Debug, Default)]
pub struct Leaf {
    /// Unordered neighbor IDs (Sec. IV-A constraint 2).
    ids: IdList,
    /// Positional weights: `fs.get(i)` is the weight of `ids.get(i)`.
    fs: FsTable,
    /// Positional event times: `ts.get(i)` belongs to `ids.get(i)`, `0`
    /// marks a timeless edge. Absent until the leaf first holds a non-zero
    /// `ts` (absent reads as all zeros), so a timeless graph pays no heap
    /// bytes and one branch; when present it is exactly `ids.len()` long.
    /// Stored the CP-ID way, like the ids (shared prefix, 1/2/4-byte
    /// suffixes), whatever `cfg.compression` says: that flag shapes the
    /// Table-IV id lists, and the column lies outside Table IV. Boxed: a
    /// thin pointer costs every leaf 8 B, a bare `IdList` would cost it 40 B.
    ts: Option<Box<IdList>>,
}

#[derive(Clone, Debug)]
pub struct Internal {
    /// Ordered separators: `seps.get(j)` is a lower bound for every ID in
    /// child `j` (initialized to the child's minimum; deletions may leave it
    /// stale-but-valid).
    seps: IdList,
    /// Cumulative subtree weights of the children (ITS per Sec. V-C).
    cs: CsTable,
    children: Vec<Node>,
}

/// A leaf's timestamp column over `stamps`, coded with the best CP-ID
/// prefix they share.
fn stamp_column(stamps: impl Iterator<Item = u64>) -> IdList {
    IdList::from_ids(&stamps.collect::<Vec<_>>(), true)
}

impl Leaf {
    fn from_rows(rows: &[Row], cfg: &SamTreeConfig) -> Self {
        let ids: Vec<u64> = rows.iter().map(|r| r.0).collect();
        let weights: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let stamped = rows.iter().any(|r| r.2 != 0);
        Self {
            ids: IdList::from_ids(&ids, cfg.compression),
            fs: FsTable::from_weights(&weights),
            ts: stamped.then(|| Box::new(stamp_column(rows.iter().map(|r| r.2)))),
        }
    }

    /// Visit `(id, weight, ts)` in slot order.
    fn for_each_row(&self, f: &mut impl FnMut(u64, f64, u64)) {
        let rows = self.ids.iter().zip(self.fs.iter_weights());
        match &self.ts {
            Some(col) => rows.zip(col.iter()).for_each(|((id, w), ts)| f(id, w, ts)),
            None => rows.for_each(|(id, w)| f(id, w, 0)),
        }
    }

    fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.ids.len());
        self.for_each_row(&mut |id, w, ts| rows.push((id, w, ts)));
        rows
    }

    fn ts_at(&self, i: usize) -> u64 {
        self.ts.as_ref().map_or(0, |col| col.get(i))
    }

    /// Set slot `i`'s event time, allocating the column on the first
    /// non-zero stamp.
    fn set_ts(&mut self, i: usize, ts: u64) {
        match &mut self.ts {
            Some(col) => col.set(i, ts),
            None if ts != 0 => {
                let col = (0..self.ids.len()).map(|j| if j == i { ts } else { 0 });
                self.ts = Some(Box::new(stamp_column(col)));
            }
            None => {}
        }
    }

    /// Alg. 2 lines 3-6 at the leaf: an existing neighbor takes the row's
    /// weight and event time (`ts == 0` clears a stamp: the insert replaces
    /// the edge), a new one is appended. `run` is how many rows this leaf
    /// is still to take in the current call (this one included), so a full
    /// leaf grows once for the whole run. Returns the leaf's weight change
    /// and whether the neighbor was new.
    fn upsert(&mut self, (id, w, ts): Row, cfg: &SamTreeConfig, run: usize) -> (f64, bool) {
        if let Some(i) = self.ids.position(id) {
            let old = self.fs.get(i);
            self.fs.set(i, w);
            self.set_ts(i, ts);
            return (w - old, false);
        }
        if self.ids.is_empty() && cfg.compression {
            // Seed the CP-ID encoding on first insert; later pushes
            // auto-downgrade the prefix as IDs spread (Sec. VI-A).
            self.ids = IdList::seeded_for(id);
        }
        self.reserve(run);
        self.ids.push(id);
        self.fs.push(w);
        match &mut self.ts {
            Some(col) => col.push(ts),
            None => self.set_ts(self.ids.len() - 1, ts),
        }
        (w, true)
    }

    /// Swap-delete slot `i` from all three columns, returning its weight.
    /// Each column gives capacity back once its slack passes the bound.
    fn swap_delete(&mut self, i: usize) -> f64 {
        self.ids.swap_remove(i);
        if let Some(col) = &mut self.ts {
            col.swap_remove(i);
        }
        self.fs.swap_delete(i)
    }

    /// Make room for `rows` more rows in every column, growing each full
    /// column once by the bounded step (`platod2gl_mem::reserve_rows`).
    fn reserve(&mut self, rows: usize) {
        self.ids.reserve(rows);
        self.fs.reserve(rows);
        if let Some(col) = &mut self.ts {
            col.reserve(rows);
        }
    }

    /// Give back room a run reserved but did not fill (some of its rows
    /// updated existing neighbors).
    fn shrink_slack(&mut self) {
        self.ids.shrink_slack();
        self.fs.shrink_slack();
        if let Some(col) = &mut self.ts {
            col.shrink_slack();
        }
    }

    /// Whether every column's spare room keeps the bounded-slack rule.
    fn slack_within_bound(&self) -> bool {
        let n = self.ids.len();
        slack_within_bound(n, self.ids.capacity(), 1)
            && slack_within_bound(n, self.fs.capacity(), 1)
            && self
                .ts
                .as_ref()
                .is_none_or(|col| slack_within_bound(n, col.capacity(), 1))
    }

    /// Bytes the rows themselves need: one CP-ID suffix (or raw id) and
    /// one weight entry per row, without spare capacity.
    fn payload_bytes(&self) -> usize {
        self.ids.len() * self.ids.bytes_per_id() + self.fs.len() * std::mem::size_of::<f64>()
    }

    fn min_id(&self) -> u64 {
        self.ids.iter().min().expect("non-empty leaf")
    }
}

impl Internal {
    /// Child index for `id`: the largest `j` with `seps[j] <= id`, clamped
    /// to child 0 when `id` undercuts every separator.
    fn route(&self, id: u64) -> usize {
        let mut lo = 0usize;
        let mut hi = self.seps.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.seps.get(mid) <= id {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.saturating_sub(1)
    }
}

impl Node {
    /// Number of entries (neighbors in a leaf, children in an internal).
    fn slot_len(&self) -> usize {
        match self {
            Node::Leaf(l) => l.ids.len(),
            Node::Internal(i) => i.children.len(),
        }
    }

    fn min_id(&self) -> u64 {
        match self {
            Node::Leaf(l) => l.min_id(),
            Node::Internal(i) => i.seps.get(0),
        }
    }

    fn total_weight(&self) -> f64 {
        match self {
            Node::Leaf(l) => l.fs.total(),
            Node::Internal(i) => i.cs.total(),
        }
    }
}

/// A new right sibling split off a node, for its parent to adopt.
struct SplitInfo {
    /// Separator (minimum ID) of the new right node.
    sep: u64,
    right: Node,
    right_weight: f64,
}

/// Split `node` if it holds more than `c` entries, returning the new right
/// siblings left to right (empty if it fits). A leaf is α-split (unordered)
/// until every part fits; an internal node, whose entries are ordered, is
/// cut into as many even chunks of at least `⌈c/2⌉` as its children make,
/// the spare children on the right. Fewer than `3·⌈c/2⌉` children — an
/// insert's `c + 1`, a merge's at most `c + min_fill - 1` — thus split in
/// two at the lower median, Alg. 2's split (Sec. IV-C), whatever `α` is.
/// Serves insertion and [`rebalance`]'s re-split after a merge; the caller
/// counts its own `internal_ops`.
fn split_overfull(node: &mut Node, cfg: &SamTreeConfig, stats: &mut OpStats) -> Vec<SplitInfo> {
    if node.slot_len() <= cfg.capacity {
        return Vec::new();
    }
    let mut siblings = Vec::new();
    match node {
        Node::Leaf(leaf) => {
            let mut rows = leaf.rows();
            let mut ends = Vec::new();
            alpha_parts(&mut rows, 0, cfg, &mut ends);
            stats.leaf_splits += (ends.len() - 1) as u64;
            for w in ends.windows(2) {
                let right = Leaf::from_rows(&rows[w[0]..w[1]], cfg);
                siblings.push(SplitInfo {
                    sep: right.min_id(),
                    right_weight: right.fs.total(),
                    right: Node::Leaf(right),
                });
            }
            *leaf = Leaf::from_rows(&rows[..ends[0]], cfg);
        }
        Node::Internal(int) => {
            let half = cfg.capacity.div_ceil(2);
            let mut sizes = even_chunks(int.children.len(), half, half, cfg.capacity);
            sizes.reverse();
            stats.internal_splits += (sizes.len() - 1) as u64;
            let all_seps = int.seps.to_vec();
            let all_weights = int.cs.weights();
            let mut at = int.children.len();
            // Carve off right chunks back-to-front.
            for &s in sizes[1..].iter().rev() {
                let children: Vec<Node> = int.children.drain(at - s..).collect();
                at -= s;
                let cs = CsTable::from_weights(&all_weights[at..at + s]);
                siblings.push(SplitInfo {
                    sep: all_seps[at],
                    right_weight: cs.total(),
                    right: Node::Internal(Box::new(Internal {
                        seps: IdList::from_ids(&all_seps[at..at + s], cfg.compression),
                        cs,
                        children,
                    })),
                });
            }
            siblings.reverse();
            int.seps = IdList::from_ids(&all_seps[..at], cfg.compression);
            int.cs = CsTable::from_weights(&all_weights[..at]);
        }
    }
    siblings
}

/// α-split `rows` (which start at `offset` in the leaf's row list)
/// until every part fits in a node, pushing each part's end to `ends` in
/// order. Both halves of every split shrink strictly.
fn alpha_parts(rows: &mut [Row], offset: usize, cfg: &SamTreeConfig, ends: &mut Vec<usize>) {
    if rows.len() <= cfg.capacity {
        ends.push(offset + rows.len());
        return;
    }
    let khat = alpha_split(rows, cfg.alpha);
    let (left, right) = rows.split_at_mut(khat);
    alpha_parts(left, offset, cfg, ends);
    alpha_parts(right, offset + khat, cfg, ends);
}

/// Fold child `j`'s weight change `delta` into `int`'s CSTable and adopt
/// the right siblings it split into after it; the split-off weight moves
/// from entry `j` to theirs, as in Alg. 2.
fn adopt(int: &mut Internal, j: usize, delta: f64, siblings: Vec<SplitInfo>) {
    let split_off: f64 = siblings.iter().map(|s| s.right_weight).sum();
    int.cs.add(j, delta - split_off);
    for (k, s) in (j + 1..).zip(siblings) {
        int.cs.insert(k, s.right_weight);
        int.seps.insert_at(k, s.sep);
        int.children.insert(k, s.right);
    }
}

/// What an insert run did to a subtree: its total weight change, the
/// number of *new* neighbors, and the right siblings it split off.
struct BatchResult {
    delta: f64,
    inserted: usize,
    siblings: Vec<SplitInfo>,
}

/// Apply a dst-sorted run of `(id, weight, ts)` upserts to a subtree with
/// one descent — the bottom-up batch processing of the paper's Appendix B,
/// and Alg. 2's insert when the run holds one row. Each touched child's
/// weight change is folded into its parent's CSTable; a node that overflows
/// splits once for the whole run.
fn insert_batch_rec(
    node: &mut Node,
    ops: &[Row],
    cfg: &SamTreeConfig,
    stats: &mut OpStats,
) -> BatchResult {
    let mut delta = 0.0;
    let mut inserted = 0usize;
    match node {
        Node::Leaf(leaf) => {
            for (k, &row) in ops.iter().enumerate() {
                stats.leaf_ops += 1;
                let (d, new) = leaf.upsert(row, cfg, ops.len() - k);
                delta += d;
                inserted += usize::from(new);
            }
            if ops.len() > 1 && leaf.ids.len() <= cfg.capacity {
                leaf.shrink_slack();
            }
        }
        Node::Internal(int) => {
            // Tighten separator 0 so the run's minimum routes to child 0.
            if ops[0].0 < int.seps.get(0) {
                int.seps.set(0, ops[0].0);
            }
            // Route the run right to left, so adopting a child's new
            // siblings does not shift the children still to come: child
            // `j` takes the ops at or above `seps[j]`.
            let mut hi = ops.len();
            while hi > 0 {
                let j = int.route(ops[hi - 1].0);
                let bound = int.seps.get(j);
                let lo = ops[..hi].partition_point(|row| row.0 < bound);
                let res = insert_batch_rec(&mut int.children[j], &ops[lo..hi], cfg, stats);
                stats.internal_ops += res.siblings.len() as u64;
                delta += res.delta;
                inserted += res.inserted;
                adopt(int, j, res.delta, res.siblings);
                hi = lo;
            }
        }
    }
    let siblings = split_overfull(node, cfg, stats);
    if let Node::Internal(_) = node {
        stats.internal_ops += siblings.len() as u64;
    }
    BatchResult {
        delta,
        inserted,
        siblings,
    }
}

/// `(id, weight, ts)` with `ts == 0` meaning "keep the stored event time".
fn update_node(node: &mut Node, (id, weight, ts): Row, stats: &mut OpStats) -> Option<f64> {
    match node {
        Node::Leaf(leaf) => {
            let i = leaf.ids.position(id)?;
            let old = leaf.fs.get(i);
            leaf.fs.set(i, weight);
            if ts != 0 {
                leaf.set_ts(i, ts);
            }
            stats.leaf_ops += 1;
            Some(weight - old)
        }
        Node::Internal(int) => {
            let j = int.route(id);
            let delta = update_node(&mut int.children[j], (id, weight, ts), stats)?;
            int.cs.add(j, delta);
            Some(delta)
        }
    }
}

/// Counts of one [`SamTree::decay_rows`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecayCounts {
    /// Rows whose weight actually shrank.
    pub decayed: usize,
    /// Of those, rows clamped at the floor.
    pub floored: usize,
}

/// Floored in-place decay of every stamped row the caller picks: each leaf
/// applies the clamp (never writing a value in `(0, floor)`), ancestors
/// fold their child's summed delta into their cumulative tables — the same
/// bottom-up propagation as `update_node`, once per node instead of once
/// per edge. Returns the subtree's weight change.
fn decay_node(
    node: &mut Node,
    floor: f64,
    factor_of: &mut impl FnMut(f64, u64) -> Option<f64>,
    counts: &mut DecayCounts,
    stats: &mut OpStats,
) -> f64 {
    match node {
        Node::Leaf(leaf) => {
            let Some(col) = &leaf.ts else {
                return 0.0;
            };
            // Snapshot first: a decay shifts the values later slots
            // reconstruct from the shared Fenwick entries by a few ULPs.
            let weights = leaf.fs.weights();
            let mut delta = 0.0;
            for (i, (&w, ts)) in weights.iter().zip(col.iter()).enumerate() {
                if ts == 0 {
                    continue;
                }
                let Some(factor) = factor_of(w, ts) else {
                    continue;
                };
                stats.leaf_ops += 1;
                let old = leaf.fs.get(i);
                let d = leaf.fs.decay(i, factor, floor) - old;
                if d < 0.0 {
                    delta += d;
                    counts.decayed += 1;
                    counts.floored += usize::from(w * factor <= floor);
                }
            }
            delta
        }
        Node::Internal(int) => {
            let mut delta = 0.0;
            for (j, child) in int.children.iter_mut().enumerate() {
                let d = decay_node(child, floor, factor_of, counts, stats);
                if d != 0.0 {
                    int.cs.add(j, d);
                    delta += d;
                }
            }
            delta
        }
    }
}

/// Merge `right` into `left` (same level by construction).
fn merge_into(left: &mut Node, right: Node, cfg: &SamTreeConfig) {
    match (left, right) {
        (Node::Leaf(l), Node::Leaf(r)) => {
            let mut rows = l.rows();
            rows.extend(r.rows());
            *l = Leaf::from_rows(&rows, cfg);
        }
        (Node::Internal(l), Node::Internal(r)) => {
            let mut seps = l.seps.to_vec();
            seps.extend(r.seps.iter());
            let mut weights = l.cs.weights();
            weights.extend(r.cs.weights());
            l.children.extend(r.children);
            l.seps = IdList::from_ids(&seps, cfg.compression);
            l.cs = CsTable::from_weights(&weights);
        }
        _ => unreachable!("samtree leaves all live at the same level (Def. 1)"),
    }
}

fn delete_node(node: &mut Node, id: u64, cfg: &SamTreeConfig, stats: &mut OpStats) -> Option<f64> {
    match node {
        Node::Leaf(leaf) => {
            let i = leaf.ids.position(id)?;
            let w = leaf.swap_delete(i);
            stats.leaf_ops += 1;
            Some(w)
        }
        Node::Internal(int) => {
            let j = int.route(id);
            let w = delete_node(&mut int.children[j], id, cfg, stats)?;
            int.cs.add(j, -w);
            if int.children[j].slot_len() < cfg.min_fill() && int.children.len() >= 2 {
                rebalance(int, j, cfg, stats);
            } else if int.children[j].slot_len() == 0 {
                // An only child emptied (a one-child node is legal when
                // `min_fill` is 1): drop it, so this node reads as empty to
                // its own parent and is merged away there, or at the root.
                stats.internal_ops += 1;
                **int = Internal {
                    seps: IdList::new(),
                    cs: CsTable::new(),
                    children: Vec::new(),
                };
            }
            Some(w)
        }
    }
}

/// Merge underfull child `j` with its nearest sibling; if the merged node
/// exceeds capacity, immediately re-split it (redistribution) so no node
/// ever exceeds `c` (Sec. IV-D).
fn rebalance(int: &mut Internal, j: usize, cfg: &SamTreeConfig, stats: &mut OpStats) {
    stats.merges += 1;
    stats.internal_ops += 1;
    let sib = if j + 1 < int.children.len() {
        j + 1
    } else {
        j - 1
    };
    let l = j.min(sib);
    let r = j.max(sib);
    let right = int.children.remove(r);
    int.seps.remove_at(r);
    let right_w = int.cs.remove(r);
    int.cs.add(l, right_w);
    merge_into(&mut int.children[l], right, cfg);
    let siblings = split_overfull(&mut int.children[l], cfg, stats);
    if !siblings.is_empty() {
        adopt(int, l, 0.0, siblings);
    }
}

/// Split `len` items into chunk sizes near `target`, each within
/// `[min_fill, capacity]` (a single chunk may undercut `min_fill`: it
/// becomes the root, which is exempt). Sizes differ by at most one.
fn even_chunks(len: usize, target: usize, min_fill: usize, capacity: usize) -> Vec<usize> {
    debug_assert!(len > 0 && target > 0);
    let mut groups = len.div_ceil(target);
    // Respect the minimum fill: fewer, larger chunks if needed.
    if groups > 1 && len / groups < min_fill {
        groups = (len / min_fill).max(1);
    }
    // Respect capacity: more, smaller chunks if needed.
    groups = groups.max(len.div_ceil(capacity));
    let base = len / groups;
    let extra = len % groups;
    (0..groups)
        .map(|g| if g < extra { base + 1 } else { base })
        .collect()
}

/// Stack a left-to-right ordered, same-level node list under internal
/// levels until a single root remains.
fn stack_levels(mut nodes: Vec<Node>, target: usize, cfg: &SamTreeConfig) -> Node {
    debug_assert!(!nodes.is_empty());
    while nodes.len() > 1 {
        let sizes = even_chunks(nodes.len(), target.max(2), cfg.min_fill(), cfg.capacity);
        let mut level: Vec<Node> = Vec::with_capacity(sizes.len());
        let mut rest = nodes.into_iter();
        for s in sizes {
            // Sized exactly: a child array is never larger than its node.
            let mut children = Vec::with_capacity(s);
            children.extend(rest.by_ref().take(s));
            let seps: Vec<u64> = children.iter().map(Node::min_id).collect();
            let weights: Vec<f64> = children.iter().map(Node::total_weight).collect();
            level.push(Node::Internal(Box::new(Internal {
                seps: IdList::from_ids(&seps, cfg.compression),
                cs: CsTable::from_weights(&weights),
                children,
            })));
        }
        nodes = level;
    }
    nodes.pop().expect("non-empty")
}

/// The samtree for one source vertex: its whole out-neighborhood with
/// per-edge weights, supporting `O(H · n_L)` updates and `O(H · log n_L)`
/// weighted sampling.
///
/// ```
/// use platod2gl_samtree::{OpStats, SamTree, SamTreeConfig};
///
/// let cfg = SamTreeConfig { capacity: 4, alpha: 0, compression: true }.validated();
/// let mut stats = OpStats::default();
/// let mut tree = SamTree::new();
/// for id in 0..100u64 {
///     tree.insert(&cfg, id, 1.0 + id as f64, &mut stats);
/// }
/// assert_eq!(tree.len(), 100);
/// assert!(tree.height() >= 3, "capacity 4 forces a deep tree");
///
/// tree.update_weight(&cfg, 7, 100.0, &mut stats);
/// tree.delete(&cfg, 3, &mut stats);
/// assert_eq!(tree.get(7), Some(100.0));
/// assert!(!tree.contains(3));
/// tree.check_invariants(&cfg).expect("structure stays valid");
///
/// // Weighted sampling threads one residual mass down the tree
/// // (ITS at internal nodes, FTS in the leaf).
/// let picked = tree.sample_with(0.5).expect("non-empty");
/// assert!(tree.contains(picked));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SamTree {
    root: Node,
    len: usize,
}

impl SamTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk-load a tree bottom-up in `O(n log n)` (sort) + `O(n)` (build),
    /// producing leaves filled to ~3/4 capacity — the initial-ingest fast
    /// path used when a snapshot or full edge dump is replayed, avoiding
    /// per-edge descents and incremental splits entirely.
    ///
    /// Duplicate IDs keep the last weight, matching repeated
    /// [`insert`](Self::insert) semantics.
    pub fn bulk_load(cfg: &SamTreeConfig, pairs: &[IdWeight]) -> Self {
        Self::bulk_load_stamped(cfg, pairs.iter().map(|&(id, w)| (id, w, 0)).collect())
    }

    /// [`bulk_load`](Self::bulk_load) of `(id, weight, ts)` rows; duplicate
    /// IDs keep the last row.
    pub fn bulk_load_stamped(cfg: &SamTreeConfig, mut rows: Vec<Row>) -> Self {
        rows.sort_by_key(|r| r.0);
        // Keep the last row per duplicate ID.
        rows.reverse();
        rows.dedup_by_key(|r| r.0);
        rows.reverse();
        if rows.is_empty() {
            return Self::new();
        }
        let len = rows.len();
        // Fill nodes to ~3/4 so immediate post-load inserts do not split,
        // while keeping every non-root node within [min_fill, capacity].
        let target = (cfg.capacity * 3 / 4).max(cfg.min_fill()).max(1);
        let sizes = even_chunks(len, target, cfg.min_fill(), cfg.capacity);
        let mut nodes: Vec<Node> = Vec::with_capacity(sizes.len());
        let mut at = 0;
        for s in sizes {
            nodes.push(Node::Leaf(Leaf::from_rows(&rows[at..at + s], cfg)));
            at += s;
        }
        Self {
            root: stack_levels(nodes, target, cfg),
            len,
        }
    }

    /// Number of neighbors stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree stores no neighbors.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all neighbor weights (`w_s` in the paper).
    pub fn total_weight(&self) -> f64 {
        self.root.total_weight()
    }

    /// Tree height `H` (1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Internal(i) = node {
            h += 1;
            node = &i.children[0];
        }
        h
    }

    /// Insert neighbor `id` with `weight` (Alg. 2). If the neighbor already
    /// exists its weight is set to `weight`. The edge is timeless: an
    /// existing neighbor's event time is cleared.
    pub fn insert(
        &mut self,
        cfg: &SamTreeConfig,
        id: u64,
        weight: f64,
        stats: &mut OpStats,
    ) -> InsertOutcome {
        self.insert_stamped(cfg, (id, weight, 0), stats)
    }

    /// [`insert`](Self::insert) of an `(id, weight, ts)` row: the neighbor's
    /// event time becomes `ts` whether it was new or not. A batch of one.
    pub fn insert_stamped(
        &mut self,
        cfg: &SamTreeConfig,
        row: Row,
        stats: &mut OpStats,
    ) -> InsertOutcome {
        match self.insert_batch_stamped(cfg, &[row], stats) {
            0 => InsertOutcome::Updated,
            _ => InsertOutcome::Inserted,
        }
    }

    /// Batched upsert (Appendix B): apply a run of `(id, weight)` inserts /
    /// weight-sets with a single descent per touched leaf, folding each
    /// touched child's weight change into its parent's CSTable, instead of
    /// per-op root-to-leaf refreshes. Returns the number of *new* neighbors.
    ///
    /// Ops may arrive unsorted; they are applied in ascending-ID order
    /// (stable for duplicate IDs, so the last op on an ID wins — identical
    /// to sequential [`insert`](Self::insert) semantics under the storage
    /// layer's sorted batching).
    pub fn insert_batch(
        &mut self,
        cfg: &SamTreeConfig,
        ops: &[IdWeight],
        stats: &mut OpStats,
    ) -> usize {
        let rows: Vec<Row> = ops.iter().map(|&(id, w)| (id, w, 0)).collect();
        self.insert_batch_stamped(cfg, &rows, stats)
    }

    /// [`insert_batch`](Self::insert_batch) of `(id, weight, ts)` rows, each
    /// with [`insert_stamped`](Self::insert_stamped) semantics.
    pub fn insert_batch_stamped(
        &mut self,
        cfg: &SamTreeConfig,
        ops: &[Row],
        stats: &mut OpStats,
    ) -> usize {
        if ops.is_empty() {
            return 0;
        }
        let sorted_buf: Vec<Row>;
        let ops = if ops.windows(2).all(|w| w[0].0 <= w[1].0) {
            ops
        } else {
            let mut v = ops.to_vec();
            v.sort_by_key(|p| p.0);
            sorted_buf = v;
            &sorted_buf
        };
        let res = insert_batch_rec(&mut self.root, ops, cfg, stats);
        if !res.siblings.is_empty() {
            // Grow a new root over the old one and its new siblings (a
            // split can propagate past the top); sized exactly.
            stats.internal_ops += 1;
            let mut nodes = Vec::with_capacity(1 + res.siblings.len());
            nodes.push(std::mem::take(&mut self.root));
            nodes.extend(res.siblings.into_iter().map(|s| s.right));
            self.root = stack_levels(nodes, (cfg.capacity * 3 / 4).max(2), cfg);
        }
        self.len += res.inserted;
        res.inserted
    }

    /// Set the weight of an existing neighbor, keeping its event time;
    /// `false` if absent.
    pub fn update_weight(
        &mut self,
        cfg: &SamTreeConfig,
        id: u64,
        weight: f64,
        stats: &mut OpStats,
    ) -> bool {
        self.update_weight_stamped(cfg, (id, weight, 0), stats)
    }

    /// [`update_weight`](Self::update_weight) that also sets the neighbor's
    /// event time when the row's `ts` is non-zero (`0` keeps it).
    pub fn update_weight_stamped(
        &mut self,
        _cfg: &SamTreeConfig,
        row: Row,
        stats: &mut OpStats,
    ) -> bool {
        update_node(&mut self.root, row, stats).is_some()
    }

    /// The recency-decay primitive: one walk over the leaves that offers
    /// every stamped row's `(weight, ts)` to `factor_of` and multiplies the
    /// weight by the factor it returns (`None` leaves the row alone),
    /// clamped at the strictly positive `floor` with underflow hardening at
    /// the leaf. Timeless rows are never offered; leaves without a
    /// timestamp column are skipped whole.
    pub fn decay_rows(
        &mut self,
        floor: f64,
        mut factor_of: impl FnMut(f64, u64) -> Option<f64>,
        stats: &mut OpStats,
    ) -> DecayCounts {
        let mut counts = DecayCounts::default();
        decay_node(&mut self.root, floor, &mut factor_of, &mut counts, stats);
        counts
    }

    /// Delete a neighbor, returning its weight; `None` if absent
    /// (Sec. IV-D).
    pub fn delete(&mut self, cfg: &SamTreeConfig, id: u64, stats: &mut OpStats) -> Option<f64> {
        let w = delete_node(&mut self.root, id, cfg, stats)?;
        self.len -= 1;
        // Collapse a root left with a single child (height shrink); with
        // `min_fill` 1 that child can be a one-child internal node again.
        while let Node::Internal(int) = &mut self.root {
            if int.children.len() > 1 {
                break;
            }
            stats.internal_ops += 1;
            self.root = int.children.pop().unwrap_or_default();
        }
        Some(w)
    }

    /// Weight of neighbor `id`, if present.
    pub fn get(&self, id: u64) -> Option<f64> {
        self.get_stamped(id).map(|(w, _)| w)
    }

    /// `(weight, ts)` of neighbor `id`, if present.
    pub fn get_stamped(&self, id: u64) -> Option<(f64, u64)> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(l) => {
                    let i = l.ids.position(id)?;
                    return Some((l.fs.get(i), l.ts_at(i)));
                }
                Node::Internal(i) => node = &i.children[i.route(id)],
            }
        }
    }

    /// Whether neighbor `id` is present.
    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// The leaf slot owning residual mass `r ∈ [0, total_weight())`: ITS at
    /// each internal node, FTS at the leaf (Sec. V-C).
    fn locate(&self, mut r: f64) -> Option<(&Leaf, usize)> {
        if self.is_empty() {
            return None;
        }
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(l) => return Some((l, l.fs.sample_with(r))),
                Node::Internal(int) => {
                    let j = int.cs.its_search(r);
                    if j > 0 {
                        r -= int.cs.prefix_sum(j - 1);
                    }
                    node = &int.children[j];
                }
            }
        }
    }

    /// Weighted sample driven by an externally drawn residual mass
    /// `r ∈ [0, total_weight())`.
    pub fn sample_with(&self, r: f64) -> Option<u64> {
        self.locate(r).map(|(l, i)| l.ids.get(i))
    }

    /// [`sample_with`](Self::sample_with) returning `(id, ts)`: the event
    /// time is read from the leaf slot the draw landed on.
    pub fn sample_with_stamped(&self, r: f64) -> Option<(u64, u64)> {
        self.locate(r).map(|(l, i)| (l.ids.get(i), l.ts_at(i)))
    }

    /// Draw one neighbor with probability `w_{s,u} / w_s`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u64> {
        self.sample_k(1, rng).pop()
    }

    /// Draw `k` neighbors with replacement.
    pub fn sample_k<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<u64> {
        let total = self.total_weight();
        if self.is_empty() || total <= 0.0 {
            return Vec::new();
        }
        (0..k)
            .filter_map(|_| self.sample_with(rng.random_range(0.0..total)))
            .collect()
    }

    /// Visit every `(id, weight, ts)` row in tree (left-to-right) order
    /// without allocating.
    pub fn for_each_row(&self, mut f: impl FnMut(u64, f64, u64)) {
        fn walk(node: &Node, f: &mut impl FnMut(u64, f64, u64)) {
            match node {
                Node::Leaf(l) => l.for_each_row(f),
                Node::Internal(i) => {
                    for c in &i.children {
                        walk(c, f);
                    }
                }
            }
        }
        walk(&self.root, &mut f);
    }

    /// All `(id, weight)` pairs, in tree (left-to-right) order.
    pub fn entries(&self) -> Vec<IdWeight> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_row(|id, w, _| out.push((id, w)));
        out
    }

    /// All `(id, weight, ts)` rows, in tree (left-to-right) order.
    pub fn rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_row(|id, w, ts| out.push((id, w, ts)));
        out
    }

    /// Split the tree's heap footprint into `(leaf_bytes, internal_bytes)`.
    ///
    /// Leaf bytes are the id lists plus Fenwick tables holding actual
    /// edges; internal bytes are the boxed internal nodes, their
    /// separator/cumulative-sum tables and the child spines — pure index
    /// overhead. The two always sum to
    /// [`DeepSize::heap_bytes`], so the admin `/debug/memory` breakdown
    /// stays consistent with the `graph.mem.samtree_bytes` gauge.
    pub fn memory_breakdown(&self) -> (usize, usize) {
        fn split(node: &Node) -> (usize, usize) {
            match node {
                Node::Leaf(l) => (l.ids.heap_bytes() + l.fs.heap_bytes(), 0),
                Node::Internal(i) => {
                    let mut leaf = 0;
                    let mut internal = std::mem::size_of::<Internal>()
                        + i.seps.heap_bytes()
                        + i.cs.heap_bytes()
                        + i.children.capacity() * std::mem::size_of::<Node>();
                    for c in &i.children {
                        let (l, n) = split(c);
                        leaf += l;
                        internal += n;
                    }
                    (leaf, internal)
                }
            }
        }
        split(&self.root)
    }

    /// The part of [`memory_breakdown`](Self::memory_breakdown)'s leaf bytes
    /// the rows themselves need: rows × (suffix width + one weight entry).
    /// The rest of the leaf bytes is spare column capacity, which the
    /// bounded-slack rule keeps within a fraction of the rows.
    pub fn leaf_payload_bytes(&self) -> usize {
        fn walk(node: &Node) -> usize {
            match node {
                Node::Leaf(l) => l.payload_bytes(),
                Node::Internal(i) => i.children.iter().map(walk).sum(),
            }
        }
        walk(&self.root)
    }

    /// Heap bytes of the leaves' timestamp columns (0 for a timeless tree).
    /// Reported on its own: [`DeepSize::heap_bytes`] and
    /// [`memory_breakdown`](Self::memory_breakdown) keep the paper's
    /// Table-IV topology definition (ids, weights, index) and exclude it.
    pub fn timestamp_bytes(&self) -> usize {
        fn walk(node: &Node) -> usize {
            match node {
                Node::Leaf(l) => l.ts.as_ref().map_or(0, DeepSize::heap_bytes),
                Node::Internal(i) => i.children.iter().map(walk).sum(),
            }
        }
        walk(&self.root)
    }

    /// Number of (leaf, internal) nodes.
    pub fn node_counts(&self) -> (usize, usize) {
        fn count(node: &Node, acc: &mut (usize, usize)) {
            match node {
                Node::Leaf(_) => acc.0 += 1,
                Node::Internal(i) => {
                    acc.1 += 1;
                    for c in &i.children {
                        count(c, acc);
                    }
                }
            }
        }
        let mut acc = (0, 0);
        count(&self.root, &mut acc);
        acc
    }

    /// Verify every structural invariant; returns a description of the
    /// first violation. Test/debug aid — walks the whole tree.
    pub fn check_invariants(&self, cfg: &SamTreeConfig) -> Result<(), String> {
        // Returns (min_id, max_id, total_weight, leaf_depth).
        fn walk(
            node: &Node,
            cfg: &SamTreeConfig,
            is_root: bool,
        ) -> Result<(u64, u64, f64, usize), String> {
            match node {
                Node::Leaf(l) => {
                    if l.ids.len() != l.fs.len() {
                        return Err(format!(
                            "leaf ids/fs length mismatch: {} vs {}",
                            l.ids.len(),
                            l.fs.len()
                        ));
                    }
                    if let Some(col) = &l.ts {
                        if col.len() != l.ids.len() {
                            return Err(format!(
                                "leaf ids/ts length mismatch: {} vs {}",
                                l.ids.len(),
                                col.len()
                            ));
                        }
                    }
                    if l.ids.len() > cfg.capacity {
                        return Err(format!("leaf over capacity: {}", l.ids.len()));
                    }
                    if !l.slack_within_bound() {
                        return Err(format!(
                            "leaf column slack past the bound at {} rows",
                            l.ids.len()
                        ));
                    }
                    if !is_root && l.ids.len() < cfg.min_fill() {
                        return Err(format!("leaf underfull: {}", l.ids.len()));
                    }
                    if l.ids.is_empty() {
                        if is_root {
                            return Ok((u64::MAX, 0, 0.0, 1));
                        }
                        return Err("empty non-root leaf".into());
                    }
                    let ids = l.ids.to_vec();
                    let mut sorted = ids.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    if sorted.len() != ids.len() {
                        return Err("duplicate IDs in leaf".into());
                    }
                    // The FSTable against its own weights: each recovered
                    // weight is finite and non-negative (up to rounding),
                    // and together they make up the table's total.
                    let total = l.fs.total();
                    let tol = 1.0 + total.abs();
                    let mut sum = 0.0;
                    for (i, w) in l.fs.iter_weights().enumerate() {
                        if !w.is_finite() || w < -1e-9 * tol {
                            return Err(format!("leaf weight {i} = {w} is negative or not finite"));
                        }
                        sum += w;
                    }
                    if (sum - total).abs() > 1e-6 * tol {
                        return Err(format!("leaf weights sum to {sum} != fs total {total}"));
                    }
                    let min = *sorted.first().expect("non-empty");
                    let max = *sorted.last().expect("non-empty");
                    Ok((min, max, total, 1))
                }
                Node::Internal(int) => {
                    let n = int.children.len();
                    if n != int.seps.len() || n != int.cs.len() {
                        return Err("internal seps/cs/children length mismatch".into());
                    }
                    if n > cfg.capacity {
                        return Err(format!("internal over capacity: {n}"));
                    }
                    if is_root && n < 2 {
                        return Err("internal root with fewer than 2 children".into());
                    }
                    if !is_root && n < cfg.min_fill() {
                        return Err(format!("internal underfull: {n}"));
                    }
                    let mut prev_max: Option<u64> = None;
                    let mut total = 0.0;
                    let mut depth: Option<usize> = None;
                    for j in 0..n {
                        let (cmin, cmax, cw, cd) = walk(&int.children[j], cfg, false)?;
                        let sep = int.seps.get(j);
                        if sep > cmin {
                            return Err(format!("separator {sep} exceeds child {j} min {cmin}"));
                        }
                        if let Some(pm) = prev_max {
                            if cmin <= pm {
                                return Err(format!(
                                    "child {j} min {cmin} overlaps previous max {pm}"
                                ));
                            }
                            if sep <= pm {
                                return Err(format!("separator {sep} not above previous max {pm}"));
                            }
                        }
                        prev_max = Some(cmax);
                        let entry = int.cs.get(j);
                        if (entry - cw).abs() > 1e-6 * (1.0 + cw.abs()) {
                            return Err(format!("cs entry {j} = {entry} != child weight {cw}"));
                        }
                        total += cw;
                        match depth {
                            None => depth = Some(cd),
                            Some(d) if d != cd => return Err("leaves at different levels".into()),
                            _ => {}
                        }
                    }
                    let min = int.children[0].min_id().min(int.seps.get(0));
                    Ok((
                        min,
                        prev_max.expect("at least one child"),
                        total,
                        depth.expect("at least one child") + 1,
                    ))
                }
            }
        }
        let (_, _, total, _) = walk(&self.root, cfg, true)?;
        let mut expected = 0usize;
        self.for_each_row(|_, _, _| expected += 1);
        if expected != self.len {
            return Err(format!("len {} != entries {}", self.len, expected));
        }
        if (total - self.total_weight()).abs() > 1e-6 * (1.0 + total.abs()) {
            return Err("root weight mismatch".into());
        }
        Ok(())
    }
}

impl DeepSize for Node {
    fn heap_bytes(&self) -> usize {
        match self {
            Node::Leaf(l) => l.ids.heap_bytes() + l.fs.heap_bytes(),
            Node::Internal(i) => {
                std::mem::size_of::<Internal>()
                    + i.seps.heap_bytes()
                    + i.cs.heap_bytes()
                    + i.children.capacity() * std::mem::size_of::<Node>()
                    + i.children.iter().map(DeepSize::heap_bytes).sum::<usize>()
            }
        }
    }
}

impl DeepSize for SamTree {
    fn heap_bytes(&self) -> usize {
        self.root.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(capacity: usize, alpha: usize) -> SamTreeConfig {
        SamTreeConfig {
            capacity,
            alpha,
            compression: true,
        }
        .validated()
    }

    fn build(cfg_: &SamTreeConfig, pairs: &[(u64, f64)]) -> SamTree {
        let mut t = SamTree::new();
        let mut stats = OpStats::default();
        for &(id, w) in pairs {
            t.insert(cfg_, id, w, &mut stats);
        }
        t
    }

    #[test]
    fn paper_example1_single_leaf() {
        // Fig. 3: v3 has two out-neighbors (4, 0.6) and (7, 0.7); with
        // capacity >= 2 they fit one leaf, and FSTable = [0.6, 1.3].
        let c = cfg(4, 0);
        let t = build(&c, &[(4, 0.6), (7, 0.7)]);
        assert_eq!(t.height(), 1);
        assert_eq!(t.len(), 2);
        assert!((t.total_weight() - 1.3).abs() < 1e-9);
        assert!((t.get(4).expect("present") - 0.6).abs() < 1e-9);
        assert!((t.get(7).expect("present") - 0.7).abs() < 1e-9);
        t.check_invariants(&c).expect("invariants");
    }

    #[test]
    fn grows_to_two_levels_like_fig3_v1() {
        // Fig. 3: v1 has 3 out-neighbors with capacity 2 => one internal,
        // two leaves.
        let c = cfg(4, 0); // capacity 4: need 5 neighbors to split
        let t = build(&c, &[(2, 0.1), (3, 0.4), (5, 0.2), (6, 0.3), (9, 0.5)]);
        assert_eq!(t.height(), 2);
        assert_eq!(t.len(), 5);
        let (leaves, internals) = t.node_counts();
        assert_eq!(internals, 1);
        assert_eq!(leaves, 2);
        t.check_invariants(&c).expect("invariants");
    }

    #[test]
    fn an_overfull_internal_node_keeps_the_lower_median_on_the_left() {
        // Ascending ids at capacity 4 fill the last leaf, which splits 2/3
        // every second insert; the 11th gives the root a fifth leaf.
        let c = cfg(4, 0);
        let mut stats = OpStats::default();
        let mut t = SamTree::new();
        for id in 0..11u64 {
            t.insert(&c, id, 1.0, &mut stats);
        }
        t.check_invariants(&c).expect("invariants");
        let Node::Internal(root) = &t.root else {
            panic!("eleven rows need internal levels");
        };
        let fanouts: Vec<usize> = root.children.iter().map(Node::slot_len).collect();
        assert_eq!(
            fanouts,
            vec![2, 3],
            "two children stay left, three go right"
        );
        assert_eq!(
            stats,
            OpStats {
                leaf_ops: 11,
                // Two root growths, three adopted leaf splits, one split.
                internal_ops: 6,
                leaf_splits: 4,
                internal_splits: 1,
                merges: 0,
            }
        );
        // Whatever α and the parity of c, the first internal split is
        // two-way at the lower median of its c + 1 children.
        for (capacity, alpha) in [(4, 1), (5, 0), (5, 1), (16, 4), (64, 24)] {
            let c = cfg(capacity, alpha);
            let mut t = SamTree::new();
            let mut id = 0u64;
            while t.height() < 3 {
                t.insert(&c, id, 1.0, &mut stats);
                id += 1;
            }
            t.check_invariants(&c).expect("invariants");
            let Node::Internal(root) = &t.root else {
                unreachable!("height 3");
            };
            let fanouts: Vec<usize> = root.children.iter().map(Node::slot_len).collect();
            let left = capacity.div_ceil(2);
            assert_eq!(
                fanouts,
                vec![left, capacity + 1 - left],
                "c={capacity} α={alpha}"
            );
        }
    }

    #[test]
    fn insert_existing_updates_weight() {
        let c = cfg(4, 0);
        let mut t = build(&c, &[(1, 0.5)]);
        let mut stats = OpStats::default();
        assert_eq!(t.insert(&c, 1, 0.9, &mut stats), InsertOutcome::Updated);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(1), Some(0.9));
        assert!((t.total_weight() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn thousands_of_inserts_keep_invariants() {
        for capacity in [4usize, 8, 16, 64] {
            for alpha in [0usize, 1] {
                let alpha = alpha.min(capacity / 2 - 1);
                let c = cfg(capacity, alpha);
                let mut t = SamTree::new();
                let mut stats = OpStats::default();
                // Scrambled insertion order.
                for k in 0..3000u64 {
                    let id = (k * 2654435761) % 100_000;
                    t.insert(&c, id, (id % 13) as f64 + 0.5, &mut stats);
                }
                t.check_invariants(&c)
                    .unwrap_or_else(|e| panic!("capacity {capacity}: {e}"));
                let min_height = if capacity <= 16 { 3 } else { 2 };
                assert!(
                    t.height() >= min_height,
                    "tree should be deep at capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn entries_match_reference_map() {
        use std::collections::BTreeMap;
        let c = cfg(8, 0);
        let mut t = SamTree::new();
        let mut reference = BTreeMap::new();
        let mut stats = OpStats::default();
        for k in 0..2000u64 {
            let id = (k * 48271) % 5000;
            let w = (k % 7) as f64 + 0.25;
            t.insert(&c, id, w, &mut stats);
            reference.insert(id, w);
        }
        assert_eq!(t.len(), reference.len());
        let entries = t.entries();
        // Tree order is sorted across leaves but unordered within; compare
        // as a map.
        let got: BTreeMap<u64, u64> = entries.iter().map(|&(i, w)| (i, w.to_bits())).collect();
        let want: BTreeMap<u64, u64> = reference.iter().map(|(&i, &w)| (i, w.to_bits())).collect();
        assert_eq!(got.len(), want.len());
        for (k, v) in &want {
            let g = got.get(k).copied().unwrap_or(0);
            assert!(
                (f64::from_bits(g) - f64::from_bits(*v)).abs() < 1e-6,
                "id {k}"
            );
        }
    }

    #[test]
    fn delete_removes_and_rebalances() {
        let c = cfg(4, 0);
        let mut t = SamTree::new();
        let mut stats = OpStats::default();
        for id in 0..200u64 {
            t.insert(&c, id, 1.0, &mut stats);
        }
        assert!(t.height() >= 3);
        for id in 0..150u64 {
            let w = t.delete(&c, id, &mut stats);
            assert_eq!(w, Some(1.0), "id {id}");
            t.check_invariants(&c)
                .unwrap_or_else(|e| panic!("after deleting {id}: {e}"));
        }
        assert_eq!(t.len(), 50);
        for id in 0..150u64 {
            assert!(!t.contains(id));
        }
        for id in 150..200u64 {
            assert!(t.contains(id));
        }
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let c = cfg(4, 0);
        let mut t = SamTree::new();
        let mut stats = OpStats::default();
        for id in 0..100u64 {
            t.insert(&c, id, 0.5, &mut stats);
        }
        for id in (0..100u64).rev() {
            assert!(t.delete(&c, id, &mut stats).is_some());
        }
        assert!(t.is_empty());
        assert_eq!(t.total_weight(), 0.0);
        t.insert(&c, 42, 1.0, &mut stats);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(42), Some(1.0));
        t.check_invariants(&c).expect("invariants");
    }

    #[test]
    fn draining_at_min_fill_one_leaves_no_empty_nodes() {
        // capacity 4, α = 1: `min_fill` is 1, so one-child internal nodes
        // are legal and an only child can empty under them.
        let c = cfg(4, 1);
        for order in 0..3 {
            let mut t = SamTree::new();
            let mut stats = OpStats::default();
            for id in 0..200u64 {
                t.insert(&c, id, 1.0, &mut stats);
            }
            for k in 0..200u64 {
                let id = match order {
                    0 => k,
                    1 => 199 - k,
                    _ => (k * 77) % 200,
                };
                assert!(t.delete(&c, id, &mut stats).is_some());
                t.check_invariants(&c)
                    .unwrap_or_else(|e| panic!("order {order}, after deleting {id}: {e}"));
            }
            assert!(t.is_empty() && t.height() == 1);
        }
    }

    #[test]
    fn delete_missing_returns_none() {
        let c = cfg(4, 0);
        let mut t = build(&c, &[(1, 1.0), (2, 2.0)]);
        let mut stats = OpStats::default();
        assert_eq!(t.delete(&c, 99, &mut stats), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn update_weight_propagates_to_root_tables() {
        let c = cfg(4, 0);
        let mut t = SamTree::new();
        let mut stats = OpStats::default();
        for id in 0..50u64 {
            t.insert(&c, id, 1.0, &mut stats);
        }
        assert!(t.update_weight(&c, 30, 5.0, &mut stats));
        assert_eq!(t.get(30), Some(5.0));
        assert!((t.total_weight() - 54.0).abs() < 1e-6);
        t.check_invariants(&c).expect("invariants");
        assert!(!t.update_weight(&c, 999, 1.0, &mut stats));
    }

    #[test]
    fn decay_rows_propagates_and_clamps_at_floor() {
        let c = cfg(4, 0);
        let mut t = SamTree::new();
        let mut stats = OpStats::default();
        // Even ids stamped with their id, odd ids timeless.
        for id in 0..50u64 {
            let ts = if id % 2 == 0 { id + 1 } else { 0 };
            t.insert_stamped(&c, (id, 1.0, ts), &mut stats);
        }
        assert!(t.height() >= 3);
        let floor = 1e-3;
        // Halve the one row stamped 31 (id 30).
        let counts = t.decay_rows(floor, |_, ts| (ts == 31).then_some(0.5), &mut stats);
        assert_eq!(
            counts,
            DecayCounts {
                decayed: 1,
                floored: 0
            }
        );
        assert!((t.get(30).expect("present") - 0.5).abs() < 1e-12);
        assert!((t.total_weight() - 49.5).abs() < 1e-6);
        // Repeated aggressive decay converges to the floor, never below,
        // and timeless rows are never offered.
        let mut offered_timeless = false;
        for _ in 0..100 {
            t.decay_rows(
                floor,
                |_, ts| {
                    offered_timeless |= ts == 0;
                    Some(0.1)
                },
                &mut stats,
            );
        }
        assert!(!offered_timeless);
        for id in 0..50u64 {
            let want = if id % 2 == 0 { floor } else { 1.0 };
            assert!(
                (t.get(id).expect("present") - want).abs() < 1e-12,
                "id {id}"
            );
        }
        let counts = t.decay_rows(floor, |_, _| Some(0.1), &mut stats);
        assert_eq!(counts, DecayCounts::default(), "floored rows stay put");
        t.check_invariants(&c).expect("invariants after decay");
    }

    #[test]
    fn sampling_distribution_matches_weights_across_levels() {
        let c = cfg(4, 0); // deep tree
        let mut t = SamTree::new();
        let mut stats = OpStats::default();
        // Weights proportional to id+1 over 64 ids.
        for id in 0..64u64 {
            t.insert(&c, id, (id + 1) as f64, &mut stats);
        }
        assert!(t.height() >= 3);
        let total: f64 = (1..=64u64).sum::<u64>() as f64;
        let mut rng = StdRng::seed_from_u64(99);
        let draws = 200_000;
        let mut counts = vec![0usize; 64];
        for _ in 0..draws {
            counts[t.sample(&mut rng).expect("non-empty") as usize] += 1;
        }
        for (id, &count) in counts.iter().enumerate() {
            let expected = draws as f64 * (id + 1) as f64 / total;
            let got = count as f64;
            assert!(
                (got - expected).abs() < expected * 0.25 + 30.0,
                "id {id}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn sample_k_draws_with_replacement() {
        let c = cfg(4, 0);
        let t = build(&c, &[(1, 1.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let s = t.sample_k(10, &mut rng);
        assert_eq!(s, vec![1; 10]);
        assert!(SamTree::new().sample_k(5, &mut rng).is_empty());
    }

    #[test]
    fn zero_total_weight_sampling_is_none() {
        let c = cfg(4, 0);
        let t = build(&c, &[(1, 0.0), (2, 0.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(t.sample(&mut rng), None);
    }

    #[test]
    fn table5_style_leaf_fraction_increases_with_capacity() {
        let mut fractions = Vec::new();
        for capacity in [8usize, 32, 128] {
            let c = cfg(capacity, 0);
            let mut t = SamTree::new();
            let mut stats = OpStats::default();
            for k in 0..20_000u64 {
                let id = (k * 2654435761) % 1_000_000;
                t.insert(&c, id, 1.0, &mut stats);
            }
            fractions.push(stats.leaf_fraction());
        }
        assert!(
            fractions[0] < fractions[1] && fractions[1] < fractions[2],
            "leaf fraction should grow with capacity: {fractions:?}"
        );
        assert!(
            fractions[2] > 0.98,
            "capacity 128 should exceed 98% leaf ops (paper Table V): {}",
            fractions[2]
        );
    }

    #[test]
    fn compression_reduces_tree_memory_on_clustered_ids() {
        let base = 0x00AB_CDEF_0000_0000u64;
        let mut on = SamTree::new();
        let mut off = SamTree::new();
        let c_on = cfg(64, 0);
        let c_off = SamTreeConfig {
            compression: false,
            ..c_on
        };
        let mut stats = OpStats::default();
        for i in 0..5_000u64 {
            on.insert(&c_on, base | i, 1.0, &mut stats);
            off.insert(&c_off, base | i, 1.0, &mut stats);
        }
        let (b_on, b_off) = (on.heap_bytes(), off.heap_bytes());
        assert!(
            (b_on as f64) < b_off as f64 * 0.8,
            "compressed {b_on} should be well below plain {b_off}"
        );
        on.check_invariants(&c_on).expect("invariants");
    }

    #[test]
    fn memory_breakdown_sums_to_heap_bytes() {
        let c = cfg(16, 0);
        let mut t = SamTree::new();
        let mut stats = OpStats::default();
        for i in 0..5_000u64 {
            t.insert(&c, (i * 2654435761) % 100_000, 1.0, &mut stats);
        }
        let (leaf, internal) = t.memory_breakdown();
        assert_eq!(leaf + internal, t.heap_bytes(), "breakdown is exact");
        assert!(leaf > 0, "edges live in leaves");
        assert!(internal > 0, "a 5k-entry tree has internal levels");
        let empty = SamTree::new();
        assert_eq!(empty.memory_breakdown().1, 0, "a lone leaf has no index");
        assert_eq!(
            empty.memory_breakdown().0 + empty.memory_breakdown().1,
            empty.heap_bytes()
        );
    }

    #[test]
    fn timestamp_column_costs_no_node_bytes_and_is_counted_on_its_own() {
        // `Internal` is boxed, so the leaf sets the node size; the boxed
        // column costs it one thin pointer.
        assert_eq!(std::mem::size_of::<Node>(), 72);
        assert_eq!(std::mem::size_of::<SamTree>(), 80);
        let c = cfg(16, 0);
        let mut stats = OpStats::default();
        let (mut timeless, mut stamped) = (SamTree::new(), SamTree::new());
        for i in 0..5_000u64 {
            let id = (i * 2654435761) % 100_000;
            timeless.insert(&c, id, 1.0, &mut stats);
            stamped.insert_stamped(&c, (id, 1.0, i + 1), &mut stats);
        }
        assert_eq!(timeless.timestamp_bytes(), 0);
        // Stamps 1..=5000 share their top six bytes in every leaf, so each
        // column codes them at z = 6: 2 B of payload per stamp, plus one
        // 40-B boxed `IdList` header per leaf and the bounded slack.
        assert_eq!(std::mem::size_of::<IdList>(), 40);
        let (leaves, _) = stamped.node_counts();
        assert_eq!(leaves, 436);
        assert_eq!(stamped.timestamp_bytes(), 5_000 * 2 + 436 * 40 + 390);
        assert!(stamped.timestamp_bytes() < 5_000 * 8, "below 8 B per stamp");
        // Table-IV bytes (ids, weights, index) do not see the column.
        assert_eq!(stamped.heap_bytes(), timeless.heap_bytes());
        let (leaf, internal) = stamped.memory_breakdown();
        assert_eq!(leaf + internal, stamped.heap_bytes());
    }

    #[test]
    fn realistic_timestamps_take_the_suffix_width_their_span_allows() {
        // 200 rows fill one leaf; the column's suffix width is what each
        // of its stamps costs.
        let c = cfg(256, 0);
        let width = |stamps: &[u64]| {
            let mut stats = OpStats::default();
            let mut t = SamTree::new();
            for (id, &ts) in (0u64..).zip(stamps) {
                t.insert_stamped(&c, (id, 1.0, ts), &mut stats);
            }
            let got: Vec<u64> = t.rows().iter().map(|r| r.2).collect();
            assert_eq!(got, stamps, "the column reads back exactly");
            let Node::Leaf(l) = &t.root else {
                panic!("200 rows fit one leaf");
            };
            l.ts.as_ref().expect("stamped leaf").bytes_per_id()
        };
        // Unix seconds over a year stay below 2^32: z = 4.
        let secs: Vec<u64> = (0..200).map(|i| 1_700_000_000 + i * 157_680).collect();
        assert_eq!(width(&secs), 4);
        // Epoch milliseconds over three days, inside one 2^32-ms (≈ 49.7-day)
        // window: z = 4.
        let ms: Vec<u64> = (0..200)
            .map(|i| 1_700_000_000_000 + i * 1_296_000)
            .collect();
        assert_eq!(width(&ms), 4);
        // The same times beside one timeless row share only two leading
        // bytes with it: plain, 8 B a stamp.
        let mut mixed = ms.clone();
        mixed[100] = 0;
        assert_eq!(width(&mixed), 8);
    }

    #[test]
    fn check_invariants_refuses_a_corrupt_leaf_fenwick_entry() {
        let c = cfg(16, 0);
        let mut t = build(&c, &[(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)]);
        t.check_invariants(&c).expect("intact leaf");
        let Node::Leaf(l) = &mut t.root else {
            panic!("four rows fit one leaf");
        };
        // Raise entry 0 by 3, so slot 1 reads back as -1. Exactly one
        // Fenwick entry differs, and the leaf total (the only figure the
        // tree-level checks compare) is unchanged.
        let bad = FsTable::from_weights(&[4.0, -1.0, 3.0, 4.0]);
        let changed: Vec<usize> = (0..4).filter(|&i| bad.entry(i) != l.fs.entry(i)).collect();
        assert_eq!(changed, vec![0]);
        assert_eq!(bad.total(), l.fs.total());
        l.fs = bad;
        let err = t.check_invariants(&c).expect_err("negative leaf weight");
        assert!(err.contains("leaf weight 1"), "{err}");
    }

    #[test]
    fn leaf_column_is_absent_until_the_first_stamp() {
        let c = cfg(4, 0);
        let mut stats = OpStats::default();
        let mut t = SamTree::new();
        for id in 0..40u64 {
            t.insert(&c, id, 1.0, &mut stats);
        }
        assert_eq!(t.timestamp_bytes(), 0);
        // One stamp allocates one leaf's column, zero-filled.
        assert!(t.update_weight_stamped(&c, (17, 2.0, 900), &mut stats));
        let one_leaf = t.timestamp_bytes();
        assert!(one_leaf > 0 && one_leaf <= std::mem::size_of::<Vec<u64>>() + 4 * 8);
        assert_eq!(t.get_stamped(17), Some((2.0, 900)));
        assert_eq!(t.get_stamped(16), Some((1.0, 0)));
        // A rebuilt leaf whose rows are all timeless drops the column.
        t.insert(&c, 17, 2.0, &mut stats);
        for id in 40..60u64 {
            t.insert(&c, id, 1.0, &mut stats);
        }
        t.delete(&c, 16, &mut stats);
        t.delete(&c, 18, &mut stats);
        t.check_invariants(&c).expect("invariants");
        let mut stamps = 0;
        t.for_each_row(|_, _, ts| stamps += usize::from(ts != 0));
        assert_eq!(stamps, 0);
    }

    #[test]
    fn stamped_draw_reads_the_slot_it_landed_on() {
        let c = cfg(4, 0);
        let mut stats = OpStats::default();
        let mut t = SamTree::new();
        for id in 0..200u64 {
            let ts = if id % 3 == 0 { 0 } else { 1_000 + id };
            t.insert_stamped(&c, (id, 1.0 + (id % 5) as f64, ts), &mut stats);
        }
        // The same residual mass lands on the same slot as the timeless draw.
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..2_000 {
            let r = a.random_range(0.0..t.total_weight());
            let (id, ts) = t.sample_with_stamped(r).expect("non-empty");
            assert_eq!(Some(id), t.sample(&mut b));
            assert_eq!(ts, if id % 3 == 0 { 0 } else { 1_000 + id });
        }
        assert_eq!(SamTree::new().sample_with_stamped(0.0), None);
    }

    #[test]
    fn bulk_load_sizes_every_child_array_exactly() {
        // Four internal levels over 8,334 leaves: a child array carved out
        // of a whole level would keep that level's capacity.
        let c = cfg(16, 0);
        let pairs: Vec<(u64, f64)> = (0..100_000u64).map(|id| (id, 1.0)).collect();
        let tree = SamTree::bulk_load(&c, &pairs);
        assert_eq!(tree.height(), 5);
        let (mut stack, mut internal) = (vec![&tree.root], 0);
        while let Some(node) = stack.pop() {
            if let Node::Internal(i) = node {
                assert_eq!(i.children.capacity(), i.children.len());
                internal += 1;
                stack.extend(&i.children);
            }
        }
        assert!(internal > 700, "{internal} internal nodes");
    }

    #[test]
    fn bulk_load_equals_incremental_build() {
        let c = cfg(16, 0);
        let pairs: Vec<(u64, f64)> = (0..5_000u64)
            .map(|k| ((k * 2654435761) % 100_000, (k % 9) as f64 + 0.5))
            .collect();
        let bulk = SamTree::bulk_load(&c, &pairs);
        bulk.check_invariants(&c).expect("bulk invariants");
        let mut inc = SamTree::new();
        let mut stats = OpStats::default();
        for &(id, w) in &pairs {
            inc.insert(&c, id, w, &mut stats);
        }
        assert_eq!(bulk.len(), inc.len());
        assert!((bulk.total_weight() - inc.total_weight()).abs() < 1e-4);
        for &(id, _) in &pairs {
            let (a, b) = (bulk.get(id), inc.get(id));
            assert!(a.is_some() && b.is_some(), "id {id}");
            assert!((a.expect("present") - b.expect("present")).abs() < 1e-6);
        }
    }

    #[test]
    fn insert_batch_equals_sequential_inserts() {
        for capacity in [4usize, 8, 64] {
            let c = cfg(capacity, 0);
            let ops: Vec<(u64, f64)> = (0..4_000u64)
                .map(|k| ((k * 2654435761) % 10_000, (k % 11) as f64 + 0.5))
                .collect();
            let mut batched = SamTree::new();
            let mut seq = SamTree::new();
            let mut stats = OpStats::default();
            for chunk in ops.chunks(257) {
                batched.insert_batch(&c, chunk, &mut stats);
            }
            for &(id, w) in &ops {
                seq.insert(&c, id, w, &mut stats);
            }
            assert_eq!(batched.len(), seq.len(), "capacity {capacity}");
            batched
                .check_invariants(&c)
                .unwrap_or_else(|e| panic!("capacity {capacity}: {e}"));
            assert!((batched.total_weight() - seq.total_weight()).abs() < 1e-3);
            for &(id, _) in &ops {
                let (a, b) = (batched.get(id), seq.get(id));
                assert!(
                    (a.expect("present") - b.expect("present")).abs() < 1e-6,
                    "id {id}"
                );
            }
        }
    }

    #[test]
    fn insert_batch_single_giant_batch_multiway_splits() {
        let c = cfg(8, 0);
        let ops: Vec<(u64, f64)> = (0..2_000u64).map(|i| (i, 1.0)).collect();
        let mut t = SamTree::new();
        let mut stats = OpStats::default();
        let inserted = t.insert_batch(&c, &ops, &mut stats);
        assert_eq!(inserted, 2_000);
        assert_eq!(t.len(), 2_000);
        t.check_invariants(&c).expect("invariants");
        assert!(t.height() >= 3, "giant batch must build a deep tree");
    }

    #[test]
    fn insert_batch_duplicate_ids_last_wins() {
        let c = cfg(4, 0);
        let mut t = SamTree::new();
        let mut stats = OpStats::default();
        let inserted = t.insert_batch(&c, &[(5, 1.0), (5, 2.0), (5, 3.0)], &mut stats);
        assert_eq!(inserted, 1);
        assert!((t.get(5).expect("present") - 3.0).abs() < 1e-9);
    }

    #[test]
    fn insert_batch_unsorted_input_is_sorted_internally() {
        let c = cfg(4, 0);
        let mut t = SamTree::new();
        let mut stats = OpStats::default();
        t.insert_batch(&c, &[(9, 1.0), (1, 2.0), (5, 3.0)], &mut stats);
        assert_eq!(t.len(), 3);
        t.check_invariants(&c).expect("invariants");
    }

    #[test]
    fn insert_batch_into_existing_tree() {
        let c = cfg(8, 1);
        let mut t = SamTree::bulk_load(&c, &(0..300u64).map(|i| (i * 2, 1.0)).collect::<Vec<_>>());
        let mut stats = OpStats::default();
        let ops: Vec<(u64, f64)> = (0..300u64).map(|i| (i * 2 + 1, 2.0)).collect();
        let inserted = t.insert_batch(&c, &ops, &mut stats);
        assert_eq!(inserted, 300);
        assert_eq!(t.len(), 600);
        t.check_invariants(&c).expect("invariants");
        assert!((t.total_weight() - 900.0).abs() < 1e-6);
    }

    #[test]
    fn bulk_load_duplicates_keep_last_weight() {
        let c = cfg(4, 0);
        let t = SamTree::bulk_load(&c, &[(1, 1.0), (2, 2.0), (1, 9.0)]);
        assert_eq!(t.len(), 2);
        assert!((t.get(1).expect("present") - 9.0).abs() < 1e-9);
    }

    #[test]
    fn bulk_load_edge_sizes() {
        let c = cfg(8, 0);
        assert!(SamTree::bulk_load(&c, &[]).is_empty());
        for n in [1u64, 2, 5, 6, 7, 8, 9, 13, 48, 49, 100] {
            let pairs: Vec<(u64, f64)> = (0..n).map(|i| (i, 1.0)).collect();
            let t = SamTree::bulk_load(&c, &pairs);
            assert_eq!(t.len(), n as usize, "n={n}");
            t.check_invariants(&c)
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn bulk_loaded_tree_accepts_further_updates() {
        let c = cfg(8, 1);
        let pairs: Vec<(u64, f64)> = (0..500u64).map(|i| (i * 3, 1.0)).collect();
        let mut t = SamTree::bulk_load(&c, &pairs);
        let mut stats = OpStats::default();
        for i in 0..500u64 {
            t.insert(&c, i * 3 + 1, 2.0, &mut stats);
        }
        for i in 0..250u64 {
            assert!(t.delete(&c, i * 3, &mut stats).is_some());
        }
        assert_eq!(t.len(), 750);
        t.check_invariants(&c).expect("invariants after mixed ops");
    }

    #[test]
    fn alpha_slack_trees_stay_valid() {
        let c = cfg(16, 4);
        let mut t = SamTree::new();
        let mut stats = OpStats::default();
        for k in 0..5_000u64 {
            let id = (k * 1_000_003) % 50_000;
            t.insert(&c, id, (k % 5) as f64 + 0.5, &mut stats);
        }
        t.check_invariants(&c).expect("invariants with alpha=4");
        // Delete half, still valid.
        for k in 0..2_500u64 {
            let id = (k * 1_000_003) % 50_000;
            t.delete(&c, id, &mut stats);
        }
        t.check_invariants(&c).expect("invariants after deletes");
    }

    #[test]
    fn point_ops_reach_the_last_slot_of_a_full_leaf() {
        // One 256-id leaf per CP-ID suffix width (1, 2, 4 bytes, then plain):
        // the id inserted last sits in the leaf's last slot, where the scan
        // ends.
        let c = cfg(256, 0);
        let spreads: [fn(u64) -> u64; 4] = [
            |i| 0xAABB_CCDD_EEFF_1100 | i,
            |i| 0xAABB_CCDD_EEFF_0000 | (i * 257),
            |i| 0xAABB_CCDD_0000_0000 | (i << 24) | i,
            |i| (i << 56) | i,
        ];
        for spread in spreads {
            let pairs: Vec<(u64, f64)> = (0..256).map(|i| (spread(i), 1.0)).collect();
            let mut t = build(&c, &pairs);
            assert_eq!((t.height(), t.len()), (1, 256), "one full leaf");
            let last = spread(255);
            let mut stats = OpStats::default();
            assert_eq!(t.get(last), Some(1.0));
            assert!(t.update_weight(&c, last, 3.0, &mut stats));
            assert_eq!(t.get(last), Some(3.0));
            assert_eq!(t.delete(&c, last, &mut stats), Some(3.0));
            assert_eq!((t.get(last), t.len()), (None, 255));
            t.check_invariants(&c).expect("invariants");
        }
    }
}

#[cfg(test)]
mod chunk_tests {
    use super::even_chunks;

    #[test]
    fn chunks_sum_to_len_and_respect_bounds() {
        for len in 1usize..500 {
            for (target, min_fill, capacity) in [(6, 4, 8), (12, 8, 16), (192, 128, 256)] {
                let sizes = even_chunks(len, target, min_fill, capacity);
                assert_eq!(sizes.iter().sum::<usize>(), len);
                assert!(sizes.iter().all(|&s| s <= capacity), "len={len}");
                if sizes.len() > 1 {
                    assert!(
                        sizes.iter().all(|&s| s >= min_fill),
                        "len={len} target={target}: {sizes:?}"
                    );
                }
                // Balanced: sizes differ by at most one.
                let (min, max) = (
                    sizes.iter().min().expect("non-empty"),
                    sizes.iter().max().expect("non-empty"),
                );
                assert!(max - min <= 1);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #[test]
        fn bulk_load_any_size_is_valid(
            n in 0usize..2_000,
            capacity in prop_oneof![Just(4usize), Just(8), Just(64)],
        ) {
            let cfg = SamTreeConfig { capacity, alpha: 0, compression: true }.validated();
            let pairs: Vec<(u64, f64)> =
                (0..n as u64).map(|i| (i * 7919 % 65_536, 1.0)).collect();
            let t = SamTree::bulk_load(&cfg, &pairs);
            t.check_invariants(&cfg)
                .map_err(|e| TestCaseError::fail(format!("n={n} c={capacity}: {e}")))?;
            let mut distinct: Vec<u64> = pairs.iter().map(|p| p.0).collect();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(t.len(), distinct.len());
        }
    }

    /// One step of the stamped model test. Ids come from a small range so
    /// steps collide; `Batch` runs are long enough for multi-way splits at
    /// capacity 4-8, `DrainFrom` deletes until leaves merge and the root
    /// collapses.
    #[derive(Clone, Debug)]
    enum Step {
        Insert(Row),
        Update(Row),
        Delete(u64),
        Batch(Vec<Row>),
        DrainFrom(u64, usize),
    }

    /// Event times that reach every width a CP-ID timestamp column takes:
    /// timeless, small (1 or 2-byte suffixes), near 2^20 (4-byte), epoch
    /// milliseconds within a few days of each other (4-byte alone, plain
    /// beside a `0`), and times straddling 2^32 (plain).
    fn stamp() -> impl Strategy<Value = u64> {
        const DAYS_MS: u64 = 3 * 86_400_000;
        const EPOCH_MS: u64 = 1_700_000_000_000;
        (0u8..5, 0u64..1 << 40).prop_map(|(class, r)| match class {
            0 => 0,
            1 => 1 + r % 70_000,
            2 => (1 << 20) - 5_000 + r % 10_000,
            3 => EPOCH_MS - DAYS_MS + r % (2 * DAYS_MS),
            _ => (1 << 32) - 100_000 + r % 200_000,
        })
    }

    /// Decode a generated `((kind, id, weight, x), ts)` draw; `x` carries a
    /// run length, `ts` the event time (a batch stamps half its rows near
    /// it and leaves the rest timeless).
    fn step(((kind, id, w, x), ts): ((u8, u64, f64, u64), u64)) -> Step {
        match kind {
            0..=2 => Step::Insert((id, w, ts)),
            3 | 4 => Step::Update((id, w, ts)),
            5 | 6 => Step::Delete(id),
            7 => Step::Batch(
                (0..1 + x % 60)
                    .map(|k| {
                        let ts = if (x + k) % 2 == 0 {
                            0
                        } else {
                            ts + 1 + (x * k) % 999
                        };
                        ((id * 31 + k * k * 7 + x) % 120, w + k as f64 * 0.01, ts)
                    })
                    .collect(),
            ),
            _ => Step::DrainFrom(id, 1 + (x % 80) as usize),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn stamped_ops_match_btreemap_model(
            capacity in 4usize..9,
            alpha in 0usize..2,
            steps in proptest::collection::vec(((0u8..9, 0u64..120, 0.1f64..10.0, 0u64..2_000), stamp()), 1..80),
        ) {
            use std::collections::BTreeMap;
            let cfg = SamTreeConfig { capacity, alpha, compression: true }.validated();
            let mut t = SamTree::new();
            let mut model: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
            let mut stats = OpStats::default();
            for step in steps.into_iter().map(step) {
                match step.clone() {
                    Step::Insert((id, w, ts)) => {
                        let outcome = t.insert_stamped(&cfg, (id, w, ts), &mut stats);
                        let existed = model.insert(id, (w, ts)).is_some();
                        prop_assert_eq!(outcome == InsertOutcome::Updated, existed);
                    }
                    Step::Update((id, w, ts)) => {
                        let updated = t.update_weight_stamped(&cfg, (id, w, ts), &mut stats);
                        prop_assert_eq!(updated, model.contains_key(&id));
                        if let Some(slot) = model.get_mut(&id) {
                            *slot = (w, if ts == 0 { slot.1 } else { ts });
                        }
                    }
                    Step::Delete(id) => {
                        let got = t.delete(&cfg, id, &mut stats);
                        prop_assert_eq!(got.is_some(), model.remove(&id).is_some());
                    }
                    Step::Batch(rows) => {
                        let before = model.len();
                        let inserted = t.insert_batch_stamped(&cfg, &rows, &mut stats);
                        for (id, w, ts) in rows {
                            model.insert(id, (w, ts));
                        }
                        prop_assert_eq!(inserted, model.len() - before);
                    }
                    Step::DrainFrom(from, n) => {
                        let ids: Vec<u64> = model.range(from..).take(n).map(|(&id, _)| id).collect();
                        for id in ids {
                            prop_assert!(t.delete(&cfg, id, &mut stats).is_some());
                            model.remove(&id);
                        }
                    }
                }
                t.check_invariants(&cfg).map_err(|e| {
                    TestCaseError::fail(format!("after {step:?}: {e}"))
                })?;
                let mut rows = t.rows();
                rows.sort_by_key(|r| r.0);
                prop_assert_eq!(rows.len(), model.len(), "after {:?}", step);
                for ((id, w, ts), (&mid, &(mw, mts))) in rows.into_iter().zip(&model) {
                    prop_assert_eq!((id, ts), (mid, mts), "after {:?}", step);
                    prop_assert!((w - mw).abs() < 1e-6, "id {} after {:?}", id, step);
                    // The point read (`IdList::get`) agrees with the row walk.
                    prop_assert_eq!(t.get_stamped(id).map(|r| r.1), Some(mts));
                }
            }
        }
    }

    /// Apply one model-test step without a model: the bounded-slack
    /// property below checks structure, not contents.
    fn apply(t: &mut SamTree, cfg: &SamTreeConfig, step: &Step, stats: &mut OpStats) {
        match step {
            Step::Insert(row) => {
                t.insert_stamped(cfg, *row, stats);
            }
            Step::Update(row) => {
                t.update_weight_stamped(cfg, *row, stats);
            }
            Step::Delete(id) => {
                t.delete(cfg, *id, stats);
            }
            Step::Batch(rows) => {
                t.insert_batch_stamped(cfg, rows, stats);
            }
            Step::DrainFrom(from, n) => {
                let mut ids: Vec<u64> = t
                    .rows()
                    .iter()
                    .map(|r| r.0)
                    .filter(|&id| id >= *from)
                    .collect();
                ids.sort_unstable();
                for &id in ids.iter().take(*n) {
                    t.delete(cfg, id, stats);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Every leaf column keeps its spare capacity within the
        /// bounded-slack rule after every step of an arbitrary history:
        /// stamped and timeless inserts, batches, updates, deletes and
        /// drains at capacity 4-16. Each case opens with a run that must
        /// α-split and closes by draining the tree, which must merge, so
        /// every case crosses both. `check_invariants` holds the rule.
        #[test]
        fn leaf_columns_keep_bounded_slack_under_any_history(
            capacity in 4usize..17,
            alpha in 0usize..2,
            steps in proptest::collection::vec(((0u8..10, 0u64..120, 0.1f64..10.0, 0u64..2_000), stamp()), 1..80),
        ) {
            let cfg = SamTreeConfig { capacity, alpha, compression: true }.validated();
            let mut t = SamTree::new();
            let mut stats = OpStats::default();
            let opening = Step::Batch(
                (0..4 * capacity as u64).map(|k| (k * 7 % 120, 1.0, k % 2 * (k + 1))).collect(),
            );
            let closing = Step::DrainFrom(0, usize::MAX);
            let history = steps.into_iter().map(|((kind, id, w, x), ts)| {
                if kind == 9 {
                    Err((id, w))
                } else {
                    Ok(step(((kind, id, w, x), ts)))
                }
            });
            for s in std::iter::once(Ok(opening)).chain(history).chain(std::iter::once(Ok(closing))) {
                match &s {
                    Ok(s) => apply(&mut t, &cfg, s, &mut stats),
                    Err((id, w)) => {
                        t.insert(&cfg, *id, *w, &mut stats);
                    }
                }
                t.check_invariants(&cfg).map_err(|e| {
                    TestCaseError::fail(format!("after {s:?}: {e}"))
                })?;
            }
            prop_assert!(t.is_empty());
            prop_assert!(stats.leaf_splits > 0 && stats.merges > 0, "{:?}", stats);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_ops_match_hashmap(
            capacity in prop_oneof![Just(4usize), Just(8), Just(16)],
            alpha in 0usize..2,
            ops in proptest::collection::vec((0u8..4, 0u64..500, 0.1f64..10.0), 1..400),
        ) {
            let cfg = SamTreeConfig { capacity, alpha, compression: true }.validated();
            let mut t = SamTree::new();
            let mut reference: HashMap<u64, f64> = HashMap::new();
            let mut stats = OpStats::default();
            for (kind, id, w) in ops {
                match kind {
                    0 | 1 => {
                        let outcome = t.insert(&cfg, id, w, &mut stats);
                        let existed = reference.insert(id, w).is_some();
                        prop_assert_eq!(
                            outcome == InsertOutcome::Updated,
                            existed
                        );
                    }
                    2 => {
                        let got = t.delete(&cfg, id, &mut stats);
                        let want = reference.remove(&id);
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(g), Some(wv)) = (got, want) {
                            prop_assert!((g - wv).abs() < 1e-6);
                        }
                    }
                    _ => {
                        let got = t.update_weight(&cfg, id, w, &mut stats);
                        let want = reference.get_mut(&id);
                        prop_assert_eq!(got, want.is_some());
                        if let Some(r) = want {
                            *r = w;
                        }
                    }
                }
            }
            prop_assert_eq!(t.len(), reference.len());
            t.check_invariants(&cfg).map_err(|e| {
                TestCaseError::fail(format!("invariants: {e}"))
            })?;
            // Every key readable with the right weight.
            for (&id, &w) in &reference {
                let got = t.get(id);
                prop_assert!(got.is_some(), "missing id {}", id);
                prop_assert!((got.expect("present") - w).abs() < 1e-6);
            }
            // Total weight consistent.
            let want_total: f64 = reference.values().sum();
            prop_assert!((t.total_weight() - want_total).abs() < 1e-4);
        }
    }
}
