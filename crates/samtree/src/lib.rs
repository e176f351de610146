//! # samtree — PlatoD2GL's non-key-value dynamic topology structure
//!
//! A *samtree* (paper Def. 1, Sec. IV) stores the out-neighborhood of one
//! source vertex as a B-tree-shaped structure tuned for two operations at
//! once: **dynamic updates** and **weighted neighbor sampling**.
//!
//! The four constraints from Sec. IV-A:
//!
//! 1. Leaves store the neighbors; internal nodes store aggregation
//!    information about their children.
//! 2. Leaf ID lists are **unordered** (so insertion is an append and the
//!    FSTable stays valid under swap-deletion); internal ID lists are
//!    **ordered** (so routing is a binary search).
//! 3. Every internal node carries a [`CsTable`](platod2gl_sampling::CsTable)
//!    over its children's subtree weights: one ITS step picks a child.
//! 4. Every leaf carries an [`FsTable`](platod2gl_fenwick::FsTable): one FTS
//!    step picks a neighbor, and all leaf maintenance is `O(log n_L)`.
//!
//! Insertion uses the [`alpha_split`] algorithm to split
//! full leaves in `O(n)` without sorting (Alg. 1/2); deletion swap-removes
//! in the leaf and merges underfull nodes with a sibling (Sec. IV-D).
//! Sampling draws one random number and threads it down the tree: ITS at
//! each internal node, FTS at the leaf (Sec. V-C).
//!
//! Vertex IDs inside nodes can be CP-ID prefix-compressed ([`IdList`],
//! Sec. VI-A), which is where most of the paper's Table IV memory saving
//! over key-value stores comes from.

mod idlist;
mod split;
mod tree;

pub use idlist::{IdIter, IdList};
pub use split::{alpha_split, IdWeight, Row};
pub use tree::{DecayCounts, InsertOutcome, SamTree};

/// Tuning parameters shared by all samtrees in a store.
///
/// Kept outside the tree (passed into each operation) so that a graph with
/// hundreds of millions of source vertices does not replicate the
/// configuration per tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamTreeConfig {
    /// Node capacity `c` (Def. 1). The paper's default is 256 (Sec. VII-A),
    /// the value its Fig. 11b sensitivity sweep found fastest.
    pub capacity: usize,
    /// Split slackness `α` (Alg. 1). The paper's default is 0.
    pub alpha: usize,
    /// Enable CP-ID prefix compression of node ID lists (Sec. VI-A).
    pub compression: bool,
}

impl Default for SamTreeConfig {
    fn default() -> Self {
        Self {
            capacity: 256,
            alpha: 0,
            compression: true,
        }
    }
}

impl SamTreeConfig {
    /// Check parameter combinations: `capacity < 4` and
    /// `alpha >= capacity / 2` (a slackness that large would let splits
    /// produce empty nodes) are refused with the rule they break.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.capacity < 4 {
            return Err("samtree capacity must be at least 4");
        }
        if self.alpha >= self.capacity / 2 {
            return Err("alpha must be below capacity/2 (paper Remark, Sec. IV-C)");
        }
        Ok(())
    }

    /// Validate parameter combinations.
    ///
    /// # Panics
    /// If [`SamTreeConfig::check`] refuses the configuration.
    pub fn validated(self) -> Self {
        if let Err(rule) = self.check() {
            panic!("{rule}");
        }
        self
    }

    /// Minimum fill of a non-root node: `c/2 - α` (paper Remark after
    /// Thm. 2), floored at 1 — α-Split may legitimately produce nodes this
    /// small, and deletion merges any node that drops below the bound.
    pub fn min_fill(&self) -> usize {
        (self.capacity / 2).saturating_sub(self.alpha).max(1)
    }
}

/// Counters distinguishing where update work lands (the paper's Table V:
/// >98 % of updating operations hit leaf nodes, justifying the
/// > FSTable-in-leaves / CSTable-in-internals hybrid).
///
/// A *leaf op* is any modification of a leaf's ID list or FSTable (insert,
/// weight update, swap-delete). An *internal op* is a structural
/// modification of an internal node — a separator inserted or removed by a
/// child split or merge, an internal split, or a root change. Pure CSTable
/// value refreshes along the search path are bookkeeping every scheme pays
/// and are not counted as operations, matching the paper's accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Modifications applied to leaf nodes.
    pub leaf_ops: u64,
    /// Structural modifications applied to internal nodes.
    pub internal_ops: u64,
    /// Number of leaf splits (each also counts as one internal op at the
    /// parent).
    pub leaf_splits: u64,
    /// Number of internal-node splits.
    pub internal_splits: u64,
    /// Number of node merges triggered by deletions.
    pub merges: u64,
}

impl OpStats {
    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &OpStats) {
        self.leaf_ops += other.leaf_ops;
        self.internal_ops += other.internal_ops;
        self.leaf_splits += other.leaf_splits;
        self.internal_splits += other.internal_splits;
        self.merges += other.merges;
    }

    /// Fraction of operations that landed on leaves (Table V's top row).
    pub fn leaf_fraction(&self) -> f64 {
        let total = self.leaf_ops + self.internal_ops;
        if total == 0 {
            return 0.0;
        }
        self.leaf_ops as f64 / total as f64
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    #[test]
    fn default_matches_paper_defaults() {
        let cfg = SamTreeConfig::default();
        assert_eq!(cfg.capacity, 256);
        assert_eq!(cfg.alpha, 0);
        assert!(cfg.compression);
    }

    #[test]
    fn min_fill_is_half_capacity_minus_alpha() {
        let cfg = SamTreeConfig {
            capacity: 64,
            alpha: 8,
            compression: false,
        };
        assert_eq!(cfg.min_fill(), 24);
        let cfg = SamTreeConfig {
            capacity: 4,
            alpha: 1,
            compression: false,
        };
        assert_eq!(cfg.min_fill(), 1);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn oversized_alpha_rejected() {
        SamTreeConfig {
            capacity: 16,
            alpha: 8,
            compression: false,
        }
        .validated();
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn tiny_capacity_rejected() {
        SamTreeConfig {
            capacity: 2,
            alpha: 0,
            compression: false,
        }
        .validated();
    }

    #[test]
    fn op_stats_merge_and_fraction() {
        let mut a = OpStats {
            leaf_ops: 98,
            internal_ops: 2,
            ..Default::default()
        };
        let b = OpStats {
            leaf_ops: 2,
            internal_ops: 0,
            leaf_splits: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.leaf_ops, 100);
        assert_eq!(a.leaf_splits, 1);
        assert!((a.leaf_fraction() - 100.0 / 102.0).abs() < 1e-12);
        assert_eq!(OpStats::default().leaf_fraction(), 0.0);
    }
}
