//! # PlatoD2GL's dynamic graph storage layer (paper Sec. III/IV/VI)
//!
//! The storage layer holds three kinds of GNN-related data:
//!
//! * **Dynamic graph topology** — one samtree per (source vertex, relation),
//!   registered in a concurrent cuckoo-hash directory
//!   ([`DynamicGraphStore`], Sec. IV-B). This is the *non-key-value* design:
//!   the directory has exactly one entry per source vertex, and all blocks
//!   of a big neighborhood live inside that vertex's samtree instead of
//!   being separate key-value pairs with their own index entries (PlatoGL's
//!   memory problem).
//! * **Sampling indexes** — the CSTables/FSTables embedded in the samtrees.
//! * **Attributes** — raw feature bytes per vertex/edge in a key-value store
//!   ([`AttributeStore`]); the paper keeps attributes in KV form because
//!   they are point-looked-up, never range-sampled.
//!
//! Concurrency follows Sec. VI-B: update batches are sorted by source
//! vertex, partitioned across threads so *each samtree is touched by exactly
//! one thread per batch*, then applied bottom-up within each tree — the
//! PALM-style latch-free scheme ([`DynamicGraphStore::apply_batch_parallel`]).

mod attr;
pub mod crc32c;
mod fault;
mod snapshot;
mod topology;
mod wal;

pub use attr::AttributeStore;
pub use fault::{CrashInjector, CrashPoint};
pub use snapshot::{read_snapshot, write_snapshot, SNAPSHOT_VERSION};
pub use topology::{AdjacencyEntry, DecayOutcome, DynamicGraphStore, StoreConfig, StoreMemory};
pub use wal::{
    replay_wal, DurableGraphStore, RecoveryReport, TornTail, TornTailKind, WalReplayReport,
    WalWriter, WAL_MAGIC,
};

use platod2gl_samtree::OpStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe accumulator for samtree [`OpStats`] (drives the paper's
/// Table V reproduction).
#[derive(Debug, Default)]
pub struct SharedOpStats {
    leaf_ops: AtomicU64,
    internal_ops: AtomicU64,
    leaf_splits: AtomicU64,
    internal_splits: AtomicU64,
    merges: AtomicU64,
}

impl SharedOpStats {
    /// Fold a local counter set in.
    pub fn add(&self, s: &OpStats) {
        self.leaf_ops.fetch_add(s.leaf_ops, Ordering::Relaxed);
        self.internal_ops
            .fetch_add(s.internal_ops, Ordering::Relaxed);
        self.leaf_splits.fetch_add(s.leaf_splits, Ordering::Relaxed);
        self.internal_splits
            .fetch_add(s.internal_splits, Ordering::Relaxed);
        self.merges.fetch_add(s.merges, Ordering::Relaxed);
    }

    /// Read a consistent-enough snapshot.
    pub fn snapshot(&self) -> OpStats {
        OpStats {
            leaf_ops: self.leaf_ops.load(Ordering::Relaxed),
            internal_ops: self.internal_ops.load(Ordering::Relaxed),
            leaf_splits: self.leaf_splits.load(Ordering::Relaxed),
            internal_splits: self.internal_splits.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    #[test]
    fn shared_stats_accumulate() {
        let shared = SharedOpStats::default();
        shared.add(&OpStats {
            leaf_ops: 5,
            internal_ops: 1,
            leaf_splits: 1,
            internal_splits: 0,
            merges: 0,
        });
        shared.add(&OpStats {
            leaf_ops: 3,
            internal_ops: 0,
            leaf_splits: 0,
            internal_splits: 2,
            merges: 4,
        });
        let s = shared.snapshot();
        assert_eq!(s.leaf_ops, 8);
        assert_eq!(s.internal_ops, 1);
        assert_eq!(s.leaf_splits, 1);
        assert_eq!(s.internal_splits, 2);
        assert_eq!(s.merges, 4);
    }
}
