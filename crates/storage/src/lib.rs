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
//! * **Attributes** — raw feature bytes per vertex in a key-value store
//!   ([`AttributeStore`]); the paper keeps attributes in KV form because
//!   they are point-looked-up, never range-sampled.
//!
//! Concurrency follows Sec. VI-B: update batches are sorted by source
//! vertex, partitioned across threads so *each samtree is touched by exactly
//! one thread per batch*, then applied bottom-up within each tree — the
//! PALM-style latch-free scheme ([`DynamicGraphStore::apply_batch_parallel`]).

mod attr;
pub mod crc32c;
mod directory;
mod fault;
mod snapshot;
mod topology;
mod wal;

pub use attr::AttributeStore;
pub use fault::{CrashInjector, CrashPoint};
pub use snapshot::{read_checkpoint, write_checkpoint};
pub use topology::{AdjacencyEntry, DecayOutcome, DynamicGraphStore, StoreConfig, StoreMemory};
pub use wal::{
    replay_wal, DurableGraphStore, RecoveryReport, TornTail, TornTailKind, WalReplayReport,
    WalWriter, WAL_MAGIC,
};
