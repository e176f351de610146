//! # Mini-batch training pipeline
//!
//! End-to-end mini-batch GNN training over the live sharded cluster —
//! the serving loop of PlatoD2GL's training plane, built from three
//! cooperating pieces:
//!
//! * [`KHopSampler`] — expands seed batches level by level through the
//!   cluster's weighted neighbor sampling into a message-flow block: each
//!   distinct `(vertex, window)` of a level once, child tables between
//!   levels, isolated or degraded nodes self-padded so the node flow the
//!   block stands for always has static GraphSAGE shapes.
//! * [`NeighborCache`] — an epoch-versioned, sharded two-generation LRU
//!   keyed by `(vertex, etype, fanout)`. Entries carry the cluster's
//!   monotone graph version at fill time and are servable only while
//!   `now - version <= max_staleness`, giving **bounded-staleness**
//!   reads under concurrent graph updates.
//! * [`TrainingPipeline`] — batches seeds, runs sample+gather on two
//!   prefetch workers feeding a bounded channel (backpressure: at most
//!   `prefetch_depth + 2` blocks in flight), trains on the caller's
//!   thread, and reports per-stage latency histograms, cache hit rates,
//!   and degraded-batch counts.
//!
//! This crate owns sampling, for training and for inference alike:
//! `SageNet` (in `gnn`) only computes on the blocks built here. To predict,
//! sample one block with [`KHopSampler::sample_block`], gather features over
//! its [`SampleOutcome::nodes`] and pass them with its `child` tables to
//! `SageNet::predict`.
//!
//! The pipeline is read-only against the cluster, so a writer thread can
//! stream `GraphService::apply_updates` batches concurrently — exactly the
//! dynamic-graph training regime the paper targets.

mod cache;
mod driver;
mod hash;
mod sampler;

pub use cache::{CacheConfig, CacheStats, NeighborCache};
pub use driver::{
    EpochReport, PipelineConfig, PipelineConfigBuilder, PipelineStats, TrainingPipeline,
    WindowedBatch,
};
pub use sampler::{KHopSampler, SampleOutcome};
