//! # PlatoD2GL
//!
//! A Rust reproduction of **PlatoD2GL: An Efficient Dynamic Deep Graph
//! Learning System for Graph Neural Network Training on Billion-Scale
//! Graphs** (ICDE 2024).
//!
//! PlatoD2GL trains GNNs over graphs that change while you train. Its two
//! contributions, both implemented here from scratch:
//!
//! * the **samtree** — a non-key-value, B-tree-shaped topology store with
//!   unordered leaves, α-relaxed splits, CP-ID prefix compression and
//!   hybrid CSTable/FSTable sampling indexes, and
//! * the **FSTable / FTS** — a Fenwick-tree sum table whose insertion,
//!   in-place update, deletion *and* weighted sampling all run in
//!   `O(log n)`, replacing the `O(n)`-maintenance CSTable of PlatoGL.
//!
//! ## Quick start
//!
//! ```
//! use platod2gl::{GraphStore, PlatoD2GL, Edge, EdgeType, VertexId};
//!
//! let system = PlatoD2GL::builder().num_shards(2).build();
//! system.store().insert_edge(Edge::new(VertexId(1), VertexId(2), 0.4));
//! system.store().insert_edge(Edge::new(VertexId(1), VertexId(3), 0.6));
//! let sampled = system.neighbor_sample(&[VertexId(1)], EdgeType::DEFAULT, 10, 42);
//! assert_eq!(sampled[0].len(), 10);
//! ```
//!
//! The facade wraps a simulated multi-shard cluster; every subsystem is
//! also usable directly through the re-exported crates below.

pub use platod2gl_admin::{
    AdminServer, FleetIntrospect, FleetPartitionView, FleetServerView, FleetSnapshot,
};
pub use platod2gl_baseline::{AliGraphStore, PlatoGlConfig, PlatoGlStore};
pub use platod2gl_fenwick::FsTable;
pub use platod2gl_fleet::{
    FleetCluster, FleetClusterConfig, FleetNode, JoinReport, MigrationReport, PartitionMap,
    ServerEntry,
};
pub use platod2gl_gnn::{
    gather_features, Adam, AttributeFeatures, DeepWalkConfig, DeepWalkTrainer, EmbeddingTable,
    FeatureProvider, HashFeatures, Matrix, MetapathSampler, NegativeSampler, NeighborSampler,
    Node2VecWalker, NodeSampler, RandomWalkSampler, SageNet, SageNetConfig, SampledSubgraph,
    SubgraphSampler, TrainStats,
};
pub use platod2gl_graph::{
    for_each_edge, read_edge_list, sanitize_weight, validate_and_lower, write_edge_list,
    DatasetProfile, Edge, EdgeType, Error, GraphStore, GraphTxn, RelationSpec, ShardHealth,
    StoreTxnView, TimeWindow, TxnError, TxnOp, TxnReceipt, TxnView, TxnViolation, UpdateOp,
    UpdateStream, VertexId, VertexType, ViolationKind,
};
pub use platod2gl_mem::{human_bytes, DeepSize};
pub use platod2gl_obs::{
    span_subtree, Counter, Gauge, Histogram, ObsSnapshot, Registry, SlowLog, SlowOpRecord,
    SpanRecord, SpanTracer, TraceContext,
};
pub use platod2gl_pipeline::{
    Block, CacheConfig, CacheStats, EpochReport, KHopSampler, NeighborCache, PipelineConfig,
    PipelineConfigBuilder, PipelineStats, SampleOutcome, TrainingPipeline, WindowedBatch,
};
pub use platod2gl_rpc::{
    ClientConfig, ConnectionMode, GraphServiceServer, RemoteCluster, RemoteClusterConfig,
    ServerIntrospect,
};
pub use platod2gl_sampling::{AliasTable, CsTable, WeightedIndex};
pub use platod2gl_samtree::{LeafIndex, OpStats, SamTree, SamTreeConfig};
pub use platod2gl_server::{
    partition_for, route_for, BatchReport, Cluster, ClusterConfig, ClusterConfigBuilder,
    ClusterMemory, DegradedPolicy, FaultInjector, FaultKind, GraphServer, GraphService,
    HistogramSnapshot, LatencyHistogram, PartitionChunk, SampleRequest, SampleResponse,
    ShardMemory, SlotSource, TrafficStats, TxnLogEntry,
};
pub use platod2gl_storage::{
    replay_wal, AttributeStore, CrashInjector, CrashPoint, DecayOutcome, DurableGraphStore,
    DynamicGraphStore, RecoveryReport, StoreConfig, StoreMemory, TornTail, TornTailKind,
    WalReplayReport, SNAPSHOT_VERSION,
};
pub use platod2gl_temporal::{DecayConfig, DecayTick, RecencyDecay};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builder for a [`PlatoD2GL`] system.
#[derive(Clone, Copy, Debug)]
pub struct Builder {
    capacity: usize,
    alpha: usize,
    compression: bool,
    num_shards: usize,
    threads_per_shard: usize,
}

impl Default for Builder {
    fn default() -> Self {
        Self {
            capacity: 256,
            alpha: 0,
            compression: true,
            num_shards: 4,
            threads_per_shard: 1,
        }
    }
}

impl Builder {
    /// Samtree node capacity `c` (paper default 256).
    pub fn capacity(mut self, c: usize) -> Self {
        self.capacity = c;
        self
    }

    /// α-Split slackness (paper default 0).
    pub fn alpha(mut self, a: usize) -> Self {
        self.alpha = a;
        self
    }

    /// Toggle CP-ID prefix compression (paper default on).
    pub fn compression(mut self, on: bool) -> Self {
        self.compression = on;
        self
    }

    /// Number of simulated graph servers.
    pub fn num_shards(mut self, n: usize) -> Self {
        self.num_shards = n;
        self
    }

    /// Worker threads per shard for batched updates.
    pub fn threads_per_shard(mut self, t: usize) -> Self {
        self.threads_per_shard = t;
        self
    }

    /// Boot the system.
    ///
    /// # Panics
    /// On an invalid configuration (zero shards, undersized samtree
    /// capacity, …); [`ClusterConfig::builder`] exposes the same checks
    /// as a `Result` for callers that prefer to handle them.
    pub fn build(self) -> PlatoD2GL {
        let store = StoreConfig {
            tree: SamTreeConfig {
                capacity: self.capacity,
                alpha: self.alpha,
                compression: self.compression,
                leaf_index: LeafIndex::Fenwick,
            },
            ..StoreConfig::default()
        };
        let config = ClusterConfig::builder()
            .num_shards(self.num_shards)
            .store(store)
            .threads_per_shard(self.threads_per_shard)
            .build()
            .expect("invalid PlatoD2GL configuration");
        PlatoD2GL {
            cluster: Cluster::new(config),
        }
    }
}

/// Summary returned by [`PlatoD2GL::ingest_profile`].
#[derive(Clone, Copy, Debug)]
pub struct IngestReport {
    /// Edges offered to the store (including bi-directed copies).
    pub edges_offered: usize,
    /// Distinct edges stored (duplicates become weight updates).
    pub edges_stored: usize,
    /// Wall-clock ingest time.
    pub elapsed: std::time::Duration,
}

/// Memory breakdown for the paper's Table IV accounting.
#[derive(Clone, Debug)]
pub struct MemoryReport {
    /// Total topology bytes across shards.
    pub topology_bytes: usize,
    /// Total attribute bytes across shards.
    pub attribute_bytes: usize,
    /// Per-shard topology bytes.
    pub per_shard: Vec<usize>,
}

/// The assembled system: a routing cluster of graph servers running the
/// samtree storage engine, plus convenience entry points for the operator
/// layer.
pub struct PlatoD2GL {
    cluster: Cluster,
}

impl PlatoD2GL {
    /// Start configuring a system.
    pub fn builder() -> Builder {
        Builder::default()
    }

    /// Boot with defaults (4 shards, capacity 256, α = 0, compression on).
    pub fn with_defaults() -> Self {
        Builder::default().build()
    }

    /// The underlying cluster; it implements [`GraphStore`], so all
    /// operators and benchmarks accept it directly.
    pub fn store(&self) -> &Cluster {
        &self.cluster
    }

    /// Bulk-load a dataset profile in batched, sharded updates.
    pub fn ingest_profile(&self, profile: &DatasetProfile, seed: u64) -> IngestReport {
        let start = std::time::Instant::now();
        let mut offered = 0usize;
        let mut batch: Vec<UpdateOp> = Vec::with_capacity(8192);
        for e in profile.edge_stream(seed) {
            offered += 1;
            batch.push(UpdateOp::Insert(e));
            if batch.len() == 8192 {
                self.cluster
                    .apply_updates(&batch)
                    .expect("ingest batch panicked");
                batch.clear();
            }
        }
        if !batch.is_empty() {
            self.cluster
                .apply_updates(&batch)
                .expect("ingest batch panicked");
        }
        IngestReport {
            edges_offered: offered,
            edges_stored: self.cluster.num_edges(),
            elapsed: start.elapsed(),
        }
    }

    /// Apply a batch of updates across shards (PALM batch updater inside
    /// each shard). Shard loss is reported via `store().traffic()` and
    /// `store().shard_health(..)` rather than a panic.
    pub fn apply_updates(&self, ops: &[UpdateOp]) {
        let _ = self.cluster.apply_updates(ops);
    }

    /// Batched weighted neighbor sampling (`k` draws per vertex).
    pub fn neighbor_sample(
        &self,
        batch: &[VertexId],
        etype: EdgeType,
        k: usize,
        seed: u64,
    ) -> Vec<Vec<VertexId>> {
        let mut rng = StdRng::seed_from_u64(seed);
        NeighborSampler::new(etype, k).sample(&self.cluster, batch, &mut rng)
    }

    /// K-hop subgraph sampling pivoted at `seeds`.
    pub fn subgraph_sample(
        &self,
        seeds: &[VertexId],
        etype: EdgeType,
        fanouts: &[usize],
        seed: u64,
    ) -> SampledSubgraph {
        let mut rng = StdRng::seed_from_u64(seed);
        SubgraphSampler::new(etype, fanouts.to_vec()).sample(&self.cluster, seeds, &mut rng)
    }

    /// Store a vertex feature vector (f32-encoded) on its owning shard.
    pub fn set_feature(&self, v: VertexId, values: &[f64]) {
        self.cluster
            .set_vertex_attr(v, AttributeFeatures::encode(values));
    }

    /// Checkpoint the cluster topology to a writer (shard-count
    /// independent; see [`Cluster::snapshot_to`]).
    pub fn snapshot_to(&self, w: impl std::io::Write) -> Result<(), Error> {
        self.cluster.snapshot_to(w)
    }

    /// Restore a checkpoint into this (normally empty) system.
    pub fn restore_from(&self, r: impl std::io::Read) -> Result<(), Error> {
        self.cluster.restore_from(r)
    }

    /// The system's observability registry (see [`Cluster::obs`]): one
    /// snapshot covers cluster traffic, samtree/storage internals, and any
    /// pipeline trained against [`PlatoD2GL::store`].
    pub fn obs(&self) -> &std::sync::Arc<Registry> {
        self.cluster.obs()
    }

    /// Aggregate samtree operation counters across shards (Table V).
    pub fn op_stats(&self) -> OpStats {
        let mut total = OpStats::default();
        for s in self.cluster.servers() {
            total.merge(&s.topology().op_stats());
        }
        total
    }

    /// Memory accounting across shards (Table IV).
    pub fn memory_report(&self) -> MemoryReport {
        let per_shard: Vec<usize> = self
            .cluster
            .servers()
            .iter()
            .map(|s| s.topology().topology_bytes())
            .collect();
        MemoryReport {
            topology_bytes: per_shard.iter().sum(),
            attribute_bytes: self
                .cluster
                .servers()
                .iter()
                .map(|s| s.attributes().attribute_bytes())
                .sum(),
            per_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_applies_configuration() {
        let sys = PlatoD2GL::builder()
            .capacity(64)
            .alpha(4)
            .compression(false)
            .num_shards(2)
            .threads_per_shard(2)
            .build();
        assert_eq!(sys.store().num_shards(), 2);
        let cfg = sys.store().server(0).topology().tree_config();
        assert_eq!(cfg.capacity, 64);
        assert_eq!(cfg.alpha, 4);
        assert!(!cfg.compression);
    }

    #[test]
    fn ingest_profile_reports_counts() {
        let sys = PlatoD2GL::builder().num_shards(2).build();
        let profile = DatasetProfile::tiny();
        let report = sys.ingest_profile(&profile, 3);
        assert_eq!(report.edges_offered, profile.total_edges() as usize);
        assert!(report.edges_stored > 0);
        assert!(report.edges_stored <= report.edges_offered);
        assert_eq!(report.edges_stored, sys.store().num_edges());
    }

    #[test]
    fn facade_sampling_is_deterministic_per_seed() {
        let sys = PlatoD2GL::with_defaults();
        for i in 0..50u64 {
            sys.store()
                .insert_edge(Edge::new(VertexId(1), VertexId(100 + i), 1.0));
        }
        let a = sys.neighbor_sample(&[VertexId(1)], EdgeType::DEFAULT, 20, 7);
        let b = sys.neighbor_sample(&[VertexId(1)], EdgeType::DEFAULT, 20, 7);
        assert_eq!(a, b);
        let c = sys.neighbor_sample(&[VertexId(1)], EdgeType::DEFAULT, 20, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn memory_report_sums_shards() {
        let sys = PlatoD2GL::builder().num_shards(3).build();
        sys.ingest_profile(&DatasetProfile::tiny(), 1);
        let report = sys.memory_report();
        assert_eq!(report.per_shard.len(), 3);
        assert_eq!(report.topology_bytes, report.per_shard.iter().sum());
        assert!(report.topology_bytes > 0);
    }

    #[test]
    fn op_stats_aggregate_across_shards() {
        let sys = PlatoD2GL::builder().num_shards(2).build();
        sys.ingest_profile(&DatasetProfile::tiny(), 2);
        let stats = sys.op_stats();
        assert!(stats.leaf_ops > 0);
    }

    #[test]
    fn facade_snapshot_roundtrip() {
        let a = PlatoD2GL::builder().num_shards(2).build();
        a.ingest_profile(&DatasetProfile::tiny(), 9);
        let mut bytes = Vec::new();
        a.snapshot_to(&mut bytes).expect("snapshot");
        let b = PlatoD2GL::builder().num_shards(5).build();
        b.restore_from(bytes.as_slice()).expect("restore");
        assert_eq!(a.store().num_edges(), b.store().num_edges());
    }

    #[test]
    fn features_roundtrip_through_cluster() {
        let sys = PlatoD2GL::with_defaults();
        sys.set_feature(VertexId(5), &[1.0, -2.0]);
        let bytes = sys.store().vertex_attr(VertexId(5)).expect("stored");
        assert_eq!(bytes.len(), 8);
    }
}
