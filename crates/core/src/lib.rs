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
//! use platod2gl::{Cluster, ClusterConfig, Edge, EdgeType, GraphStore, NeighborSampler, VertexId};
//! use rand::SeedableRng;
//!
//! let cluster = Cluster::new(ClusterConfig::builder().num_shards(2).build()?);
//! cluster.insert_edge(Edge::new(VertexId(1), VertexId(2), 0.4));
//! cluster.insert_edge(Edge::new(VertexId(1), VertexId(3), 0.6));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let sampled = NeighborSampler::new(EdgeType::DEFAULT, 10).sample(&cluster, &[VertexId(1)], &mut rng);
//! assert_eq!(sampled[0].len(), 10);
//! # Ok::<(), platod2gl::Error>(())
//! ```
//!
//! A [`Cluster`] — simulated graph servers behind a hash-by-source router —
//! is the system; [`ClusterConfig::builder`] validates its configuration,
//! [`Cluster::obs`] and [`Cluster::memory_breakdown`] report on it. This
//! crate only re-exports the workspace crates, so every subsystem is also
//! usable directly.

pub use platod2gl_admin::{
    AdminServer, FleetIntrospect, FleetPartitionView, FleetServerView, FleetSnapshot,
};
pub use platod2gl_baseline::{AliGraphStore, PlatoGlConfig, PlatoGlStore};
pub use platod2gl_fenwick::FsTable;
pub use platod2gl_fleet::{
    FleetCluster, FleetNode, JoinReport, MigrationReport, PartitionMap, ServerEntry,
};
pub use platod2gl_gnn::{
    gather_features, AttributeFeatures, FeatureProvider, HashFeatures, Matrix, MetapathSampler,
    NeighborSampler, NodeSampler, SageNet, SageNetConfig, SampledSubgraph, SubgraphSampler,
    TrainStats,
};
pub use platod2gl_graph::{
    for_each_edge, read_edge_list, sanitize_weight, validate_and_lower, write_edge_list,
    DatasetProfile, Edge, EdgeType, Error, GraphStore, GraphTxn, RelationSpec, ShardHealth,
    TimeWindow, TxnError, TxnOp, TxnReceipt, TxnView, TxnViolation, UpdateOp, UpdateStream,
    VertexId, VertexType, ViolationKind,
};
pub use platod2gl_mem::{human_bytes, DeepSize};
pub use platod2gl_obs::{
    span_subtree, Counter, Gauge, Histogram, ObsSnapshot, Registry, SlowLog, SlowOpRecord,
    SpanRecord, SpanTracer, TraceContext,
};
pub use platod2gl_pipeline::{
    CacheConfig, CacheStats, EpochReport, KHopSampler, NeighborCache, PipelineConfig,
    PipelineConfigBuilder, PipelineStats, SampleOutcome, TrainingPipeline, WindowedBatch,
};
pub use platod2gl_rpc::{
    ClientConfig, ConnectionMode, GraphServiceServer, RemoteCluster, RemoteClusterConfig,
};
pub use platod2gl_sampling::{AliasTable, CsTable, WeightedIndex};
pub use platod2gl_samtree::{OpStats, SamTree, SamTreeConfig};
pub use platod2gl_server::{
    partition_for, route_for, BatchReport, Cluster, ClusterConfig, ClusterConfigBuilder,
    ClusterMemory, DegradedPolicy, FaultInjector, FaultKind, GraphServer, GraphService,
    HistogramSnapshot, SampleRequest, SampleResponse, ShardMemory, SlotSource, TxnLogEntry,
};
pub use platod2gl_storage::{
    replay_wal, AttributeStore, CrashInjector, CrashPoint, DecayOutcome, DurableGraphStore,
    DynamicGraphStore, RecoveryReport, StoreConfig, StoreMemory, TornTail, TornTailKind,
    WalReplayReport,
};
pub use platod2gl_temporal::{DecayConfig, DecayTick, RecencyDecay};
