//! End-to-end observability: one pipeline-training run over a cluster with
//! a WAL sidecar must land counters and histograms from every layer —
//! samtree, storage/WAL, server, pipeline — in a single registry snapshot,
//! and both exposition formats must carry them.

use platod2gl::{
    Cluster, ClusterConfig, DurableGraphStore, Edge, EdgeType, FeatureProvider, GraphService,
    GraphStore, HashFeatures, PipelineConfig, Registry, SageNet, SageNetConfig, StoreConfig,
    TrainingPipeline, UpdateOp, VertexId,
};
use std::sync::Arc;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("platod2gl-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Build a small two-community graph as update ops.
fn community_ops(n: u64, provider: &HashFeatures) -> Vec<UpdateOp> {
    let mut state = 0x5eedu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut ops = Vec::new();
    for v in (0..n).map(VertexId) {
        for _ in 0..5 {
            let mut u = VertexId(next() % n);
            for _ in 0..8 {
                if provider.label(u) == provider.label(v) {
                    break;
                }
                u = VertexId(next() % n);
            }
            ops.push(UpdateOp::Insert(Edge::new(v, u, 1.0)));
        }
    }
    ops
}

#[test]
fn one_snapshot_covers_samtree_storage_wal_server_and_pipeline() {
    let registry = Arc::new(Registry::new());
    let config = ClusterConfig::builder()
        .num_shards(3)
        .build()
        .expect("valid config");
    let cluster = Cluster::with_registry(config, Arc::clone(&registry));

    let dir = temp_dir("e2e");
    let (durable, _) =
        DurableGraphStore::open_with_registry(&dir, StoreConfig::default(), Arc::clone(&registry))
            .expect("open durable store");

    let n = 300u64;
    let provider = HashFeatures::new(8, 2, 7);
    let ops = community_ops(n, &provider);
    cluster.apply_updates(&ops).expect("bulk load");
    durable.try_apply_batch(&ops, 2).expect("wal apply");
    durable.checkpoint().expect("wal checkpoint");

    let vertices: Vec<VertexId> = (0..n).map(VertexId).collect();
    let labels: Vec<usize> = vertices.iter().map(|&v| provider.label(v)).collect();
    let cfg = PipelineConfig::builder()
        .fanouts(vec![3, 3])
        .batch_size(32)
        .seed(5)
        .build()
        .expect("valid pipeline config");
    let pipeline = TrainingPipeline::new(&cluster, cfg);
    let mut net = SageNet::new(SageNetConfig {
        feature_dim: provider.dim(),
        fanouts: vec![3, 3],
        lr: 0.1,
        ..Default::default()
    });
    let report = pipeline.run_epoch(&mut net, &provider, &vertices, &labels, 0);
    assert!(report.batches > 0);

    let snap = registry.snapshot();

    // Samtree layer: inserts went through leaves; sampling issued draws.
    assert!(snap.counter("samtree.leaf_ops").unwrap() > 0);
    assert!(snap.counter("samtree.sample_requests").unwrap() > 0);
    // Storage layer: batch application timed, edge gauge live.
    assert!(snap.counter("storage.batches").unwrap() > 0);
    assert!(snap.gauge("storage.edges").unwrap() > 0);
    // WAL layer: appends and the checkpoint observed.
    assert!(snap.counter("wal.appends").unwrap() > 0);
    assert_eq!(snap.counter("wal.checkpoints"), Some(1));
    // Server layer: RPC accounting and serving latency.
    assert!(snap.counter("cluster.requests").unwrap() > 0);
    let (_, sample_hist) = snap
        .histograms
        .iter()
        .find(|(name, _)| name == "cluster.sample_latency_ns")
        .expect("cluster sample latency registered");
    assert!(sample_hist.count > 0);
    // Pipeline layer: stage histograms and cache counters.
    assert_eq!(snap.counter("pipeline.batches"), Some(report.batches));
    assert!(snap.counter("pipeline.cluster_requests").unwrap() > 0);
    let (_, train_hist) = snap
        .histograms
        .iter()
        .find(|(name, _)| name == "pipeline.train_ns")
        .expect("train-stage histogram registered");
    assert_eq!(train_hist.count, report.batches);
    let cache_lookups = snap.counter("pipeline.cache.hits").unwrap()
        + snap.counter("pipeline.cache.misses").unwrap()
        + snap.counter("pipeline.cache.stale_hits").unwrap();
    assert!(cache_lookups > 0);
    // Gather accounting: every slot of every level is a gathered row (each
    // seed contributes 1 + 3 + 9), and a level repeats vertices, so fewer
    // rows were computed than gathered.
    let gathered = snap.counter("pipeline.gather_rows").unwrap();
    let computed = snap.counter("pipeline.gather_distinct_rows").unwrap();
    assert_eq!(gathered, vertices.len() as u64 * 13);
    assert!(computed >= vertices.len() as u64 && computed < gathered);

    // The typed view stays consistent with the registry.
    assert_eq!(
        pipeline.stats().cluster_requests,
        snap.counter("pipeline.cluster_requests").unwrap()
    );

    // Both exposition formats carry all layers.
    let json = snap.to_json();
    let prom = snap.to_prometheus();
    for name in [
        "samtree.leaf_ops",
        "storage.batches",
        "wal.appends",
        "cluster.requests",
        "pipeline.batches",
    ] {
        assert!(
            json.contains(&format!("\"{name}\"")),
            "{name} missing in JSON"
        );
    }
    for name in [
        "plato_samtree_leaf_ops_total",
        "plato_storage_batches_total",
        "plato_wal_appends_total",
        "plato_cluster_requests_total",
        "plato_pipeline_batches_total",
        "plato_cluster_sample_latency_seconds_bucket",
        "plato_storage_edges",
    ] {
        assert!(prom.contains(name), "{name} missing in Prometheus text");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `platod2gl` re-exports reach the cluster registry and the unified
/// sample API.
#[test]
fn facade_exposes_the_cluster_registry() {
    let cluster = Cluster::new(
        ClusterConfig::builder()
            .num_shards(2)
            .build()
            .expect("valid"),
    );
    cluster.insert_edge(Edge::new(VertexId(1), VertexId(2), 1.0));
    let snap = cluster.obs().snapshot();
    assert!(snap.counter("cluster.requests").unwrap() >= 1);
    assert!(snap.counter("samtree.leaf_ops").unwrap() >= 1);
    use platod2gl::{DegradedPolicy, SampleRequest};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let resp = cluster.sample(
        &SampleRequest::new(VertexId(1), EdgeType::DEFAULT, 4)
            .on_degraded(DegradedPolicy::SelfLoop),
        &mut rng,
    );
    assert!(!resp.degraded);
    assert_eq!(resp.neighbors.len(), 4);
}
