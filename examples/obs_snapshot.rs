//! One observability snapshot for the whole stack.
//!
//! Boots a sharded cluster, a durable (WAL-backed) storage sidecar, and the
//! mini-batch training pipeline — all recording into **one** shared
//! registry — then runs a short training session and dumps the unified
//! snapshot twice: as JSON (the bench harness shape) and as Prometheus
//! exposition text. Every subsystem shows up in the same dump: `samtree.*`
//! and `storage.*` from the shard stores, `wal.*` from the sidecar,
//! `cluster.*` from the router, `pipeline.*` from the trainer.
//!
//! Run with: `cargo run -p platod2gl --release --example obs_snapshot`

use platod2gl::{
    Cluster, ClusterConfig, DurableGraphStore, Edge, EdgeType, FeatureProvider, GraphService,
    GraphStore, HashFeatures, PipelineConfig, Registry, SageNet, SageNetConfig, StoreConfig,
    TrainingPipeline, UpdateOp, VertexId,
};
use std::sync::Arc;

fn main() {
    let registry = Arc::new(Registry::new());

    // The serving cluster: every shard store records samtree/storage
    // metrics into the shared registry.
    let config = ClusterConfig::builder()
        .num_shards(4)
        .build()
        .expect("valid config");
    let cluster = Cluster::with_registry(config, Arc::clone(&registry));

    // A durability sidecar: a WAL-backed store receiving the same update
    // stream, so `wal.*` metrics land in the same snapshot.
    let dir = std::env::temp_dir().join(format!("platod2gl-obs-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (durable, _report) =
        DurableGraphStore::open_with_registry(&dir, StoreConfig::default(), Arc::clone(&registry))
            .expect("open durable store");

    // Two-community graph: the label is a pure function of the vertex's
    // hash features, so a couple of epochs visibly learn it.
    let n = 400u64;
    let provider = HashFeatures::new(16, 2, 7);
    let vertices: Vec<VertexId> = (0..n).map(VertexId).collect();
    let labels: Vec<usize> = vertices.iter().map(|&v| provider.label(v)).collect();
    let mut state = 0x00c0_ffeeu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut ops = Vec::new();
    for &v in &vertices {
        for _ in 0..6 {
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
    cluster.apply_updates(&ops).expect("bulk load");
    durable.try_apply_batch(&ops, 2).expect("wal apply");
    durable.checkpoint().expect("wal checkpoint");

    // Train a short session; pipeline telemetry lands in the registry too.
    let cfg = PipelineConfig::builder()
        .fanouts(vec![5, 5])
        .batch_size(64)
        .seed(7)
        .build()
        .expect("valid pipeline config");
    let pipeline = TrainingPipeline::new(&cluster, cfg);
    let mut net = SageNet::new(SageNetConfig {
        feature_dim: provider.dim(),
        fanouts: vec![5, 5],
        lr: 0.1,
        ..Default::default()
    });
    for epoch in 0..2 {
        let report = pipeline.run_epoch(&mut net, &provider, &vertices, &labels, epoch);
        eprintln!(
            "epoch {epoch}: loss {:.4}, accuracy {:.3}",
            report.mean_loss, report.mean_accuracy
        );
    }
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let _ = cluster.sample_neighbors(VertexId(0), EdgeType::DEFAULT, 8, &mut rng);

    let snap = registry.snapshot();
    println!("== JSON ==");
    println!("{}", snap.to_json());
    println!();
    println!("== Prometheus ==");
    print!("{}", snap.to_prometheus());

    let _ = std::fs::remove_dir_all(&dir);
}
