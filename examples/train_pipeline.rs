//! End-to-end mini-batch GNN training against the live sharded cluster —
//! the full PlatoD2GL serving loop: a writer thread streams graph updates
//! through `GraphService::apply_updates` while the training pipeline samples
//! k-hop blocks (frontier dedup + bounded-staleness neighbor cache),
//! prefetches them on worker threads, and trains GraphSAGE on the fly.
//!
//! Run with: `cargo run -p platod2gl --release --example train_pipeline`
//! Environment knobs: `EPOCHS` (default 8), `VERTICES` (default 600).

use platod2gl::{
    CacheConfig, Cluster, ClusterConfig, Edge, EdgeType, FeatureProvider, GraphService, GraphStore,
    HashFeatures, PipelineConfig, SageNet, SageNetConfig, TrainingPipeline, UpdateOp, VertexId,
};
use std::sync::atomic::{AtomicBool, Ordering};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Two-community graph over `n` vertices: dense same-label edges, rare
/// weak cross-label edges. The label is a pure function of the vertex's
/// hash features, so the task is learnable and survives graph growth.
fn build_graph(cluster: &Cluster, provider: &HashFeatures, n: u64) -> (Vec<VertexId>, Vec<usize>) {
    let vertices: Vec<VertexId> = (0..n).map(VertexId).collect();
    let labels: Vec<usize> = vertices.iter().map(|&v| provider.label(v)).collect();
    let by_label: Vec<Vec<VertexId>> = (0..2)
        .map(|c| {
            vertices
                .iter()
                .copied()
                .filter(|&v| provider.label(v) == c)
                .collect()
        })
        .collect();
    let mut state = 0x00c0_ffeeu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut ops = Vec::new();
    for &v in &vertices {
        let peers = &by_label[provider.label(v)];
        for _ in 0..6 {
            ops.push(UpdateOp::Insert(Edge::new(
                v,
                peers[next() as usize % peers.len()],
                1.0,
            )));
        }
        if next() % 10 == 0 {
            let others = &by_label[1 - provider.label(v)];
            ops.push(UpdateOp::Insert(Edge::new(
                v,
                others[next() as usize % others.len()],
                0.25,
            )));
        }
    }
    cluster.apply_updates(&ops).expect("bulk load");
    (vertices, labels)
}

fn main() {
    let epochs = env_usize("EPOCHS", 8) as u64;
    let n = env_usize("VERTICES", 600) as u64;

    let cluster = Cluster::new(
        ClusterConfig::builder()
            .num_shards(6)
            .build()
            .expect("valid config"),
    );
    let provider = HashFeatures::new(16, 2, 7);
    let (vertices, labels) = build_graph(&cluster, &provider, n);
    println!(
        "graph: {} vertices, {} edges across {} shards",
        n,
        cluster.num_edges(),
        cluster.num_shards()
    );

    let cfg = PipelineConfig::builder()
        .etype(EdgeType::DEFAULT)
        .fanouts(vec![5, 5])
        .batch_size(64)
        .prefetch_depth(4)
        .cache(CacheConfig {
            capacity: 1 << 14,
            shards: 8,
            max_staleness: 128,
        })
        .seed(7)
        .build()
        .expect("valid pipeline config");
    println!(
        "pipeline: fanouts {:?}, batch {}, prefetch depth {}, cache staleness bound {}\n",
        cfg.fanouts, cfg.batch_size, cfg.prefetch_depth, cfg.cache.max_staleness
    );
    let pipeline = TrainingPipeline::new(&cluster, cfg);
    let mut net = SageNet::new(SageNetConfig {
        feature_dim: provider.dim(),
        fanouts: vec![5, 5],
        lr: 0.1,
        ..Default::default()
    });

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Concurrent writer: label-preserving edge stream, the dynamic-graph
        // regime the pipeline is built for.
        scope.spawn(|| {
            let mut state = 0x7777u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            while !stop.load(Ordering::Relaxed) {
                let mut ops = Vec::with_capacity(32);
                for _ in 0..32 {
                    let v = VertexId(next() % n);
                    let mut u = VertexId(next() % n);
                    for _ in 0..8 {
                        if provider.label(u) == provider.label(v) {
                            break;
                        }
                        u = VertexId(next() % n);
                    }
                    ops.push(UpdateOp::Insert(Edge::new(v, u, 1.0)));
                }
                let _ = cluster.apply_updates(&ops);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });

        println!(
            "{:<7} {:>10} {:>10} {:>12} {:>10} {:>10}",
            "epoch", "loss", "accuracy", "batches/s", "hit rate", "degraded"
        );
        for epoch in 0..epochs {
            let report = pipeline.run_epoch(&mut net, &provider, &vertices, &labels, epoch);
            let stats = pipeline.stats();
            println!(
                "{:<7} {:>10.4} {:>10.3} {:>12.1} {:>9.1}% {:>10}",
                epoch,
                report.mean_loss,
                report.mean_accuracy,
                report.throughput(),
                stats.cache.hit_rate() * 100.0,
                report.degraded_batches
            );
        }
        stop.store(true, Ordering::Relaxed);
    });

    let stats = pipeline.stats();
    println!(
        "\nsampler: {} frontier slots -> {} distinct expansions ({}% deduped), {} cluster requests",
        stats.frontier_slots,
        stats.distinct_sampled,
        (100 - 100 * stats.distinct_sampled / stats.frontier_slots.max(1)),
        stats.cluster_requests
    );
    // Slots of the padded node flow the blocks stood for vs rows they held:
    // `scripts/verify.sh` fails the build if this stops being a compaction.
    let snap = cluster.registry().snapshot();
    let slots = snap.counter("pipeline.gather_rows").unwrap_or(0);
    let nodes = snap.counter("pipeline.gather_distinct_rows").unwrap_or(0);
    println!(
        "block: {slots} slots -> {nodes} nodes ({}% compacted)",
        100 - 100 * nodes / slots.max(1)
    );
    println!(
        "stage p99s: sample {}us, gather {}us, train {}us",
        stats.sample.p99_ns / 1_000,
        stats.gather.p99_ns / 1_000,
        stats.train.p99_ns / 1_000
    );
    println!("graph version at exit: {}", cluster.graph_version());
    println!("\nstats json: {}", stats.to_json());
}
