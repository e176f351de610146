//! Fraud detection: train a GraphSAGE classifier on a *dynamic* transaction
//! graph (one of the paper's motivating GNN applications, Sec. I).
//!
//! Accounts form two behavioral communities (normal / fraud-adjacent) that
//! mostly transact internally. We train on the initial graph, then inject a
//! burst of new edges and keep training — `TrainingPipeline` samples every
//! batch from the live cluster, so no rebuild or re-partitioning is needed.
//! The final evaluation samples one block over all accounts with the same
//! `KHopSampler` and predicts on it. The run fails unless that accuracy
//! reaches 85 % and the phase-1 loss falls.
//!
//! Run with: `cargo run -p platod2gl --release --example fraud_detection`

use platod2gl::{
    gather_features, CacheConfig, Cluster, ClusterConfig, Edge, GraphService, GraphStore,
    HashFeatures, KHopSampler, NeighborCache, PipelineConfig, SageNet, SageNetConfig,
    TrainingPipeline, UpdateOp, VertexId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// xorshift for reproducible synthetic edges.
struct Xs(u64);
impl Xs {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn community_edges(
    provider: &HashFeatures,
    vertices: &[VertexId],
    per_vertex: usize,
    intra_pct: u64,
    rng: &mut Xs,
) -> Vec<Edge> {
    let by_label: Vec<Vec<VertexId>> = (0..2)
        .map(|c| {
            vertices
                .iter()
                .copied()
                .filter(|&v| provider.label(v) == c)
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    for &v in vertices {
        let c = provider.label(v);
        for _ in 0..per_vertex {
            let pool = if rng.next() % 100 < intra_pct {
                &by_label[c]
            } else {
                &by_label[1 - c]
            };
            let dst = pool[(rng.next() % pool.len() as u64) as usize];
            if dst != v {
                out.push(Edge::new(v, dst, 1.0));
            }
        }
    }
    out
}

fn main() {
    let provider = HashFeatures::new(16, 2, 2024);
    let accounts: Vec<VertexId> = (0..400).map(VertexId).collect();
    let labels: Vec<usize> = accounts.iter().map(|&v| provider.label(v)).collect();

    let cluster = Cluster::new(
        ClusterConfig::builder()
            .num_shards(2)
            .build()
            .expect("valid config"),
    );
    let mut rng_edges = Xs(0xfeed_beef);
    let initial = community_edges(&provider, &accounts, 6, 90, &mut rng_edges);
    cluster
        .apply_updates(
            &initial
                .iter()
                .map(|&e| UpdateOp::Insert(e))
                .collect::<Vec<_>>(),
        )
        .expect("no shard faults");
    println!(
        "transaction graph: {} accounts, {} edges",
        accounts.len(),
        cluster.num_edges()
    );

    let fanouts = vec![4, 4];
    let mut net = SageNet::new(SageNetConfig {
        feature_dim: 16,
        hidden_dim: 32,
        num_classes: 2,
        fanouts: fanouts.clone(),
        lr: 0.1,
        ..Default::default()
    });
    let pipeline_config = PipelineConfig::builder()
        .fanouts(fanouts)
        .batch_size(64)
        .prefetch_depth(0)
        .build()
        .expect("valid config");
    let pipeline = TrainingPipeline::new(&cluster, pipeline_config.clone());

    // --- Phase 1: train on the initial graph -----------------------------
    println!("\nphase 1: initial training");
    let mut losses = Vec::new();
    for epoch in 0..10 {
        let report = pipeline.run_epoch(&mut net, &provider, &accounts, &labels, epoch);
        println!(
            "  epoch {epoch:>2}: loss {:.4}  acc {:.1}%",
            report.mean_loss,
            report.mean_accuracy * 100.0
        );
        losses.push(report.mean_loss);
    }

    // --- Phase 2: the graph changes under the trainer --------------------
    // A burst of fresh transactions (including some cross-community noise)
    // lands while training continues — PlatoD2GL absorbs it in place.
    println!("\nphase 2: injecting 30% more edges, training continues");
    let burst = community_edges(&provider, &accounts, 2, 80, &mut rng_edges);
    cluster
        .apply_updates(
            &burst
                .iter()
                .map(|&e| UpdateOp::Insert(e))
                .collect::<Vec<_>>(),
        )
        .expect("no shard faults");
    println!("  graph now has {} edges", cluster.num_edges());
    for epoch in 0..5 {
        let report = pipeline.run_epoch(&mut net, &provider, &accounts, &labels, 10 + epoch);
        println!(
            "  epoch {epoch:>2}: acc {:.1}%",
            report.mean_accuracy * 100.0
        );
    }

    // --- Evaluate ----------------------------------------------------------
    // One block over every account, sampled as the pipeline samples.
    let cache = NeighborCache::new(CacheConfig::disabled());
    let mut rng = StdRng::seed_from_u64(1);
    let sampler = KHopSampler::new(pipeline_config.etype, pipeline_config.fanouts);
    let block = sampler.sample_block(&cluster, &cache, &accounts, &mut rng);
    let dim = net.config().feature_dim;
    let gather = |nodes: &Vec<VertexId>| gather_features(&provider, nodes, dim);
    let feats: Vec<_> = block.nodes.iter().map(gather).collect();
    let preds = net.predict(&feats, &block.child);
    let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
    let accuracy = correct as f64 / accounts.len() as f64;
    println!(
        "\nfinal: {}/{} accounts classified correctly ({:.1}%)",
        correct,
        accounts.len(),
        accuracy * 100.0
    );
    assert!(
        losses.last() < losses.first(),
        "phase-1 loss did not fall: {losses:?}"
    );
    assert!(
        accuracy >= 0.85,
        "model should keep learning on the dynamic graph"
    );
}
