//! The full operator stack (node / neighbor / subgraph / metapath / walk /
//! negative sampling and both trainers) driven through the sharded cluster
//! — the integration surface a training job actually touches.

use platod2gl::{
    gather_features, CacheConfig, Cluster, ClusterConfig, DatasetProfile, DeepWalkConfig,
    DeepWalkTrainer, Edge, EdgeType, GraphStore, HashFeatures, KHopSampler, MetapathSampler,
    NegativeSampler, NeighborCache, NeighborSampler, Node2VecWalker, NodeSampler, PipelineConfig,
    RandomWalkSampler, SageNet, SageNetConfig, StoreConfig, SubgraphSampler, TrainingPipeline,
    VertexId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn booted_cluster() -> (Cluster, DatasetProfile) {
    let mut store = StoreConfig::default();
    store.tree.capacity = 32;
    let cluster = Cluster::new(
        ClusterConfig::builder()
            .num_shards(3)
            .store(store)
            .build()
            .expect("valid config"),
    );
    let profile = DatasetProfile::ogbn().scaled_to_edges(20_000);
    profile.ingest_into(&cluster, 7);
    (cluster, profile)
}

#[test]
fn every_sampler_runs_against_the_cluster() {
    let (cluster, profile) = booted_cluster();
    let store = &cluster;
    let seeds = profile.sample_sources(16, 1);
    let mut rng = StdRng::seed_from_u64(2);

    // Node sampling.
    let node_sampler = NodeSampler::new(seeds.clone());
    assert_eq!(node_sampler.sample(8, &mut rng).len(), 8);

    // Neighbor sampling, with and without replacement.
    let ns = NeighborSampler::new(EdgeType(0), 10);
    let with = ns.sample(store, &seeds, &mut rng);
    assert_eq!(with.len(), seeds.len());
    let unique = ns.sample_unique(store, &seeds, &mut rng);
    for (v, list) in seeds.iter().zip(&unique) {
        let mut ids: Vec<u64> = list.iter().map(|x| x.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), list.len(), "duplicates for {v:?}");
    }

    // Subgraph + metapath.
    let sg = SubgraphSampler::new(EdgeType(0), vec![5, 5]).sample(store, &seeds[..4], &mut rng);
    assert_eq!(sg.layers.len(), 3);
    let mp = MetapathSampler::new(vec![(EdgeType(0), 5), (EdgeType(0), 5)]).sample(
        store,
        &seeds[..4],
        &mut rng,
    );
    assert_eq!(mp.len(), 3);

    // Walks: first-order, restarting, and node2vec.
    for walk in RandomWalkSampler::new(EdgeType(0), 8).sample(store, &seeds[..4], &mut rng) {
        for pair in walk.windows(2) {
            assert!(store.edge_weight(pair[0], pair[1], EdgeType(0)).is_some());
        }
    }
    let _ = RandomWalkSampler::new(EdgeType(0), 8)
        .with_restart(0.3)
        .sample(store, &seeds[..4], &mut rng);
    for walk in Node2VecWalker::new(EdgeType(0), 8, 4.0, 0.5).sample(store, &seeds[..4], &mut rng) {
        for pair in walk.windows(2) {
            assert!(store.edge_weight(pair[0], pair[1], EdgeType(0)).is_some());
        }
    }

    // Negative sampling.
    let neg = NegativeSampler::new(EdgeType(0), seeds.clone());
    for n in neg.sample(store, seeds[0], 4, &mut rng) {
        assert!(store.edge_weight(seeds[0], n, EdgeType(0)).is_none());
    }
}

#[test]
fn both_trainer_families_run_against_the_cluster() {
    let (cluster, profile) = booted_cluster();
    let store = &cluster;
    let seeds = profile.sample_sources(48, 3);
    let provider = HashFeatures::new(8, 2, 11);
    let mut rng = StdRng::seed_from_u64(4);

    // GraphSAGE supervised steps through the pipeline, one batch an epoch.
    let mut sage = SageNet::new(SageNetConfig {
        feature_dim: 8,
        hidden_dim: 8,
        fanouts: vec![3, 3],
        lr: 0.05,
        ..Default::default()
    });
    let pipeline_config = PipelineConfig::builder()
        .fanouts(vec![3, 3])
        .batch_size(seeds.len())
        .prefetch_depth(0)
        .build()
        .expect("valid config");
    let pipeline = TrainingPipeline::new(store, pipeline_config);
    let labels: Vec<usize> = seeds.iter().map(|v| provider.label(*v)).collect();
    for epoch in 0..2 {
        let report = pipeline.run_epoch(&mut sage, &provider, &seeds, &labels, epoch);
        assert_eq!(report.batches, 1);
        assert!(report.mean_loss.is_finite());
    }
    let cache = NeighborCache::new(CacheConfig::disabled());
    let block = KHopSampler::new(EdgeType(0), vec![3, 3]).sample_block(
        store,
        &cache,
        &seeds[..4],
        &mut rng,
    );
    let gather = |nodes: &Vec<VertexId>| gather_features(&provider, nodes, 8);
    let feats: Vec<_> = block.nodes.iter().map(gather).collect();
    assert_eq!(sage.predict(&feats, &block.child).len(), 4);

    // DeepWalk unsupervised epochs.
    let dw = DeepWalkTrainer::new(
        DeepWalkConfig {
            dim: 8,
            walk_length: 6,
            ..Default::default()
        },
        seeds.clone(),
    );
    let l1 = dw.train_epoch(store, &seeds, &mut rng);
    let mut last = l1;
    for _ in 0..5 {
        last = dw.train_epoch(store, &seeds, &mut rng);
    }
    assert!(last.is_finite() && last <= l1 * 1.5);
    assert!(!dw.embeddings.is_empty());
}

#[test]
fn decay_and_topk_flow_through_the_cluster() {
    let store = Cluster::new(
        ClusterConfig::builder()
            .num_shards(2)
            .build()
            .expect("valid config"),
    );
    let user = VertexId(42);
    for i in 0..30u64 {
        store.insert_edge(Edge::new(user, VertexId(100 + i), (i % 5) as f64 + 1.0));
    }
    let top = store.top_k_neighbors(user, EdgeType(0), 3);
    assert_eq!(top.len(), 3);
    assert!((top[0].1 - 5.0).abs() < 1e-9);
    let before = store.weight_sum(user, EdgeType(0));
    store.decay_weights(0.5);
    assert!((store.weight_sum(user, EdgeType(0)) - before * 0.5).abs() < 1e-6);
    // Per-shard latency telemetry saw the sampling traffic.
    let mut rng = StdRng::seed_from_u64(5);
    let _ = store.sample_neighbors(user, EdgeType(0), 10, &mut rng);
    assert!(store.obs().histogram("cluster.sample_latency_ns").count() >= 1);
    // Account deletion wipes the neighborhood.
    assert_eq!(store.delete_source(user, EdgeType(0)), 30);
    assert!(store.top_k_neighbors(user, EdgeType(0), 3).is_empty());
}
