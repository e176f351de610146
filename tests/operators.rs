//! The operator stack (node / neighbor / subgraph / metapath sampling and
//! the GraphSAGE trainer) driven through the sharded cluster — the
//! integration surface a training job actually touches.

use platod2gl::{
    gather_features, CacheConfig, Cluster, ClusterConfig, DatasetProfile, Edge, EdgeType,
    GraphStore, HashFeatures, KHopSampler, MetapathSampler, NeighborCache, NeighborSampler,
    NodeSampler, PipelineConfig, SageNet, SageNetConfig, StoreConfig, SubgraphSampler,
    TrainingPipeline, VertexId,
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
fn paper_samplers_run_against_the_cluster() {
    let (cluster, profile) = booted_cluster();
    let store = &cluster;
    let seeds = profile.sample_sources(16, 1);
    let mut rng = StdRng::seed_from_u64(2);

    // Node sampling.
    let node_sampler = NodeSampler::new(seeds.clone());
    assert_eq!(node_sampler.sample(8, &mut rng).len(), 8);

    // Neighbor sampling.
    let ns = NeighborSampler::new(EdgeType(0), 10);
    let lists = ns.sample(store, &seeds, &mut rng);
    assert_eq!(lists.len(), seeds.len());

    // Subgraph + metapath.
    let sg = SubgraphSampler::new(EdgeType(0), vec![5, 5]).sample(store, &seeds[..4], &mut rng);
    assert_eq!(sg.layers.len(), 3);
    let mp = MetapathSampler::new(vec![(EdgeType(0), 5), (EdgeType(0), 5)]).sample(
        store,
        &seeds[..4],
        &mut rng,
    );
    assert_eq!(mp.len(), 3);
}

#[test]
fn graphsage_trains_and_predicts_against_the_cluster() {
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
}

#[test]
fn latency_telemetry_and_source_deletion_flow_through_the_cluster() {
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
    // Per-shard latency telemetry saw the sampling traffic.
    let mut rng = StdRng::seed_from_u64(5);
    let _ = store.sample_neighbors(user, EdgeType(0), 10, &mut rng);
    assert!(store.obs().histogram("cluster.sample_latency_ns").count() >= 1);
    // Account deletion wipes the neighborhood.
    assert_eq!(store.delete_source(user, EdgeType(0)), 30);
    assert_eq!(store.degree(user, EdgeType(0)), 0);
}
