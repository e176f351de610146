//! End-to-end integration: profile ingest -> sharded storage -> sampling
//! operators -> GNN training, all through the `platod2gl` re-exports.

use platod2gl::{
    gather_features, CacheConfig, Cluster, ClusterConfig, DatasetProfile, Edge, EdgeType,
    GraphService, GraphStore, HashFeatures, KHopSampler, MetapathSampler, NeighborCache,
    NeighborSampler, NodeSampler, PipelineConfig, SageNet, SageNetConfig, StoreConfig,
    SubgraphSampler, TrainingPipeline, UpdateOp, VertexId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cluster(num_shards: usize) -> Cluster {
    Cluster::new(
        ClusterConfig::builder()
            .num_shards(num_shards)
            .build()
            .expect("valid config"),
    )
}

#[test]
fn ingest_sample_train_pipeline() {
    let mut store = StoreConfig::default();
    store.tree.capacity = 32;
    let cluster = Cluster::new(
        ClusterConfig::builder()
            .num_shards(3)
            .store(store)
            .build()
            .expect("valid config"),
    );
    let profile = DatasetProfile::ogbn().scaled_to_edges(30_000);
    profile.ingest_into(&cluster, 5);
    assert!(cluster.num_edges() > 10_000);
    assert_eq!(
        cluster.num_edges(),
        cluster.shard_edge_counts().iter().sum::<usize>()
    );

    // Every shard's samtrees remain structurally valid after ingest.
    for server in cluster.servers() {
        server.topology().check_invariants().expect("invariants");
    }

    // Sampling operators over the cluster.
    let seeds = profile.sample_sources(32, 9);
    let neighbor_lists = NeighborSampler::new(EdgeType(0), 50).sample(
        &cluster,
        &seeds,
        &mut StdRng::seed_from_u64(1),
    );
    assert_eq!(neighbor_lists.len(), 32);
    let non_empty = neighbor_lists.iter().filter(|l| !l.is_empty()).count();
    assert!(non_empty > 16, "most Zipf-drawn sources have out-edges");
    for (seed, list) in seeds.iter().zip(&neighbor_lists) {
        for u in list {
            assert!(
                cluster.edge_weight(*seed, *u, EdgeType(0)).is_some(),
                "sampled non-neighbor"
            );
        }
    }

    let sg = SubgraphSampler::new(EdgeType(0), vec![10, 10]).sample(
        &cluster,
        &seeds[..4],
        &mut StdRng::seed_from_u64(2),
    );
    assert_eq!(sg.layers.len(), 3);
    assert!(sg.num_vertices() > 4);

    // Train a small GraphSAGE model against the live cluster: five batches
    // of 16 node-sampled seeds through the pipeline.
    let provider = HashFeatures::new(8, 2, 33);
    let mut net = SageNet::new(SageNetConfig {
        feature_dim: 8,
        hidden_dim: 8,
        num_classes: 2,
        fanouts: vec![3, 3],
        lr: 0.05,
        ..Default::default()
    });
    let pipeline_config = PipelineConfig::builder()
        .fanouts(vec![3, 3])
        .batch_size(16)
        .prefetch_depth(0)
        .build()
        .expect("valid config");
    let pipeline = TrainingPipeline::new(&cluster, pipeline_config);
    let mut rng = StdRng::seed_from_u64(3);
    let batch = NodeSampler::new(seeds.clone()).sample(80, &mut rng);
    let labels: Vec<usize> = batch.iter().map(|v| provider.label(*v)).collect();
    let report = pipeline.run_epoch(&mut net, &provider, &batch, &labels, 0);
    assert_eq!(report.batches, 5);
    assert!(report.mean_loss.is_finite());

    // Predict on one block over the seeds, sampled as the pipeline samples.
    let cache = NeighborCache::new(CacheConfig::disabled());
    let block =
        KHopSampler::new(EdgeType(0), vec![3, 3]).sample_block(&cluster, &cache, &seeds, &mut rng);
    let gather = |nodes: &Vec<VertexId>| gather_features(&provider, nodes, 8);
    let feats: Vec<_> = block.nodes.iter().map(gather).collect();
    let preds = net.predict(&feats, &block.child);
    assert_eq!(preds.len(), seeds.len());
    assert!(preds.iter().all(|&class| class < 2));
}

#[test]
fn heterogeneous_metapath_pipeline() {
    let cluster = cluster(2);
    let profile = DatasetProfile::wechat().scaled_to_edges(40_000);
    profile.ingest_into(&cluster, 11);

    // User-Live (etype 0) then Live-Tag (etype 3): layers must respect
    // vertex types.
    let users = profile.sample_sources(16, 4);
    let metapath = MetapathSampler::new(vec![(EdgeType(0), 10), (EdgeType(3), 10)]);
    let mut rng = StdRng::seed_from_u64(6);
    let layers = metapath.sample(&cluster, &users, &mut rng);
    assert_eq!(layers.len(), 3);
    // All hop-1 vertices that came from the User-Live relation are Lives
    // (type 1) — some sources may be Lives themselves because the dataset
    // is bi-directed, which can surface Users at hop 1 too; every hop-2
    // vertex reached over Live-Tag must be a Tag (type 3).
    for v in &layers[2] {
        assert_eq!(v.vtype().0, 3, "Live-Tag hop must land on tags: {v:?}");
    }
}

#[test]
fn updates_flow_through_all_layers() {
    let cluster = cluster(2);
    let user = VertexId::compose(platod2gl::VertexType(0), 1);
    let items: Vec<VertexId> = (0..8)
        .map(|i| VertexId::compose(platod2gl::VertexType(1), i))
        .collect();
    let ops: Vec<UpdateOp> = items
        .iter()
        .map(|&item| UpdateOp::Insert(Edge::new(user, item, 1.0)))
        .collect();
    cluster.apply_updates(&ops).expect("no shard faults");
    assert_eq!(cluster.degree(user, EdgeType::DEFAULT), 8);

    // Deleting half through a batch leaves exactly the other half samplable.
    let deletes: Vec<UpdateOp> = items[..4]
        .iter()
        .map(|&item| UpdateOp::Delete {
            src: user,
            dst: item,
            etype: EdgeType::DEFAULT,
        })
        .collect();
    cluster.apply_updates(&deletes).expect("no shard faults");
    assert_eq!(cluster.degree(user, EdgeType::DEFAULT), 4);
    let samples = NeighborSampler::new(EdgeType::DEFAULT, 500).sample(
        &cluster,
        &[user],
        &mut StdRng::seed_from_u64(7),
    );
    for v in &samples[0] {
        assert!(items[4..].contains(v), "deleted item sampled: {v:?}");
    }
    // Traffic accounting observed the work.
    let snap = cluster.obs().snapshot();
    assert!(snap.counter("cluster.requests").unwrap() > 0);
    assert!(snap.counter("cluster.request_bytes").unwrap() > 0);
}

/// Table V's op counts describe the trees, not the deployment: every shard
/// records into the cluster's one registry, so one stream reads the same
/// `samtree.*` totals at 1 and 4 shards (summing per-shard `op_stats()`
/// would count them once per shard).
#[test]
fn op_counts_do_not_scale_with_shard_count() {
    let profile = DatasetProfile::tiny();
    let counts = |num_shards| {
        // Small nodes, so the stream splits leaves and its deletes merge them.
        let mut store = StoreConfig::default();
        store.tree.capacity = 8;
        let cluster = Cluster::new(
            ClusterConfig::builder()
                .num_shards(num_shards)
                .store(store)
                .build()
                .expect("valid config"),
        );
        profile.ingest_into(&cluster, 2);
        cluster
            .apply_updates(&profile.update_stream(3).next_batch(4_000))
            .expect("no shard faults");
        let snap = cluster.obs().snapshot();
        [
            "samtree.leaf_ops",
            "samtree.internal_ops",
            "samtree.leaf_splits",
            "samtree.merges",
        ]
        .map(|name| snap.counter(name).expect("registered"))
    };
    let one = counts(1);
    assert!(one.iter().all(|&n| n > 0), "{one:?}");
    assert_eq!(one, counts(4));
}
