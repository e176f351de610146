//! Distributed mode, end to end: boot a graph server on an ephemeral TCP
//! port, connect a `RemoteCluster`, and run the whole trainer story over
//! real sockets — remote sampling (bit-identical to local), a remote
//! update batch, a server-side shard fault riding through as degraded
//! batches, a remote heal, and a clean shutdown.
//!
//! `scripts/verify.sh` greps the marker lines this prints, so the example
//! doubles as the CI smoke test for the rpc plane.
//!
//! Run with: `cargo run -p platod2gl --release --example remote_train`

use platod2gl::{
    route_for, CacheConfig, Cluster, ClusterConfig, Edge, EdgeType, GraphService,
    GraphServiceServer, GraphStore, HashFeatures, PipelineConfig, RemoteCluster,
    RemoteClusterConfig, SageNet, SageNetConfig, SampleRequest, TrainingPipeline, UpdateOp,
    VertexId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const ET: EdgeType = EdgeType::DEFAULT;
const N: u64 = 150;

fn main() {
    // 1. The server side: a 3-shard cluster behind a TCP graph service.
    let config = ClusterConfig::builder()
        .num_shards(3)
        .build()
        .expect("valid config");
    let cluster = Arc::new(Cluster::new(config));
    cluster.obs().slow_log().set_threshold(Duration::ZERO);
    for v in 0..N {
        for k in 1..=5u64 {
            cluster.insert_edge(Edge::new(VertexId(v), VertexId((v + k * 11) % N), 1.0));
        }
    }
    let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&cluster)).expect("bind");
    println!("graph server listening on {}", server.local_addr());

    // 2. The trainer side: a remote client with the same service surface.
    let remote = RemoteCluster::connect(server.local_addr(), RemoteClusterConfig::default())
        .expect("connect");
    println!(
        "remote cluster connected: {} shards at version {}",
        remote.num_shards(),
        remote.graph_version()
    );

    // 3. Remote sampling is bit-identical to sampling the cluster
    //    in-process under the same seed.
    let reqs: Vec<SampleRequest> = (0..32u64)
        .map(|v| SampleRequest::new(VertexId(v), ET, 6))
        .collect();
    let local = cluster.sample_many(&reqs, &mut StdRng::seed_from_u64(99));
    let wire = remote.sample_many(&reqs, &mut StdRng::seed_from_u64(99));
    assert_eq!(local, wire);
    println!(
        "remote sampling bit-identical to local ({} requests)",
        reqs.len()
    );

    // 4. A remote update batch lands on the server's shards.
    let ops: Vec<UpdateOp> = (0..40u64)
        .map(|i| UpdateOp::Insert(Edge::new(VertexId(i % N), VertexId(500 + i), 0.5)))
        .collect();
    let report = remote.apply_updates(&ops).expect("apply over wire");
    println!(
        "remote update batch applied: {} ops, graph at version {}",
        report.applied_ops,
        remote.graph_version()
    );

    // 5. Train over the wire while a server-side shard dies mid-run: the
    //    pipeline keeps producing (degraded) batches instead of erroring.
    let provider = HashFeatures::new(16, 2, 7);
    let seeds: Vec<VertexId> = (0..N).map(VertexId).collect();
    let labels: Vec<usize> = seeds.iter().map(|&v| provider.label(v)).collect();
    let pipe = TrainingPipeline::new(
        &remote,
        PipelineConfig::builder()
            .etype(ET)
            .fanouts(vec![3, 3])
            .batch_size(32)
            // Zero staleness budget: every batch consults the (remote)
            // cluster, so a server-side fault is visible immediately
            // instead of being masked by warm cache entries.
            .cache(CacheConfig {
                capacity: 1 << 12,
                shards: 4,
                max_staleness: 0,
            })
            .seed(42)
            .build()
            .expect("valid pipeline config"),
    );
    let mut net = SageNet::new(SageNetConfig {
        fanouts: vec![3, 3],
        lr: 0.05,
        ..Default::default()
    });
    let clean = pipe.run_epoch(&mut net, &provider, &seeds, &labels, 0);
    println!(
        "epoch 0 (healthy): {} batches, loss {:.4}",
        clean.batches, clean.mean_loss
    );

    let shard = 1;
    cluster.faults().fail_shard(shard);
    // One more write (to a healthy shard) advances the graph version, so
    // the zero-staleness cache above re-consults the cluster and sees the
    // fault.
    let healthy = (0..N)
        .map(VertexId)
        .find(|&v| route_for(v, 3) != shard)
        .expect("a vertex on a healthy shard");
    remote
        .apply_updates(&[UpdateOp::Insert(Edge::new(healthy, VertexId(998), 1.0))])
        .expect("version bump");
    let faulted = pipe.run_epoch(&mut net, &provider, &seeds, &labels, 1);
    assert!(faulted.degraded_batches > 0);
    println!(
        "epoch 1 (shard {shard} failed server-side): {} of {} batches degraded, trainer survived",
        faulted.degraded_batches, faulted.batches
    );

    // 6. Heal the shard over the wire; queued ops drain, training is clean.
    let victim = (0..N)
        .map(VertexId)
        .find(|&v| route_for(v, 3) == shard)
        .expect("a vertex on the failed shard");
    let queued = remote
        .apply_updates(&[UpdateOp::Insert(Edge::new(victim, VertexId(999), 1.0))])
        .expect("queued batch");
    let drained = remote.heal(shard);
    cluster.faults().clear(shard);
    assert_eq!(queued.queued_ops, drained);
    println!("remote heal drained {drained} queued ops");
    let healed = pipe.run_epoch(&mut net, &provider, &seeds, &labels, 2);
    assert_eq!(healed.degraded_batches, 0);
    println!(
        "epoch 2 (healed): {} batches, 0 degraded, loss {:.4}",
        healed.batches, healed.mean_loss
    );

    // 7. Clean shutdown: all server threads join before this returns.
    server.shutdown();
    println!("server shut down cleanly");
}
