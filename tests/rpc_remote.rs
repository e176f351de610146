//! Acceptance tests for the distributed mode: the full training pipeline
//! over a TCP `RemoteCluster` must be bit-identical to the in-process
//! path under a shared seed, and a server-side shard fault must surface to
//! the remote trainer as degraded batches — never client errors — with the
//! client's trace ids findable in the *server's* `GET /debug/slow`.

use platod2gl::{
    route_for, AdminServer, Cluster, ClusterConfig, DegradedPolicy, Edge, EdgeType, GraphService,
    GraphServiceServer, GraphStore, HashFeatures, PipelineConfig, RemoteCluster,
    RemoteClusterConfig, SageNet, SageNetConfig, SampleRequest, TrainingPipeline, VertexId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const ET: EdgeType = EdgeType::DEFAULT;
const N: u64 = 120;

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Deterministically built cluster: calling this twice yields two clusters
/// in identical state (same shards, same edges in the same order).
fn built_cluster(num_shards: usize) -> Arc<Cluster> {
    let config = ClusterConfig::builder()
        .num_shards(num_shards)
        .build()
        .expect("valid config");
    let cluster = Arc::new(Cluster::new(config));
    cluster.obs().slow_log().set_threshold(Duration::ZERO);
    for v in 0..N {
        for k in 1..=5u64 {
            // Deterministically stamped: the windowed-epoch leg below needs
            // real event times. Unwindowed sampling ignores them.
            let dst = (v + k * 7) % N;
            cluster.insert_edge(
                Edge::new(VertexId(v), VertexId(dst), 1.0).at((v + dst * 13) % 90 + 1),
            );
        }
    }
    cluster
}

fn pipeline_config(seed: u64) -> PipelineConfig {
    PipelineConfig::builder()
        .etype(ET)
        .fanouts(vec![3, 3])
        .batch_size(24)
        // Sequential production: block order (and therefore the order SGD
        // consumes them in) is deterministic, which the bit-equality
        // comparison below needs.
        .prefetch_depth(0)
        .seed(seed)
        .build()
        .expect("valid pipeline config")
}

fn fresh_net() -> SageNet {
    SageNet::new(SageNetConfig {
        fanouts: vec![3, 3],
        lr: 0.05,
        seed: 17,
        ..Default::default()
    })
}

/// The headline equivalence claim: a trainer with a fixed seed produces
/// the same mini-batches — and therefore the same losses, accuracies, and
/// parameter trajectory — whether its `GraphService` is the in-process
/// `Cluster` or a `RemoteCluster` talking to an identical server over TCP.
#[test]
fn training_pipeline_is_bit_identical_local_vs_remote() {
    let provider = HashFeatures::new(16, 2, 7);
    let seeds: Vec<VertexId> = (0..N).map(VertexId).collect();
    let labels: Vec<usize> = seeds.iter().map(|&v| provider.label(v)).collect();

    let local_cluster = built_cluster(3);
    let served_cluster = built_cluster(3);
    let server =
        GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&served_cluster)).expect("bind");
    let remote = RemoteCluster::connect(server.local_addr(), RemoteClusterConfig::default())
        .expect("connect");

    let local_pipe = TrainingPipeline::new(&*local_cluster, pipeline_config(42));
    let remote_pipe = TrainingPipeline::new(&remote, pipeline_config(42));
    let mut local_net = fresh_net();
    let mut remote_net = fresh_net();

    for epoch in 0..2 {
        let a = local_pipe.run_epoch(&mut local_net, &provider, &seeds, &labels, epoch);
        let b = remote_pipe.run_epoch(&mut remote_net, &provider, &seeds, &labels, epoch);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.degraded_batches, 0);
        assert_eq!(b.degraded_batches, 0);
        assert_eq!(
            a.mean_loss.to_bits(),
            b.mean_loss.to_bits(),
            "epoch {epoch}: losses must be bit-identical across the wire"
        );
        assert_eq!(a.mean_accuracy.to_bits(), b.mean_accuracy.to_bits());
    }

    // The temporal leg: a windowed epoch (each seed sampling only edges no
    // newer than its event time) must also cross the wire bit-identically —
    // the time-window trailer block reaches the server and is enforced
    // there with the same derived RNG as the in-process path.
    let seed_times: Vec<u64> = seeds.iter().map(|v| v.raw() * 13 % 70 + 20).collect();
    let a =
        local_pipe.run_epoch_windowed(&mut local_net, &provider, &seeds, &labels, &seed_times, 2);
    let b =
        remote_pipe.run_epoch_windowed(&mut remote_net, &provider, &seeds, &labels, &seed_times, 2);
    assert_eq!(a.batches, b.batches);
    assert_eq!(
        a.mean_loss.to_bits(),
        b.mean_loss.to_bits(),
        "windowed epoch: losses must be bit-identical across the wire"
    );
    assert_eq!(a.mean_accuracy.to_bits(), b.mean_accuracy.to_bits());

    // Both sides issued the same cluster requests (dedup + cache
    // interplay included) — the wire changed nothing about the workload.
    let a = local_pipe.stats();
    let b = remote_pipe.stats();
    assert_eq!(a.cluster_requests, b.cluster_requests);
    assert_eq!(a.distinct_sampled, b.distinct_sampled);

    server.shutdown();
}

/// A server-side shard fault mid-training degrades the remote trainer's
/// batches (it keeps training) instead of erroring, and the trace ids the
/// client stamps on its requests are visible in the server's
/// `/debug/slow` — end-to-end, over two separate TCP planes.
#[test]
fn server_fault_degrades_remote_batches_and_traces_cross_the_wire() {
    let provider = HashFeatures::new(16, 2, 7);
    let seeds: Vec<VertexId> = (0..N).map(VertexId).collect();
    let labels: Vec<usize> = seeds.iter().map(|&v| provider.label(v)).collect();

    let cluster = built_cluster(3);
    let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&cluster)).expect("bind");
    let admin = AdminServer::bind("127.0.0.1:0", Arc::clone(&cluster)).expect("bind admin");
    let remote = RemoteCluster::connect(server.local_addr(), RemoteClusterConfig::default())
        .expect("connect");

    // Kill a shard on the server side, then train remotely: batches
    // touching the dead shard come back degraded, none of them error.
    let shard = 1;
    cluster.faults().fail_shard(shard);
    let pipe = TrainingPipeline::new(&remote, pipeline_config(7));
    let mut net = fresh_net();
    let report = pipe.run_epoch(&mut net, &provider, &seeds, &labels, 0);
    assert!(report.batches > 0);
    assert!(
        report.degraded_batches > 0,
        "a dead shard must show up as degraded batches"
    );

    // A traced request to the dead shard: the trace id must land in the
    // server's slow-op log and be served by the server's admin plane.
    let trace_id: u64 = 0xFEED_0BEE;
    let victim = (0..N)
        .map(VertexId)
        .find(|&v| route_for(v, 3) == shard)
        .expect("a vertex on the dead shard");
    let req = SampleRequest::new(victim, ET, 4)
        .on_degraded(DegradedPolicy::SelfLoop)
        .with_trace_id(trace_id);
    let resp = remote.sample_one(&req, &mut StdRng::seed_from_u64(5));
    assert!(resp.degraded, "dead shard degrades, never errors");
    assert_eq!(resp.neighbors, vec![victim; 4]);

    let (status, body) = http_get(admin.local_addr(), "/debug/slow");
    assert_eq!(status, 200);
    assert!(
        body.contains(&format!("\"trace_id\":{trace_id}")),
        "client trace id must be findable in the server's /debug/slow: {body}"
    );

    // The server's own `/metrics` counts the degradation.
    let (status, body) = http_get(admin.local_addr(), "/metrics");
    assert_eq!(status, 200);
    let degraded: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("plato_cluster_degraded_responses_total "))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    assert!(degraded > 0, "{body}");

    // Healing over the wire restores clean training.
    remote.heal(shard);
    cluster.faults().clear(shard);
    let report = pipe.run_epoch(&mut net, &provider, &seeds, &labels, 1);
    assert_eq!(report.degraded_batches, 0, "healed cluster trains clean");

    admin.shutdown();
    server.shutdown();
}
