//! End-to-end admin plane: start the introspection server on an ephemeral
//! port, drive a real cluster workload (including an injected shard
//! fault), and assert each endpoint over a plain `TcpStream` — the same
//! path an operator's scraper takes, sockets and all.

use platod2gl::{
    AdminServer, Cluster, ClusterConfig, Edge, EdgeType, GraphStore, SampleRequest, VertexId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

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

fn loaded_cluster() -> Arc<Cluster> {
    let config = ClusterConfig::builder()
        .num_shards(3)
        .build()
        .expect("valid config");
    let cluster = Arc::new(Cluster::new(config));
    // Zero threshold: every sampled request lands in the slow-op log,
    // so the test needs no injected latency (keeps it fast and
    // timing-independent).
    cluster.obs().slow_log().set_threshold(Duration::ZERO);
    for v in 0..120u64 {
        for k in 1..=3u64 {
            cluster.insert_edge(Edge::new(
                VertexId(v),
                VertexId((v * 11 + k * 17) % 120),
                1.0,
            ));
        }
    }
    cluster
}

#[test]
fn admin_endpoints_reflect_a_live_workload_and_fault() {
    let cluster = loaded_cluster();
    let admin = AdminServer::bind("127.0.0.1:0", Arc::clone(&cluster)).expect("bind");
    let addr = admin.local_addr();

    // Workload: a traced sample request (captured, threshold is zero).
    let mut rng = StdRng::seed_from_u64(9);
    let req = SampleRequest::new(VertexId(0), EdgeType::DEFAULT, 6).with_trace_id(0xBEEF);
    let resp = cluster.sample(&req, &mut rng);
    assert_eq!(resp.neighbors.len(), 6);

    // /debug/slow carries the trace id and the full span chain of the
    // request: router -> shard -> samtree -> Fenwick draw.
    let (status, slow) = http_get(addr, "/debug/slow");
    assert_eq!(status, 200);
    assert!(slow.contains("\"trace_id\":48879"), "{slow}");
    for span in [
        "cluster.sample",
        "shard.sample",
        "samtree.sample",
        "samtree.fts_draw",
    ] {
        assert!(slow.contains(&format!("\"name\":\"{span}\"")), "{slow}");
    }

    // /metrics is Prometheus text with the memory gauges refreshed by the
    // scrape itself and the serving histogram in seconds.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("plato_graph_mem_samtree_bytes"),
        "{metrics}"
    );
    assert!(
        metrics.contains("plato_cluster_sample_latency_seconds_bucket"),
        "{metrics}"
    );
    assert!(
        metrics.contains("# HELP plato_cluster_requests_total"),
        "{metrics}"
    );

    // /debug/memory splits the samtree bytes and sums per shard.
    let (status, memory) = http_get(addr, "/debug/memory");
    assert_eq!(status, 200);
    assert!(memory.contains("\"samtree_leaf_bytes\""), "{memory}");
    assert!(memory.contains("\"per_shard\":[{\"shard\":0"), "{memory}");

    // Injected fault: /healthz flips to 503 once a request has hit the
    // failed shard, and recovers to 200 after heal.
    let shard = cluster.route(VertexId(0));
    cluster.faults().fail_shard(shard);
    let degraded = cluster.sample(
        &SampleRequest::new(VertexId(0), EdgeType::DEFAULT, 4),
        &mut rng,
    );
    assert!(degraded.degraded);
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"health\":\"failed\""), "{body}");
    cluster.heal_shard(shard);
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // /debug/spans exposes tracer accounting; unknown paths 404.
    let (status, spans) = http_get(addr, "/debug/spans");
    assert_eq!(status, 200);
    assert!(spans.contains("\"started\":"), "{spans}");
    let (status, _) = http_get(addr, "/missing");
    assert_eq!(status, 404);

    admin.shutdown();
}
