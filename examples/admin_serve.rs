//! Boot a cluster, start the admin introspection server on an ephemeral
//! port, and probe every endpoint over a plain `TcpStream` — no curl, no
//! HTTP client crate. `scripts/verify.sh` greps the marker lines this
//! prints, so the example doubles as the CI smoke test for the admin
//! plane.
//!
//! The run exercises the full story the endpoints tell:
//!
//! 1. load a graph, make one shard slow, send a traced sample request
//!    over the slow-op threshold → `/debug/slow` captures it with its
//!    span tree;
//! 2. hard-fail a shard → `/healthz` turns 503; heal it → 200 again;
//! 3. scrape `/metrics` and `/debug/memory` → live `graph.mem.*` gauges.
//!
//! Run with: `cargo run -p platod2gl --release --example admin_serve`

use platod2gl::{
    AdminServer, Cluster, ClusterConfig, Edge, EdgeType, GraphStore, SampleRequest, VertexId,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Minimal HTTP/1.0 GET over a std socket: returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to admin server");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: admin\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code in response line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn main() {
    let config = ClusterConfig::builder()
        .num_shards(3)
        .build()
        .expect("valid config");
    let cluster = Arc::new(Cluster::new(config));
    // A low threshold so the scripted slow shard trips capture without
    // making the example take long.
    cluster
        .obs()
        .slow_log()
        .set_threshold(Duration::from_millis(2));
    for v in 0..200u64 {
        for k in 1..=4u64 {
            cluster.insert_edge(Edge::new(
                VertexId(v),
                VertexId((v * 7 + k * 31) % 200),
                1.0,
            ));
        }
    }

    let admin = AdminServer::bind("127.0.0.1:0", Arc::clone(&cluster)).expect("bind admin server");
    let addr = admin.local_addr();
    println!("admin: serving on {addr}");

    // 1. Trace a slow request: brown out the shard owning vertex 0, then
    //    sample it with a trace id. The 10ms injected delay clears the 2ms
    //    threshold, so the slow-op log captures the whole span tree.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let shard = cluster.route(VertexId(0));
    cluster
        .faults()
        .slow_shard(shard, Duration::from_millis(10));
    let req = SampleRequest::new(VertexId(0), EdgeType::DEFAULT, 8).with_trace_id(0xC0FFEE);
    let resp = cluster.sample(&req, &mut rng);
    assert!(!resp.degraded, "slow is not failed");
    cluster.faults().clear(shard);

    let (status, slow) = http_get(addr, "/debug/slow");
    assert_eq!(status, 200);
    assert!(slow.contains("\"trace_id\":12648430"), "{slow}");
    assert!(slow.contains("cluster.sample"), "{slow}");
    assert!(slow.contains("samtree.fts_draw"), "{slow}");
    println!("admin: slow-op log captured a traced sample request");

    // 2. Fail a shard and watch the health probe flip. The router marks a
    //    shard failed when a request actually hits it.
    cluster.faults().fail_shard(shard);
    let _ = cluster.sample(
        &SampleRequest::new(VertexId(0), EdgeType::DEFAULT, 4),
        &mut rng,
    );
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 503, "{body}");
    println!("admin: GET /healthz -> 503 (shard {shard} failed)");
    cluster.heal_shard(shard);
    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    println!("admin: GET /healthz -> 200 (healed)");

    // 3. Probe every endpoint and assert the load-bearing content.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("plato_cluster_requests_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("plato_graph_mem_samtree_bytes"),
        "{metrics}"
    );
    println!("admin: GET /metrics -> 200");

    let (status, memory) = http_get(addr, "/debug/memory");
    assert_eq!(status, 200);
    assert!(memory.contains("\"samtree_leaf_bytes\""), "{memory}");
    println!("admin: GET /debug/memory -> 200");

    let (status, spans) = http_get(addr, "/debug/spans");
    assert_eq!(status, 200);
    assert!(spans.contains("\"spans\":["), "{spans}");
    println!("admin: GET /debug/spans -> 200");

    let (status, _) = http_get(addr, "/");
    assert_eq!(status, 200);
    let (status, _) = http_get(addr, "/no-such-endpoint");
    assert_eq!(status, 404);
    println!("admin: GET /no-such-endpoint -> 404");

    admin.shutdown();
    println!("admin: all endpoints probed, server shut down");
}
