//! Scale-out mode, end to end: boot three fleet members on ephemeral TCP
//! ports, partition-route a training corpus across them, train a
//! GraphSAGE epoch through the `FleetCluster` client, then join a fourth
//! empty server and live-migrate its rendezvous share of the partitions
//! while a second epoch runs — zero degraded batches, and ownership
//! provably moves.
//!
//! `scripts/verify.sh` greps the marker lines this prints, so the example
//! doubles as the CI smoke test for the fleet plane.
//!
//! Run with: `cargo run -p platod2gl --release --example fleet_train`

use platod2gl::{
    AdminServer, Cluster, ClusterConfig, Edge, EdgeType, FleetCluster, FleetNode, GraphService,
    GraphServiceServer, GraphStore, HashFeatures, PartitionMap, PipelineConfig,
    RemoteClusterConfig, SageNet, SageNetConfig, SampleRequest, ServerEntry, TrainingPipeline,
    UpdateOp, VertexId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const ET: EdgeType = EdgeType::DEFAULT;
const N: u64 = 150;
const PARTITIONS: u32 = 64;

fn client_cfg() -> RemoteClusterConfig {
    RemoteClusterConfig::default().request_timeout(Duration::from_secs(5))
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
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

fn boot_member(id: u64) -> (Arc<FleetNode>, GraphServiceServer) {
    let cluster = Arc::new(Cluster::new(
        ClusterConfig::builder()
            .num_shards(2)
            .build()
            .expect("valid config"),
    ));
    let node = Arc::new(FleetNode::new(cluster, id, client_cfg()));
    let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&node)).expect("bind");
    (node, server)
}

fn main() {
    // 1. Three fleet members, each an independent 2-shard cluster behind
    //    its own TCP endpoint, sharing an epoch-1 partition map.
    let members: Vec<(Arc<FleetNode>, GraphServiceServer)> = (1..=3).map(boot_member).collect();
    let roster: Vec<ServerEntry> = members
        .iter()
        .map(|(node, server)| ServerEntry {
            id: node.server_id(),
            addr: server.local_addr().to_string(),
        })
        .collect();
    let map = PartitionMap::build(roster, PARTITIONS).expect("valid roster");
    for (node, server) in &members {
        node.install(map.clone());
        println!(
            "fleet member {} listening on {}",
            node.server_id(),
            server.local_addr()
        );
    }

    // 2. A fleet client: one `GraphService` facade over the whole roster.
    let addrs: Vec<String> = members
        .iter()
        .map(|(_, s)| s.local_addr().to_string())
        .collect();
    let fleet = Arc::new(FleetCluster::connect(&addrs, client_cfg()).expect("connect"));
    println!(
        "fleet client connected: {} servers, map epoch {}",
        fleet.map_snapshot().servers().len(),
        fleet.map_epoch()
    );

    // 3. Ingest through the client: every op lands on its partition's
    //    owner and fans out to the partition's replica.
    let ops: Vec<UpdateOp> = (0..N)
        .flat_map(|v| {
            (1..=5u64).map(move |k| {
                UpdateOp::Insert(Edge::new(
                    VertexId(v),
                    VertexId((v + k * 11) % N),
                    1.0 + k as f64 * 0.25,
                ))
            })
        })
        .collect();
    let report = fleet.apply_updates(&ops).expect("ingest");
    let per_server: Vec<usize> = members
        .iter()
        .map(|(node, _)| node.cluster().num_edges())
        .collect();
    println!(
        "partition-routed ingest: {} ops applied, per-server edge counts {:?}",
        report.applied_ops, per_server
    );

    // 4. Train one epoch through the fleet.
    let provider = HashFeatures::new(16, 2, 7);
    let seeds: Vec<VertexId> = (0..N).map(VertexId).collect();
    let labels: Vec<usize> = seeds.iter().map(|&v| provider.label(v)).collect();
    let pipe_cfg = PipelineConfig::builder()
        .etype(ET)
        .fanouts(vec![3, 3])
        .batch_size(25)
        .prefetch_depth(0)
        .seed(42)
        .build()
        .expect("valid pipeline config");
    let pipeline = TrainingPipeline::new(&*fleet, pipe_cfg);
    let mut net = SageNet::new(SageNetConfig {
        fanouts: vec![3, 3],
        lr: 0.05,
        seed: 17,
        ..Default::default()
    });
    let epoch1 = pipeline.run_epoch(&mut net, &provider, &seeds, &labels, 0);
    println!(
        "epoch 1 over the fleet: {} batches, mean loss {:.4}, {} degraded",
        epoch1.batches, epoch1.mean_loss, epoch1.degraded_batches
    );

    // 5. A fourth empty server joins and its share of the partitions
    //    live-migrates onto it while epoch 2 trains.
    let (joiner_node, joiner_server) = boot_member(4);
    let joiner_addr = joiner_server.local_addr().to_string();
    let migrator = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            fleet.join_and_migrate(&joiner_addr, 4).expect("joins live")
        })
    };
    let epoch2 = pipeline.run_epoch(&mut net, &provider, &seeds, &labels, 1);
    let joined = migrator.join().expect("migration thread");
    assert_eq!(epoch2.degraded_batches, 0);
    println!(
        "epoch 2 trained through a live migration: {} batches, 0 degraded",
        epoch2.batches
    );
    println!(
        "server {} joined: {} partitions migrated, {} edges streamed, map epoch {}",
        joined.server_id,
        joined.moved.len(),
        joined.moved.iter().map(|m| m.edges_streamed).sum::<u64>(),
        fleet.map_epoch()
    );
    assert!(joiner_node.cluster().num_edges() > 0);
    let map = fleet.map_snapshot();
    for report in &joined.moved {
        let owner = &map.servers()[map.owner_index(report.partition) as usize];
        assert_eq!(owner.id, joined.server_id);
    }
    println!("joiner owns its migrated partitions and serves their data");

    // 6. The fleet telemetry plane: a traced sample fans out across the
    //    widened fleet, then the admin server stitches the cross-process
    //    span tree (`/debug/trace/<id>`) and merges every member's
    //    registry into one labelled exposition (`/fleet/metrics`).
    let admin = AdminServer::bind_fleet("127.0.0.1:0", Arc::clone(&fleet)).expect("bind admin");
    const TRACE: u64 = 0x0DD_BA11;
    let reqs: Vec<SampleRequest> = (0..N)
        .map(|v| SampleRequest::new(VertexId(v), ET, 3).with_trace_id(TRACE))
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let sampled = fleet.sample_many(&reqs, &mut rng);
    assert!(sampled.iter().all(|r| !r.degraded));

    let (status, trace) = http_get(admin.local_addr(), &format!("/debug/trace/{TRACE}"));
    assert_eq!(status, 200, "{trace}");
    let processes = trace
        .split_once("\"processes\":[")
        .map(|(_, rest)| rest.split(']').next().unwrap_or(""))
        .unwrap_or("");
    let process_count = processes.matches('"').count() / 2;
    assert!(process_count >= 2, "{trace}");
    println!("fleet admin /debug/trace: one stitched tree spanning {process_count} processes");

    let (status, metrics) = http_get(admin.local_addr(), "/fleet/metrics");
    assert_eq!(status, 200, "{metrics}");
    assert!(metrics.contains("{server=\"fleet\"}"), "{metrics}");
    let member_rows = metrics
        .lines()
        .filter(|l| l.starts_with("plato_cluster_requests_total{server=\"server-"))
        .count();
    println!(
        "fleet admin /fleet/metrics: merged exposition, {member_rows} member rows + fleet aggregate"
    );
    admin.shutdown();

    for (_, server) in members {
        server.shutdown();
    }
    joiner_server.shutdown();
    println!("fleet shut down cleanly");
}
