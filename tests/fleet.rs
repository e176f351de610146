//! Acceptance tests for the scale-out mode: a full training pipeline over
//! a 3-server partition-routed fleet must be bit-identical to the same
//! run against one remote server; a live shard migration under a running
//! epoch must lose zero batches; a dead leader must fail over to its
//! replica bit-identically; and the fleet admin plane must render the
//! routing table and distinguish degraded from unowned.

use platod2gl::{
    AdminServer, Cluster, ClusterConfig, Edge, EdgeType, Error, FleetCluster, FleetNode,
    GraphService, GraphServiceServer, GraphStore, GraphTxn, HashFeatures, PartitionMap,
    PipelineConfig, RemoteCluster, RemoteClusterConfig, SageNet, SageNetConfig, SampleRequest,
    ServerEntry, TrainingPipeline, UpdateOp, VertexId,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const ET: EdgeType = EdgeType::DEFAULT;
const N: u64 = 120;
const PARTITIONS: u32 = 64;

/// The deterministic edge stream both deployments load, as service-level
/// ops so the fleet partitions it by owner exactly like production
/// ingest.
fn edge_ops() -> Vec<UpdateOp> {
    let mut ops = Vec::new();
    for v in 0..N {
        for k in 1..=5u64 {
            // Deterministically stamped: the windowed-epoch parity leg
            // needs real event times. Unwindowed sampling ignores them.
            let dst = (v + k * 7) % N;
            ops.push(UpdateOp::Insert(
                Edge::new(VertexId(v), VertexId(dst), 1.0 + (k as f64) * 0.25)
                    .at((v + dst * 13) % 90 + 1),
            ));
        }
    }
    ops
}

fn client_cfg() -> RemoteClusterConfig {
    RemoteClusterConfig::default().request_timeout(Duration::from_millis(500))
}

struct Fleet {
    nodes: Vec<Arc<FleetNode>>,
    servers: Vec<Option<GraphServiceServer>>,
    addrs: Vec<SocketAddr>,
}

/// Start `n` empty fleet members on ephemeral ports and install the
/// epoch-1 map on each.
fn start_fleet(n: usize) -> Fleet {
    let mut nodes = Vec::with_capacity(n);
    let mut servers = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for i in 0..n {
        let cluster = Arc::new(Cluster::new(
            ClusterConfig::builder()
                .num_shards(2)
                .build()
                .expect("valid config"),
        ));
        let node = Arc::new(FleetNode::new(cluster, i as u64 + 1, client_cfg()));
        let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&node)).expect("bind");
        addrs.push(server.local_addr());
        nodes.push(node);
        servers.push(Some(server));
    }
    let roster: Vec<ServerEntry> = nodes
        .iter()
        .zip(&addrs)
        .map(|(node, addr)| ServerEntry {
            id: node.server_id(),
            addr: addr.to_string(),
        })
        .collect();
    let map = PartitionMap::build(roster, PARTITIONS).expect("valid roster");
    for node in &nodes {
        node.install(map.clone());
    }
    Fleet {
        nodes,
        servers,
        addrs,
    }
}

impl Fleet {
    fn addr_strings(&self) -> Vec<String> {
        self.addrs.iter().map(|a| a.to_string()).collect()
    }

    fn shutdown(mut self) {
        for server in self.servers.iter_mut().filter_map(Option::take) {
            server.shutdown();
        }
    }
}

fn pipeline_config(seed: u64) -> PipelineConfig {
    PipelineConfig::builder()
        .etype(ET)
        .fanouts(vec![3, 3])
        .batch_size(24)
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

/// The scale-out headline: a fixed-seed trainer produces bit-identical
/// losses whether its `GraphService` is one remote server holding the
/// whole graph or a 3-server fleet holding hash-routed partitions of it.
#[test]
fn fleet_training_is_bit_identical_to_single_server_remote() {
    let provider = HashFeatures::new(16, 2, 7);
    let seeds: Vec<VertexId> = (0..N).map(VertexId).collect();
    let labels: Vec<usize> = seeds.iter().map(|&v| provider.label(v)).collect();
    let ops = edge_ops();

    // Single server, whole graph — loaded through the service interface.
    let single_cluster = Arc::new(Cluster::new(
        ClusterConfig::builder()
            .num_shards(2)
            .build()
            .expect("valid config"),
    ));
    let single_server =
        GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&single_cluster)).expect("bind");
    let single = RemoteCluster::connect(single_server.local_addr(), client_cfg()).expect("connect");
    single.apply_updates(&ops).expect("loads");

    // 3-server fleet — the same op stream, partition-routed.
    let fleet_servers = start_fleet(3);
    let fleet =
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect");
    let report = fleet.apply_updates(&ops).expect("loads");
    assert_eq!(report.applied_ops, ops.len());

    // Every server holds a strict subset; the fleet holds the whole graph
    // exactly twice (each partition lives on its owner and one replica).
    let per_server: Vec<usize> = fleet_servers
        .nodes
        .iter()
        .map(|n| n.cluster().num_edges())
        .collect();
    assert_eq!(
        per_server.iter().sum::<usize>(),
        2 * single_cluster.num_edges()
    );
    assert!(
        per_server.iter().all(|&e| e < single_cluster.num_edges()),
        "data must actually be partitioned: {per_server:?}"
    );

    let single_pipe = TrainingPipeline::new(&single, pipeline_config(42));
    let fleet_pipe = TrainingPipeline::new(&fleet, pipeline_config(42));
    let mut single_net = fresh_net();
    let mut fleet_net = fresh_net();
    for epoch in 0..2 {
        let a = single_pipe.run_epoch(&mut single_net, &provider, &seeds, &labels, epoch);
        let b = fleet_pipe.run_epoch(&mut fleet_net, &provider, &seeds, &labels, epoch);
        assert_eq!(a.batches, b.batches);
        assert_eq!(b.degraded_batches, 0);
        assert_eq!(
            a.mean_loss.to_bits(),
            b.mean_loss.to_bits(),
            "epoch {epoch}: losses must be bit-identical across deployments"
        );
        assert_eq!(a.mean_accuracy.to_bits(), b.mean_accuracy.to_bits());
    }

    // The temporal leg: a windowed epoch (each seed sampling only edges no
    // newer than its event time) must be bit-identical across deployments
    // too — the time-window trailer rides partition-routed batches exactly
    // as it rides single-server ones.
    let seed_times: Vec<u64> = seeds.iter().map(|v| v.raw() * 13 % 70 + 20).collect();
    let a =
        single_pipe.run_epoch_windowed(&mut single_net, &provider, &seeds, &labels, &seed_times, 2);
    let b =
        fleet_pipe.run_epoch_windowed(&mut fleet_net, &provider, &seeds, &labels, &seed_times, 2);
    assert_eq!(a.batches, b.batches);
    assert_eq!(b.degraded_batches, 0);
    assert_eq!(
        a.mean_loss.to_bits(),
        b.mean_loss.to_bits(),
        "windowed epoch: losses must be bit-identical across deployments"
    );
    assert_eq!(a.mean_accuracy.to_bits(), b.mean_accuracy.to_bits());

    // One seed per request on both: the caller's RNG ends where it would.
    let reqs: Vec<SampleRequest> = seeds
        .iter()
        .map(|&v| SampleRequest::new(v, ET, 3))
        .collect();
    let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
    single.sample_many(&reqs, &mut a);
    fleet.sample_many(&reqs, &mut b);
    assert_eq!(
        a.next_u64(),
        b.next_u64(),
        "same RNG position after a batch"
    );

    single_server.shutdown();
    fleet_servers.shutdown();
}

/// An empty transaction is rejected alike by a bare cluster, a fleet node
/// and the fleet client: the node's own phase 1 answers it and journals
/// the abort, rather than a "nothing of ours" receipt.
#[test]
fn empty_txn_is_rejected_alike_by_cluster_fleet_node_and_fleet_client() {
    let fleet_servers = start_fleet(3);
    let fleet =
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect");
    let bare = Cluster::new(
        ClusterConfig::builder()
            .num_shards(2)
            .build()
            .expect("valid config"),
    );
    let txn = GraphTxn::new(77);
    let want = bare.apply_txn(&txn).expect_err("an empty txn is rejected");
    assert!(want.is_rejected());
    for (who, got) in [
        ("fleet client", fleet.apply_txn(&txn)),
        ("fleet node", fleet_servers.nodes[1].apply_txn(&txn)),
    ] {
        let got = got.expect_err(who);
        assert_eq!(got.violations(), want.violations(), "{who}");
    }
    for node in &fleet_servers.nodes[..2] {
        let journal = node.cluster().txn_journal();
        assert_eq!(journal.last().map(|e| e.outcome), Some("rejected"));
    }
    fleet_servers.shutdown();
}

/// A new server joins mid-epoch and partitions live-migrate onto it while
/// the trainer keeps running: zero degraded/failed batches, and the run's
/// losses are bit-identical to an undisturbed fleet's.
#[test]
fn live_migration_during_epoch_two_loses_zero_batches() {
    let provider = HashFeatures::new(16, 2, 7);
    let seeds: Vec<VertexId> = (0..N).map(VertexId).collect();
    let labels: Vec<usize> = seeds.iter().map(|&v| provider.label(v)).collect();
    let ops = edge_ops();

    // Control fleet: identical data, no migration.
    let control_servers = start_fleet(3);
    let control =
        FleetCluster::connect(&control_servers.addr_strings(), client_cfg()).expect("connect");
    control.apply_updates(&ops).expect("loads");

    // Fleet under test, plus a fourth empty server not yet in the roster.
    let fleet_servers = start_fleet(3);
    let fleet = Arc::new(
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect"),
    );
    fleet.apply_updates(&ops).expect("loads");
    let joiner_cluster = Arc::new(Cluster::new(
        ClusterConfig::builder()
            .num_shards(2)
            .build()
            .expect("valid config"),
    ));
    let joiner_node = Arc::new(FleetNode::new(
        Arc::clone(&joiner_cluster),
        99,
        client_cfg(),
    ));
    let joiner_server =
        GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&joiner_node)).expect("bind");
    let joiner_addr = joiner_server.local_addr().to_string();

    let control_pipe = TrainingPipeline::new(&control, pipeline_config(91));
    let fleet_pipe = TrainingPipeline::new(&*fleet, pipeline_config(91));
    let mut control_net = fresh_net();
    let mut fleet_net = fresh_net();

    // Epoch 1: identical, undisturbed.
    let a = control_pipe.run_epoch(&mut control_net, &provider, &seeds, &labels, 0);
    let b = fleet_pipe.run_epoch(&mut fleet_net, &provider, &seeds, &labels, 0);
    assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());

    // Epoch 2 with the join + live migration racing the batches.
    let epoch_before = fleet.map_epoch();
    let migrator = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || {
            // Land inside the epoch, not before it.
            std::thread::sleep(Duration::from_millis(20));
            fleet
                .join_and_migrate(&joiner_addr, 99)
                .expect("joins live")
        })
    };
    let a = control_pipe.run_epoch(&mut control_net, &provider, &seeds, &labels, 1);
    let b = fleet_pipe.run_epoch(&mut fleet_net, &provider, &seeds, &labels, 1);
    let joined = migrator.join().expect("migration thread");

    assert_eq!(b.degraded_batches, 0, "migration must lose zero batches");
    assert_eq!(a.batches, b.batches);
    assert_eq!(
        a.mean_loss.to_bits(),
        b.mean_loss.to_bits(),
        "a live migration must not perturb training"
    );

    // The migration really happened: ownership moved, the epoch advanced
    // (join + one promote per moved partition), data landed on the joiner.
    assert!(
        !joined.moved.is_empty(),
        "the joiner must attract partitions"
    );
    assert_eq!(
        fleet.map_epoch(),
        epoch_before + 1 + joined.moved.len() as u64
    );
    assert!(joiner_cluster.num_edges() > 0);
    let map = fleet.map_snapshot();
    for report in &joined.moved {
        let owner = map.servers()[map.owner_index(report.partition) as usize].id;
        assert_eq!(owner, joined.server_id);
    }

    // A brand-new client bootstrapping from any incumbent learns the
    // post-migration roster (including the joiner's address) and samples
    // identically to the incumbent client.
    let late = FleetCluster::connect(&[fleet_servers.addrs[0].to_string()], client_cfg())
        .expect("join through one member");
    assert_eq!(late.map_epoch(), fleet.map_epoch());
    let reqs: Vec<SampleRequest> = (0..N)
        .map(|v| SampleRequest::new(VertexId(v), ET, 4))
        .collect();
    let mut rng_a = StdRng::seed_from_u64(1234);
    let mut rng_b = StdRng::seed_from_u64(1234);
    let via_fleet = fleet.sample_many(&reqs, &mut rng_a);
    let via_late = late.sample_many(&reqs, &mut rng_b);
    for (x, y) in via_fleet.iter().zip(&via_late) {
        assert_eq!(x.neighbors, y.neighbors);
        assert!(!x.degraded);
    }

    joiner_server.shutdown();
    fleet_servers.shutdown();
    control_servers.shutdown();
}

/// A client connecting through several members adopts the newest map any
/// of them carries: a member that missed a promotion (epoch 1 while the
/// others hold epoch 2) cannot pin the client to its stale routing, even
/// listed first. Plain graph servers carry no map and are refused.
#[test]
fn connect_adopts_the_newest_map_behind_a_lagging_first_member() {
    let fleet_servers = start_fleet(3);
    let map = fleet_servers.nodes[0]
        .map_snapshot()
        .expect("map installed");
    let promoted = map
        .promote(0, (map.owner_index(0) + 1) % 3)
        .expect("promotes");
    for node in &fleet_servers.nodes[1..] {
        node.install(promoted.clone());
    }
    let fleet =
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect");
    assert_eq!(fleet.map_epoch(), 2, "the lagging first member's map won");
    assert_eq!(fleet.map_snapshot(), promoted);
    fleet_servers.shutdown();

    let plain = Arc::new(Cluster::new(
        ClusterConfig::builder()
            .num_shards(1)
            .build()
            .expect("valid config"),
    ));
    let server = GraphServiceServer::bind("127.0.0.1:0", plain).expect("bind");
    let refused = FleetCluster::connect(&[server.local_addr().to_string()], client_cfg());
    assert!(matches!(refused, Err(Error::InvalidConfig { .. })));
    server.shutdown();
}

/// A txn shipped whole to one server first-hand (a client routing on no
/// map, or a stale one) lands every op on its owning server: the
/// receiver applies only its own subset locally and relays the foreign
/// subsets per owner, so no server accumulates a stray copy of a
/// partition it neither owns nor replicates — and a retry of the same
/// txn id dedupes on every leg instead of re-applying or bouncing.
#[test]
fn stale_routed_txn_relays_subsets_without_polluting_foreign_stores() {
    let fleet_servers = start_fleet(3);
    let map = fleet_servers.nodes[0]
        .map_snapshot()
        .expect("map installed");

    // One insert per roster member: a vertex owned by each of the three.
    let picks: Vec<VertexId> = (0..3u32)
        .map(|idx| {
            (0..N)
                .map(VertexId)
                .find(|&v| map.owner_of(v) == idx)
                .expect("every server owns vertices")
        })
        .collect();
    let mut txn = GraphTxn::new(0x4242_4242);
    for &v in &picks {
        txn = txn.insert_edge(Edge::new(v, VertexId(v.raw() + 1000), 2.0));
    }

    // Ship the whole txn to server 0 — two thirds of it are stale-routed.
    let direct = RemoteCluster::connect(fleet_servers.addrs[0], client_cfg()).expect("connect");
    let receipt = direct.apply_txn(&txn).expect("commits");
    assert_eq!(
        receipt.ops_applied, 3,
        "relay legs aggregate into the receipt"
    );
    assert!(!receipt.deduped);

    // Each op lives exactly on its partition's owner and replica; the
    // relaying server holds nothing it is not assigned.
    for (i, node) in fleet_servers.nodes.iter().enumerate() {
        for &v in &picks {
            let p = map.partition_of(v);
            let assigned = map.owner_index(p) == i as u32 || map.replica_index(p) == Some(i as u32);
            let held = node.cluster().degree(v, ET) > 0;
            assert_eq!(
                held,
                assigned,
                "server {i} vs vertex {}: a store must hold a partition iff assigned to it",
                v.raw()
            );
        }
    }
    let total: usize = fleet_servers
        .nodes
        .iter()
        .map(|n| n.cluster().num_edges())
        .sum();
    assert_eq!(total, 6, "one owner copy + one replica copy per edge");

    // The retry dedupes end to end: same receipt, no new copies.
    let retry = direct.apply_txn(&txn).expect("dedupes");
    assert!(retry.deduped);
    assert_eq!(retry.ops_applied, 3);
    let total_after: usize = fleet_servers
        .nodes
        .iter()
        .map(|n| n.cluster().num_edges())
        .sum();
    assert_eq!(total_after, total);

    fleet_servers.shutdown();
}

/// Kill a partition's leader: reads retry on the replica with the same
/// pinned seed, so the answers are bit-identical to the pre-failure ones
/// and nothing degrades.
#[test]
fn leader_failure_fails_over_to_replica_bit_identically() {
    let ops = edge_ops();
    let mut fleet_servers = start_fleet(2);
    let fleet =
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect");
    fleet.apply_updates(&ops).expect("loads");

    // With two servers every partition's replica is the other server, so
    // the write fan-out must have left each holding the full edge set.
    for node in &fleet_servers.nodes {
        assert_eq!(node.cluster().num_edges(), ops.len());
    }

    let reqs: Vec<SampleRequest> = (0..N)
        .map(|v| SampleRequest::new(VertexId(v), ET, 4))
        .collect();
    let mut rng = StdRng::seed_from_u64(77);
    let before = fleet.sample_many(&reqs, &mut rng);
    assert!(before.iter().all(|r| !r.degraded));

    // Kill server 1 (roster index 0). Its partitions' leader is gone.
    fleet_servers.servers[0].take().expect("running").shutdown();

    let mut rng = StdRng::seed_from_u64(77);
    let after = fleet.sample_many(&reqs, &mut rng);
    for (x, y) in before.iter().zip(&after) {
        assert!(!y.degraded, "replica failover must not degrade");
        assert_eq!(
            x.neighbors, y.neighbors,
            "same seed + same adjacency on the replica = same draws"
        );
    }
    let replica_reads = fleet
        .registry()
        .snapshot()
        .counter("fleet.client.replica_reads")
        .unwrap_or(0);
    assert!(replica_reads > 0, "failover must be visible in metrics");

    fleet_servers.shutdown();
}

/// The distributed-tracing headline, over real sockets on a 3-server
/// fleet: a traced sample fan-out produces ONE stitched tree at
/// `/debug/trace/<id>` — client root at the top, per-owner fan-out spans
/// under it, and each server's `rpc.server.sample` span (recorded in a
/// different process, pulled back via `SpanExport`) nested under the
/// client span that caused it. After a leader kill, the replica
/// failover's server span nests under the client's `fleet.replica_retry`
/// span, so an operator can see the retry in the tree.
#[test]
fn debug_trace_stitches_one_tree_across_fleet_processes() {
    let ops = edge_ops();
    let mut fleet_servers = start_fleet(3);
    let fleet = Arc::new(
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect"),
    );
    fleet.apply_updates(&ops).expect("loads");
    let admin = AdminServer::bind_fleet("127.0.0.1:0", Arc::clone(&fleet)).expect("bind admin");

    // A traced fan-out: the trace id rides the request into sample_many,
    // names the client root span, and crosses the wire in the v2 ctx.
    const TRACE: u64 = 0xDEC0DE;
    let reqs: Vec<SampleRequest> = (0..N)
        .map(|v| SampleRequest::new(VertexId(v), ET, 4).with_trace_id(TRACE))
        .collect();
    let mut rng = StdRng::seed_from_u64(77);
    let responses = fleet.sample_many(&reqs, &mut rng);
    assert!(responses.iter().all(|r| !r.degraded));

    let (status, body) = http_get(admin.local_addr(), &format!("/debug/trace/{TRACE}"));
    assert_eq!(status, 200, "{body}");
    assert!(
        body.starts_with(&format!("{{\"trace_id\":{TRACE},")),
        "{body}"
    );
    // Spans from at least two distinct processes: the client plus a
    // server-side root per owner actually hit.
    let processes = body
        .split_once("\"processes\":[")
        .map(|(_, rest)| rest.split(']').next().unwrap_or(""))
        .unwrap_or("");
    assert!(processes.contains("\"client\""), "{body}");
    assert!(processes.contains("\"server-"), "{body}");
    assert!(
        processes.matches('"').count() >= 4,
        "spans from >= 2 processes: {processes}"
    );
    // ONE tree: a single root — the client's fleet.sample span — and no
    // orphaned server roots beside it.
    let roots = body.split_once("\"roots\":[").expect("roots").1;
    assert!(
        roots.starts_with("{\"member\":\"client\",\"name\":\"fleet.sample\""),
        "{body}"
    );
    assert_eq!(
        body.matches("\"name\":\"fleet.sample\"").count(),
        1,
        "{body}"
    );
    // Server-side spans made it into the stitched tree, each anchored to
    // the client span that caused it.
    assert!(body.contains("\"name\":\"rpc.server.sample\""), "{body}");
    let tree_roots = roots
        .matches("\"member\":\"client\",\"name\":\"fleet.sample\"")
        .count();
    assert_eq!(tree_roots, 1, "one stitched tree, not per-process forests");

    // Kill a leader and re-sample under a fresh trace: the failover leg
    // must appear as fleet.replica_retry with the replica's server span
    // nested under it.
    fleet_servers.servers[0].take().expect("running").shutdown();
    const TRACE2: u64 = 0xFA11;
    let reqs2: Vec<SampleRequest> = (0..N)
        .map(|v| SampleRequest::new(VertexId(v), ET, 4).with_trace_id(TRACE2))
        .collect();
    let mut rng = StdRng::seed_from_u64(77);
    let after = fleet.sample_many(&reqs2, &mut rng);
    assert!(after.iter().all(|r| !r.degraded), "replicas cover");

    let (status, body) = http_get(admin.local_addr(), &format!("/debug/trace/{TRACE2}"));
    assert_eq!(status, 200, "{body}");
    let retry_at = body
        .find("\"name\":\"fleet.replica_retry\"")
        .expect("retry span in the tree");
    // The retry span's children array holds the replica's server span:
    // the next rpc.server.sample after the retry span opens inside it
    // (children are inlined before the object closes).
    let after_retry = &body[retry_at..];
    let child = after_retry
        .find("\"name\":\"rpc.server.sample\"")
        .expect("replica server span nested under the retry");
    let retry_children = after_retry.find("\"children\":[").expect("children");
    assert!(child > retry_children, "{body}");

    admin.shutdown();
    fleet_servers.shutdown();
}

/// `/fleet/metrics` over real sockets: one exposition carrying every
/// member's series under `server="..."` labels plus the merged
/// `server="fleet"` aggregate, including the event-loop latency-anatomy
/// histograms scraped out of each server process.
#[test]
fn fleet_metrics_endpoint_merges_every_member() {
    let ops = edge_ops();
    let fleet_servers = start_fleet(2);
    let fleet = Arc::new(
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect"),
    );
    fleet.apply_updates(&ops).expect("loads");
    let reqs: Vec<SampleRequest> = (0..N)
        .map(|v| SampleRequest::new(VertexId(v), ET, 4))
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let _ = fleet.sample_many(&reqs, &mut rng);
    let admin = AdminServer::bind_fleet("127.0.0.1:0", Arc::clone(&fleet)).expect("bind admin");

    let (status, body) = http_get(admin.local_addr(), "/fleet/metrics");
    assert_eq!(status, 200);
    // Per-member labels for both servers plus the client, and the merged
    // fleet aggregate, in one exposition.
    for label in ["{server=\"client\"}", "{server=\"fleet\"}"] {
        assert!(body.contains(label), "{label} missing:\n{body}");
    }
    for server in ["server-1", "server-2"] {
        assert!(
            body.contains(&format!(
                "plato_cluster_requests_total{{server=\"{server}\"}}"
            )),
            "{server} missing:\n{body}"
        );
    }
    // The latency-anatomy histograms cross the wire with exact buckets:
    // the fleet service-time count equals the sum of the members'.
    let count_of = |needle: &str| -> u64 {
        body.lines()
            .find(|l| l.starts_with(needle))
            .and_then(|l| l.rsplit(' ').next()?.parse().ok())
            .unwrap_or(0)
    };
    let s1 = count_of("plato_rpc_server_service_seconds_count{server=\"server-1\"}");
    let s2 = count_of("plato_rpc_server_service_seconds_count{server=\"server-2\"}");
    let merged = count_of("plato_rpc_server_service_seconds_count{server=\"fleet\"}");
    assert!(s1 > 0 && s2 > 0, "both servers served requests:\n{body}");
    assert_eq!(merged, s1 + s2, "histogram merge is sum-preserving");

    admin.shutdown();
    fleet_servers.shutdown();
}

/// The fleet admin plane over real sockets: `/debug/partitions` renders
/// the live routing table, `/healthz` is 200-degraded with one server
/// down (replicas cover) and 503-unowned when a partition loses both
/// copies.
#[test]
fn fleet_admin_endpoints_track_partition_coverage() {
    let ops = edge_ops();
    let mut fleet_servers = start_fleet(3);
    let fleet = Arc::new(
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect"),
    );
    fleet.apply_updates(&ops).expect("loads");
    let admin = AdminServer::bind_fleet("127.0.0.1:0", Arc::clone(&fleet)).expect("bind admin");

    let (status, body) = http_get(admin.local_addr(), "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"servers_reachable\":3"), "{body}");

    let (status, body) = http_get(admin.local_addr(), "/debug/partitions");
    assert_eq!(status, 200);
    assert!(
        body.contains(&format!("\"num_partitions\":{PARTITIONS}")),
        "{body}"
    );
    assert!(body.contains("\"owner_up\":true"), "{body}");
    // Key counts are live: the sum over partitions equals the loaded
    // (src, etype) keys — N distinct sources, one relation.
    let keys_total: u64 = body
        .split("\"keys\":")
        .skip(1)
        .filter_map(|chunk| chunk.split(['}', ',']).next()?.parse::<u64>().ok())
        .sum();
    assert_eq!(keys_total, N);

    // One server down: everything it owned fails over to replicas —
    // degraded, still serving, still 200.
    fleet_servers.servers[2].take().expect("running").shutdown();
    let (status, body) = http_get(admin.local_addr(), "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"unowned_partitions\":[]"), "{body}");

    // Two servers down: some partition has neither owner nor replica —
    // unowned, 503.
    fleet_servers.servers[1].take().expect("running").shutdown();
    let (status, body) = http_get(admin.local_addr(), "/healthz");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"status\":\"unowned\""), "{body}");

    admin.shutdown();
    fleet_servers.shutdown();
}

/// The value of counter `name` in `svc`'s registry (0 before it moves).
fn counter<S: GraphService + ?Sized>(svc: &S, name: &str) -> u64 {
    svc.registry().snapshot().counter(name).unwrap_or(0)
}

/// One request per vertex, `fanout` draws each.
fn every_vertex(fanout: usize) -> Vec<SampleRequest> {
    (0..N)
        .map(|v| SampleRequest::new(VertexId(v), ET, fanout))
        .collect()
}

/// The first `k` vertices owned by each roster member, in roster order.
fn owned_picks(map: &PartitionMap, k: usize) -> Vec<VertexId> {
    (0..map.servers().len() as u32)
        .flat_map(|idx| {
            (0..N)
                .map(VertexId)
                .filter(move |&v| map.owner_of(v) == idx)
                .take(k)
        })
        .collect()
}

/// How many of `srcs` the member at roster index `idx` owns or
/// replicates under `map` — the edges it must hold when each source
/// carries one edge.
fn assigned_to(map: &PartitionMap, idx: u32, srcs: impl IntoIterator<Item = VertexId>) -> usize {
    srcs.into_iter()
        .filter(|&v| {
            let p = map.partition_of(v);
            map.owner_index(p) == idx || map.replica_index(p) == Some(idx)
        })
        .count()
}

/// A dead roster member does not keep a new client out: one live member
/// that carries a map is enough to connect, reads of the dead member's
/// partitions fail over to their replicas bit-identically, and a write
/// the dead member owns is an error, not a panic.
#[test]
fn a_client_connects_through_one_live_member_while_another_is_down() {
    let ops = edge_ops();
    let mut fleet_servers = start_fleet(2);
    let fleet =
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect");
    fleet.apply_updates(&ops).expect("loads");
    let reqs = every_vertex(4);
    let before = fleet.sample_many(&reqs, &mut StdRng::seed_from_u64(77));
    assert!(before.iter().all(|r| !r.degraded));

    // Member 1 (roster index 0) goes down; a new client knows only member 2.
    fleet_servers.servers[0].take().expect("running").shutdown();
    let late = FleetCluster::connect(&[fleet_servers.addrs[1].to_string()], client_cfg())
        .expect("one live member that carries a map is enough");
    let after = late.sample_many(&reqs, &mut StdRng::seed_from_u64(77));
    for (x, y) in before.iter().zip(&after) {
        assert!(!y.degraded, "the replica answers for the dead member");
        assert_eq!(x.neighbors, y.neighbors, "same seed, same draws");
    }

    let map = late.map_snapshot();
    let orphan = owned_picks(&map, 1)[0];
    assert_eq!(map.owner_of(orphan), 0);
    let write = late.apply_updates(&[UpdateOp::Insert(Edge::new(orphan, VertexId(N + 1), 1.0))]);
    assert!(write.is_err(), "a write owned by the dead member must fail");

    fleet_servers.shutdown();
}

/// A txn spanning every owner, sent through the client: each server
/// holds exactly the ops it owns or replicates, the receipt counts every
/// op once, and a retry dedupes on every leg without re-applying.
#[test]
fn a_client_txn_across_owners_lands_each_leg_once_and_dedupes_on_retry() {
    let fleet_servers = start_fleet(3);
    let fleet =
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect");
    let map = fleet.map_snapshot();
    let picks = owned_picks(&map, 2);
    let mut txn = GraphTxn::new(0x5151_5151);
    for &v in &picks {
        txn = txn.insert_edge(Edge::new(v, VertexId(v.raw() + 1000), 2.0));
    }

    let receipt = fleet.apply_txn(&txn).expect("commits");
    assert_eq!(receipt.ops_applied, picks.len() as u64);
    assert!(!receipt.deduped);
    let held: Vec<usize> = fleet_servers
        .nodes
        .iter()
        .map(|n| n.cluster().num_edges())
        .collect();
    for (i, &edges) in held.iter().enumerate() {
        assert_eq!(
            edges,
            assigned_to(&map, i as u32, picks.iter().copied()),
            "server {i} holds exactly what it owns or replicates"
        );
    }

    let retry = fleet.apply_txn(&txn).expect("dedupes");
    assert!(retry.deduped, "every leg dedupes on retry");
    let held_after: Vec<usize> = fleet_servers
        .nodes
        .iter()
        .map(|n| n.cluster().num_edges())
        .collect();
    assert_eq!(held_after, held, "a retry applies nothing");

    fleet_servers.shutdown();
}

/// The update twin of the stale-routed txn test: a whole batch handed to
/// one member first-hand applies only that member's own subset, relays
/// only the foreign subset (each owner then fans its part out to its
/// replica), and fans the owned subset out to the owned partitions'
/// replicas — so every server ends up holding exactly what it owns or
/// replicates.
#[test]
fn stale_routed_update_batch_relays_only_the_foreign_subset() {
    let fleet_servers = start_fleet(3);
    let node = &fleet_servers.nodes[0];
    let map = node.map_snapshot().expect("map installed");
    let ops = edge_ops();
    let (owned, foreign): (Vec<UpdateOp>, Vec<UpdateOp>) =
        ops.iter().partition(|op| map.owner_of(op.src()) == 0);
    assert!(!owned.is_empty() && !foreign.is_empty());
    let replicas: HashSet<u32> = owned
        .iter()
        .filter_map(|op| map.replica_index(map.partition_of(op.src())))
        .collect();

    let report = node.apply_updates(&ops).expect("applies and relays");
    assert_eq!(report.applied_ops, ops.len());
    assert_eq!(
        counter(&**node, "fleet.node.relayed_ops"),
        foreign.len() as u64
    );
    assert_eq!(
        counter(&**node, "fleet.node.replica_fanouts"),
        replicas.len() as u64,
        "one replica leg per replica server of the owned subset"
    );
    assert_eq!(counter(&**node, "fleet.node.replica_errors"), 0);
    for (i, member) in fleet_servers.nodes.iter().enumerate() {
        assert_eq!(
            member.cluster().num_edges(),
            assigned_to(&map, i as u32, ops.iter().map(|op| op.src())),
            "server {i} holds exactly what it owns or replicates"
        );
    }
    // No foreign partition's edge lands on the relaying node unless it
    // replicates that partition.
    for op in &foreign {
        let p = map.partition_of(op.src());
        if map.replica_index(p) != Some(0) {
            assert_eq!(node.cluster().degree(op.src(), ET), 0);
        }
    }

    fleet_servers.shutdown();
}

/// Replica fan-out is best-effort: with the replica down, an update batch
/// and a txn still commit at the owner, and each missed replica leg is
/// counted.
#[test]
fn a_write_whose_replica_is_down_commits_at_the_owner_and_counts_the_miss() {
    let mut fleet_servers = start_fleet(2);
    let fleet =
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect");
    let map = fleet.map_snapshot();
    let picks = owned_picks(&map, 2);
    let (a, b) = (picks[0], picks[1]);
    assert_eq!((map.owner_of(a), map.owner_of(b)), (0, 0));

    // Every partition's replica in a 2-server fleet is the other server.
    fleet_servers.servers[1].take().expect("running").shutdown();
    let owner = &fleet_servers.nodes[0];
    fleet
        .apply_updates(&[UpdateOp::Insert(Edge::new(a, VertexId(N + 1), 1.0))])
        .expect("the owner commits without its replica");
    assert_eq!(counter(&**owner, "fleet.node.replica_errors"), 1);
    let txn = GraphTxn::new(0x0BAD_5EED).insert_edge(Edge::new(b, VertexId(N + 2), 1.0));
    assert_eq!(fleet.apply_txn(&txn).expect("commits").ops_applied, 1);
    assert_eq!(counter(&**owner, "fleet.node.replica_errors"), 2);
    assert_eq!(counter(&**owner, "fleet.node.replica_fanouts"), 0);
    assert_eq!(owner.cluster().degree(a, ET), 1);
    assert_eq!(owner.cluster().degree(b, ET), 1);

    fleet_servers.shutdown();
}

/// A member counts each map it adopts, and the client each map it
/// refreshes to, exactly once; a re-install at the resident epoch —
/// locally or over the wire — moves neither count.
#[test]
fn map_installs_and_refreshes_count_adopted_maps_only() {
    let fleet_servers = start_fleet(3);
    let fleet =
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect");
    fleet.apply_updates(&edge_ops()).expect("loads");
    let installs = |fleet_servers: &Fleet| -> Vec<u64> {
        fleet_servers
            .nodes
            .iter()
            .map(|n| counter(&**n, "fleet.node.map_installs"))
            .collect()
    };
    assert_eq!(installs(&fleet_servers), vec![1, 1, 1], "the bootstrap map");
    assert_eq!(counter(&fleet, "fleet.client.map_refreshes"), 0);

    // Re-installing the resident map is a no-op, locally and over the wire.
    let map = fleet.map_snapshot();
    assert_eq!(fleet_servers.nodes[0].install(map.clone()), 1);
    let wire = RemoteCluster::connect(fleet_servers.addrs[1], client_cfg()).expect("connect");
    assert_eq!(
        wire.install_fleet_map(1, &map.encode()).expect("installs"),
        1
    );
    assert_eq!(installs(&fleet_servers), vec![1, 1, 1]);

    // Each migration adopts one new map everywhere.
    for round in 1..=2u64 {
        let map = fleet.map_snapshot();
        let owner = map.owner_index(0);
        let target = map.servers()[(owner as usize + 1) % 3].id;
        let report = fleet.migrate_partition(0, target).expect("migrates");
        assert_eq!(report.epoch, 1 + round);
        assert_eq!(installs(&fleet_servers), vec![1 + round; 3]);
        assert_eq!(counter(&fleet, "fleet.client.map_refreshes"), round);
    }
    let map = fleet.map_snapshot();
    for addr in &fleet_servers.addrs {
        let wire = RemoteCluster::connect(addr, client_cfg()).expect("connect");
        let epoch = wire.install_fleet_map(map.epoch(), &map.encode());
        assert_eq!(epoch.expect("installs"), 3);
    }
    assert_eq!(installs(&fleet_servers), vec![3, 3, 3]);

    fleet_servers.shutdown();
}

/// A move that fails after arming the source's migration journal disarms
/// it: once the fault is healed, the same move runs to completion.
#[test]
fn a_failed_migration_disarms_the_source_and_can_be_rerun() {
    let fleet_servers = start_fleet(3);
    let fleet =
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect");
    fleet.apply_updates(&edge_ops()).expect("loads");
    let map = fleet.map_snapshot();
    let p = (0..N)
        .map(|v| map.partition_of(VertexId(v)))
        .find(|&p| map.owner_index(p) == 0)
        .expect("member 0 owns a loaded partition");
    let target = &fleet_servers.nodes[2];
    let shards = 0..target.cluster().num_shards();

    for shard in shards.clone() {
        target.cluster().faults().panic_next_batch(shard);
    }
    let failed = fleet.migrate_partition(p, target.server_id());
    assert!(
        matches!(failed, Err(Error::ShardPanicked { .. })),
        "{failed:?}"
    );
    assert_eq!(fleet.map_epoch(), 1);

    for shard in shards {
        target.cluster().heal_shard(shard);
    }
    let report = fleet
        .migrate_partition(p, target.server_id())
        .expect("a re-run after the fault heals succeeds");
    assert_eq!(report.epoch, 2);
    assert_eq!(fleet.map_snapshot().owner_index(p), 2);

    fleet_servers.shutdown();
}

/// A client that promotes from a map the fleet has moved past installs
/// nothing: its migration fails at the first member, its map stays where
/// it was, and its reads still reach the partition's real owner.
#[test]
fn a_stale_client_migration_fails_and_installs_nothing() {
    let fleet_servers = start_fleet(3);
    let addrs = fleet_servers.addr_strings();
    let a = FleetCluster::connect(&addrs, client_cfg()).expect("connect");
    let b = FleetCluster::connect(&addrs, client_cfg()).expect("connect");
    a.apply_updates(&edge_ops()).expect("loads");
    let map = a.map_snapshot();
    // The member that neither owns nor replicates `p`.
    let bystander = |p: u32| {
        (0..3u32)
            .find(|&i| map.owner_index(p) != i && map.replica_index(p) != Some(i))
            .expect("three members")
    };
    let id_at = |i: u32| map.servers()[i as usize].id;
    let v = VertexId(0);
    let w = (1..N)
        .map(VertexId)
        .find(|&w| map.partition_of(w) != map.partition_of(v))
        .expect("two loaded partitions");
    let (pa, pb) = (map.partition_of(w), map.partition_of(v));

    let moved = a
        .migrate_partition(pa, id_at(bystander(pa)))
        .expect("the fresh client moves");
    assert_eq!(moved.epoch, 2);
    let stale = b.migrate_partition(pb, id_at(bystander(pb)));
    assert!(
        matches!(stale, Err(Error::InvalidConfig { .. })),
        "{stale:?}"
    );
    assert_eq!(b.map_snapshot(), map, "the stale client installs nothing");

    // A write through the fresh client reaches the stale client's reads.
    let fresh = VertexId(10_000);
    a.apply_updates(&[UpdateOp::Insert(Edge::new(v, fresh, 50.0))])
        .expect("writes");
    let read = b.sample_many(
        &[SampleRequest::new(v, ET, 64)],
        &mut StdRng::seed_from_u64(5),
    );
    assert!(!read[0].degraded);
    assert!(read[0].neighbors.contains(&fresh), "{:?}", read[0]);

    // A fleet two epochs ahead refuses the stale client's epoch-2 map too.
    a.migrate_partition(pa, id_at(map.owner_index(pa)))
        .expect("the fresh client moves back");
    assert_eq!(a.map_epoch(), 3);
    let stale = b.migrate_partition(pb, id_at(bystander(pb)));
    assert!(
        matches!(stale, Err(Error::InvalidConfig { .. })),
        "{stale:?}"
    );
    assert_eq!(b.map_epoch(), 1);

    fleet_servers.shutdown();
}

/// A stale client that repeats a fresh client's move — same partition,
/// same target — fails without touching the new owner's copy: the old
/// owner refuses to arm a partition it no longer owns, and the new owner
/// refuses to drop a partition it owns.
#[test]
fn a_stale_client_repeating_a_move_leaves_the_new_owner_intact() {
    let fleet_servers = start_fleet(3);
    let addrs = fleet_servers.addr_strings();
    let a = FleetCluster::connect(&addrs, client_cfg()).expect("connect");
    let b = FleetCluster::connect(&addrs, client_cfg()).expect("connect");
    a.apply_updates(&edge_ops()).expect("loads");
    let map = a.map_snapshot();
    let v = VertexId(0);
    let p = map.partition_of(v);
    let target = (0..3u32)
        .find(|&i| map.owner_index(p) != i && map.replica_index(p) != Some(i))
        .expect("three members");
    let id_at = |i: u32| map.servers()[i as usize].id;

    a.migrate_partition(p, id_at(target))
        .expect("the fresh client moves");
    let stale = b.migrate_partition(p, id_at(target));
    assert!(
        matches!(stale, Err(Error::InvalidConfig { .. })),
        "{stale:?}"
    );
    assert_eq!(b.map_snapshot(), map, "the stale client installs nothing");
    let owner = &fleet_servers.nodes[target as usize];
    assert!(owner.drop_partition(p, PARTITIONS).is_err());
    assert_eq!(owner.cluster().degree(v, ET), 5, "the new owner keeps p");

    let read = a.sample_many(
        &[SampleRequest::new(v, ET, 256)],
        &mut StdRng::seed_from_u64(3),
    );
    assert!(!read[0].degraded);
    let seen: HashSet<u64> = read[0].neighbors.iter().map(|n| n.raw()).collect();
    assert_eq!(seen, HashSet::from([7, 14, 21, 28, 35]));

    fleet_servers.shutdown();
}

/// A read whose owner and replica are both down degrades under its own
/// policy, client-side, and is counted once; every other read is served.
#[test]
fn a_read_with_owner_and_replica_down_degrades_and_is_counted() {
    let mut fleet_servers = start_fleet(3);
    let fleet =
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect");
    fleet.apply_updates(&edge_ops()).expect("loads");
    let map = fleet.map_snapshot();

    for server in &mut fleet_servers.servers[1..] {
        server.take().expect("running").shutdown();
    }
    let reqs = every_vertex(4);
    let lost = |v: VertexId| {
        let p = map.partition_of(v);
        map.owner_index(p) != 0 && map.replica_index(p) != Some(0)
    };
    let expected = reqs.iter().filter(|r| lost(r.vertex)).count();
    assert!(expected > 0, "some partition lives only on the dead pair");

    let responses = fleet.sample_many(&reqs, &mut StdRng::seed_from_u64(3));
    for (req, resp) in reqs.iter().zip(&responses) {
        assert_eq!(
            resp.degraded,
            lost(req.vertex),
            "vertex {}",
            req.vertex.raw()
        );
    }
    assert_eq!(
        counter(&fleet, "fleet.client.degraded_requests"),
        expected as u64
    );

    fleet_servers.shutdown();
}

/// A move onto a member that holds a stale copy of the partition — the
/// replica an earlier move dropped from the map — replaces that copy
/// instead of merging into it: an edge deleted in between stays deleted.
#[test]
fn a_move_onto_a_former_replica_does_not_resurrect_deleted_edges() {
    let fleet_servers = start_fleet(3);
    let fleet =
        FleetCluster::connect(&fleet_servers.addr_strings(), client_cfg()).expect("connect");
    fleet.apply_updates(&edge_ops()).expect("loads");
    let map = fleet.map_snapshot();
    let v = VertexId(0);
    let p = map.partition_of(v);
    let former_replica = map.replica_index(p).expect("every partition has a replica");
    let bystander = (0..3u32)
        .find(|&i| i != map.owner_index(p) && i != former_replica)
        .expect("three members");
    let id_at = |i: u32| map.servers()[i as usize].id;

    fleet
        .migrate_partition(p, id_at(bystander))
        .expect("moves to the bystander");
    let deleted = VertexId(7);
    fleet
        .apply_updates(&[UpdateOp::Delete {
            src: v,
            dst: deleted,
            etype: ET,
        }])
        .expect("deletes");
    // The former replica left the map with the edge still on it.
    let stale = fleet_servers.nodes[former_replica as usize].cluster();
    assert_eq!(stale.degree(v, ET), 5);

    fleet
        .migrate_partition(p, id_at(former_replica))
        .expect("moves onto the former replica");
    let owner = fleet_servers.nodes[former_replica as usize].cluster();
    let mut dsts: Vec<u64> = owner
        .server(owner.route(v))
        .topology()
        .adjacency_of(v, ET)
        .expect("resident")
        .iter()
        .map(|&(dst, _, _)| dst)
        .collect();
    dsts.sort_unstable();
    assert_eq!(dsts, vec![14, 21, 28, 35]);
    let read = fleet.sample_many(
        &[SampleRequest::new(v, ET, 256)],
        &mut StdRng::seed_from_u64(9),
    );
    assert!(!read[0].degraded);
    assert!(!read[0].neighbors.contains(&deleted), "{:?}", read[0]);

    fleet_servers.shutdown();
}
