//! Acceptance tests for the temporal plane: windowed sampling never
//! returns an edge outside the requested time window — proptested locally
//! against the storage engine, and through the full k-hop sampler over a
//! TCP `RemoteCluster` and a 3-server partition-routed `FleetCluster`,
//! where the two deployments must also stay bit-identical to each other.

use platod2gl::{
    CacheConfig, Cluster, ClusterConfig, DecayConfig, DynamicGraphStore, Edge, EdgeType,
    FleetCluster, FleetNode, GraphService, GraphServiceServer, GraphStore, KHopSampler,
    NeighborCache, PartitionMap, RecencyDecay, RemoteCluster, RemoteClusterConfig, ServerEntry,
    TimeWindow, UpdateOp, VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const ET: EdgeType = EdgeType::DEFAULT;
const N: u64 = 60;
const PARTITIONS: u32 = 64;

/// The deterministic event time of edge `(src, dst)` in the wire-rig
/// graph: derivable from the endpoint ids alone, so the invariant is
/// checkable from sampled vertex ids without asking the servers.
fn event_ts(src: u64, dst: u64) -> u64 {
    (src * 31 + dst * 17) % 97 + 1
}

/// The stamped graph both deployments load: ~6 out-edges per vertex, no
/// self-edges, every edge stamped with `event_ts`.
fn stamped_ops() -> Vec<UpdateOp> {
    let mut ops = Vec::new();
    for s in 0..N {
        for k in 1..=6u64 {
            let d = (s + k * 11) % N;
            if d == s {
                continue;
            }
            ops.push(UpdateOp::Insert(
                Edge::new(VertexId(s), VertexId(d), 1.0 + k as f64 * 0.1).at(event_ts(s, d)),
            ));
        }
    }
    ops
}

fn client_cfg() -> RemoteClusterConfig {
    RemoteClusterConfig::default().request_timeout(Duration::from_millis(500))
}

/// One remote server with the whole graph plus a 3-server fleet with
/// hash-routed partitions of it, both loaded with `stamped_ops`. Built
/// once per process: every proptest case reuses the live sockets.
struct WireRig {
    remote: RemoteCluster,
    fleet: FleetCluster,
    _nodes: Vec<Arc<FleetNode>>,
    _servers: Vec<GraphServiceServer>,
}

fn wire_rig() -> &'static WireRig {
    static RIG: OnceLock<WireRig> = OnceLock::new();
    RIG.get_or_init(|| {
        let ops = stamped_ops();
        let mut servers = Vec::new();

        let single = Arc::new(Cluster::new(
            ClusterConfig::builder()
                .num_shards(2)
                .build()
                .expect("valid config"),
        ));
        let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&single)).expect("bind");
        let remote = RemoteCluster::connect(server.local_addr(), client_cfg()).expect("connect");
        remote.apply_updates(&ops).expect("loads");
        servers.push(server);

        let mut nodes = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..3 {
            let cluster = Arc::new(Cluster::new(
                ClusterConfig::builder()
                    .num_shards(2)
                    .build()
                    .expect("valid config"),
            ));
            let node = Arc::new(FleetNode::new(cluster, i + 1, client_cfg()));
            let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&node)).expect("bind");
            addrs.push(server.local_addr().to_string());
            nodes.push(node);
            servers.push(server);
        }
        let roster: Vec<ServerEntry> = nodes
            .iter()
            .zip(&addrs)
            .map(|(node, addr)| ServerEntry {
                id: node.server_id(),
                addr: addr.clone(),
            })
            .collect();
        let map = PartitionMap::build(roster, PARTITIONS).expect("valid roster");
        for node in &nodes {
            node.install(map.clone());
        }
        let fleet = FleetCluster::connect(&addrs, client_cfg()).expect("connect");
        fleet.apply_updates(&ops).expect("loads");

        WireRig {
            remote,
            fleet,
            _nodes: nodes,
            _servers: servers,
        }
    })
}

/// Every level-`d+1` slot of a windowed k-hop block is either self-loop
/// padding or reached over an edge whose event time is inside the seed's
/// window — the time-respecting invariant, checked per hop.
fn assert_time_respecting(levels: &[Vec<VertexId>], fanouts: &[usize], win: TimeWindow) {
    for d in 0..fanouts.len() {
        for (j, &child) in levels[d + 1].iter().enumerate() {
            let parent = levels[d][j / fanouts[d]];
            if child == parent {
                continue; // self-loop padding (the graph has no self-edges)
            }
            let ts = event_ts(parent.raw(), child.raw());
            assert!(
                win.contains(ts),
                "hop {}: edge {}->{} at t={} leaked into window [{}, {}]",
                d + 1,
                parent.raw(),
                child.raw(),
                ts,
                win.min_ts,
                win.max_ts,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// Storage-level monotonicity: for an arbitrary stamped neighborhood
    /// and an arbitrary window, every windowed draw is in-window (timeless
    /// edges always qualify), and the sampler fills all requested slots
    /// whenever anything is drawable.
    #[test]
    fn windowed_draws_never_leave_the_window_locally(
        edges in proptest::collection::vec((1u32..100, 0u64..1_000), 1..40),
        bounds in (0u64..1_100, 0u64..1_100),
        seed in proptest::prelude::any::<u64>(),
    ) {
        let store = DynamicGraphStore::with_defaults();
        let mut ts_of = std::collections::HashMap::new();
        for (i, &(w, ts)) in edges.iter().enumerate() {
            let dst = 1_000 + i as u64;
            store.insert_edge(
                Edge::new(VertexId(0), VertexId(dst), w as f64 / 10.0).at(ts),
            );
            ts_of.insert(dst, ts);
        }
        let win = TimeWindow::new(bounds.0.min(bounds.1), bounds.0.max(bounds.1));
        let mut rng = StdRng::seed_from_u64(seed);
        let picks =
            store.sample_neighbors_windowed(VertexId(0), ET, 16, Some(win), &mut rng);
        for p in &picks {
            let ts = ts_of[&p.raw()];
            prop_assert!(
                win.contains(ts),
                "draw {} at t={} outside [{}, {}]",
                p.raw(), ts, win.min_ts, win.max_ts
            );
        }
        // If anything qualifies, every slot must be filled.
        let drawable = ts_of.values().any(|&ts| win.contains(ts));
        prop_assert_eq!(picks.len(), if drawable { 16 } else { 0 });
    }

    /// Wire-level monotonicity and parity: the same windowed k-hop block,
    /// rooted at arbitrary seeds under an arbitrary `until` window, is
    /// time-respecting through a remote server AND through a 3-server
    /// fleet — and the two deployments return bit-identical levels.
    #[test]
    fn windowed_khop_is_time_respecting_over_remote_and_fleet(
        seeds in proptest::collection::vec(0u64..N, 1..5),
        max_ts in 1u64..120,
        seed in proptest::prelude::any::<u64>(),
    ) {
        let rig = wire_rig();
        let seeds: Vec<VertexId> = seeds.into_iter().map(VertexId).collect();
        let win = TimeWindow::until(max_ts);
        let windows = vec![Some(win); seeds.len()];
        let fanouts = vec![4usize, 3];
        let sampler = KHopSampler::new(ET, fanouts.clone());

        let remote_cache = NeighborCache::new(CacheConfig::disabled());
        let fleet_cache = NeighborCache::new(CacheConfig::disabled());
        let remote_out = sampler.sample_block_windowed(
            &rig.remote,
            &remote_cache,
            &seeds,
            &windows,
            &mut StdRng::seed_from_u64(seed),
        );
        let fleet_out = sampler.sample_block_windowed(
            &rig.fleet,
            &fleet_cache,
            &seeds,
            &windows,
            &mut StdRng::seed_from_u64(seed),
        );

        prop_assert_eq!(remote_out.degraded_samples, 0);
        prop_assert_eq!(fleet_out.degraded_samples, 0);
        assert_time_respecting(&remote_out.levels, &fanouts, win);
        assert_time_respecting(&fleet_out.levels, &fanouts, win);
        prop_assert_eq!(
            remote_out.levels, fleet_out.levels,
            "remote and fleet must answer the same windowed block bit-identically"
        );
    }
}

/// Recency decay changes sampling weights, so it moves the cluster's graph
/// version (and with it every cached draw); a sweep that changes no weight
/// leaves the version alone.
#[test]
fn a_decaying_sweep_advances_the_graph_version() {
    let cluster = Cluster::new(
        ClusterConfig::builder()
            .num_shards(4)
            .build()
            .expect("valid config"),
    );
    for s in 0..10u64 {
        for d in 1..=5u64 {
            cluster.insert_edge(Edge::new(VertexId(s), VertexId(100 + d), 1.0).at(10));
        }
    }
    let v0 = VertexId(0);
    assert!((cluster.weight_sum(v0, ET) - 5.0).abs() < 1e-9);
    let mut decay = RecencyDecay::new(
        DecayConfig {
            lambda: 0.01,
            floor: 1e-6,
            batch_sources: 4,
        },
        cluster.obs(),
    )
    .expect("valid policy");
    let sweep = |decay: &mut RecencyDecay, now: u64| {
        for shard in 0..cluster.num_shards() {
            decay.run_sweep(cluster.server(shard).topology(), now);
        }
    };

    let before = cluster.graph_version();
    sweep(&mut decay, 10); // no edge is older than `now`
    assert_eq!(cluster.graph_version(), before, "nothing decayed");

    sweep(&mut decay, 1_000);
    assert!(cluster.weight_sum(v0, ET) < 1e-3, "the weights decayed");
    let after = cluster.graph_version();
    assert!(after > before, "a decaying sweep must move the version");
    // The gauge folds the decay in at the next mutation.
    cluster.insert_edge(Edge::new(v0, VertexId(1), 1.0));
    assert_eq!(
        cluster.obs().snapshot().gauge("cluster.graph_version"),
        Some(after as i64 + 1)
    );
}
