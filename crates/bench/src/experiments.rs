//! The full experiment grid, one function per table/figure. Report binaries
//! are thin wrappers; `report_all` runs everything in paper order.

use crate::{
    d2gl_with, datasets, header, ms, row, scale_edges, time_batches, update_batches, Engine,
};
use platod2gl::{
    human_bytes, CsTable, DatasetProfile, EdgeType, FsTable, GraphStore, NeighborSampler,
    SubgraphSampler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Fig. 8: time cost of graph building, 3 datasets x 4 engines.
pub fn fig08_build() {
    println!("\n=== Fig. 8: time cost of graph building (seconds) ===");
    let mut ds = datasets(scale_edges());
    // Fourth column: WeChat at degree-preserving scale, the hub regime the
    // production graph lives in (see DatasetProfile::wechat_hub).
    ds.push(DatasetProfile::wechat_hub(scale_edges()));
    header(&["engine", "OGBN", "Reddit", "WeChat", "WeChat-hub"]);
    let mut d2gl_secs = vec![0.0; ds.len()];
    let mut best_other = vec![f64::INFINITY; ds.len()];
    for engine in Engine::ALL {
        let mut cells = Vec::new();
        for (i, profile) in ds.iter().enumerate() {
            let store = engine.build();
            let t = Instant::now();
            profile.ingest_into(store.as_ref(), 8);
            let t = t.elapsed().as_secs_f64();
            if engine == Engine::PlatoD2Gl {
                d2gl_secs[i] = t;
            } else if engine != Engine::PlatoD2GlNoCp {
                best_other[i] = best_other[i].min(t);
            }
            cells.push(format!("{t:.2}"));
        }
        row(engine.name(), &cells);
    }
    for (i, profile) in ds.iter().enumerate() {
        println!(
            "  {}: PlatoD2GL is {:.1}x faster than the best baseline",
            profile.name,
            best_other[i] / d2gl_secs[i].max(1e-9)
        );
    }
}

/// Fig. 9: dynamic update time vs batch size on WeChat (PlatoGL vs
/// PlatoD2GL), milliseconds per batch.
pub fn fig09_updates() {
    println!(
        "\n=== Fig. 9: dynamic updates on WeChat (degree-preserving scale), time (ms) vs batch size ==="
    );
    // The production graph's hubs hold up to millions of distinct
    // neighbors; `wechat_hub` keeps that regime at laptop scale (see
    // DatasetProfile::wechat_hub docs).
    let profile = DatasetProfile::wechat_hub(scale_edges());
    header(&["batch", "PlatoGL", "PlatoD2GL", "speedup"]);
    for exp in [10u32, 11, 12, 13, 14, 15, 16] {
        let batch = 1usize << exp;
        let num_batches = (1 << 18) / batch.max(1);
        let num_batches = num_batches.clamp(2, 32);
        let mut cells = Vec::new();
        let mut times = Vec::new();
        for engine in [Engine::PlatoGl, Engine::PlatoD2Gl] {
            let store = engine.build();
            profile.ingest_into(store.as_ref(), 8);
            let batches = update_batches(&profile, batch, num_batches, 77);
            let t = time_batches(store.as_ref(), &batches);
            times.push(t.as_secs_f64());
            cells.push(ms(t));
        }
        cells.push(format!("{:.1}x", times[0] / times[1].max(1e-12)));
        row(&format!("2^{exp}"), &cells);
    }
}

/// Table II (empirical): per-operation cost of the two sampling indexes as
/// the element count grows — the measured counterpart of the complexity
/// table.
pub fn table02_complexity() {
    println!("\n=== Table II (measured): ns/op of index maintenance & sampling ===");
    header(&["n", "op", "ITS/CSTable", "FTS/FSTable"]);
    for exp in [8u32, 10, 12, 14, 16] {
        let n = 1usize << exp;
        let weights = vec![1.0f64; n];
        // In-place update at the front (worst case for CSTable).
        let mut cs = CsTable::from_weights(&weights);
        let mut fs = FsTable::from_weights(&weights);
        let iters = 2_000;
        let t0 = Instant::now();
        for i in 0..iters {
            cs.add(i % 8, 1e-9);
        }
        let cs_t = t0.elapsed().as_nanos() as f64 / iters as f64;
        let t0 = Instant::now();
        for i in 0..iters {
            fs.add(i % 8, 1e-9);
        }
        let fs_t = t0.elapsed().as_nanos() as f64 / iters as f64;
        row(
            &format!("2^{exp}"),
            &[
                "in-place".into(),
                format!("{cs_t:.0}"),
                format!("{fs_t:.0}"),
            ],
        );
        // Deletion (bounded by the table size so it never drains empty).
        let mut cs = CsTable::from_weights(&weights);
        let mut fs = FsTable::from_weights(&weights);
        let iters = (n / 2).min(1_000);
        let t0 = Instant::now();
        for _ in 0..iters {
            cs.remove(0);
        }
        let cs_t = t0.elapsed().as_nanos() as f64 / iters as f64;
        let t0 = Instant::now();
        for _ in 0..iters {
            fs.swap_delete(0);
        }
        let fs_t = t0.elapsed().as_nanos() as f64 / iters as f64;
        row(
            "",
            &["delete".into(), format!("{cs_t:.0}"), format!("{fs_t:.0}")],
        );
        // Sampling.
        let cs = CsTable::from_weights(&weights);
        let fs = FsTable::from_weights(&weights);
        let iters = 20_000;
        let t0 = Instant::now();
        for i in 0..iters {
            std::hint::black_box(cs.its_search((i % n) as f64 + 0.5));
        }
        let cs_t = t0.elapsed().as_nanos() as f64 / iters as f64;
        let t0 = Instant::now();
        for i in 0..iters {
            std::hint::black_box(fs.sample_with((i % n) as f64 + 0.5));
        }
        let fs_t = t0.elapsed().as_nanos() as f64 / iters as f64;
        row(
            "",
            &["sample".into(), format!("{cs_t:.0}"), format!("{fs_t:.0}")],
        );
    }
    println!("  expectation: ITS in-place/delete grow linearly with n; all else logarithmic");
}

/// Table IV: memory cost after graph building.
pub fn table04_memory() {
    println!("\n=== Table IV: memory cost after graph building ===");
    let mut ds = datasets(scale_edges());
    ds.push(DatasetProfile::wechat_hub(scale_edges()));
    header(&["engine", "OGBN", "Reddit", "WeChat", "WeChat-hub"]);
    let mut grid = vec![vec![0usize; ds.len()]; Engine::ALL.len()];
    for (ei, engine) in Engine::ALL.iter().enumerate() {
        let mut cells = Vec::new();
        for (di, profile) in ds.iter().enumerate() {
            let store = engine.build();
            profile.ingest_into(store.as_ref(), 8);
            grid[ei][di] = store.topology_bytes();
            cells.push(human_bytes(grid[ei][di]));
        }
        row(engine.name(), &cells);
    }
    for (di, profile) in ds.iter().enumerate() {
        let d2gl = grid[2][di] as f64;
        let second_best = grid[0][di].min(grid[1][di]) as f64;
        let no_cp = grid[3][di] as f64;
        println!(
            "  {}: {:.1}% below second-best, {:.1}% below w/o CP",
            profile.name,
            (1.0 - d2gl / second_best) * 100.0,
            (1.0 - d2gl / no_cp) * 100.0
        );
    }
    // Where PlatoD2GL's bytes go: the leaf rows themselves, the leaf
    // columns' spare capacity, the internal nodes and the directory.
    println!("\n  PlatoD2GL topology bytes per edge, by part:");
    header(&[
        "dataset",
        "leaf payload",
        "leaf slack",
        "internal",
        "directory",
        "total",
    ]);
    for profile in &ds {
        let store = d2gl_with(256, 0, true);
        profile.ingest_into(&store, 8);
        let m = store.memory_breakdown();
        let per_edge = |b: usize| format!("{:.2}", b as f64 / store.num_edges() as f64);
        row(
            &profile.name,
            &[
                m.leaf_payload_bytes,
                m.leaf_slack_bytes,
                m.internal_bytes,
                m.directory_bytes,
                m.total_bytes,
            ]
            .map(per_edge),
        );
    }
}

/// Table V: distribution of updating operations across leaf / non-leaf
/// nodes while building the WeChat graph, by node capacity.
pub fn table05_distribution() {
    println!("\n=== Table V: update-op distribution on WeChat by node capacity ===");
    let profile = DatasetProfile::wechat_hub(scale_edges());
    header(&["capacity", "leaf ops", "non-leaf ops", "leaf %"]);
    for capacity in [64usize, 128, 256, 512, 1024] {
        let store = d2gl_with(capacity, 0, true);
        profile.ingest_into(&store, 8);
        let stats = store.op_stats();
        row(
            &capacity.to_string(),
            &[
                stats.leaf_ops.to_string(),
                stats.internal_ops.to_string(),
                format!("{:.2}%", stats.leaf_fraction() * 100.0),
            ],
        );
    }
}

/// Fig. 10a-c: neighbor sampling (50 neighbors per vertex) time vs batch
/// size, per dataset; Fig. 10d-f: 2-hop subgraph sampling.
pub fn fig10_sampling() {
    let ds = datasets(scale_edges());
    let engines = [
        Engine::AliGraph,
        Engine::PlatoGl,
        Engine::PlatoD2Gl,
        Engine::PlatoD2GlNoCp,
    ];

    println!("\n=== Fig. 10a-c: neighbor sampling (50 neighbors), time (ms) vs batch ===");
    for profile in &ds {
        println!("\n--- {} ---", profile.name);
        let stores: Vec<Box<dyn GraphStore>> = engines
            .iter()
            .map(|e| {
                let s = e.build();
                profile.ingest_into(s.as_ref(), 8);
                s
            })
            .collect();
        header(&["batch", "AliGraph", "PlatoGL", "PlatoD2GL", "w/o CP"]);
        for exp in [8u32, 10, 12, 14] {
            let batch_size = 1usize << exp;
            let seeds = profile.sample_sources(batch_size, 5);
            let sampler = NeighborSampler::new(EdgeType(0), 50);
            let mut cells = Vec::new();
            for store in &stores {
                let mut rng = StdRng::seed_from_u64(9);
                let t = Instant::now();
                std::hint::black_box(sampler.sample(store.as_ref(), &seeds, &mut rng));
                cells.push(ms(t.elapsed()));
            }
            row(&format!("2^{exp}"), &cells);
        }
    }

    println!("\n=== Fig. 10d-f: 2-hop subgraph sampling (fanout 10x10), time (ms) vs batch ===");
    for profile in &ds {
        println!("\n--- {} ---", profile.name);
        let stores: Vec<Box<dyn GraphStore>> = engines
            .iter()
            .map(|e| {
                let s = e.build();
                profile.ingest_into(s.as_ref(), 8);
                s
            })
            .collect();
        header(&["batch", "AliGraph", "PlatoGL", "PlatoD2GL", "w/o CP"]);
        for exp in [6u32, 8, 10, 12] {
            let batch_size = 1usize << exp;
            let seeds = profile.sample_sources(batch_size, 5);
            let sampler = SubgraphSampler::new(EdgeType(0), vec![10, 10]);
            let mut cells = Vec::new();
            for store in &stores {
                let mut rng = StdRng::seed_from_u64(9);
                let t = Instant::now();
                std::hint::black_box(sampler.sample(store.as_ref(), &seeds, &mut rng));
                cells.push(ms(t.elapsed()));
            }
            row(&format!("2^{exp}"), &cells);
        }
    }
}

/// Fig. 11: parameter sensitivity of PlatoD2GL on WeChat.
pub fn fig11_sensitivity() {
    let profile = DatasetProfile::wechat_hub(scale_edges());

    // (a) insertion time vs batch size.
    println!("\n=== Fig. 11a: dynamic insertion time (ms) vs batch size ===");
    header(&["batch", "time (ms)"]);
    for exp in [10u32, 12, 14, 16, 17] {
        let batch = 1usize << exp;
        let store = d2gl_with(256, 0, true);
        profile.ingest_into(&store, 8);
        let batches = update_batches(&profile, batch, 4, 3);
        let t = time_batches(&store, &batches);
        row(&format!("2^{exp}"), &[ms(t)]);
    }

    // (b) insertion time vs samtree node capacity.
    println!("\n=== Fig. 11b: dynamic insertion time (ms) vs node capacity ===");
    header(&["capacity", "time (ms)"]);
    for capacity in [64usize, 128, 256, 512, 1024] {
        let store = d2gl_with(capacity, 0, true);
        profile.ingest_into(&store, 8);
        let batches = update_batches(&profile, 1 << 14, 4, 3);
        let t = time_batches(&store, &batches);
        row(&capacity.to_string(), &[ms(t)]);
    }

    // (c) concurrent update time vs threads.
    println!("\n=== Fig. 11c: concurrent dynamic update time (ms) vs threads ===");
    header(&["threads", "batch 2^12", "batch 2^13", "batch 2^14"]);
    for threads in [1usize, 2, 4, 8, 16] {
        let mut cells = Vec::new();
        for exp in [12u32, 13, 14] {
            let store = d2gl_with(256, 0, true);
            profile.ingest_into(&store, 8);
            let batches = update_batches(&profile, 1 << exp, 4, 3);
            let t = Instant::now();
            for b in &batches {
                store.apply_batch_parallel(b, threads);
            }
            cells.push(ms(t.elapsed() / batches.len() as u32));
        }
        row(&threads.to_string(), &cells);
    }

    // (d) insertion time vs slackness alpha.
    println!("\n=== Fig. 11d: dynamic insertion time vs slackness alpha ===");
    header(&["alpha", "build (ms)"]);
    for alpha in [0usize, 4, 8, 16, 32] {
        let store = d2gl_with(256, alpha, true);
        let t = Instant::now();
        profile.ingest_into(&store, 8);
        row(&alpha.to_string(), &[ms(t.elapsed())]);
    }
}

/// Ablations of PlatoD2GL's own design choices (beyond the paper's
/// figures): bottom-up bulk loading vs edge-at-a-time ingest, and the
/// Appendix-B grouped/batched update path vs naive per-op application.
pub fn ablations() {
    use platod2gl::DynamicGraphStore;
    let profile = DatasetProfile::wechat_hub(scale_edges());

    println!("\n=== Ablation: bulk bottom-up load vs incremental ingest ===");
    header(&["method", "time (s)", "edges"]);
    let edges: Vec<_> = profile.edge_stream(8).collect();
    let t = Instant::now();
    let store = DynamicGraphStore::with_defaults();
    store.bulk_build(edges.iter().copied());
    row(
        "bulk_build",
        &[
            format!("{:.2}", t.elapsed().as_secs_f64()),
            store.num_edges().to_string(),
        ],
    );
    let t = Instant::now();
    let store = DynamicGraphStore::with_defaults();
    for e in &edges {
        store.insert_edge(*e);
    }
    row(
        "incremental",
        &[
            format!("{:.2}", t.elapsed().as_secs_f64()),
            store.num_edges().to_string(),
        ],
    );

    println!("\n=== Ablation: grouped batch path (App. B) vs naive per-op ===");
    header(&["method", "ms / 16k-batch"]);
    let batches = update_batches(&profile, 1 << 14, 8, 3);
    let store = DynamicGraphStore::with_defaults();
    profile.ingest_into(&store, 8);
    let t = Instant::now();
    for b in &batches {
        store.apply_batch_parallel(b, 1); // sort + group + leaf-run batching
    }
    row("grouped", &[ms(t.elapsed() / batches.len() as u32)]);
    let store = DynamicGraphStore::with_defaults();
    profile.ingest_into(&store, 8);
    let t = Instant::now();
    for b in &batches {
        for op in b {
            store.apply(op); // one directory lookup + descent per op
        }
    }
    row("per-op", &[ms(t.elapsed() / batches.len() as u32)]);
    println!(
        "  note: grouping pays off when batches concentrate many ops per source\n\
         \x20 (and it is what makes multi-threaded application race-free);\n\
         \x20 with ~1-2 ops per tree the sort overhead can exceed the saving."
    );
}

/// Where the trail reports leave their machine-readable line: under the
/// untracked build directory, so a run leaves the working tree as it was.
const TRAIL_DIR: &str = "target/bench";

fn write_trail(file: &str, json: &str) {
    std::fs::create_dir_all(TRAIL_DIR).expect("create the trail directory");
    std::fs::write(format!("{TRAIL_DIR}/{file}"), json).expect("write the trail file");
}

/// Scale-out: k-hop sampling throughput of a partition-routed fleet at
/// 1/2/3 servers against one remote server holding the whole graph.
///
/// Every shard of every server — including the single-server baseline —
/// carries the same modeled per-request latency, standing in for the
/// storage/NIC service time a production shard pays. What the fleet buys
/// is *overlap*: the client splits each request batch by partition owner
/// and dispatches the per-server frames concurrently, so three servers'
/// service times run in parallel where the single server serializes
/// them. That is the paper's horizontal-scaling claim in miniature, and
/// it holds on a one-core box because waiting, not computing, dominates.
/// Writes the machine-readable trail to `target/bench/BENCH_7.json`.
pub fn fleet_report() {
    use platod2gl::{
        Cluster, ClusterConfig, Edge, FleetCluster, FleetNode, GraphService, GraphServiceServer,
        PartitionMap, RemoteCluster, RemoteClusterConfig, SampleRequest, ServerEntry, UpdateOp,
        VertexId,
    };
    use std::sync::Arc;

    const VERTICES: u64 = 1_000;
    const DEGREE: u64 = 4;
    const REQS_PER_ROUND: usize = 2_048;
    const ROUNDS: usize = 4;
    const SHARD_LATENCY: Duration = Duration::from_micros(100);
    const PARTITIONS: u32 = 64;
    const FANOUT: usize = 4;

    println!("\n=== Scale-out: fleet sampling throughput vs one remote server (reqs/s) ===");
    println!(
        "  {} vertices x deg {DEGREE}, {REQS_PER_ROUND} reqs/round x {ROUNDS} rounds, \
         {}us modeled shard latency everywhere",
        VERTICES,
        SHARD_LATENCY.as_micros()
    );
    header(&["deployment", "reqs/s", "vs 1 server"]);

    let ops: Vec<UpdateOp> = (0..VERTICES)
        .flat_map(|v| {
            (1..=DEGREE).map(move |k| {
                UpdateOp::Insert(Edge::new(
                    VertexId(v),
                    VertexId((v + k * 131) % VERTICES),
                    1.0 + k as f64 * 0.5,
                ))
            })
        })
        .collect();
    let reqs: Vec<SampleRequest> = (0..REQS_PER_ROUND)
        .map(|i| SampleRequest::new(VertexId(i as u64 % VERTICES), EdgeType(0), FANOUT))
        .collect();
    let client_cfg = RemoteClusterConfig::default().request_timeout(Duration::from_secs(30));

    let fresh_cluster = || {
        Arc::new(Cluster::new(
            ClusterConfig::builder()
                .num_shards(2)
                .build()
                .expect("valid config"),
        ))
    };
    let slow_all = |c: &Cluster| {
        for shard in 0..c.num_shards() {
            c.faults().slow_shard(shard, SHARD_LATENCY);
        }
    };
    let measure = |svc: &dyn GraphService| -> f64 {
        let mut rng = StdRng::seed_from_u64(7);
        // Warm-up round: connection pools, samtree caches.
        let _ = svc.sample_many(&reqs, &mut rng);
        let t = Instant::now();
        for _ in 0..ROUNDS {
            let responses = svc.sample_many(&reqs, &mut rng);
            assert_eq!(responses.len(), reqs.len());
        }
        (ROUNDS * REQS_PER_ROUND) as f64 / t.elapsed().as_secs_f64()
    };

    // Baseline: one remote server, whole graph, same modeled latency.
    let single_cluster = fresh_cluster();
    let single_server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&single_cluster))
        .expect("bind baseline");
    let single = RemoteCluster::connect(single_server.local_addr(), client_cfg).expect("connect");
    single.apply_updates(&ops).expect("load baseline");
    slow_all(&single_cluster);
    let single_reqs_per_s = measure(&single);
    row(
        "1 server",
        &[format!("{single_reqs_per_s:.0}"), "1.00x".into()],
    );

    let mut json_rows = Vec::new();
    let mut speedup_3v1 = 0.0;
    for n in [1usize, 2, 3] {
        let clusters: Vec<_> = (0..n).map(|_| fresh_cluster()).collect();
        let nodes: Vec<Arc<FleetNode>> = clusters
            .iter()
            .enumerate()
            .map(|(i, c)| Arc::new(FleetNode::new(Arc::clone(c), i as u64 + 1, client_cfg)))
            .collect();
        let servers: Vec<GraphServiceServer> = nodes
            .iter()
            .map(|node| GraphServiceServer::bind("127.0.0.1:0", Arc::clone(node)).expect("bind"))
            .collect();
        let roster: Vec<ServerEntry> = nodes
            .iter()
            .zip(&servers)
            .map(|(node, server)| ServerEntry {
                id: node.server_id(),
                addr: server.local_addr().to_string(),
            })
            .collect();
        let map = PartitionMap::build(roster, PARTITIONS).expect("valid roster");
        for node in &nodes {
            node.install(map.clone());
        }
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let fleet = FleetCluster::connect(&addrs, client_cfg).expect("connect fleet");
        fleet.apply_updates(&ops).expect("load fleet");
        for c in &clusters {
            slow_all(c);
        }
        let reqs_per_s = measure(&fleet);
        let speedup = reqs_per_s / single_reqs_per_s;
        if n == 3 {
            speedup_3v1 = speedup;
        }
        row(
            &format!("fleet x{n}"),
            &[format!("{reqs_per_s:.0}"), format!("{speedup:.2}x")],
        );
        json_rows.push(format!(
            "{{\"servers\":{n},\"reqs_per_s\":{reqs_per_s:.0},\"speedup_vs_single\":{speedup:.3}}}"
        ));
        for server in servers {
            server.shutdown();
        }
    }
    single_server.shutdown();

    let json = format!(
        "{{\"bench\":\"fleet_scaleout\",\"partitions\":{PARTITIONS},\
         \"shard_latency_us\":{},\"requests_per_round\":{REQS_PER_ROUND},\
         \"rounds\":{ROUNDS},\"single_reqs_per_s\":{single_reqs_per_s:.0},\
         \"speedup_3v1\":{speedup_3v1:.3},\"rows\":[{}]}}\n",
        SHARD_LATENCY.as_micros(),
        json_rows.join(",")
    );
    write_trail("BENCH_7.json", &json);
    println!("  wrote {TRAIL_DIR}/BENCH_7.json (speedup_3v1 = {speedup_3v1:.2}x)");
}

/// Tracing-overhead gate: the same pipelined sampling workload served by
/// the graph server twice — once with untraced batches (no trace
/// context on the wire, so the server opens no per-request spans) and
/// once with every batch carrying a trace context (the server opens a
/// remote-parented root span per batch and records it into the export
/// ring, exactly what a fleet client induces). Writes `target/bench/BENCH_9.json` with
/// both rates and the traced/untraced throughput ratio; verify.sh gates
/// on the ratio staying >= 0.9, i.e. tracing costs at most 10%.
pub fn obs_overhead_report() {
    use platod2gl::{Cluster, ClusterConfig, Edge, SampleRequest, TraceContext, VertexId};
    use platod2gl_rpc::codec::{encode, encode_frame, read_frame, FrameKind, SampleBatch};
    use platod2gl_rpc::GraphServiceServer;
    use std::io::Write;
    use std::net::TcpStream;
    use std::sync::{Arc, Barrier};

    const DRIVERS: usize = 4;
    const PIPELINE: usize = 16;
    const BURSTS: usize = 200;
    const TRIALS: usize = 3;
    const VERTICES: u64 = 256;

    println!("\n=== Observability overhead: traced vs untraced serving (reqs/s) ===");
    println!(
        "  {DRIVERS} drivers x {BURSTS} bursts of {PIPELINE} pipelined sample frames; \
         best of {TRIALS} interleaved trials per mode"
    );
    header(&["mode", "reqs/s"]);

    let cluster = Arc::new(Cluster::new(
        ClusterConfig::builder()
            .num_shards(2)
            .build()
            .expect("valid config"),
    ));
    for v in 0..VERTICES {
        cluster.insert_edge(Edge::new(VertexId(v), VertexId((v + 1) % VERTICES), 1.0));
    }
    let batch = |ctx: Option<TraceContext>| -> Arc<Vec<u8>> {
        Arc::new(encode(&SampleBatch {
            deadline_ms: 30_000,
            ctx,
            requests: (0..4)
                .map(|i| (SampleRequest::new(VertexId(i), EdgeType(0), 4), 0x5EED + i))
                .collect(),
        }))
    };
    let untraced_payload = batch(None);
    let traced_payload = batch(Some(TraceContext {
        trace_id: 0x0B5_0B5,
        parent_span: 1,
    }));

    let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&cluster)).expect("bind");
    let addr = server.local_addr();

    // One trial: every driver keeps a persistent probed connection and
    // pushes pipelined bursts — persistent sockets keep the accept path
    // out of the measurement, so the delta is handler-side tracing only.
    let trial = |payload: &Arc<Vec<u8>>| -> f64 {
        let start = Arc::new(Barrier::new(DRIVERS + 1));
        let done = Arc::new(Barrier::new(DRIVERS + 1));
        let handles: Vec<_> = (0..DRIVERS)
            .map(|d| {
                let payload = Arc::clone(payload);
                let start = Arc::clone(&start);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut sock = TcpStream::connect(addr).expect("connect");
                    sock.set_nodelay(true).expect("nodelay");
                    let probe = encode_frame(FrameKind::HealthProbe, 1, &[]);
                    sock.write_all(&probe).expect("probe");
                    let (head, _) = read_frame(&mut sock).expect("probe reply");
                    assert_eq!(head.kind, FrameKind::HealthReply);
                    start.wait();
                    for burst in 0..BURSTS {
                        for req in 0..PIPELINE {
                            let id = ((d * BURSTS + burst) * PIPELINE + req) as u64 + 1;
                            let frame = encode_frame(FrameKind::SampleBatch, id, &payload);
                            sock.write_all(&frame).expect("send");
                        }
                        for _ in 0..PIPELINE {
                            let (head, _) = read_frame(&mut sock).expect("reply");
                            assert_eq!(head.kind, FrameKind::SampleReply);
                        }
                    }
                    done.wait();
                })
            })
            .collect();
        start.wait();
        let t = Instant::now();
        done.wait();
        let elapsed = t.elapsed().as_secs_f64();
        for h in handles {
            h.join().expect("driver clean");
        }
        (DRIVERS * BURSTS * PIPELINE) as f64 / elapsed
    };

    // Warm both paths, then interleave trials so drift (thermal, page
    // cache) hits the two modes evenly; keep each mode's best rate.
    trial(&untraced_payload);
    trial(&traced_payload);
    let (mut untraced, mut traced) = (0.0f64, 0.0f64);
    for _ in 0..TRIALS {
        untraced = untraced.max(trial(&untraced_payload));
        traced = traced.max(trial(&traced_payload));
    }
    server.shutdown();

    row("tracing off", &[format!("{untraced:.0}")]);
    row("tracing on", &[format!("{traced:.0}")]);
    let ratio = traced / untraced.max(1e-9);
    println!(
        "  tracing keeps {:.1}% of untraced throughput (gate: >= 90%)",
        ratio * 100.0
    );

    let json = format!(
        "{{\"bench\":\"obs_overhead\",\"drivers\":{DRIVERS},\"pipeline\":{PIPELINE},\
         \"bursts\":{BURSTS},\"trials\":{TRIALS},\
         \"untraced_reqs_per_s\":{untraced:.0},\"traced_reqs_per_s\":{traced:.0},\
         \"overhead_ratio\":{ratio:.3}}}\n"
    );
    write_trail("BENCH_9.json", &json);
    println!("  wrote {TRAIL_DIR}/BENCH_9.json (overhead_ratio = {ratio:.3})");
}

/// Run the whole evaluation in paper order.
pub fn run_all() {
    println!(
        "PlatoD2GL evaluation reproduction (scale: {} directed edges/dataset; \
         set PLATOD2GL_SCALE_EDGES to change)",
        scale_edges()
    );
    fig08_build();
    fig09_updates();
    table02_complexity();
    table04_memory();
    table05_distribution();
    fig10_sampling();
    fig11_sensitivity();
    ablations();
}
