//! The layer probes: every per-layer cost that is not read off the traced
//! pass itself, measured in isolation against the workload's own graph and
//! captured requests. Each traced run of each workload runs the whole suite,
//! so every per-layer metric is a measurement on every workload.

use crate::graph::{self, Graph, SeedStream, BATCH_SEEDS, ETYPE, FANOUTS};
use crate::harness::{sampler, Ctx, RunResult};
use crate::replay::{apply_to_shards, ReadLevels};
use crate::trace::{totals_by_name, Traced, Tracer};
use crate::txngen::WriteGen;
use crate::workloads::{new_net, pipeline_config, serve, TrainSet};
use platod2gl::{
    gather_features, validate_and_lower, CacheConfig, ConnectionMode, CsTable, DecayConfig,
    DurableGraphStore, DynamicGraphStore, FeatureProvider, FsTable, GraphService, GraphStore,
    NeighborCache, OpStats, PartitionMap, RecencyDecay, Registry, RemoteClusterConfig, SamTree,
    SampleRequest, ServerEntry, StoreConfig, TrainingPipeline, VertexId,
};
use platod2gl_rpc::codec::{
    decode_sample_batch, decode_sample_reply, encode_sample_batch, encode_sample_reply, SampleBatch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the probes run against.
pub struct ProbeEnv<'a> {
    pub ctx: &'a Ctx,
    /// The traced pass's graph: read-only probes.
    pub reads_on: &'a Graph,
    /// The untraced pass's graph, its ledger and its write generator:
    /// probes that mutate.
    pub writes_on: &'a mut Graph,
    pub gen: &'a mut WriteGen,
    /// Captured `(request, seed)` stream and its level replays.
    pub reads: &'a [(SampleRequest, u64)],
    pub levels: &'a ReadLevels,
}

/// Time budget of one micro-probe.
fn budget(ctx: &Ctx) -> Duration {
    Duration::from_millis(if ctx.smoke { 4 } else { 40 })
}

/// Call `op` in chunks of 64 for about `budget`; mean nanoseconds per call.
fn ns_per_call(budget: Duration, mut op: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    let mut n = 0u64;
    loop {
        for _ in 0..64 {
            op(n);
            n += 1;
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    started.elapsed().as_nanos() as f64 / n as f64
}

fn random_weights(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n).map(|_| rng.random_range(0.05..1.0)).collect()
}

pub fn run_all(env: &mut ProbeEnv<'_>, result: &mut RunResult) {
    tables(env, result);
    samtree(env, result);
    storage_reads(env, result);
    server_reads(env, result);
    codec(env, result);
    let pooled = rpc(env, ConnectionMode::Pooled);
    let mux = rpc(env, ConnectionMode::Multiplexed);
    result.metric("rpc.roundtrip_ns_per_req", pooled.roundtrip_ns_per_req);
    result.metric("rpc.mux_roundtrip_ns_per_req", mux.roundtrip_ns_per_req);
    result.metric("rpc.bytes_per_req", pooled.bytes_per_req);
    result.metric("rpc.frames_per_block", pooled.frames_per_block);
    let codec_ns: f64 = [
        "rpc.codec.encode_request_ns_per_req",
        "rpc.codec.decode_request_ns_per_req",
        "rpc.codec.encode_reply_ns_per_req",
        "rpc.codec.decode_reply_ns_per_req",
    ]
    .iter()
    .filter_map(|n| result.value(n))
    .sum();
    result.metric(
        "rpc.transport_self_ns_per_req",
        (pooled.roundtrip_ns_per_req - codec_ns).max(0.0),
    );
    cache(env, result);
    gnn(env, result);
    pipeline_driver(env, result);
    obs(env, result);
    fleet(env, result);
    // From here on the expendable graph is mutated.
    writes(env, result);
    wal(env, result);
    decay(env, result);
}

/// fenwick.* and sampling.*: the two index tables, at leaf size and at 2^16.
fn tables(env: &ProbeEnv<'_>, result: &mut RunResult) {
    let mut rng = StdRng::seed_from_u64(env.ctx.sub_seed("probe-tables"));
    let b = budget(env.ctx);
    for (n, fts_name, its_name) in [
        (256, "fenwick.fts_draw_ns", "sampling.its_draw_ns"),
        (
            1 << 16,
            "fenwick.fts_draw_n65536_ns",
            "sampling.its_draw_n65536_ns",
        ),
    ] {
        let weights = random_weights(n, &mut rng);
        let fs = FsTable::from_weights(&weights);
        let cs = CsTable::from_weights(&weights);
        let total = cs.prefix_sum(n - 1);
        let mut draw = rng.clone();
        result.metric(
            fts_name,
            ns_per_call(b, |_| {
                black_box(fs.sample_unit(draw.random::<f64>()));
            }),
        );
        result.metric(
            its_name,
            ns_per_call(b, |_| {
                black_box(cs.its_search(draw.random_range(0.0..total)));
            }),
        );
    }
    // In-place set, and append + swap-delete keeping the table at leaf size.
    let mut fs = FsTable::from_weights(&random_weights(256, &mut rng));
    let per_round = ns_per_call(b, |_| {
        let i = rng.random_range(0..256usize);
        fs.set(i, rng.random_range(0.05..1.0));
        fs.push(rng.random_range(0.05..1.0));
        black_box(fs.swap_delete(i));
    });
    result.metric("fenwick.update_ns", per_round / 3.0);
}

/// The 16 largest neighborhoods of the graph, as standalone trees.
fn hub_trees(g: &Graph) -> Vec<SamTree> {
    let mut degrees: Vec<(usize, VertexId)> = Vec::new();
    for server in g.cluster.servers() {
        server
            .topology()
            .for_each_source(|v, _, len| degrees.push((len, v)));
    }
    degrees.sort_unstable_by(|a, b| b.cmp(a));
    let cfg = g.cluster.server(0).topology().tree_config();
    degrees
        .iter()
        .take(16)
        .filter_map(|&(_, v)| {
            let store = g.cluster.server(g.cluster.route(v)).topology();
            store.adjacency_of(v, ETYPE).map(|adj| {
                let pairs: Vec<(u64, f64)> = adj.iter().map(|&(d, w, _)| (d, w)).collect();
                SamTree::bulk_load(&cfg, &pairs)
            })
        })
        .collect()
}

/// samtree.*: draws on the captured vertices' trees come from the replay;
/// hubs and the three write operations are measured here.
fn samtree(env: &ProbeEnv<'_>, result: &mut RunResult) {
    let b = budget(env.ctx);
    result.metric("samtree.sample_ns_per_draw", env.levels.samtree_ns_per_draw);
    let hubs = hub_trees(env.reads_on);
    let mut rng = StdRng::seed_from_u64(env.ctx.sub_seed("probe-samtree"));
    let per_call = ns_per_call(b, |i| {
        black_box(hubs[i as usize % hubs.len()].sample_k(16, &mut rng));
    });
    result.metric("samtree.sample_hub_ns_per_draw", per_call / 16.0);

    // Writes on copies of the captured vertices' trees, ids drawn from the
    // write generators' key space (so some land on existing neighbors, as
    // in the store).
    let cfg = env.reads_on.cluster.server(0).topology().tree_config();
    let mut trees: Vec<SamTree> = env.levels.trees.iter().take(2048).cloned().collect();
    if trees.is_empty() {
        trees.push(SamTree::new());
    }
    let ops: Vec<(usize, u64)> = (0..if env.ctx.smoke { 2_000 } else { 20_000 })
        .map(|_| {
            (
                rng.random_range(0..trees.len()),
                rng.random_range(0..env.ctx.scale.vertices * 2),
            )
        })
        .collect();
    let mut stats = OpStats::default();
    let mut timed = |f: &mut dyn FnMut(&mut SamTree, u64, &mut OpStats)| {
        let t = Instant::now();
        for &(tree, id) in &ops {
            f(&mut trees[tree], id, &mut stats);
        }
        t.elapsed().as_nanos() as f64 / ops.len() as f64
    };
    result.metric(
        "samtree.insert_ns",
        timed(&mut |tree, id, stats| {
            black_box(tree.insert(&cfg, id, 0.5, stats));
        }),
    );
    result.metric(
        "samtree.update_weight_ns",
        timed(&mut |tree, id, stats| {
            black_box(tree.update_weight(&cfg, id, 0.25, stats));
        }),
    );
    result.metric(
        "samtree.delete_ns",
        timed(&mut |tree, id, stats| {
            black_box(tree.delete(&cfg, id, stats));
        }),
    );
}

fn storage_reads(env: &ProbeEnv<'_>, result: &mut RunResult) {
    let l = env.levels;
    let per_req = |s: f64| s * 1e9 / l.requests as f64;
    result.metric("storage.sample_ns_per_req", per_req(l.storage_unwindowed_s));
    result.metric(
        "storage.sample_windowed_ns_per_req",
        per_req(l.storage_windowed_s),
    );
    result.metric("storage.window_accept_share", l.window_accept_share);
    result.metric(
        "storage.window_fallbacks_per_req",
        l.window_fallbacks_per_req,
    );
    result.metric(
        "server.sample_self_ns_per_req",
        per_req((l.server_s - l.storage_s).max(0.0)),
    );
}

/// `Cluster::sample_many` over captured requests in frontier-sized batches.
fn server_reads(env: &ProbeEnv<'_>, result: &mut RunResult) {
    let reqs: Vec<SampleRequest> = env.reads.iter().map(|(r, _)| *r).collect();
    let chunks: Vec<&[SampleRequest]> = reqs.chunks(BATCH_SEEDS * FANOUTS[0]).collect();
    let mut rng = StdRng::seed_from_u64(env.ctx.sub_seed("probe-sample-many"));
    let (mut ns, mut n) = (0u128, 0usize);
    let started = Instant::now();
    for chunk in chunks.iter().cycle() {
        let t = Instant::now();
        black_box(GraphService::sample_many(
            &*env.reads_on.cluster,
            chunk,
            &mut rng,
        ));
        ns += t.elapsed().as_nanos();
        n += chunk.len();
        if started.elapsed() >= budget(env.ctx) * 2 {
            break;
        }
    }
    result.metric("server.sample_many_ns_per_req", ns as f64 / n as f64);
}

/// rpc.codec.*: captured batches through the four codec functions.
fn codec(env: &ProbeEnv<'_>, result: &mut RunResult) {
    let b = budget(env.ctx);
    let requests: Vec<(SampleRequest, u64)> = env.reads.iter().take(256).copied().collect();
    let n = requests.len() as f64;
    let batch = SampleBatch {
        deadline_ms: 2000,
        ctx: None,
        requests,
    };
    let payload = encode_sample_batch(&batch);
    let reqs: Vec<SampleRequest> = batch.requests.iter().map(|(r, _)| *r).collect();
    let responses = GraphService::sample_many(
        &*env.reads_on.cluster,
        &reqs,
        &mut StdRng::seed_from_u64(env.ctx.sub_seed("probe-codec")),
    );
    let reply = encode_sample_reply(&responses);
    result.metric(
        "rpc.codec.encode_request_ns_per_req",
        ns_per_call(b, |_| {
            black_box(encode_sample_batch(&batch));
        }) / n,
    );
    result.metric(
        "rpc.codec.decode_request_ns_per_req",
        ns_per_call(b, |_| {
            black_box(decode_sample_batch(&payload).expect("own encoding decodes"));
        }) / n,
    );
    result.metric(
        "rpc.codec.encode_reply_ns_per_req",
        ns_per_call(b, |_| {
            black_box(encode_sample_reply(&responses));
        }) / n,
    );
    result.metric(
        "rpc.codec.decode_reply_ns_per_req",
        ns_per_call(b, |_| {
            black_box(decode_sample_reply(&reply).expect("own encoding decodes"));
        }) / n,
    );
}

struct RpcCosts {
    roundtrip_ns_per_req: f64,
    bytes_per_req: f64,
    frames_per_block: f64,
}

/// Cache-bypassed blocks over a loopback server on the read graph: the
/// client span minus the server-side service time is the wire's cost.
fn rpc(env: &ProbeEnv<'_>, mode: ConnectionMode) -> RpcCosts {
    let cluster = &env.reads_on.cluster;
    let tracer = Tracer::new(1 << 10);
    let (server, remote) = serve(
        cluster,
        Some(&tracer),
        RemoteClusterConfig::default().mode(mode),
    );
    let svc = Traced::client(Arc::new(remote), Arc::clone(&tracer), 0);
    let cache = NeighborCache::new(CacheConfig::disabled());
    let sampler = sampler();
    let mut seeds = SeedStream::new(env.ctx.scale, env.ctx.sub_seed("probe-rpc"));
    let mut rng = StdRng::seed_from_u64(env.ctx.sub_seed("probe-rpc-rng"));
    let counter = |name: &str| cluster.obs().counter(name).get();
    let before = (
        counter("cluster.requests"),
        counter("cluster.request_bytes") + counter("cluster.response_bytes"),
        counter("rpc.server.frames"),
    );
    let blocks = if env.ctx.smoke { 4 } else { 24 };
    for _ in 0..blocks {
        black_box(sampler.sample_block(&svc, &cache, &seeds.next_batch(), &mut rng));
    }
    let requests = (counter("cluster.requests") - before.0) as f64;
    let bytes =
        (counter("cluster.request_bytes") + counter("cluster.response_bytes") - before.1) as f64;
    let frames = (counter("rpc.server.frames") - before.2) as f64;
    let wire_ns = totals_by_name(&tracer.spans())
        .get("service.sample_many")
        .map_or(0, |t| t.self_ns) as f64;
    drop(svc);
    server.shutdown();
    RpcCosts {
        roundtrip_ns_per_req: wire_ns / requests,
        bytes_per_req: bytes / requests,
        frames_per_block: frames / blocks as f64,
    }
}

/// pipeline.cache.*: the default-config cache on its own.
fn cache(env: &ProbeEnv<'_>, result: &mut RunResult) {
    let b = budget(env.ctx);
    let cache = NeighborCache::new(CacheConfig::default());
    let list: Vec<VertexId> = (0..FANOUTS[0] as u64).map(graph::vertex).collect();
    const RESIDENT: u64 = 8192;
    for i in 0..RESIDENT {
        cache.insert(graph::vertex(i), ETYPE, 10, list.clone(), 1);
    }
    result.metric(
        "pipeline.cache.lookup_hit_ns",
        ns_per_call(b, |i| {
            black_box(cache.lookup(graph::vertex(i % RESIDENT), ETYPE, 10, 1));
        }),
    );
    result.metric(
        "pipeline.cache.lookup_miss_ns",
        ns_per_call(b, |i| {
            black_box(cache.lookup(graph::vertex((1 << 40) + i), ETYPE, 10, 1));
        }),
    );
    result.metric(
        "pipeline.cache.insert_ns",
        ns_per_call(b, |i| {
            cache.insert(graph::vertex((1 << 41) + i), ETYPE, 10, list.clone(), 1);
        }),
    );
}

/// Matmul flops of one training step, from the shapes alone: each layer
/// applied at each depth runs two forward and four backward products of
/// `rows x in x hidden`; the classifier one forward and two backward.
fn train_flops(
    batch: usize,
    fanouts: &[usize],
    feature: usize,
    hidden: usize,
    classes: usize,
) -> f64 {
    let mut rows = vec![batch];
    for f in fanouts {
        rows.push(rows.last().expect("seed level") * f);
    }
    let layers = fanouts.len();
    let mut flops = 0.0;
    for l in 0..layers {
        let input = if l == 0 { feature } else { hidden };
        for r in rows.iter().take(layers - l) {
            flops += 6.0 * 2.0 * (*r * input * hidden) as f64;
        }
    }
    flops + 3.0 * 2.0 * (batch * hidden * classes) as f64
}

/// gnn.*: `gather_features` and `train_step_features` on blocks sampled
/// from the read graph.
fn gnn(env: &ProbeEnv<'_>, result: &mut RunResult) {
    let set = TrainSet::new(env.ctx);
    let cache = NeighborCache::new(CacheConfig::disabled());
    let sampler = sampler();
    let mut rng = StdRng::seed_from_u64(env.ctx.sub_seed("probe-gnn"));
    let mut net = new_net(env.ctx);
    let (mut gather_ns, mut rows, mut train_ns) = (0u128, 0usize, 0u128);
    let batches = if env.ctx.smoke { 2 } else { 4 };
    for i in 0..batches {
        let (seeds, labels) = set.chunk(i);
        let block = sampler.sample_block(&*env.reads_on.cluster, &cache, seeds, &mut rng);
        let t = Instant::now();
        let feats: Vec<_> = block
            .levels
            .iter()
            .map(|level| gather_features(&set.provider, level, set.provider.dim()))
            .collect();
        gather_ns += t.elapsed().as_nanos();
        rows += block.levels.iter().map(Vec::len).sum::<usize>();
        let t = Instant::now();
        black_box(net.train_step_features(feats, labels));
        train_ns += t.elapsed().as_nanos();
    }
    let cfg = net.config();
    let flops = train_flops(
        BATCH_SEEDS,
        &cfg.fanouts,
        cfg.feature_dim,
        cfg.hidden_dim,
        cfg.num_classes,
    );
    let step_ns = train_ns as f64 / batches as f64;
    result.metric("gnn.gather_ns_per_row", gather_ns as f64 / rows as f64);
    result.metric("gnn.train_step_ms_per_batch", step_ns / 1e6);
    result.metric("gnn.train_flops_per_batch", flops);
    result.metric("gnn.train_gflops", flops / step_ns);
}

/// pipeline.driver_self_share: a few `run_epoch` calls over the read graph;
/// what the epoch wall holds beyond the pipeline's own stage histograms.
fn pipeline_driver(env: &ProbeEnv<'_>, result: &mut RunResult) {
    let set = TrainSet::new(env.ctx);
    let cluster = &*env.reads_on.cluster;
    let pipeline = TrainingPipeline::new(cluster, pipeline_config(env.ctx));
    let mut net = new_net(env.ctx);
    let stage_ns = || {
        [
            "pipeline.sample_ns",
            "pipeline.gather_ns",
            "pipeline.train_ns",
        ]
        .iter()
        .map(|n| cluster.obs().histogram(n).sum_ns())
        .sum::<u64>()
    };
    let before = stage_ns();
    let t = Instant::now();
    for i in 0..if env.ctx.smoke { 2 } else { 6 } {
        let (seeds, labels) = set.chunk(i);
        black_box(pipeline.run_epoch(&mut net, &set.provider, seeds, labels, i));
    }
    let wall = t.elapsed().as_nanos() as f64;
    let stages = (stage_ns() - before) as f64;
    result.metric(
        "pipeline.driver_self_share",
        ((wall - stages) / wall).max(0.0),
    );
}

fn obs(env: &ProbeEnv<'_>, result: &mut RunResult) {
    let b = budget(env.ctx);
    let registry = Registry::new();
    let counter = registry.counter("probe.counter");
    let histogram = registry.histogram("probe.histogram_ns");
    result.metric(
        "obs.span_ns",
        ns_per_call(b, |_| drop(registry.span("probe.span"))),
    );
    result.metric("obs.counter_inc_ns", ns_per_call(b, |_| counter.inc()));
    result.metric(
        "obs.histogram_record_ns",
        ns_per_call(b, |i| histogram.record(Duration::from_nanos(i & 0xffff))),
    );
}

fn fleet(env: &ProbeEnv<'_>, result: &mut RunResult) {
    let servers = (1..=3)
        .map(|id| ServerEntry {
            id,
            addr: format!("127.0.0.1:{}", 7000 + id),
        })
        .collect();
    let map = PartitionMap::build(servers, 64).expect("a valid three-server roster");
    let vertices = env.ctx.scale.vertices;
    result.metric(
        "fleet.map.owner_of_ns",
        ns_per_call(budget(env.ctx), |i| {
            black_box(map.owner_of(graph::vertex(i % vertices)));
        }),
    );
}

/// Write-path probes at three batch sizes, on the expendable graph: straight
/// into the shard stores, through `Cluster::apply_updates`, and as valid
/// transactions through `Cluster::apply_txn`. The samtree structural counts
/// are the registry's, over the `apply_updates` batches.
fn writes(env: &mut ProbeEnv<'_>, result: &mut RunResult) {
    let shrink = if env.ctx.smoke { 4 } else { 1 };
    let sizes: [(usize, usize, &str); 3] = [
        (256, 32 / shrink, "b256"),
        (4096, 4, "b4096"),
        (16384, 2, "b16384"),
    ];
    let cluster = Arc::clone(&env.writes_on.cluster);
    let ledger = &mut env.writes_on.ledger;

    for (size, batches, tag) in sizes {
        let (mut ns, mut ops) = (0u64, 0usize);
        for _ in 0..batches {
            let batch = env.gen.update_batch(size);
            ns += apply_to_shards(&cluster, &batch).1;
            ops += batch.len();
            batch.iter().for_each(|op| ledger.apply_update(op));
        }
        result.metric(
            &format!("storage.apply_batch.{tag}_ns_per_op"),
            ns as f64 / ops as f64,
        );
    }

    let counter = |name: &str| cluster.obs().counter(name).get();
    let structural = || {
        (
            counter("samtree.leaf_splits"),
            counter("samtree.merges"),
            counter("samtree.leaf_ops"),
            counter("samtree.internal_ops"),
        )
    };
    let before = structural();
    let mut applied = 0usize;
    for (size, batches, tag) in sizes {
        let (mut ns, mut ops) = (0u128, 0usize);
        for _ in 0..batches {
            let batch = env.gen.update_batch(size);
            let t = Instant::now();
            let report = cluster.apply_updates(&batch);
            ns += t.elapsed().as_nanos();
            ops += batch.len();
            result.check(
                report.is_ok_and(|r| r.applied_ops == batch.len()),
                "probe update batch applied",
            );
            batch.iter().for_each(|op| ledger.apply_update(op));
        }
        applied += ops;
        result.metric(
            &format!("server.apply_updates.{tag}_ns_per_op"),
            ns as f64 / ops as f64,
        );
    }
    let after = structural();
    let kops = applied as f64 / 1000.0;
    result.metric(
        "samtree.leaf_splits_per_kop",
        (after.0 - before.0) as f64 / kops,
    );
    result.metric("samtree.merges_per_kop", (after.1 - before.1) as f64 / kops);
    let (leaf, internal) = ((after.2 - before.2) as f64, (after.3 - before.3) as f64);
    result.metric(
        "samtree.internal_ops_share",
        if leaf + internal == 0.0 {
            0.0
        } else {
            internal / (leaf + internal)
        },
    );

    let (mut validate_ns, mut validate_ops) = (0u128, 0usize);
    for (size, batches, tag) in sizes {
        let (mut ns, mut ops) = (0u128, 0usize);
        for _ in 0..batches.div_ceil(2) {
            let txn = env.gen.valid_txn(size, ledger);
            if size == 4096 {
                let t = Instant::now();
                black_box(validate_and_lower(&txn, &*cluster).expect("generated txns are valid"));
                validate_ns += t.elapsed().as_nanos();
                validate_ops += txn.len();
            }
            let t = Instant::now();
            let receipt = cluster.apply_txn(&txn);
            ns += t.elapsed().as_nanos();
            ops += txn.len();
            result.check(receipt.is_ok(), "probe transaction committed");
            ledger.apply_txn(&txn);
        }
        result.metric(
            &format!("server.apply_txn.{tag}_ns_per_op"),
            ns as f64 / ops as f64,
        );
    }
    result.metric(
        "graph.txn.validate_ns_per_op",
        validate_ns as f64 / validate_ops as f64,
    );
    result.check(
        cluster.num_edges() == ledger.len(),
        "after the write probes the edge count still equals the ledger",
    );
}

/// storage.wal.*: the same batches into a `DurableGraphStore` and into a
/// plain store; the difference is the log. Then recovery and a checkpoint.
fn wal(env: &ProbeEnv<'_>, result: &mut RunResult) {
    let dir = env.ctx.scratch_dir("wal-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let mut gen = WriteGen::new(
        &graph::profile(env.ctx.scale, 2),
        env.ctx.sub_seed("probe-wal"),
        Some(1),
    );
    let batches: Vec<_> = (0..if env.ctx.smoke { 4 } else { 16 })
        .map(|_| gen.update_batch(graph::WRITE_BATCH))
        .collect();
    let ops: usize = batches.iter().map(Vec::len).sum();
    let outcome = (|| -> Result<(f64, f64, f64, f64), String> {
        let (durable, _) =
            DurableGraphStore::open(&dir, StoreConfig::default()).map_err(|e| e.to_string())?;
        let t = Instant::now();
        for batch in &batches {
            durable
                .try_apply_batch(batch, 1)
                .map_err(|e| e.to_string())?;
        }
        let logged_ns = t.elapsed().as_nanos() as f64;
        let bytes = durable.wal_bytes() as f64;
        let edges = durable.num_edges();
        drop(durable);

        let plain = DynamicGraphStore::new(StoreConfig::default());
        let t = Instant::now();
        for batch in &batches {
            plain.apply_batch_parallel(batch, 1);
        }
        let plain_ns = t.elapsed().as_nanos() as f64;

        let t = Instant::now();
        let (reopened, _) =
            DurableGraphStore::open(&dir, StoreConfig::default()).map_err(|e| e.to_string())?;
        let recover_s = t.elapsed().as_secs_f64();
        if reopened.num_edges() != edges || edges != plain.num_edges() {
            return Err("recovered edge count differs".to_string());
        }
        let t = Instant::now();
        reopened.checkpoint().map_err(|e| e.to_string())?;
        let checkpoint_s = t.elapsed().as_secs_f64();
        Ok((
            (logged_ns - plain_ns).max(0.0) / ops as f64,
            bytes / ops as f64,
            checkpoint_s,
            recover_s,
        ))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let (append, bytes, checkpoint_s, recover_s) = outcome.unwrap_or_else(|e| {
        result.check(false, &format!("WAL probe: {e}"));
        (0.0, 0.0, 0.0, 0.0)
    });
    result.metric("storage.wal.append_ns_per_op", append);
    result.metric("storage.wal.bytes_per_op", bytes);
    result.metric("storage.checkpoint_s", checkpoint_s);
    result.metric("storage.recover_s", recover_s);
}

/// temporal.decay_edges_per_s: recency-decay ticks over shard 0. Last,
/// because it rewrites weights. A timeless graph has nothing to decay and
/// reads 0.
fn decay(env: &ProbeEnv<'_>, result: &mut RunResult) {
    let store = env.writes_on.cluster.server(0).topology();
    let mut worker = RecencyDecay::new(
        DecayConfig {
            lambda: 1e-7,
            floor: 1e-6,
            batch_sources: 256,
        },
        store.registry(),
    )
    .expect("a valid decay policy");
    let now = env.writes_on.horizon * 2 + 1;
    let started = Instant::now();
    let mut scanned = 0usize;
    while started.elapsed() < budget(env.ctx) * 3 {
        scanned += worker.tick(store, now).scanned;
    }
    result.metric(
        "temporal.decay_edges_per_s",
        scanned as f64 / started.elapsed().as_secs_f64(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_flops_count_every_product() {
        // One layer, fanout 2, batch 1, feature 3, hidden 4, 5 classes:
        // the layer runs at depth 0 only (1 row): 6 products of 2*1*3*4,
        // the classifier 3 of 2*1*4*5.
        assert_eq!(train_flops(1, &[2], 3, 4, 5), 6.0 * 24.0 + 3.0 * 40.0);
        // Two layers: layer 0 at depths 0 and 1 (1 and 2 rows), layer 1 at
        // depth 0, hidden-to-hidden.
        let expected = 6.0 * 2.0 * (3 * 4) as f64 * 3.0 + 6.0 * 2.0 * (4 * 4) as f64 + 3.0 * 40.0;
        assert_eq!(train_flops(1, &[2, 2], 3, 4, 5), expected);
    }

    #[test]
    fn ns_per_call_runs_at_least_one_chunk() {
        let mut calls = 0;
        let ns = ns_per_call(Duration::ZERO, |_| calls += 1);
        assert_eq!(calls, 64);
        assert!(ns >= 0.0);
    }
}
