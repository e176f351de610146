//! The traced run (`--trace 1`): the first third of the schedule twice —
//! untraced, then traced with the same step count — followed by the level
//! replays, the ledger, the cross-check against `obs`, and the layer probes.

use crate::calib::Calibrator;
use crate::harness::{batch_tail_ms, median_ns, Ctx, Limit, RunResult};
use crate::ledger::{disagreement, split_levels, Ledger};
use crate::probes::{self, ProbeEnv};
use crate::replay::{replay_reads, replay_writes, ReadLevels, WriteLevels};
use crate::trace::{root_ns, totals_by_name, NameTotals, Tracer};
use crate::workloads::{run_main, setup, write_gen, Env, Kind, PassOut};
use std::collections::HashMap;

/// Layers a ledger can name, in report order.
const LAYERS: [&str; 9] = [
    "gnn", "pipeline", "rpc", "server", "graph", "storage", "samtree", "sampling", "fenwick",
];

fn total(totals: &HashMap<&'static str, NameTotals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9)
}

fn own(totals: &HashMap<&'static str, NameTotals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9)
}

/// Build the ledger of the traced pass.
///
/// Above the service boundary a layer's time is the self time of its spans.
/// Below it, the boundary's in-situ time is divided by the replays: reads by
/// [`split_levels`] over the four read levels, writes by the per-op costs of
/// the write replay with the cluster keeping the remainder.
fn build_ledger(
    kind: Kind,
    wall_s: f64,
    totals: &HashMap<&'static str, NameTotals>,
    reads: &ReadLevels,
    writes: Option<&WriteLevels>,
    pass: &PassOut,
    fenwick_update_ns: f64,
) -> (Ledger, f64, f64) {
    let mut ledger = Ledger::new(wall_s);
    ledger.add(
        "gnn",
        own(totals, "gnn.gather") + own(totals, "gnn.train_step"),
    );
    ledger.add("pipeline", own(totals, "pipeline.sample_block"));

    // Reads. Over TCP the client span's self time is the wire (codec, event
    // loop, sockets, re-stitch) and the server-side aggregate is the
    // service; in process the client span is the service.
    let service_s = if kind == Kind::SampleRemote {
        ledger.add("rpc", own(totals, "service.sample_many"));
        total(totals, "server.sample_one")
    } else {
        total(totals, "service.sample_many")
    };
    for (layer, seconds) in split_levels(
        service_s,
        &[
            ("server", reads.server_s),
            ("storage", reads.storage_s),
            ("samtree", reads.samtree_s()),
            ("tables", reads.fts_s() + reads.its_s()),
        ],
    ) {
        if layer == "tables" {
            let both = reads.fts_s() + reads.its_s();
            let fts = if both > 0.0 {
                reads.fts_s() / both
            } else {
                0.0
            };
            ledger.add("fenwick", seconds * fts);
            ledger.add("sampling", seconds * (1.0 - fts));
        } else {
            ledger.add(&layer, seconds);
        }
    }
    let replay_scale = if reads.server_s > 0.0 {
        service_s / (reads.server_s * pass_requests(pass) / reads.requests as f64)
    } else {
        0.0
    };

    // Writes.
    let write_s = total(totals, "service.apply_updates") + total(totals, "service.apply_txn");
    let mut write_path_s = 0.0;
    if let (Some(w), true) = (writes, write_s > 0.0) {
        let update_ops = pass.log.writes.update_ops as f64;
        let txn_ops = pass.log.writes.txn_ops as f64;
        let graph_s = (w.validate_ns_per_op * txn_ops / 1e9).min(write_s);
        let storage_total =
            (w.storage_wall_ns_per_op * (update_ops + txn_ops) / 1e9).min(write_s - graph_s);
        let samtree_total = storage_total * w.samtree_share_of_storage;
        let fenwick_s = (w.leaf_ops_per_op * fenwick_update_ns * (update_ops + txn_ops) / 1e9)
            .min(samtree_total);
        ledger.add("graph", graph_s);
        ledger.add("storage", storage_total - samtree_total);
        ledger.add("samtree", samtree_total - fenwick_s);
        ledger.add("fenwick", fenwick_s);
        ledger.add("server", write_s - graph_s - storage_total);
        write_path_s = write_s;
    }
    (ledger, replay_scale, write_path_s)
}

/// Requests the traced pass issued, as a float.
fn pass_requests(pass: &PassOut) -> f64 {
    pass.capture
        .as_ref()
        .map_or(0.0, |c| c.reads_total as f64)
        .max(1.0)
}

/// `obs` histograms the cross-check reads, and the batch-op counter.
const OBS_HISTOGRAMS: [&str; 7] = [
    "cluster.sample_latency_ns",
    "cluster.update_latency_ns",
    "pipeline.sample_ns",
    "pipeline.gather_ns",
    "pipeline.train_ns",
    "rpc.server.service_ns",
    "storage.apply_batch_ns",
];

/// The registry's view at one instant: histogram sums in seconds.
struct ObsMark {
    sums: [f64; 7],
    batch_ops: f64,
}

impl ObsMark {
    fn take(env: &Env) -> Self {
        let registry = env.graph.cluster.obs();
        Self {
            sums: OBS_HISTOGRAMS.map(|n| registry.histogram(n).sum_ns() as f64 / 1e9),
            batch_ops: registry.counter("storage.batch_ops").get() as f64,
        }
    }

    /// Seconds `name` accumulated between `self` and `later`.
    fn since(&self, later: &ObsMark, name: &str) -> f64 {
        let i = OBS_HISTOGRAMS
            .iter()
            .position(|n| *n == name)
            .expect("a histogram the cross-check tracks");
        later.sums[i] - self.sums[i]
    }
}

/// Compare bench span sums with what `obs` recorded for the same calls:
/// `a` brackets the untraced pass, `b` the traced one. Returns the largest
/// relative disagreement and notes every pair; a pair more than 15 % apart
/// is flagged by name.
fn obs_cross_check(
    kind: Kind,
    a: (&ObsMark, &ObsMark),
    b: (&ObsMark, &ObsMark),
    totals: &HashMap<&'static str, NameTotals>,
    writes: Option<&WriteLevels>,
    result: &mut RunResult,
) -> f64 {
    let mut pairs: Vec<(&str, f64, f64)> = Vec::new();
    // The cluster's own per-request latency against the service span that
    // wraps the same requests.
    let service = if kind == Kind::SampleRemote {
        total(totals, "server.sample_one")
    } else {
        total(totals, "service.sample_many")
    };
    pairs.push((
        "server: cluster.sample_latency_ns",
        service,
        b.0.since(b.1, "cluster.sample_latency_ns"),
    ));
    match kind {
        Kind::TrainLocal => {
            // The untraced pass ran the real pipeline over the same batches.
            for (pair, span, histogram) in [
                (
                    "pipeline: pipeline.sample_ns",
                    "pipeline.sample_block",
                    "pipeline.sample_ns",
                ),
                (
                    "gnn: pipeline.gather_ns",
                    "gnn.gather",
                    "pipeline.gather_ns",
                ),
                (
                    "gnn: pipeline.train_ns",
                    "gnn.train_step",
                    "pipeline.train_ns",
                ),
            ] {
                pairs.push((pair, total(totals, span), a.0.since(a.1, histogram)));
            }
        }
        Kind::SampleRemote => {
            // Per-frame service time on the server: the wrapped service
            // calls plus what the dispatcher does around them.
            pairs.push((
                "rpc: rpc.server.service_ns",
                total(totals, "server.sample_one"),
                b.0.since(b.1, "rpc.server.service_ns"),
            ));
        }
        Kind::IngestMixed => {
            pairs.push((
                "server: cluster.update_latency_ns",
                total(totals, "service.apply_updates") + total(totals, "service.apply_txn"),
                b.0.since(b.1, "cluster.update_latency_ns"),
            ));
            if let Some(w) = writes {
                // Per-shard apply time summed over shards: the replay's CPU
                // figure against the untraced pass's histogram, both per op.
                let ops = a.1.batch_ops - a.0.batch_ops;
                pairs.push((
                    "storage: storage.apply_batch_ns",
                    w.storage_cpu_ns_per_op * ops / 1e9,
                    a.0.since(a.1, "storage.apply_batch_ns"),
                ));
            }
        }
        Kind::SampleTemporalHub => {}
    }
    let mut worst = 0.0f64;
    for (name, bench, obs) in pairs {
        let d = disagreement(bench, obs);
        worst = worst.max(d);
        let flag = if d > 0.15 {
            "WARNING disagreement > 15%: "
        } else {
            ""
        };
        result.note(format!(
            "{flag}obs cross-check {name}: bench {bench:.4}s vs obs {obs:.4}s ({:.1}%)",
            d * 100.0
        ));
    }
    worst
}

pub fn run_traced(kind: Kind, ctx: &Ctx) -> RunResult {
    let mut result = RunResult::default();
    let slice = ctx.seconds / 3.0;

    // A throwaway set-up and short pass first: the first pass a process
    // runs is slower than its later ones (fresh heap, cold code), which
    // would otherwise read as negative tracing overhead.
    let mut calib = Calibrator::new();
    drop(run_main(
        kind,
        ctx,
        &mut setup(kind, ctx, None, &mut Calibrator::new()),
        None,
        &mut calib,
        Limit::Seconds(slice / 4.0),
    ));

    // Pass A: untraced, time-limited. Its wall clock at this mark is what
    // the traced pass is compared with.
    let mut a = setup(kind, ctx, None, &mut calib);
    let a0 = ObsMark::take(&a);
    let mut pass_a = run_main(kind, ctx, &mut a, None, &mut calib, Limit::Seconds(slice));
    let a1 = ObsMark::take(&a);

    // Pass B: the same steps on a fresh graph, traced.
    let tracer = Tracer::new(1 << 16);
    let mut b = setup(kind, ctx, Some(&tracer), &mut calib);
    let b0 = ObsMark::take(&b);
    let pass_b = run_main(
        kind,
        ctx,
        &mut b,
        Some(&tracer),
        &mut calib,
        Limit::Steps(pass_a.log.steps()),
    );
    let b1 = ObsMark::take(&b);
    let spans = tracer.spans();
    let trace_path = ctx.out_dir.join(format!("{}.trace.jsonl", kind.name()));
    if let Err(e) = tracer.write_jsonl(&trace_path) {
        result.check(false, &format!("writing {}: {e}", trace_path.display()));
    }
    let totals = totals_by_name(&spans);
    let wall_a = pass_a.log.wall_ns as f64 / 1e9;
    let wall_b = pass_b.log.wall_ns as f64 / 1e9;
    // The traced time the ledger divides up is the time under the root
    // ("batch") spans: every call into the system. The driver's own time
    // between calls is reported apart, as `harness.think_share`.
    let traced_s = root_ns(&spans) as f64 / 1e9;

    // Level replays: reads against the traced graph, writes continuing the
    // untraced pass's schedule on its graph.
    let capture = pass_b.capture.as_ref().expect("a traced pass captures");
    let reads = replay_reads(
        &b.graph.cluster,
        &capture.reads,
        b.graph.horizon,
        ctx.sub_seed("replay"),
    );
    let mut gen = pass_a
        .gen
        .take()
        .unwrap_or_else(|| write_gen(ctx, kind.stamped().then_some(a.graph.horizon)));
    let write_levels = (kind == Kind::IngestMixed)
        .then(|| replay_writes(&a.graph.cluster, &mut gen, &mut a.graph.ledger));

    // Probes (they report most per-layer metrics themselves).
    let reads_kept: Vec<_> = capture.reads.iter().take(40_000).copied().collect();
    probes::run_all(
        &mut ProbeEnv {
            ctx,
            reads_on: &b.graph,
            writes_on: &mut a.graph,
            gen: &mut gen,
            reads: &reads_kept,
            levels: &reads,
        },
        &mut result,
    );

    let fenwick_update_ns = result.value("fenwick.update_ns").unwrap_or(0.0);
    let (ledger, replay_scale, write_path_s) = build_ledger(
        kind,
        traced_s,
        &totals,
        &reads,
        write_levels.as_ref(),
        &pass_b,
        fenwick_update_ns,
    );
    for layer in LAYERS {
        result.metric(&format!("ledger.{layer}_share"), ledger.share(layer));
    }
    result.metric("ledger.write_path_share", write_path_s / traced_s);
    result.metric("ledger.coverage_share", ledger.coverage());
    result.metric("ledger.replay_scale", replay_scale);
    let worst = obs_cross_check(
        kind,
        (&a0, &a1),
        (&b0, &b1),
        &totals,
        write_levels.as_ref(),
        &mut result,
    );
    result.metric("ledger.obs_disagreement_share", worst);
    result.note(format!(
        "ledger over {traced_s:.3}s under trace roots ({wall_b:.3}s pass wall): {}",
        ledger
            .rows()
            .iter()
            .map(|(l, s)| format!("{l} {s:.3}s ({:.1}%)", 100.0 * s / traced_s))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    // Counts and shares read off the traced pass.
    let log = &pass_b.log;
    result.metric(
        "pipeline.sample_block_self_ns_per_seed",
        own(&totals, "pipeline.sample_block") * 1e9 / log.seeds.max(1) as f64,
    );
    result.metric(
        "pipeline.cache.hit_share",
        log.cache_served as f64 / log.distinct_sampled.max(1) as f64,
    );
    result.metric(
        "pipeline.cache.stale_evictions_per_batch",
        pass_b.cache.stale_evictions as f64 / log.batch_ns.len().max(1) as f64,
    );
    result.metric(
        "pipeline.dedup_share",
        1.0 - log.distinct_sampled as f64 / log.frontier_slots.max(1) as f64,
    );
    result.metric(
        "pipeline.requests_per_seed",
        log.cluster_requests as f64 / log.seeds.max(1) as f64,
    );
    // Median step time, traced over untraced: the same steps on both sides.
    result.metric(
        "trace.overhead_share",
        median_ns(&pass_b.log.step_ns) / median_ns(&pass_a.log.step_ns) - 1.0,
    );
    result.metric("harness.think_share", pass_a.log.think_share());
    let (p99, max) = batch_tail_ms(&pass_a.log);
    result.metric("batch_ms_p99", p99);
    result.metric("batch_ms_max", max);
    result.metric("traced_seeds_per_s", log.raw_seeds_per_s());

    // Failures across both passes.
    let mut attempted = 0;
    let mut failed = 0;
    for pass in [&pass_a, &pass_b] {
        attempted += pass.log.batch_ns.len() as u64 + pass.log.writes.calls();
        failed += pass.log.degraded_samples
            + pass.log.shape_failures
            + pass.log.writes.failed_calls
            + pass.leaks;
    }
    result.attempted += attempted;
    result.failed += failed;
    result.metric(
        "failed_share",
        result.failed as f64 / result.attempted.max(1) as f64,
    );
    result.check(
        pass_b.log.steps() == pass_a.log.steps(),
        "the traced pass repeated the untraced pass's steps",
    );
    result.note(format!(
        "workload {} seed {} traced: {} steps, untraced {wall_a:.3}s vs traced {wall_b:.3}s, {} spans -> {}",
        kind.name(),
        ctx.seed,
        log.steps(),
        spans.len(),
        trace_path.display()
    ));
    result
}
