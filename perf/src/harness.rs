//! Shared run plumbing: the run context, the result a run prints, phase
//! timing, the write rounds every workload carries, and the output checks.

use crate::calib::{now_ns, Calibrator};
use crate::catalog;
use crate::graph::{self, Scale, ETYPE, FANOUTS, WRITE_BATCH};
use crate::json;
use crate::stats;
use crate::trace::Tracer;
use crate::txngen::{EdgeLedger, WriteGen};
use platod2gl::{Cluster, GraphService, GraphStore, SampleOutcome};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured interval.
    pub seconds: f64,
    pub smoke: bool,
    pub scale: Scale,
    /// Where traces and the durable-store scratch directories go: inside the
    /// checkout, under the build directory.
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, smoke: bool) -> Self {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("perf/target"));
        Self {
            seed,
            seconds,
            smoke,
            scale: if smoke { Scale::SMOKE } else { Scale::FULL },
            out_dir: target.join("perf-out"),
        }
    }

    /// A fresh scratch directory for a durable store.
    pub fn scratch_dir(&self, tag: &str) -> PathBuf {
        self.out_dir
            .join(format!("scratch-{}-{tag}", std::process::id()))
    }

    pub fn sub_seed(&self, tag: &str) -> u64 {
        graph::sub_seed(self.seed, tag)
    }
}

/// The result of one run: what the last stdout line reports.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable findings printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn metric(&mut self, name: &str, value: f64) {
        let unit = catalog::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(catalog::PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map(|(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        assert!(
            !self.metrics.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        if !value.is_finite() {
            self.check(false, &format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    }

    /// Record one output check; a failed one counts as a failed operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Confirm the run reported exactly the metrics its mode owes.
    pub fn require_exactly(&mut self, names: &[&str]) {
        for name in names {
            if self.value(name).is_none() {
                self.check(false, &format!("metric {name} was not reported"));
                self.metrics.push((name.to_string(), 0.0, "count"));
            }
        }
        let extra: Vec<String> = self
            .metrics
            .iter()
            .filter(|(n, _, _)| !names.contains(&n.as_str()))
            .map(|(n, _, _)| n.clone())
            .collect();
        for name in extra {
            self.check(
                false,
                &format!("metric {name} does not belong to this mode"),
            );
        }
    }

    /// Every metric by name with its unit, one per line.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<44} {value:>18.6} {unit}");
        }
        for note in &self.notes {
            println!("# {note}");
        }
    }

    /// The contract's result object, on one line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    value,
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `setup` `reps` times, dropping all but the last result before the
/// next repetition so peak memory stays that of one set-up. Returns the
/// last environment and the median set-up time in seconds, each repetition
/// taken at nominal host speed (set-up ticks the calibrator as it loads).
pub fn repeat_setup<T>(
    reps: usize,
    calib: &mut Calibrator,
    mut setup: impl FnMut(&mut Calibrator) -> T,
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (from, t) = (now_ns(), Instant::now());
        last = Some(setup(calib));
        let raw = t.elapsed().as_secs_f64();
        times.push(raw / calib.slowdown_between(from, now_ns()));
    }
    (
        last.expect("at least one repetition"),
        stats::median(&times),
    )
}

/// How long a phase runs.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// Until this much wall time has passed (checked between steps).
    Seconds(f64),
    /// Exactly this many steps: the traced pass repeats the untraced one.
    Steps(u64),
    /// `warm_steps` steps that are run but not measured, then `seconds` of
    /// measured ones: the same reader, cache, model and write generator
    /// carry on from the warm-up into the measurement.
    Warmed { warm_steps: u64, seconds: f64 },
}

/// Timing of one phase of calls into the system.
#[derive(Default)]
pub struct PhaseLog {
    /// Wall time of each read mini-batch call, and when it completed
    /// ([`now_ns`]).
    pub batch_ns: Vec<u64>,
    pub batch_at: Vec<u64>,
    /// Time inside every call into the system (reads and writes).
    pub busy_ns: u64,
    /// The same, per step (one mini-batch, or one `ingest_mixed` round).
    pub step_ns: Vec<u64>,
    pub step_at: Vec<u64>,
    pub wall_ns: u64,
    pub seeds: u64,
    pub degraded_samples: u64,
    pub shape_failures: u64,
    pub distinct_sampled: u64,
    pub cluster_requests: u64,
    pub cache_served: u64,
    pub frontier_slots: u64,
    /// Write calls made inside steps (`ingest_mixed` rounds).
    pub writes: WriteLog,
    /// Calls into the system made by warm-up steps: attempted, not timed.
    pub warm_calls: u64,
}

impl PhaseLog {
    /// Time one read mini-batch call and fold its outcome in.
    pub fn timed_block(
        &mut self,
        seeds: usize,
        f: impl FnOnce() -> SampleOutcome,
    ) -> SampleOutcome {
        let t = Instant::now();
        let out = f();
        self.batch(t.elapsed());
        self.seeds += seeds as u64;
        self.block_outcome(&out);
        out
    }

    pub fn batch(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.batch_ns.push(ns);
        self.batch_at.push(now_ns());
        self.busy_ns += ns;
    }

    /// Fold a sampled block's accounting in and check its shape.
    pub fn block_outcome(&mut self, out: &SampleOutcome) {
        self.degraded_samples += out.degraded_samples;
        self.distinct_sampled += out.distinct_sampled;
        self.cluster_requests += out.cluster_requests;
        self.cache_served += out.cache_served;
        self.frontier_slots += out.levels[..out.levels.len() - 1]
            .iter()
            .map(|l| l.len() as u64)
            .sum::<u64>();
        if !block_shape_ok(out) {
            self.shape_failures += 1;
        }
    }

    /// Seeds per step over the steady median time a step spends inside the
    /// system (see [`steady`]).
    pub fn seeds_per_s(&self, calib: &Calibrator) -> f64 {
        let seeds_per_step = self.seeds as f64 / self.steps().max(1) as f64;
        seeds_per_step / (steady(&self.step_ns, &self.step_at, calib, 0.5) / 1e3)
    }

    /// The same from the raw median, host speed not taken out.
    pub fn raw_seeds_per_s(&self) -> f64 {
        let seeds_per_step = self.seeds as f64 / self.steps().max(1) as f64;
        seeds_per_step / (median_ns(&self.step_ns) / 1e9)
    }

    /// Steps run so far.
    pub fn steps(&self) -> u64 {
        self.step_ns.len() as u64
    }

    pub fn think_share(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        1.0 - (self.busy_ns as f64 / self.wall_ns as f64).min(1.0)
    }
}

/// `levels[d + 1].len() == levels[d].len() * fanout[d]` for every hop.
pub fn block_shape_ok(out: &SampleOutcome) -> bool {
    out.levels.len() == FANOUTS.len() + 1
        && FANOUTS
            .iter()
            .enumerate()
            .all(|(d, f)| out.levels[d + 1].len() == out.levels[d].len() * f)
}

/// Drive `step(i, log)` until the limit, stamping wall time and step count;
/// the calibrator gets its turn between steps. Warm-up steps go into a log
/// of their own that is dropped: only their failures and call count are
/// kept, so a failure there still fails the run.
pub fn run_phase(
    limit: Limit,
    log: &mut PhaseLog,
    calib: &mut Calibrator,
    mut step: impl FnMut(u64, &mut PhaseLog),
) {
    let mut i = 0u64;
    if let Limit::Warmed { warm_steps, .. } = limit {
        let mut warm = PhaseLog::default();
        while i < warm_steps {
            step(i, &mut warm);
            calib.tick();
            i += 1;
        }
        log.warm_calls += warm.batch_ns.len() as u64 + warm.writes.calls();
        log.degraded_samples += warm.degraded_samples;
        log.shape_failures += warm.shape_failures;
        log.writes.failed_calls += warm.writes.failed_calls;
    }
    let started = Instant::now();
    let first = i;
    loop {
        let more = match limit {
            Limit::Seconds(s) | Limit::Warmed { seconds: s, .. } => {
                started.elapsed().as_secs_f64() < s
            }
            Limit::Steps(k) => i - first < k,
        };
        if !more {
            break;
        }
        let busy_before = log.busy_ns;
        step(i, log);
        log.step_ns.push(log.busy_ns - busy_before);
        log.step_at.push(now_ns());
        calib.tick();
        i += 1;
    }
    log.wall_ns += started.elapsed().as_nanos() as u64;
}

/// Median of nanosecond samples, as a float.
pub fn median_ns(ns: &[u64]) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    stats::median(&v)
}

/// Samples per window for [`steady`]: the fewest whose nearest-rank p95 is
/// not their maximum.
const WINDOW: usize = 20;

/// A quantile of call times in milliseconds that holds still on a host that
/// does not. The samples (durations `ns`, completion times `at`, in issue
/// order) are cut into as many consecutive windows of 20 as they fill; each
/// window's durations are divided by how much slower than nominal the host
/// ran during that window ([`Calibrator::slowdown_between`]), the `q`
/// quantile is taken per window, and the lower-quartile window is reported.
/// Slow drift is taken out by the division. A burst from a neighbour spoils
/// the windows it falls in, and more so than the division shows when the
/// call runs on both cores (the per-shard apply threads) and the calibration
/// kernel on one. Interference only ever adds time, so the lower quartile
/// over windows holds still with up to three windows in four spoiled, where
/// the median let `write_ms_p95` spread 20 % under a neighbour busy a third
/// of the time; a change to the program moves every window. A stall of the
/// program's own that lasts a few calls (a table growing) is passed by
/// the same way: the raw p99 and maximum are per-layer metrics.
pub fn steady(ns: &[u64], at: &[u64], calib: &Calibrator, q: f64) -> f64 {
    assert!(
        !ns.is_empty() && ns.len() == at.len(),
        "one timestamp per sample"
    );
    let windows = (ns.len() / WINDOW).max(1);
    let mut per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let (lo, hi) = (w * ns.len() / windows, (w + 1) * ns.len() / windows);
            // A window starts when the sample before it completed.
            let from = if lo == 0 {
                at[0].saturating_sub(ns[0])
            } else {
                at[lo - 1]
            };
            let slowdown = calib.slowdown_between(from, at[hi - 1]);
            stats::percentile(&stats::sorted_ms(&ns[lo..hi]), q) / slowdown
        })
        .collect();
    per_window.sort_by(f64::total_cmp);
    stats::percentile(&per_window, 0.25)
}

/// Timing and outcome of write rounds.
#[derive(Default)]
pub struct WriteLog {
    pub update_call_ns: Vec<u64>,
    pub update_at: Vec<u64>,
    pub txn_call_ns: Vec<u64>,
    pub txn_at: Vec<u64>,
    pub update_ops: u64,
    pub txn_ops: u64,
    /// Batches rejected, errored, partially applied or queued.
    pub failed_calls: u64,
}

impl WriteLog {
    pub fn calls(&self) -> u64 {
        (self.update_call_ns.len() + self.txn_call_ns.len()) as u64
    }

    /// Ops per call over the steady median call time (see [`steady`]).
    pub fn update_ops_per_s(&self, calib: &Calibrator) -> f64 {
        let per_call = self.update_ops as f64 / self.update_call_ns.len().max(1) as f64;
        per_call / (steady(&self.update_call_ns, &self.update_at, calib, 0.5) / 1e3)
    }

    pub fn txn_ops_per_s(&self, calib: &Calibrator) -> f64 {
        let per_call = self.txn_ops as f64 / self.txn_call_ns.len().max(1) as f64;
        per_call / (steady(&self.txn_call_ns, &self.txn_at, calib, 0.5) / 1e3)
    }

    pub fn write_ms_p95(&self, calib: &Calibrator) -> f64 {
        steady(&self.update_call_ns, &self.update_at, calib, 0.95)
    }
}

/// One write round: a 4 096-op `apply_updates` batch, then a 4 096-op
/// `apply_txn` that is valid by construction. The ledger follows both. When
/// traced, each call gets its own root span, so generating the ops and
/// mirroring them into the ledger stays outside the traced time. Returns
/// the time spent inside the two calls.
pub fn write_round<S: GraphService + ?Sized>(
    svc: &S,
    tracer: Option<&Tracer>,
    gen: &mut WriteGen,
    ledger: &mut EdgeLedger,
    log: &mut WriteLog,
) -> u64 {
    let batch = gen.update_batch(WRITE_BATCH);
    let t = Instant::now();
    let outcome = {
        let _root = tracer.map(|t| t.enter("batch"));
        svc.apply_updates(&batch)
    };
    let update_ns = t.elapsed().as_nanos() as u64;
    log.update_call_ns.push(update_ns);
    log.update_at.push(now_ns());
    log.update_ops += batch.len() as u64;
    match outcome {
        Ok(report) if report.applied_ops == batch.len() && report.queued_ops == 0 => {}
        _ => log.failed_calls += 1,
    }
    batch.iter().for_each(|op| ledger.apply_update(op));

    let txn = gen.valid_txn(WRITE_BATCH, ledger);
    let t = Instant::now();
    let outcome = {
        let _root = tracer.map(|t| t.enter("batch"));
        svc.apply_txn(&txn)
    };
    let txn_ns = t.elapsed().as_nanos() as u64;
    log.txn_call_ns.push(txn_ns);
    log.txn_at.push(now_ns());
    log.txn_ops += txn.len() as u64;
    match outcome {
        Ok(receipt) if !receipt.deduped && receipt.ops_applied == txn.len() as u64 => {
            ledger.apply_txn(&txn);
        }
        _ => log.failed_calls += 1,
    }
    update_ns + txn_ns
}

/// After writes: the store's edge count equals the bench-side ledger and
/// every samtree still satisfies its invariants.
pub fn check_store_against_ledger(cluster: &Cluster, ledger: &EdgeLedger, result: &mut RunResult) {
    result.check(
        cluster.num_edges() == ledger.len(),
        &format!(
            "edge count {} equals the bench-side ledger {}",
            cluster.num_edges(),
            ledger.len()
        ),
    );
    for server in cluster.servers() {
        let verdict = server.topology().check_invariants();
        result.check(
            verdict.is_ok(),
            &format!(
                "samtree invariants on shard {}: {verdict:?}",
                server.shard_id()
            ),
        );
    }
}

/// Steady p50 and p95 of the read mini-batch calls, in milliseconds.
pub fn steady_batch_ms(log: &PhaseLog, calib: &Calibrator) -> (f64, f64) {
    (
        steady(&log.batch_ns, &log.batch_at, calib, 0.50),
        steady(&log.batch_ns, &log.batch_at, calib, 0.95),
    )
}

/// Raw p99 and maximum of the read mini-batch calls, in milliseconds.
pub fn batch_tail_ms(log: &PhaseLog) -> (f64, f64) {
    let ms = stats::sorted_ms(&log.batch_ns);
    (
        stats::percentile(&ms, 0.99),
        *ms.last().expect("at least one batch"),
    )
}

/// A k-hop sampler with the benchmark's fixed shape.
pub fn sampler() -> platod2gl::KHopSampler {
    platod2gl::KHopSampler::new(ETYPE, FANOUTS.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples of the given durations in milliseconds, issued back to back.
    fn back_to_back(ms: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let ns: Vec<u64> = ms.iter().map(|m| m * 1_000_000).collect();
        let at = ns
            .iter()
            .scan(0, |t, d| {
                *t += d;
                Some(*t)
            })
            .collect();
        (ns, at)
    }

    #[test]
    fn steady_passes_by_spoiled_windows() {
        // Four windows of 20; a burst makes two of them five times slower.
        let mut ms = vec![2; 80];
        ms[20..60].fill(10);
        let (ns, at) = back_to_back(&ms);
        let calib = Calibrator::new();
        assert_eq!(steady(&ns, &at, &calib, 0.5), 2.0);
        assert_eq!(steady(&ns, &at, &calib, 0.95), 2.0);
        // Fewer samples than one window still give a figure.
        assert_eq!(steady(&ns[..5], &at[..5], &calib, 0.95), 2.0);
    }

    #[test]
    fn steady_sees_a_tail_every_window_has() {
        // Two slow calls in every 20: the nearest-rank p95 is the 19th.
        let ms: Vec<u64> = (0..100).map(|i| if i % 10 == 0 { 9 } else { 3 }).collect();
        let (ns, at) = back_to_back(&ms);
        let calib = Calibrator::new();
        assert_eq!(steady(&ns, &at, &calib, 0.5), 3.0);
        assert_eq!(steady(&ns, &at, &calib, 0.95), 9.0);
    }

    #[test]
    fn warm_steps_are_run_but_not_measured() {
        let mut log = PhaseLog::default();
        let mut seen = Vec::new();
        run_phase(
            Limit::Warmed {
                warm_steps: 3,
                seconds: 0.0,
            },
            &mut log,
            &mut Calibrator::new(),
            |i, log| {
                seen.push(i);
                log.batch(Duration::from_nanos(1));
                log.shape_failures += 1;
            },
        );
        assert_eq!(seen, [0, 1, 2]);
        assert_eq!((log.steps(), log.batch_ns.len()), (0, 0));
        assert_eq!((log.warm_calls, log.shape_failures), (3, 3));

        let mut log = PhaseLog::default();
        run_phase(
            Limit::Steps(2),
            &mut log,
            &mut Calibrator::new(),
            |_, log| {
                log.batch(Duration::from_nanos(1));
            },
        );
        assert_eq!((log.steps(), log.warm_calls), (2, 0));
    }
}
