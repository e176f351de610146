//! `perf agree --runs k`: run every workload `k` times as child processes,
//! each with its own seed, and judge each end-to-end metric's run-to-run spread against its bound.
//! This is how the bounds in the catalog were chosen and how "two sets of
//! runs agree" is shown.

use crate::catalog;
use crate::json::{self, Value};
use crate::stats;
use crate::workloads::Kind;
use std::process::{Command, ExitCode};

/// Run this binary once on one workload and parse its result line.
fn child_run(kind: Kind, seed: u64, passthrough: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", kind.name(), "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(passthrough)
        .output()
        .map_err(|e| format!("spawning a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("child printed nothing (status {})", output.status))?;
    json::parse(last).map_err(|e| format!("child result line: {e}"))
}

/// One metric's verdict over `k` runs.
struct Verdict {
    median: f64,
    quartiles: [f64; 3],
    spread: f64,
}

fn judge(values: &[f64]) -> Verdict {
    Verdict {
        median: stats::median(values),
        quartiles: stats::quartiles(values),
        spread: stats::relative_spread(values),
    }
}

/// Run `k` gets seed `base_seed + k`: the contract judges spread across
/// seeds, so input variation counts toward it.
pub fn run(base_seed: u64, passthrough: &[String], runs: usize) -> ExitCode {
    if runs < 2 {
        eprintln!("perf agree: --runs must be at least 2");
        return ExitCode::from(2);
    }
    println!(
        "seeds {base_seed}..{}; held-out seed {} is never run here",
        base_seed + runs as u64 - 1,
        catalog::HELD_OUT_SEED
    );
    let mut unresolved = 0;
    let mut failures = 0;
    for kind in Kind::ALL {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); catalog::END_TO_END.len()];
        for run in 0..runs {
            match child_run(kind, base_seed + run as u64, passthrough) {
                Ok(result) => {
                    if result.get("correct").and_then(Value::as_bool) != Some(true) {
                        failures += 1;
                        eprintln!("{} run {run}: incorrect result", kind.name());
                    }
                    for (slot, metric) in samples.iter_mut().zip(&catalog::END_TO_END) {
                        match result
                            .get("metrics")
                            .and_then(|m| m.get(metric.name))
                            .and_then(|m| m.get("value"))
                            .and_then(Value::as_f64)
                        {
                            Some(v) => slot.push(v),
                            None => failures += 1,
                        }
                    }
                }
                Err(e) => {
                    failures += 1;
                    eprintln!("{} run {run}: {e}", kind.name());
                }
            }
        }
        println!("== {} ({runs} runs) ==", kind.name());
        println!(
            "{:<26} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for (values, metric) in samples.iter().zip(&catalog::END_TO_END) {
            if values.len() < 2 {
                continue;
            }
            let v = judge(values);
            // `setup_s` is exempt from the spread rule (its median is still
            // compared between sets), so it is reported but never unresolved.
            let verdict = if v.spread <= metric.bound / 3.0 {
                "steady"
            } else if v.spread <= metric.bound || metric.name == "setup_s" {
                "within bound"
            } else {
                unresolved += 1;
                "unresolved"
            };
            println!(
                "{:<26} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>6.2}  {verdict}",
                metric.name, v.quartiles[0], v.median, v.quartiles[2], v.spread, metric.bound
            );
        }
    }
    if failures > 0 || unresolved > 0 {
        println!("{failures} failed runs or missing metrics, {unresolved} unresolved metrics");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_reports_median_quartiles_and_relative_spread() {
        let v = judge(&[10.0, 11.0, 9.0, 10.5, 9.5]);
        assert_eq!(v.median, 10.0);
        assert_eq!(v.quartiles, [9.25, 10.0, 10.75]);
        assert!((v.spread - 0.15).abs() < 1e-12);
    }
}
