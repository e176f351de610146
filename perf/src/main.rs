//! `perf` — the repository's standing benchmark.
//!
//! ```text
//! perf --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
//! perf suite  [--seed <u64>] [--seconds <n>] [--smoke]
//! perf agree  --runs <k> [--seed <u64>] [--seconds <n>] [--smoke]
//! perf catalog | glossary
//! ```
//!
//! A workload run prints every metric by name with its unit and, as the
//! last line of standard output, one JSON object `{correct, attempted,
//! failed, metrics}`. It exits non-zero when an output check failed. See
//! README.md for what each workload and metric is for.

mod agree;
mod calib;
mod catalog;
mod graph;
mod harness;
mod json;
mod ledger;
mod probes;
mod replay;
mod stats;
mod trace;
mod traced;
mod txngen;
mod workloads;

use harness::{Ctx, RunResult};
use std::process::ExitCode;
use workloads::Kind;

/// Parsed command line.
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: catalog::DEFAULT_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        runs: 5,
    };
    let mut seconds_given = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--traced" => args.trace = true,
            "--smoke" => args.smoke = true,
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            cmd if !cmd.starts_with('-') && args.command.is_none() => {
                args.command = Some(cmd.to_string());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if args.smoke && !seconds_given {
        args.seconds = 1.0;
    }
    Ok(args)
}

/// Run one workload in one mode and check it reported what that mode owes.
fn run_workload(kind: Kind, ctx: &Ctx, trace: bool) -> RunResult {
    let mut result = if trace {
        traced::run_traced(kind, ctx)
    } else {
        workloads::run_untraced(kind, ctx)
    };
    let owed: Vec<&str> = if trace {
        catalog::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        catalog::END_TO_END.iter().map(|m| m.name).collect()
    };
    result.require_exactly(&owed);
    result
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx::new(args.seed, args.seconds, args.smoke);
    match (args.command.as_deref(), args.workload.as_deref()) {
        (Some("catalog"), _) => {
            print!("{}", catalog::benchmark_json());
            ExitCode::SUCCESS
        }
        (Some("glossary"), _) => {
            print!("{}", catalog::glossary_markdown());
            ExitCode::SUCCESS
        }
        (Some("agree"), _) => agree::run(args.seed, &args_for_child(&args), args.runs),
        (Some("suite"), _) => {
            let mut ok = true;
            for kind in Kind::ALL {
                for trace in [false, true] {
                    println!("== {} (trace {}) ==", kind.name(), u8::from(trace));
                    let result = run_workload(kind, &ctx, trace);
                    result.print_table();
                    println!("{}", result.json_line());
                    ok &= result.correct();
                }
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (None, Some(name)) => {
            let Some(kind) = Kind::from_name(name) else {
                eprintln!(
                    "perf: unknown workload {name}; one of {:?}",
                    Kind::ALL.map(Kind::name)
                );
                return ExitCode::from(2);
            };
            let result = run_workload(kind, &ctx, args.trace);
            result.print_table();
            println!("{}", result.json_line());
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("perf: give --workload <name>, or one of: suite, agree, catalog, glossary");
            ExitCode::from(2)
        }
    }
}

/// The flags `perf agree` passes on to each child run.
fn args_for_child(args: &Args) -> Vec<String> {
    let mut out = vec!["--seconds".to_string(), args.seconds.to_string()];
    if args.smoke {
        out.push("--smoke".to_string());
    }
    out
}
