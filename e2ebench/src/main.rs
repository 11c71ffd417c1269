//! svckit end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload solutions|scale_soak|analyze|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced (`--trace 0`): times the workload for `S` seconds, checks every
//! output, and prints the end-to-end metrics. Traced (`--trace 1`): runs
//! the workload once untraced and once taken apart into its public calls,
//! each inside a host-time span, and prints the per-layer metrics; the
//! spans are written to `e2ebench/out/trace_<workload>.json` (Perfetto).
//! The last line of standard output is the JSON result. `--workload all`
//! runs the three workloads in one process, where a workload's
//! `peak_rss_mb` is the process's peak so far. `--record` rewrites the
//! expectations under `e2ebench/expect/` from this build.
//! See `NOTES.md` for the workloads and metrics.

mod analyze;
mod report;
mod soak;
mod solutions;
mod spans;
mod stats;

use std::process::ExitCode;

use report::{metrics_json, result_line, Outcome, END_TO_END, PER_LAYER};
use spans::Tracer;

/// The seed the `solutions` expectations are recorded at.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claim on unseen inputs.
pub const HELD_OUT_SEED: u64 = 7;

const WORKLOADS: [&str; 3] = ["solutions", "scale_soak", "analyze"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.record && args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload expects one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn out_dir(sub: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(sub)
}

/// Runs one workload, untraced or traced.
fn run_workload(name: &str, args: &Args) -> Outcome {
    if !args.trace {
        return match name {
            "solutions" => solutions::run(args.seed, args.seconds),
            "scale_soak" => soak::run(args.seconds),
            _ => analyze::run(args.seconds),
        };
    }
    let mut tracer = Tracer::new();
    let mut outcome = match name {
        "solutions" => solutions::run_traced(args.seed, &mut tracer),
        "scale_soak" => soak::run_traced(&mut tracer),
        _ => analyze::run_traced(&mut tracer),
    };
    let self_times = tracer.self_times();
    let total: f64 = self_times.values().sum();
    for (layer, secs) in &self_times {
        outcome.set(&format!("{layer}.self_s"), *secs);
    }
    let traced = outcome
        .values
        .get("bench.traced_wall_s")
        .copied()
        .unwrap_or(0.0);
    let untraced = outcome
        .values
        .get("bench.untraced_wall_s")
        .copied()
        .unwrap_or(0.0);
    outcome.set(
        "bench.trace_overhead_pct",
        100.0 * (traced - untraced) / untraced,
    );
    outcome.set("bench.spans", tracer.span_count() as f64);
    let layers: Vec<String> = self_times
        .iter()
        .map(|(layer, secs)| format!("{layer} {secs:.4}"))
        .collect();
    outcome.line(format!(
        "self time by layer (s): {}; sum {total:.4} s of {:.4} s traced wall time",
        layers.join(", "),
        tracer.root_secs()
    ));
    outcome.line(format!(
        "trace overhead: traced {traced:.4} s vs untraced {untraced:.4} s of the same work"
    ));
    let dir = out_dir("out");
    let path = dir.join(format!("trace_{name}.json"));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_chrome_json()))
    {
        Ok(()) => outcome.line(format!("spans written to {}", path.display())),
        Err(err) => outcome.check(false, || format!("cannot write {}: {err}", path.display())),
    }
    outcome
}

fn print_outcome(name: &str, outcome: &Outcome, catalogue: &[(&str, &str)]) {
    println!("== {name}");
    for line in &outcome.lines {
        println!("{line}");
    }
    for (metric, unit) in catalogue {
        let value = outcome.values.get(*metric).copied().unwrap_or(0.0);
        println!("{name:<11} {metric:<32} {value:>16.6} {unit}");
    }
    println!(
        "{name:<11} {:<32} {:>16.6} ratio ({} failed of {} attempted)",
        "fail_frac",
        outcome.fail_frac(),
        outcome.failed,
        outcome.attempted
    );
}

/// Rewrites the expectation files from this build.
fn record() -> std::io::Result<()> {
    let dir = out_dir("expect");
    let cells = solutions::grid(DEFAULT_SEED);
    let outcomes: Vec<_> = cells.iter().map(|c| c.run()).collect();
    std::fs::write(
        dir.join("solutions_seed1.txt"),
        solutions::expectation_file(&cells, &outcomes),
    )?;
    std::fs::write(dir.join("scale_soak.json"), soak::expectation() + "\n")?;
    std::fs::write(dir.join("analyze_diag.json"), analyze::expectation() + "\n")?;
    println!("recorded expectations in {}", dir.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!(
                "usage: e2ebench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] | --record",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.record {
        return match record() {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("error: cannot record expectations: {err}");
                ExitCode::FAILURE
            }
        };
    }

    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for name in &names {
        let outcome = run_workload(name, &args);
        print_outcome(name, &outcome, catalogue);
        attempted += outcome.attempted;
        failed += outcome.failed;
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        metrics_json(&outcome, catalogue, &prefix, &mut metrics);
    }
    println!("{}", result_line(attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
