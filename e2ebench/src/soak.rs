//! `scale_soak`: the 100k-client soak on the netsim core alone.
//!
//! `run_scale_soak(&ScaleConfig::default())` builds a simulator with
//! 100 000 clients and 4 servers, runs it to quiescence and drops it, all
//! in one call. Its `wall_secs` is the run phase; the rest of the call
//! (building the 100k-process table and tearing it down) is the set-up.
//! Perfect links and an exhaustive schedule: the soak draws no randomness,
//! so the benchmark seed does not change it.

use std::hint::black_box;
use std::time::Instant;

use svckit_bench::scale::{run_scale_soak, ScaleConfig, ScaleOutcome};

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{mean, median, peak_rss_mb, percentile, Budget};

/// Soak runs per run, at least.
const MIN_RUNS: usize = 3;

/// The canonical virtual-time JSON of the default soak.
const EXPECT: &str = include_str!("../expect/scale_soak.json");

/// One timed call: (call seconds, outcome).
fn call() -> (f64, ScaleOutcome) {
    let t = Instant::now();
    let outcome = black_box(run_scale_soak(&ScaleConfig::default()));
    (t.elapsed().as_secs_f64(), outcome)
}

fn check(out: &mut Outcome, outcome: &ScaleOutcome) {
    let json = outcome.to_canonical_json();
    out.check(json.trim() == EXPECT.trim(), || {
        format!("scale soak canonical JSON differs from the recorded one:\n{json}")
    });
}

/// The canonical JSON to record as the expectation.
pub fn expectation() -> String {
    call().1.to_canonical_json()
}

/// Untraced run: soak calls back to back until `seconds` have elapsed.
pub fn run(seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let budget = Budget::new(seconds, MIN_RUNS);
    let (mut setups, mut walls, mut calls) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = 0.0;
    let mut events = 0;
    while budget.more(&calls) {
        let (secs, outcome) = call();
        check(&mut out, &outcome);
        setups.push(secs - outcome.wall_secs);
        walls.push(outcome.wall_secs);
        calls.push(secs);
        if calls.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        events = outcome.events;
    }
    let calls_ms: Vec<f64> = calls.iter().map(|s| s * 1e3).collect();
    let wall = mean(&walls);
    out.set("setup_s", median(&setups));
    out.set("wall_s", wall);
    out.set(
        "cells_per_s",
        calls.len() as f64 / calls.iter().sum::<f64>(),
    );
    out.set("cell_p50_ms", percentile(&calls_ms, 50.0));
    out.set("cell_p99_ms", percentile(&calls_ms, 99.0));
    out.set("peak_rss_mb", peak_rss);
    out.line(format!(
        "scale_soak: {} soak runs (a cell is one soak call: build, run, drop); \
         sim_events_per_s = {events} events / {wall:.4} s = {:.0} 1/s (seed ignored)",
        walls.len(),
        events as f64 / wall
    ));
    let walls: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    out.line(format!("run phases (s): {}", walls.join(" ")));
    out
}

/// Traced run: an untraced call, a traced call whose build and run phases
/// become `netsim` spans, and another untraced call whose counts must
/// agree exactly with the traced one; the two untraced calls are the
/// overhead base.
pub fn run_traced(tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (untraced_wall, first) = call();
    check(&mut out, &first);

    let root = tracer.begin("bench.traced_run", 0);
    let start = tracer.now();
    let traced = black_box(run_scale_soak(&ScaleConfig::default()));
    let end = tracer.now();
    let run_ns = (traced.wall_secs * 1e9) as u64;
    tracer.record("netsim.build", 0, start, end.saturating_sub(run_ns));
    tracer.record("netsim.run", 0, end.saturating_sub(run_ns), end);
    tracer.end(root);
    check(&mut out, &traced);

    // The exact-count repeat runs untraced, after the traced call, so the
    // untraced-traced-untraced order cancels a linear drift.
    let (repeat_secs, repeat) = call();
    check(&mut out, &repeat);
    let counts = |o: &ScaleOutcome| {
        (
            o.events,
            o.messages_sent,
            o.messages_delivered,
            o.peak_pending,
            o.end_us,
        )
    };
    out.check(counts(&traced) == counts(&repeat), || {
        format!(
            "soak counts differ between two runs: {:?} vs {:?}",
            counts(&traced),
            counts(&repeat)
        )
    });

    let run_s = tracer.total("netsim.run");
    out.set("netsim.build_s", tracer.total("netsim.build"));
    out.set("netsim.run_s", run_s);
    out.set("netsim.events", traced.events as f64);
    out.set(
        "netsim.ns_per_event",
        run_s * 1e9 / traced.events.max(1) as f64,
    );
    out.set("netsim.peak_pending", traced.peak_pending as f64);
    out.set("netsim.msgs_sent", traced.messages_sent as f64);
    out.set("netsim.msgs_delivered", traced.messages_delivered as f64);
    out.set(
        "netsim.delivered_frac",
        traced.messages_delivered as f64 / traced.messages_sent.max(1) as f64,
    );
    out.set("bench.traced_wall_s", tracer.span(root).secs());
    out.set("bench.untraced_wall_s", (untraced_wall + repeat_secs) / 2.0);
    out.line(format!(
        "scale_soak traced: {} events, peak {} pending, {} of {} messages delivered",
        traced.events, traced.peak_pending, traced.messages_delivered, traced.messages_sent
    ));
    out
}
