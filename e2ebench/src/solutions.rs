//! `solutions`: the Figure 4/6 floor-control solutions, run back to back.
//!
//! One thread calls `run_solution_with` over a 1500-cell grid: the
//! seven solutions at 4×2×5 and 16×4×10 (subscribers × resources × rounds)
//! on a LAN link, plus `ProtoCallback` with a stop-and-wait reliability
//! sub-layer on a LAN link with 5 % loss and 2 % duplication — 15 cells per
//! seed, 100 seeds derived from the benchmark seed. The order is the sweep
//! harness's (variation → solution → seed), so the traced run can replay
//! the same grid through `run_sweep` and compare cell by cell.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use svckit::codec::PduRegistry;
use svckit::floorctl::{
    floor_control_service, mw, proto, FloorMetrics, RunOptions, RunOutcome, RunParams, Solution,
};
use svckit::middleware::{AdmissionGate, Compiled, Engine, MwSystem, ADMISSION_BOUND};
use svckit::model::conformance::{check_trace, CheckOptions};
use svckit::model::{Duration, Value, ValueType};
use svckit::netsim::{LinkConfig, SimReport};
use svckit::protocol::{ReliabilityConfig, Stack};
use svckit_sweep::{run_sweep, SweepSpec};

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{mean, median, peak_rss_mb, percentile, splitmix64, timed, Budget};

/// Seeds derived from the benchmark seed; each runs all 15 cell shapes.
const SEEDS_PER_RUN: u64 = 100;
/// Timed passes over the grid, at least.
const MIN_PASSES: usize = 3;
/// The slice length `run_solution_with` drives deployments with.
const SLICE: Duration = Duration::from_millis(250);

/// Per-cell expectations at the default seed: `index label seed grants
/// transport_messages end_us trace_len`.
const EXPECT: &str = include_str!("../expect/solutions_seed1.txt");

/// One cell of the grid.
#[derive(Clone)]
pub struct Cell {
    pub solution: Solution,
    pub variation: &'static str,
    pub seed: u64,
    pub params: RunParams,
    pub options: RunOptions,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{}", self.solution, self.variation)
    }

    pub fn run(&self) -> RunOutcome {
        svckit::floorctl::run_solution_with(self.solution, &self.params, &self.options)
    }
}

/// The virtual-time facts of a cell's outcome that the expectation pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    grants: u64,
    transport_messages: u64,
    end_us: u64,
    trace_len: u64,
}

impl Digest {
    fn of(outcome: &RunOutcome) -> Digest {
        Digest {
            grants: outcome.floor.grants(),
            transport_messages: outcome.transport_messages,
            end_us: outcome.end_time.as_micros(),
            trace_len: outcome.trace.len() as u64,
        }
    }
}

fn shape(subscribers: u64, resources: u64, rounds: u32) -> RunParams {
    RunParams::default()
        .subscribers(subscribers)
        .resources(resources)
        .rounds(rounds)
        .link(LinkConfig::lan())
}

fn lossy_link() -> LinkConfig {
    LinkConfig::lan().with_loss(0.05).with_duplication(0.02)
}

fn reliability() -> ReliabilityConfig {
    ReliabilityConfig::new(Duration::from_millis(8))
}

/// The 100 cell seeds of a benchmark seed.
fn cell_seeds(seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..SEEDS_PER_RUN).map(|_| splitmix64(&mut state)).collect()
}

/// The two sweep specs that expand to exactly [`grid`]'s cells, in order.
fn sweep_specs(seed: u64) -> [SweepSpec; 2] {
    let seeds = cell_seeds(seed);
    let lan = SweepSpec::new("bench-solutions-lan")
        .solutions(Solution::ALL)
        .variation("lan-4x2x5", shape(4, 2, 5))
        .variation("lan-16x4x10", shape(16, 4, 10))
        .seeds(seeds.iter().copied());
    let lossy = SweepSpec::new("bench-solutions-lossy")
        .solutions([Solution::ProtoCallback])
        .variation_with_reliability(
            "lossy-16x4x10",
            shape(16, 4, 10).link(lossy_link()),
            reliability(),
        )
        .seeds(seeds);
    [lan, lossy]
}

/// Expands the grid for a benchmark seed.
pub fn grid(seed: u64) -> Vec<Cell> {
    let seeds = cell_seeds(seed);
    let mut cells = Vec::with_capacity(15 * seeds.len());
    for (variation, params) in [
        ("lan-4x2x5", shape(4, 2, 5)),
        ("lan-16x4x10", shape(16, 4, 10)),
    ] {
        for solution in Solution::ALL {
            for &s in &seeds {
                cells.push(Cell {
                    solution,
                    variation,
                    seed: s,
                    params: params.clone().seed(s),
                    options: RunOptions::default(),
                });
            }
        }
    }
    let lossy = shape(16, 4, 10).link(lossy_link());
    for &s in &seeds {
        cells.push(Cell {
            solution: Solution::ProtoCallback,
            variation: "lossy-16x4x10",
            seed: s,
            params: lossy.clone().seed(s),
            options: RunOptions {
                reliability: Some(reliability()),
                faults: Vec::new(),
            },
        });
    }
    cells
}

/// Set-up: expand the grid, then run the first seed's cell of every
/// shape once so lazily built state (the compiled admission tables, the
/// allocator's pools) exists before timing.
fn setup(seed: u64) -> Vec<Cell> {
    let cells = grid(seed);
    for group in cells.chunks(SEEDS_PER_RUN as usize) {
        black_box(group[0].run());
    }
    cells
}

fn expectations() -> Vec<Digest> {
    EXPECT
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 7, "expectation line {i}: {line}");
            assert_eq!(f[0].parse::<usize>().ok(), Some(i), "expectation index");
            let num = |k: usize| f[k].parse::<u64>().expect("numeric expectation field");
            Digest {
                grants: num(3),
                transport_messages: num(4),
                end_us: num(5),
                trace_len: num(6),
            }
        })
        .collect()
}

/// The expectation file's contents for `cells` and their outcomes.
pub fn expectation_file(cells: &[Cell], outcomes: &[RunOutcome]) -> String {
    let mut out = String::from(
        "# solutions workload, default seed: index label cell_seed grants \
         transport_messages end_us trace_len\n",
    );
    for (i, (cell, outcome)) in cells.iter().zip(outcomes).enumerate() {
        let d = Digest::of(outcome);
        out.push_str(&format!(
            "{i} {} {} {} {} {} {}\n",
            cell.label(),
            cell.seed,
            d.grants,
            d.transport_messages,
            d.end_us,
            d.trace_len
        ));
    }
    out
}

/// Checks one cell: completed, conformant, and its digest equal to the
/// reference (the recorded expectation at the default seed, the first
/// pass otherwise).
fn check_cell(out: &mut Outcome, cell: &Cell, index: usize, got: &CellResult, want: Digest) {
    out.check(
        got.completed && got.conformant && got.digest == want,
        || {
            format!(
            "cell {index} ({} seed {}): completed={} conformant={} digest {:?}, expected {want:?}",
            cell.label(),
            cell.seed,
            got.completed,
            got.conformant,
            got.digest
        )
        },
    );
}

/// The checked facts of one cell run.
#[derive(Clone, Copy)]
struct CellResult {
    completed: bool,
    conformant: bool,
    digest: Digest,
}

impl CellResult {
    fn of(outcome: &RunOutcome) -> CellResult {
        CellResult {
            completed: outcome.completed,
            conformant: outcome.conformant,
            digest: Digest::of(outcome),
        }
    }
}

/// Reference digests: the recorded ones at the default seed, else none
/// (the first pass becomes the reference).
fn reference(seed: u64, len: usize) -> Option<Vec<Digest>> {
    (seed == crate::DEFAULT_SEED).then(|| {
        let expected = expectations();
        assert_eq!(expected.len(), len, "expectation file covers the grid");
        expected
    })
}

/// Untraced run: passes over the grid until `seconds` have elapsed, each
/// after a set-up, so set-ups sample the same stretch of time as passes.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let budget = Budget::new(seconds, MIN_PASSES);
    let (mut setups, mut pass_walls) = (Vec::new(), Vec::new());
    let mut cells = timed(&mut setups, || setup(seed));
    let mut reference = reference(seed, cells.len());
    let mut cell_ms: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut peak_rss = 0.0;
    while budget.more(&pass_walls) {
        if !pass_walls.is_empty() {
            cells = timed(&mut setups, || setup(seed));
        }
        let mut results = Vec::with_capacity(cells.len());
        let pass = Instant::now();
        for (i, cell) in cells.iter().enumerate() {
            let t = Instant::now();
            let outcome = black_box(cell.run());
            cell_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            results.push(CellResult::of(&outcome));
        }
        pass_walls.push(pass.elapsed().as_secs_f64());
        if pass_walls.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        let want = reference.get_or_insert_with(|| results.iter().map(|r| r.digest).collect());
        for (i, (cell, got)) in cells.iter().zip(&results).enumerate() {
            check_cell(&mut out, cell, i, got, want[i]);
        }
    }

    let total: f64 = pass_walls.iter().sum();
    out.set("setup_s", median(&setups));
    out.set("wall_s", mean(&pass_walls));
    out.set(
        "cells_per_s",
        (cells.len() * pass_walls.len()) as f64 / total,
    );
    // One latency sample per cell, its mean over the passes: the box's slow
    // and fast stretches then weigh every cell alike instead of reordering
    // cells near the p50, which falls inside one shape's spread.
    let per_cell: Vec<f64> = cell_ms.iter().map(|times| mean(times)).collect();
    out.set("cell_p50_ms", percentile(&per_cell, 50.0));
    out.set("cell_p99_ms", percentile(&per_cell, 99.0));
    out.set("peak_rss_mb", peak_rss);
    let role = match seed {
        crate::DEFAULT_SEED => "default seed: digests checked against the recorded ones",
        crate::HELD_OUT_SEED => "held-out seed: digests checked pass against pass",
        _ => "digests checked pass against pass",
    };
    out.line(format!(
        "solutions: seed {seed} ({role}); {} passes x {} cells; cell latency = a cell's \
         mean call time over the passes, {} samples ({} beyond p99)",
        pass_walls.len(),
        cells.len(),
        per_cell.len(),
        per_cell.len() / 100
    ));
    let walls: Vec<String> = pass_walls.iter().map(|w| format!("{w:.3}")).collect();
    out.line(format!("pass walls (s): {}", walls.join(" ")));
    out
}

/// One deployment, assembled through the public `deploy` calls.
enum Deployment {
    Middleware(MwSystem),
    Protocol(Stack),
}

/// Counts of one decomposed pass; two passes of the same code must agree
/// exactly.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Counts {
    slices: u64,
    grants: u64,
    msgs_sent: u64,
    msgs_delivered: u64,
    dispatches: u64,
    broker_deliveries: u64,
    marshalled_bytes: u64,
    dispatch_errors: u64,
    timeouts: u64,
    admission_checked: u64,
    admission_rejected: u64,
    pdus_sent: u64,
    pdus_received: u64,
    pdu_bytes_sent: u64,
    decode_errors: u64,
    retransmissions: u64,
    duplicates_suppressed: u64,
    events_checked: u64,
}

/// What the decomposed path produced for one cell, in `RunOutcome` terms.
struct Decomposed {
    completed: bool,
    conformant: bool,
    violations: usize,
    floor: FloorMetrics,
    report: SimReport,
    app_events: u64,
    infra_events: u64,
}

/// `run_solution_with`, taken apart: deploy → 250 ms `run_to_quiescence`
/// slices → `check_trace` → `FloorMetrics`, each call inside its own span.
fn decomposed_cell(
    tracer: &mut Tracer,
    cell: &Cell,
    index: u64,
    counts: &mut Counts,
) -> Decomposed {
    let cell_span = tracer.begin("floorctl.cell", index);
    let params = &cell.params;
    let mut deployment = tracer.time("floorctl.deploy", index, || match cell.solution {
        Solution::MwCallback => Deployment::Middleware(mw::callback::deploy(params)),
        Solution::MwPolling => Deployment::Middleware(mw::polling::deploy(params)),
        Solution::MwToken => Deployment::Middleware(mw::token::deploy(params)),
        Solution::MwQueue => Deployment::Middleware(mw::queue::deploy(params)),
        Solution::ProtoCallback => Deployment::Protocol(proto::callback::deploy_with_reliability(
            params,
            cell.options.reliability,
        )),
        Solution::ProtoPolling => Deployment::Protocol(proto::polling::deploy(params)),
        Solution::ProtoToken => Deployment::Protocol(proto::token::deploy(params)),
    });

    let expected_frees = params.expected_grants();
    let mut elapsed = Duration::ZERO;
    let report = loop {
        let report = match &mut deployment {
            Deployment::Middleware(system) => tracer.time("middleware.run_slice", index, || {
                system
                    .run_to_quiescence(SLICE)
                    .expect("deployments have nodes")
            }),
            Deployment::Protocol(stack) => tracer.time("protocol.run_slice", index, || {
                stack
                    .run_to_quiescence(SLICE)
                    .expect("deployments have nodes")
            }),
        };
        counts.slices += 1;
        elapsed += SLICE;
        let frees = report.trace().count_of("free") as u64;
        if frees >= expected_frees || report.is_quiescent() || elapsed >= params.cap() {
            break report;
        }
    };

    let completed = report.trace().count_of("free") as u64 >= expected_frees;
    let check = tracer.time("model.check_trace", index, || {
        let options = CheckOptions {
            allow_pending_liveness: !completed,
            ..CheckOptions::default()
        };
        check_trace(&floor_control_service(), report.trace(), &options)
    });
    let floor = tracer.time("floorctl.metrics", index, || {
        FloorMetrics::from_trace(report.trace())
    });

    counts.grants += floor.grants();
    counts.msgs_sent += report.metrics().messages_sent();
    counts.msgs_delivered += report.metrics().messages_delivered();
    counts.events_checked += check.events_checked() as u64;
    let (app_events, infra_events) = match &deployment {
        Deployment::Middleware(system) => {
            let totals = system.total_counters();
            let broker = system.broker_counters().unwrap_or_default();
            let admission = system.admission_stats().unwrap_or_default();
            counts.dispatches += totals.dispatches;
            counts.broker_deliveries += broker.deliveries;
            counts.marshalled_bytes += totals.marshalled_bytes;
            counts.dispatch_errors += totals.dispatch_errors;
            counts.timeouts += totals.timeouts;
            counts.admission_checked += admission.checked;
            counts.admission_rejected += admission.rejected;
            let app = totals.dispatches + totals.replies + totals.deliveries - broker.deliveries;
            (app, broker.deliveries)
        }
        Deployment::Protocol(stack) => {
            let totals = stack.total_counters();
            counts.pdus_sent += totals.pdus_sent;
            counts.pdus_received += totals.pdus_received;
            counts.pdu_bytes_sent += totals.pdu_bytes_sent;
            counts.decode_errors += totals.decode_errors;
            counts.retransmissions += totals.retransmissions;
            counts.duplicates_suppressed += totals.duplicates_suppressed;
            (
                report.trace().count_of("granted") as u64,
                totals.pdus_received,
            )
        }
    };
    tracer.end(cell_span);
    Decomposed {
        completed,
        conformant: check.is_conformant(),
        violations: check.violations().len(),
        floor,
        report,
        app_events,
        infra_events,
    }
}

/// Whether the decomposed path reproduced `run_solution_with` exactly.
fn same_outcome(d: &Decomposed, o: &RunOutcome) -> bool {
    d.completed == o.completed
        && d.conformant == o.conformant
        && d.violations == o.violations
        && d.report.trace() == &o.trace
        && d.report.end_time() == o.end_time
        && d.report.metrics().messages_sent() == o.transport_messages
        && d.report.metrics().bytes_sent() == o.transport_bytes
        && d.floor.requests() == o.floor.requests()
        && d.floor.grants() == o.floor.grants()
        && d.floor.frees() == o.floor.frees()
        && d.floor.latencies() == o.floor.latencies()
        && d.app_events == o.app_events
        && d.infra_events == o.infra_events
}

fn decomposed_pass(
    tracer: &mut Tracer,
    cells: &[Cell],
    reference: &[RunOutcome],
    out: &mut Outcome,
) -> Counts {
    let mut counts = Counts::default();
    for (i, (cell, want)) in cells.iter().zip(reference).enumerate() {
        let got = decomposed_cell(tracer, cell, i as u64, &mut counts);
        out.check(same_outcome(&got, want), || {
            format!(
                "cell {i} ({} seed {}): decomposed path differs from run_solution_with",
                cell.label(),
                cell.seed
            )
        });
    }
    counts
}

/// A value of `ty` for round-trip PDUs.
fn sample(ty: &ValueType, k: u64) -> Value {
    match ty {
        ValueType::Any | ValueType::Id => Value::Id(k),
        ValueType::Unit => Value::Unit,
        ValueType::Bool => Value::Bool(k.is_multiple_of(2)),
        ValueType::Int => Value::Int(k as i64 - 3),
        ValueType::Text => Value::Text(format!("sap-{k}")),
        ValueType::Set(inner) => Value::Set((0..3).map(|j| sample(inner, k + j)).collect()),
        ValueType::List(inner) => Value::List((0..3).map(|j| sample(inner, k + j)).collect()),
    }
}

/// `PduRegistry::encode`/`decode` over every schema of every protocol
/// solution's registry; returns (round trips, failures).
fn codec_roundtrips(registries: &[PduRegistry], reps: u64) -> (u64, u64) {
    let mut trips = 0;
    let mut failures = 0;
    for k in 0..reps {
        for registry in registries {
            for schema in registry.schemas() {
                let args: Vec<Value> = schema
                    .fields()
                    .iter()
                    .map(|field| sample(field.ty(), k))
                    .collect();
                let ok = registry
                    .encode(schema.name(), &args)
                    .and_then(|bytes| registry.decode(black_box(&bytes)))
                    .is_ok_and(|pdu| pdu.name() == schema.name() && pdu.args() == args.as_slice());
                trips += 1;
                failures += u64::from(!ok);
            }
        }
    }
    (trips, failures)
}

/// Traced run: an untraced pass for the reference outcomes, then, in order,
/// an untraced pass, the traced decomposed pass, the same grid through
/// `run_sweep`, an admission replay of the middleware traces, a codec
/// round-trip sweep, the decomposed pass again for the exact-count check,
/// and a last untraced pass. The untraced passes around the two decomposed
/// ones are the overhead base.
pub fn run_traced(seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cells = setup(seed);
    let expected = reference(seed, cells.len());

    // The first untraced pass supplies the reference outcomes; the second
    // is half the overhead base.
    let outcomes: Vec<RunOutcome> = cells.iter().map(Cell::run).collect();
    for (i, (cell, outcome)) in cells.iter().zip(&outcomes).enumerate() {
        let got = CellResult::of(outcome);
        let want = expected.as_ref().map_or(got.digest, |e| e[i]);
        check_cell(&mut out, cell, i, &got, want);
    }
    let untraced = Instant::now();
    for cell in &cells {
        black_box(cell.run());
    }
    let untraced_wall = untraced.elapsed().as_secs_f64();

    let root = tracer.begin("bench.traced_run", 0);
    let pass = tracer.begin("bench.decomposed_pass", 0);
    let counts = decomposed_pass(tracer, &cells, &outcomes, &mut out);
    tracer.end(pass);
    let traced_wall = tracer.span(pass).secs();

    // The same grid through the sweep harness, serially.
    let mut cell_walls = 0.0;
    let mut sweep_walls = 0.0;
    let mut swept = Vec::new();
    for spec in sweep_specs(seed) {
        let report = tracer.time("sweep.run_sweep", 0, || run_sweep(&spec, 1));
        black_box(tracer.time("sweep.to_json", 0, || report.to_json()));
        sweep_walls += report.wall.as_secs_f64();
        cell_walls += report
            .results
            .iter()
            .map(|r| r.wall.as_secs_f64())
            .sum::<f64>();
        swept.extend(report.results.into_iter().map(|r| r.outcome));
    }
    out.check(swept.len() == outcomes.len(), || {
        format!(
            "sweep ran {} cells, grid has {}",
            swept.len(),
            outcomes.len()
        )
    });
    for (i, (a, b)) in swept.iter().zip(&outcomes).enumerate() {
        out.check(a.trace == b.trace && Digest::of(a) == Digest::of(b), || {
            format!("cell {i}: run_sweep outcome differs from run_solution_with")
        });
    }

    // Admission replay: every middleware cell's trace through a fresh gate.
    let compiled = Arc::new(
        Compiled::compile(&floor_control_service(), ADMISSION_BOUND)
            .expect("the floor-control service compiles"),
    );
    let mut admitted = 0u64;
    let mut replayed = 0u64;
    let admit_span = tracer.begin("dfa.admit_replay", 0);
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        if !cell.solution.is_middleware() {
            continue;
        }
        let gate = AdmissionGate::with_compiled(compiled.clone(), Engine::Dfa);
        for event in outcome.trace.iter() {
            replayed += 1;
            admitted += u64::from(gate.admit(event.sap(), event.primitive(), event.args()));
        }
    }
    tracer.end(admit_span);
    let admit_secs = tracer.span(admit_span).secs();
    out.check(admitted == replayed, || {
        format!(
            "admission replay rejected {} of {replayed}",
            replayed - admitted
        )
    });

    let registries = [
        proto::callback::registry(),
        proto::polling::registry(),
        proto::token::registry(),
    ];
    let codec_span = tracer.begin("codec.roundtrip", 0);
    let (trips, codec_failures) = codec_roundtrips(&registries, 2_000);
    tracer.end(codec_span);
    let codec_secs = tracer.span(codec_span).secs();
    out.check(codec_failures == 0, || {
        format!("{codec_failures} of {trips} codec round trips failed")
    });
    tracer.end(root);

    // The exact-count repeat records into a throwaway tracer, so it costs
    // what the traced pass cost; a second untraced pass closes the
    // untraced-traced-traced-untraced order that cancels a linear drift.
    let repeat_start = Instant::now();
    let repeat = decomposed_pass(&mut Tracer::new(), &cells, &outcomes, &mut out);
    let traced_wall = (traced_wall + repeat_start.elapsed().as_secs_f64()) / 2.0;
    let untraced = Instant::now();
    for cell in &cells {
        black_box(cell.run());
    }
    let untraced_wall = (untraced_wall + untraced.elapsed().as_secs_f64()) / 2.0;
    out.check(counts == repeat, || {
        format!("decomposed counts differ between two passes: {counts:?} vs {repeat:?}")
    });

    let c = &counts;
    let v = |x: u64| x as f64;
    out.set("netsim.msgs_sent", v(c.msgs_sent));
    out.set("netsim.msgs_delivered", v(c.msgs_delivered));
    out.set(
        "netsim.delivered_frac",
        v(c.msgs_delivered) / v(c.msgs_sent.max(1)),
    );
    out.set("floorctl.deploy_s", tracer.total("floorctl.deploy"));
    out.set("floorctl.metrics_s", tracer.total("floorctl.metrics"));
    out.set("floorctl.grants", v(c.grants));
    out.set("middleware.run_s", tracer.total("middleware.run_slice"));
    out.set("middleware.dispatches", v(c.dispatches));
    out.set("middleware.broker_deliveries", v(c.broker_deliveries));
    out.set("middleware.marshalled_bytes", v(c.marshalled_bytes));
    out.set("middleware.dispatch_errors", v(c.dispatch_errors));
    out.set("middleware.timeouts", v(c.timeouts));
    out.set("dfa.admission_checked", v(c.admission_checked));
    out.set("dfa.admission_rejected", v(c.admission_rejected));
    out.set("dfa.admit_ns", admit_secs * 1e9 / v(replayed.max(1)));
    out.set("protocol.run_s", tracer.total("protocol.run_slice"));
    out.set("protocol.pdus_sent", v(c.pdus_sent));
    out.set("protocol.pdus_received", v(c.pdus_received));
    out.set("protocol.decode_errors", v(c.decode_errors));
    out.set("protocol.retransmissions", v(c.retransmissions));
    out.set("protocol.duplicates_suppressed", v(c.duplicates_suppressed));
    out.set("codec.pdu_bytes_sent", v(c.pdu_bytes_sent));
    out.set("codec.roundtrip_ns", codec_secs * 1e9 / v(trips.max(1)));
    out.set("model.check_trace_s", tracer.total("model.check_trace"));
    out.set("model.events_checked", v(c.events_checked));
    out.set("sweep.run_sweep_s", tracer.total("sweep.run_sweep"));
    out.set("sweep.to_json_s", tracer.total("sweep.to_json"));
    out.set("sweep.overhead_s", sweep_walls - cell_walls);
    out.set("bench.traced_wall_s", traced_wall);
    out.set("bench.untraced_wall_s", untraced_wall);

    out.line(format!(
        "solutions traced: {} cells, {} run slices, {} middleware occurrences replayed \
         ({} admitted), {} codec round trips",
        cells.len(),
        c.slices,
        replayed,
        admitted,
        trips
    ));
    out.line(format!(
        "ratios: netsim.delivered_frac = {} delivered / {} sent; dfa.admission_rejected = {} \
         of {} checked; protocol.retransmissions = {} of {} PDUs sent",
        c.msgs_delivered,
        c.msgs_sent,
        c.admission_rejected,
        c.admission_checked,
        c.retransmissions,
        c.pdus_sent
    ));
    out
}
