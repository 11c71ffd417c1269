//! `analyze`: the static analyzer over every target at six users, with the
//! symbolic backend — `svckit-analyze --users 6 --backend symbolic`.
//!
//! No simulator runs here: the explicit explorer (POR, symmetry
//! canonicalizer, DFA product engine) and the LDD backend share the work.
//! The search is exhaustive, so the benchmark seed does not change it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use svckit::lts::explorer::{ExploreOptions, ExploreReport, Reduction, ServiceExplorer};
use svckit_analyze::{
    all_targets, analyze_protocol, analyze_service, progress_primitives, scale_floor_targets,
    verify_implementation, AnalysisReport, Backend, ServiceAnalysis, ServicePassOptions, Symmetry,
    Target, TargetReport,
};

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{mean, median, peak_rss_mb, percentile, timed, Budget};

/// Subscribers the floor-control universes are rescaled to.
const USERS: u64 = 6;
/// Analyzer runs per run, at least.
const MIN_RUNS: usize = 2;
/// Set-ups before each analyzer run; `setup_s` is the median of all.
const SETUP_REPS: usize = 20;

/// The recorded diagnostics JSON (`to_diag_json`).
const EXPECT: &str = include_str!("../expect/analyze_diag.json");

fn options() -> ServicePassOptions {
    ServicePassOptions {
        backend: Backend::Symbolic,
        ..ServicePassOptions::default()
    }
}

/// Set-up: every target (the platform ones through the MDA trajectory),
/// with the floor-control universes rescaled.
fn build_targets() -> Vec<Target> {
    let mut targets = all_targets();
    scale_floor_targets(&mut targets, USERS);
    targets
}

fn check(out: &mut Outcome, report: &AnalysisReport) {
    let diag = report.to_diag_json();
    out.check(
        report.errors() == 0 && report.warnings() == 0 && diag.trim() == EXPECT.trim(),
        || {
            format!(
                "analyzer: {} error(s), {} warning(s); diagnostics JSON {} the recorded one",
                report.errors(),
                report.warnings(),
                if diag.trim() == EXPECT.trim() {
                    "equals"
                } else {
                    "differs from"
                }
            )
        },
    );
}

/// The diagnostics JSON to record as the expectation.
pub fn expectation() -> String {
    AnalysisReport::run(&build_targets(), &options()).to_diag_json()
}

/// Untraced run: analyzer runs back to back until `seconds` have elapsed,
/// each after a block of set-ups, so set-ups sample the same stretch of
/// time as the runs.
pub fn run(seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let options = options();
    let budget = Budget::new(seconds, MIN_RUNS);
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let mut targets = Vec::new();
    let mut peak_rss = 0.0;
    while budget.more(&walls) {
        for _ in 0..SETUP_REPS {
            targets = timed(&mut setups, || black_box(build_targets()));
        }
        let report = timed(&mut walls, || {
            black_box(AnalysisReport::run(&targets, &options))
        });
        if walls.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        check(&mut out, &report);
    }
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    out.set("setup_s", median(&setups));
    out.set("wall_s", mean(&walls));
    out.set(
        "cells_per_s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    out.set("cell_p50_ms", percentile(&ms, 50.0));
    out.set("cell_p99_ms", percentile(&ms, 99.0));
    out.set("peak_rss_mb", peak_rss);
    out.line(format!(
        "analyze: {} analyzer runs over {} targets at {USERS} users, symbolic backend \
         (a cell is one analyzer run to a verdict; seed ignored)",
        walls.len(),
        targets.len()
    ));
    out
}

/// `AnalysisReport::run`, taken apart into its public passes.
fn decomposed(
    tracer: &mut Tracer,
    targets: &[Target],
    options: &ServicePassOptions,
) -> AnalysisReport {
    let mut cache: BTreeMap<(String, usize), ServiceAnalysis> = BTreeMap::new();
    let mut reports = Vec::new();
    for (id, target) in targets.iter().enumerate() {
        let id = id as u64;
        let span = tracer.begin("analyze.target", id);
        let key = (target.service.name().to_owned(), target.universe.len());
        if !cache.contains_key(&key) {
            let analysis = tracer.time("analyze.service_pass", id, || {
                analyze_service(&target.service, target.universe.clone(), options)
            });
            cache.insert(key.clone(), analysis);
        }
        let analysis = cache[&key].clone();
        let mut diagnostics = analysis.diagnostics;
        if let Some(decl) = &target.protocol {
            diagnostics.extend(tracer.time("analyze.protocol_pass", id, || {
                analyze_protocol(&target.service, decl)
            }));
        }
        if let Some(implementation) = &target.implementation {
            diagnostics.extend(tracer.time("analyze.verify", id, || {
                verify_implementation(&target.service, &target.universe, implementation, options)
            }));
        }
        reports.push(TargetReport {
            target: target.name.clone(),
            kind: target.kind,
            states: analysis.states,
            transitions: analysis.transitions,
            diagnostics,
            notes: target.notes.clone(),
            por: analysis.por,
            sym: analysis.sym,
            ldd: analysis.ldd,
        });
        tracer.end(span);
    }
    AnalysisReport {
        reduction: options.reduction,
        backend: options.backend,
        targets: reports,
    }
}

/// Whether an exploration found anything the analyzer reports a witness
/// for (the trigger for taking diagnostics from the symmetry counterpart).
fn has_defect(report: &ExploreReport) -> bool {
    report.deadlock_states > 0
        || report.deadlocks.iter().any(Vec::is_empty)
        || report.livelock.is_some()
        || report.truncated
        || !report.never_enabled.is_empty()
}

/// One exploration of the split.
struct Exploration {
    service: String,
    kind: &'static str,
    secs: f64,
    report: ExploreReport,
    feeds_diagnostics: bool,
}

/// Calls `ServiceExplorer::explore` once per option set `analyze_service`
/// derives, for each distinct (service, universe) pair, each in its own
/// span, and marks which report supplies the diagnostics.
fn exploration_split(
    tracer: &mut Tracer,
    targets: &[Target],
    options: &ServicePassOptions,
) -> Vec<(usize, Vec<Exploration>)> {
    let mut seen = Vec::new();
    let mut split = Vec::new();
    for (id, target) in targets.iter().enumerate() {
        let key = (target.service.name().to_owned(), target.universe.len());
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let service = &target.service;
        let explorer = tracer.time("lts.explorer_new", id as u64, || {
            ServiceExplorer::with_engine(
                service,
                target.universe.clone(),
                options.max_outstanding,
                options.engine,
            )
        });
        let configured = ExploreOptions {
            max_states: options.max_states,
            reduction: options.reduction,
            progress: progress_primitives(service),
            symmetry: options.symmetry,
            ..ExploreOptions::default()
        };
        let sets: Vec<(&'static str, &'static str, ExploreOptions)> = vec![
            ("lts.explore_configured", "configured", configured.clone()),
            (
                "lts.explore_sym_counterpart",
                "symmetry counterpart",
                ExploreOptions {
                    symmetry: match options.symmetry {
                        Symmetry::On => Symmetry::Off,
                        Symmetry::Off => Symmetry::On,
                    },
                    ..configured.clone()
                },
            ),
            (
                "ldd.explore_symbolic",
                "symbolic",
                ExploreOptions {
                    backend: Backend::Symbolic,
                    ..configured.clone()
                },
            ),
            (
                "lts.explore_por_counterpart",
                "POR counterpart",
                ExploreOptions {
                    reduction: match options.reduction {
                        Reduction::Full => Reduction::AmpleSets,
                        Reduction::AmpleSets => Reduction::Full,
                    },
                    ..configured
                },
            ),
        ];
        let mut runs = Vec::new();
        for (span_name, kind, explore_options) in sets {
            if kind == "symbolic" && options.backend != Backend::Symbolic {
                continue;
            }
            let span = tracer.begin(span_name, id as u64);
            let report = black_box(explorer.explore(&explore_options));
            tracer.end(span);
            runs.push(Exploration {
                service: service.name().to_owned(),
                kind,
                secs: tracer.span(span).secs(),
                report,
                feeds_diagnostics: false,
            });
        }
        // The same choice `analyze_service` makes.
        let mut source = 0;
        if options.symmetry == Symmetry::On
            && has_defect(&runs[0].report)
            && !runs[1].report.truncated
        {
            source = 1;
        }
        if let Some(symbolic) = runs.iter().position(|r| r.kind == "symbolic") {
            let s = &runs[symbolic].report;
            if runs[source].report.truncated && !s.truncated && s.peak_nodes > 0 {
                source = symbolic;
            }
        }
        runs[source].feeds_diagnostics = true;
        split.push((id, runs));
    }
    split
}

/// Whether the split's explorations reproduce the statistics the
/// decomposed pass reported for the same target.
fn split_matches(
    runs: &[Exploration],
    target: &TargetReport,
    options: &ServicePassOptions,
) -> bool {
    let by_kind = |kind: &str| runs.iter().find(|r| r.kind == kind).map(|r| &r.report);
    let (Some(configured), Some(sym), Some(por)) = (
        by_kind("configured"),
        by_kind("symmetry counterpart"),
        by_kind("POR counterpart"),
    ) else {
        return false;
    };
    let (sym_on, sym_off) = match options.symmetry {
        Symmetry::On => (configured, sym),
        Symmetry::Off => (sym, configured),
    };
    let full = match options.reduction {
        Reduction::Full => configured,
        Reduction::AmpleSets => por,
    };
    let ldd_ok = by_kind("symbolic").is_none_or(|s| {
        s.states as u64 == target.ldd.states
            && s.ldd_nodes as u64 == target.ldd.ldd_nodes
            && s.peak_nodes as u64 == target.ldd.peak_nodes
            && s.cache_hits == target.ldd.cache_hits
    });
    configured.states == target.states
        && configured.transitions == target.transitions
        && sym_off.states as u64 == target.sym.full_states
        && sym_on.canon_hits == target.sym.canon_hits
        && full.states as u64 == target.por.full_states
        && ldd_ok
}

/// Traced run: an untraced analyzer run, the same run taken apart into its
/// passes, the exploration split, and a second untraced run (the two
/// untraced runs are the overhead base).
pub fn run_traced(tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let options = options();
    let t = Instant::now();
    let untraced = AnalysisReport::run(&build_targets(), &options);
    let untraced_wall = t.elapsed().as_secs_f64();
    check(&mut out, &untraced);

    let root = tracer.begin("bench.traced_run", 0);
    let targets = tracer.time("mda.targets", 0, build_targets);
    let pass = tracer.begin("bench.decomposed_pass", 0);
    let report = decomposed(tracer, &targets, &options);
    tracer.time("analyze.report_json", 0, || {
        black_box((report.to_json(), report.to_diag_json()))
    });
    tracer.end(pass);
    let traced_wall = tracer.span(pass).secs();
    check(&mut out, &report);
    out.check(report.to_json() == untraced.to_json(), || {
        "decomposed analyzer report differs from AnalysisReport::run".to_owned()
    });

    let split_span = tracer.begin("bench.exploration_split", 0);
    let split = exploration_split(tracer, &targets, &options);
    tracer.end(split_span);
    tracer.end(root);

    // A second untraced run, outside the trace: the untraced-traced-untraced
    // order cancels a linear drift.
    let t = Instant::now();
    black_box(AnalysisReport::run(&targets, &options));
    let untraced_wall = (untraced_wall + t.elapsed().as_secs_f64()) / 2.0;

    let mut explore_total = 0.0;
    let mut useful = 0.0;
    let (mut states, mut transitions, mut canon_hits, mut truncated) = (0u64, 0u64, 0u64, 0u64);
    let (mut nodes, mut peak_nodes, mut cache_hits) = (0u64, 0u64, 0u64);
    out.line("exploration split (service, exploration, seconds, states, transitions, truncated, feeds diagnostics):".to_owned());
    for (id, runs) in &split {
        out.check(split_matches(runs, &report.targets[*id], &options), || {
            format!("target {id}: explorations disagree with the analyzer's statistics")
        });
        for run in runs {
            explore_total += run.secs;
            if run.feeds_diagnostics {
                useful += run.secs;
            }
            let r = &run.report;
            if run.kind == "symbolic" {
                nodes += r.ldd_nodes as u64;
                peak_nodes = peak_nodes.max(r.peak_nodes as u64);
                cache_hits += r.cache_hits;
            } else {
                states += r.states as u64;
                transitions += r.transitions as u64;
                canon_hits += r.canon_hits;
                truncated += u64::from(r.truncated);
            }
            out.line(format!(
                "  {:<22} {:<21} {:>8.4} s {:>9} {:>10} {:<5} {}",
                run.service,
                run.kind,
                run.secs,
                r.states,
                r.transitions,
                r.truncated,
                if run.feeds_diagnostics { "yes" } else { "no" }
            ));
        }
    }
    out.line(format!(
        "  useful explorations: {useful:.4} s of {explore_total:.4} s explored"
    ));

    out.set("mda.targets_s", tracer.total("mda.targets"));
    out.set(
        "analyze.service_pass_s",
        tracer.total("analyze.service_pass"),
    );
    out.set(
        "analyze.protocol_pass_s",
        tracer.total("analyze.protocol_pass"),
    );
    out.set("analyze.report_json_s", tracer.total("analyze.report_json"));
    out.set("analyze.useful_explore_frac", useful / explore_total);
    out.set(
        "lts.explore_configured_s",
        tracer.total("lts.explore_configured"),
    );
    out.set(
        "lts.explore_sym_counterpart_s",
        tracer.total("lts.explore_sym_counterpart"),
    );
    out.set(
        "lts.explore_por_counterpart_s",
        tracer.total("lts.explore_por_counterpart"),
    );
    out.set("lts.states", states as f64);
    out.set("lts.transitions", transitions as f64);
    out.set("lts.canon_hits", canon_hits as f64);
    out.set("lts.truncated_runs", truncated as f64);
    out.set(
        "ldd.explore_symbolic_s",
        tracer.total("ldd.explore_symbolic"),
    );
    out.set("ldd.nodes", nodes as f64);
    out.set("ldd.peak_nodes", peak_nodes as f64);
    out.set("ldd.cache_hits", cache_hits as f64);
    out.set("bench.traced_wall_s", traced_wall);
    out.set("bench.untraced_wall_s", untraced_wall);
    out
}
