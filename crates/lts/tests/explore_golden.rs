//! Golden statistics for `ServiceExplorer::explore`.
//!
//! The analyzer runs four explorations per service: the configured one
//! (ample sets + symmetry quotient), its symmetry counterpart, its POR
//! counterpart and — under `--backend symbolic` — the LDD search. Every
//! statistic those runs report is pinned here for the floor-control
//! service at 3 users × 2 resources (the interpreter's symbolic search at
//! 3 users × 1 resource), under both engines, plus truncated runs with the
//! state bound set below the reachable space. Any change to
//! the search kernel (successor loop, canonicalizer, interning, LDD
//! tables) must keep every number exactly.

use svckit_lts::explorer::{
    AbstractEvent, ExploreOptions, ExploreReport, Reduction, ServiceExplorer,
};
use svckit_lts::{Backend, Engine, Symmetry};
use svckit_model::{
    Constraint, ConstraintScope, Direction, PartId, PrimitiveSpec, Sap, ServiceDefinition, Value,
};

/// The floor-control service of Figure 5 (re-declared: `svckit-lts` sits
/// below `svckit-floorctl` in the crate graph).
fn floor_service() -> ServiceDefinition {
    ServiceDefinition::builder("floor-control")
        .role("subscriber", 2, usize::MAX)
        .primitive(PrimitiveSpec::new("request", Direction::FromUser).param_id("resid"))
        .primitive(PrimitiveSpec::new("granted", Direction::ToUser).param_id("resid"))
        .primitive(PrimitiveSpec::new("free", Direction::FromUser).param_id("resid"))
        .constraint(
            Constraint::eventually_follows("request", "granted", ConstraintScope::SameSap)
                .keyed(&[0]),
        )
        .constraint(
            Constraint::eventually_follows("granted", "free", ConstraintScope::SameSap).keyed(&[0]),
        )
        .constraint(
            Constraint::precedes("request", "granted", ConstraintScope::SameSap).keyed(&[0]),
        )
        .constraint(Constraint::precedes("granted", "free", ConstraintScope::SameSap).keyed(&[0]))
        .constraint(Constraint::mutual_exclusion("granted", "free").keyed(&[0]))
        .build()
        .unwrap()
}

fn floor_universe(subscribers: u64, resources: u64) -> Vec<AbstractEvent> {
    let mut universe = Vec::new();
    for s in 1..=subscribers {
        for r in 1..=resources {
            let sap = Sap::new("subscriber", PartId::new(s));
            for primitive in ["request", "granted", "free"] {
                universe.push(AbstractEvent::new(
                    sap.clone(),
                    primitive,
                    vec![Value::Id(r)],
                ));
            }
        }
    }
    universe
}

/// The analyzer's configured exploration: ample sets, symmetry quotient,
/// the service's progress primitives.
fn configured(max_states: usize) -> ExploreOptions {
    ExploreOptions {
        max_states,
        reduction: Reduction::AmpleSets,
        progress: vec!["granted".to_owned(), "free".to_owned()],
        symmetry: Symmetry::On,
        ..ExploreOptions::default()
    }
}

/// The analyzer's four option sets, named, at state bound `max_states`.
fn option_sets(max_states: usize) -> Vec<(&'static str, ExploreOptions)> {
    vec![
        ("configured", configured(max_states)),
        (
            "symmetry off",
            ExploreOptions {
                symmetry: Symmetry::Off,
                ..configured(max_states)
            },
        ),
        (
            "por off",
            ExploreOptions {
                reduction: Reduction::Full,
                ..configured(max_states)
            },
        ),
        (
            "symbolic",
            ExploreOptions {
                backend: Backend::Symbolic,
                ..configured(max_states)
            },
        ),
    ]
}

/// Every pinned statistic of one exploration, rendered on one line.
fn stats(report: &ExploreReport) -> String {
    format!(
        "states={} transitions={} truncated={} deadlocks={} never_enabled={} livelock={} \
         canon_hits={} orbit_count={} sym_states_saved={} ample_hist={:?} \
         ldd_nodes={} peak_nodes={} cache_hits={}",
        report.states,
        report.transitions,
        report.truncated,
        report.deadlock_states,
        report.never_enabled.len(),
        report.livelock.is_some(),
        report.canon_hits,
        report.orbit_count,
        report.sym_states_saved,
        report.ample_hist,
        report.ldd_nodes,
        report.peak_nodes,
        report.cache_hits,
    )
}

/// Explores the named option sets under `engine` over `users` ×
/// `resources`, one `name: stats` line per set.
fn run(
    engine: Engine,
    users: u64,
    resources: u64,
    sets: Vec<(&'static str, ExploreOptions)>,
) -> Vec<String> {
    let service = floor_service();
    let explorer =
        ServiceExplorer::with_engine(&service, floor_universe(users, resources), 2, engine);
    assert_eq!(
        explorer.engine(),
        engine,
        "floor control compiles to tables"
    );
    sets.into_iter()
        .map(|(name, options)| format!("{name}: {}", stats(&explorer.explore(&options))))
        .collect()
}

/// The explicit option sets (everything but the symbolic one).
fn explicit_sets(max_states: usize) -> Vec<(&'static str, ExploreOptions)> {
    let mut sets = option_sets(max_states);
    sets.retain(|(name, _)| *name != "symbolic");
    sets
}

/// The explicit statistics at 3 users × 2 resources, identical under both
/// engines.
const EXPLICIT: [&str; 3] = [
    "configured: states=355 transitions=1133 truncated=false deadlocks=0 never_enabled=0 livelock=false canon_hits=1000 orbit_count=355 sym_states_saved=1415 ample_hist=[0, 12, 58, 149, 123, 12, 1] ldd_nodes=0 peak_nodes=0 cache_hits=0",
    "symmetry off: states=1770 transitions=5613 truncated=false deadlocks=0 never_enabled=0 livelock=false canon_hits=0 orbit_count=0 sym_states_saved=0 ample_hist=[0, 51, 306, 752, 612, 48, 1] ldd_nodes=0 peak_nodes=0 cache_hits=0",
    "por off: states=2109 transitions=13794 truncated=false deadlocks=0 never_enabled=0 livelock=false canon_hits=4365 orbit_count=2109 sym_states_saved=9555 ample_hist=[0, 0, 2, 20, 106, 318, 578, 606, 342, 106, 26, 4, 1] ldd_nodes=0 peak_nodes=0 cache_hits=0",
];

#[test]
fn explicit_statistics_are_pinned_under_both_engines() {
    for engine in [Engine::Dfa, Engine::Interp] {
        assert_eq!(
            run(engine, 3, 2, explicit_sets(200_000)),
            EXPLICIT,
            "{engine:?}"
        );
    }
}

/// The statistics at a state bound of 200, below the reachable space of
/// every explicit set.
const TRUNCATED: [&str; 3] = [
    "configured: states=200 transitions=556 truncated=true deadlocks=0 never_enabled=0 livelock=false canon_hits=593 orbit_count=200 sym_states_saved=810 ample_hist=[0, 0, 10, 83, 95, 11, 1] ldd_nodes=0 peak_nodes=0 cache_hits=0",
    "symmetry off: states=200 transitions=362 truncated=true deadlocks=0 never_enabled=0 livelock=false canon_hits=0 orbit_count=0 sym_states_saved=0 ample_hist=[0, 0, 0, 48, 140, 12] ldd_nodes=0 peak_nodes=0 cache_hits=0",
    "por off: states=200 transitions=823 truncated=true deadlocks=0 never_enabled=0 livelock=false canon_hits=534 orbit_count=200 sym_states_saved=750 ample_hist=[0, 0, 0, 0, 0, 1, 21, 62, 66, 36, 11, 2, 1] ldd_nodes=0 peak_nodes=0 cache_hits=0",
];

#[test]
fn truncated_statistics_are_pinned_under_both_engines() {
    for engine in [Engine::Dfa, Engine::Interp] {
        assert_eq!(
            run(engine, 3, 2, explicit_sets(200)),
            TRUNCATED,
            "{engine:?}"
        );
    }
}

/// The symbolic search under the DFA engine at 3 users × 2 resources: the
/// full reachable space, whatever the explicit options say.
const DFA_SYMBOLIC: &str = "symbolic: states=11664 transitions=75816 truncated=false deadlocks=0 never_enabled=0 livelock=false canon_hits=0 orbit_count=0 sym_states_saved=0 ample_hist=[0, 0, 9, 108, 588, 1800, 3268, 3390, 1860, 520, 108, 12, 1] ldd_nodes=224 peak_nodes=28196 cache_hits=15442";

#[test]
fn symbolic_statistics_are_pinned_under_the_dfa_engine() {
    let sets = option_sets(200_000)
        .into_iter()
        .filter(|(name, _)| *name == "symbolic")
        .collect();
    assert_eq!(run(Engine::Dfa, 3, 2, sets), [DFA_SYMBOLIC]);
}

/// The four option sets at 3 users × 1 resource, per engine. The
/// interpreter's LDD levels are interned constraint states rather than
/// slot states, so its diagrams are far larger; this size keeps its
/// symbolic run fast in a debug build. State counts agree across engines;
/// the diagram sizes do not.
const SMALL_DFA: [&str; 4] = [
    "configured: states=28 transitions=94 truncated=false deadlocks=0 never_enabled=0 livelock=false canon_hits=33 orbit_count=28 sym_states_saved=80 ample_hist=[0, 1, 4, 11, 9, 2, 1] ldd_nodes=0 peak_nodes=0 cache_hits=0",
    "symmetry off: states=108 transitions=351 truncated=false deadlocks=0 never_enabled=0 livelock=false canon_hits=0 orbit_count=0 sym_states_saved=0 ample_hist=[0, 3, 18, 44, 36, 6, 1] ldd_nodes=0 peak_nodes=0 cache_hits=0",
    "por off: states=28 transitions=94 truncated=false deadlocks=0 never_enabled=0 livelock=false canon_hits=33 orbit_count=28 sym_states_saved=80 ample_hist=[0, 1, 4, 11, 9, 2, 1] ldd_nodes=0 peak_nodes=0 cache_hits=0",
    "symbolic: states=108 transitions=351 truncated=false deadlocks=0 never_enabled=0 livelock=false canon_hits=0 orbit_count=0 sym_states_saved=0 ample_hist=[0, 3, 18, 44, 36, 6, 1] ldd_nodes=54 peak_nodes=1487 cache_hits=923",
];

const SMALL_INTERP: [&str; 4] = [
    "configured: states=28 transitions=94 truncated=false deadlocks=0 never_enabled=0 livelock=false canon_hits=33 orbit_count=28 sym_states_saved=80 ample_hist=[0, 1, 4, 11, 9, 2, 1] ldd_nodes=0 peak_nodes=0 cache_hits=0",
    "symmetry off: states=108 transitions=351 truncated=false deadlocks=0 never_enabled=0 livelock=false canon_hits=0 orbit_count=0 sym_states_saved=0 ample_hist=[0, 3, 18, 44, 36, 6, 1] ldd_nodes=0 peak_nodes=0 cache_hits=0",
    "por off: states=28 transitions=94 truncated=false deadlocks=0 never_enabled=0 livelock=false canon_hits=33 orbit_count=28 sym_states_saved=80 ample_hist=[0, 1, 4, 11, 9, 2, 1] ldd_nodes=0 peak_nodes=0 cache_hits=0",
    "symbolic: states=108 transitions=351 truncated=false deadlocks=0 never_enabled=0 livelock=false canon_hits=0 orbit_count=0 sym_states_saved=0 ample_hist=[0, 3, 18, 44, 36, 6, 1] ldd_nodes=251 peak_nodes=2146 cache_hits=2109",
];

#[test]
fn all_option_sets_are_pinned_under_both_engines_at_one_resource() {
    assert_eq!(run(Engine::Dfa, 3, 1, option_sets(200_000)), SMALL_DFA);
    assert_eq!(
        run(Engine::Interp, 3, 1, option_sets(200_000)),
        SMALL_INTERP
    );
}
