//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json`: an untraced run
//! prints every end-to-end metric, a traced run every per-layer metric. A
//! per-layer metric a workload never exercises reads 0 there (its layer
//! did no work and spent no time).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("cell_p50_ms", "ms"),
    ("cell_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, grouped by layer.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("netsim.build_s", "s"),
    ("netsim.run_s", "s"),
    ("netsim.events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.peak_pending", "count"),
    ("netsim.msgs_sent", "count"),
    ("netsim.msgs_delivered", "count"),
    ("netsim.delivered_frac", "ratio"),
    ("netsim.self_s", "s"),
    ("floorctl.deploy_s", "s"),
    ("floorctl.metrics_s", "s"),
    ("floorctl.grants", "count"),
    ("floorctl.self_s", "s"),
    ("middleware.run_s", "s"),
    ("middleware.dispatches", "count"),
    ("middleware.broker_deliveries", "count"),
    ("middleware.marshalled_bytes", "bytes"),
    ("middleware.dispatch_errors", "count"),
    ("middleware.timeouts", "count"),
    ("middleware.self_s", "s"),
    ("dfa.admission_checked", "count"),
    ("dfa.admission_rejected", "count"),
    ("dfa.admit_ns", "ns"),
    ("dfa.self_s", "s"),
    ("protocol.run_s", "s"),
    ("protocol.pdus_sent", "count"),
    ("protocol.pdus_received", "count"),
    ("protocol.decode_errors", "count"),
    ("protocol.retransmissions", "count"),
    ("protocol.duplicates_suppressed", "count"),
    ("protocol.self_s", "s"),
    ("codec.pdu_bytes_sent", "bytes"),
    ("codec.roundtrip_ns", "ns"),
    ("codec.self_s", "s"),
    ("model.check_trace_s", "s"),
    ("model.events_checked", "count"),
    ("model.self_s", "s"),
    ("sweep.run_sweep_s", "s"),
    ("sweep.to_json_s", "s"),
    ("sweep.overhead_s", "s"),
    ("sweep.self_s", "s"),
    ("mda.targets_s", "s"),
    ("mda.self_s", "s"),
    ("analyze.service_pass_s", "s"),
    ("analyze.protocol_pass_s", "s"),
    ("analyze.report_json_s", "s"),
    ("analyze.useful_explore_frac", "ratio"),
    ("analyze.self_s", "s"),
    ("lts.explore_configured_s", "s"),
    ("lts.explore_sym_counterpart_s", "s"),
    ("lts.explore_por_counterpart_s", "s"),
    ("lts.states", "count"),
    ("lts.transitions", "count"),
    ("lts.canon_hits", "count"),
    ("lts.truncated_runs", "count"),
    ("lts.self_s", "s"),
    ("ldd.explore_symbolic_s", "s"),
    ("ldd.nodes", "count"),
    ("ldd.peak_nodes", "count"),
    ("ldd.cache_hits", "count"),
    ("ldd.self_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.self_s", "s"),
    ("bench.spans", "count"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: cells, soak runs or analyzer runs (plus, in a
    /// traced run, the consistency checks it makes).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Lines printed above the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Counts one checked operation; a failed check prints why on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAIL: {}", what());
        }
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Renders the metrics of `catalogue` as the body of the `metrics` object;
/// `prefix` namespaces them when several workloads share one line.
pub fn metrics_json(
    outcome: &Outcome,
    catalogue: &[(&str, &str)],
    prefix: &str,
    out: &mut Vec<String>,
) {
    for (name, unit) in catalogue {
        let value = outcome.values.get(*name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        out.push(format!(
            "\"{prefix}{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}
