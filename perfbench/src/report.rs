//! The run's result: output checks, operation counts, metrics, and the
//! one-line JSON the benchmark ends with.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_rps", "1/s"),
    ("query_ms", "ms"),
    ("trace_ms", "ms"),
    ("util_mean_dist", "m"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.wire.bytes_per_report", "B"),
    ("net.wire.codec_ns_per_report", "ns"),
    ("net.router.ack_p50_ms", "ms"),
    ("net.router.ack_p99_ms", "ms"),
    ("net.router.fanout_per_frame", "count"),
    ("net.client.backpressure_retries", "count"),
    ("surveillance.ingest.inproc_rps", "1/s"),
    ("surveillance.ingest.queue_hop_ns_per_report", "ns"),
    ("surveillance.ingest.flush_ms_p50", "ms"),
    ("surveillance.ingest.flush_ms_p99", "ms"),
    ("surveillance.ingest.reports_per_flush", "count"),
    ("core.mech.release_ns_per_report", "ns"),
    ("core.index.touches_per_report", "count"),
    ("core.index.table_misses_per_switch", "count"),
    ("core.index.row_misses_per_switch", "count"),
    ("core.index.cold_table_us", "us"),
    ("core.policy.build_ms", "ms"),
    ("graph.distances.first_touch_ms", "ms"),
    ("surveillance.server.land_ns_per_report", "ns"),
    ("surveillance.server.reported_db_ms", "ms"),
    ("surveillance.server.resend_land_ms", "ms"),
    ("surveillance.monitoring.dashboard_ms", "ms"),
    ("surveillance.analysis.r0_ms", "ms"),
    ("surveillance.client.resend_ms", "ms"),
    ("surveillance.client.resends_per_round", "count"),
    ("surveillance.tracing.find_contacts_ms", "ms"),
    ("trace.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Attempted and failed operations of one kind.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Collects checks; a run is correct when every check passed.
#[derive(Debug, Default)]
pub struct Checks(Vec<Check>);

impl Checks {
    pub fn add(&mut self, name: &'static str, result: Result<String, String>) {
        let (passed, detail) = match result {
            Ok(d) => (true, d),
            Err(d) => (false, d),
        };
        self.0.push(Check {
            name,
            passed,
            detail,
        });
    }

    /// Records a check that must hold in every round: only its first
    /// failure is kept, and one passing entry stands for all rounds.
    pub fn every_round(&mut self, name: &'static str, result: Result<String, String>) {
        let existing = self.0.iter().position(|c| c.name == name);
        match (existing, result) {
            (None, r) => self.add(name, r),
            (Some(i), Err(d)) if self.0[i].passed => {
                self.0[i] = Check {
                    name,
                    passed: false,
                    detail: d,
                }
            }
            _ => {}
        }
    }

    pub fn all_passed(&self) -> bool {
        self.0.iter().all(|c| c.passed)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Check> {
        self.0.iter()
    }
}

/// Per-layer values by metric name; every name of [`PER_LAYER`] must be
/// set before the run reports.
#[derive(Debug, Default)]
pub struct LayerSet(BTreeMap<&'static str, f64>);

impl LayerSet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub ops: Vec<Op>,
    pub digest: u64,
    pub rounds: u32,
    pub setup_s: f64,
    pub ingest_rps: f64,
    pub query_ms: f64,
    pub trace_ms: f64,
    pub util_mean_dist: f64,
    pub layers: LayerSet,
}

fn number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the run's mode.
pub fn result_json(outcome: &Outcome, traced: bool, peak_rss_mb: f64) -> Result<String, String> {
    let mut values: Vec<(&str, &str, f64)> = Vec::new();
    if traced {
        for &(name, unit) in PER_LAYER {
            let v = outcome
                .layers
                .0
                .get(name)
                .copied()
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            values.push((name, unit, v));
        }
    } else {
        for &(name, unit) in END_TO_END {
            let v = match name {
                "setup_s" => outcome.setup_s,
                "ingest_rps" => outcome.ingest_rps,
                "query_ms" => outcome.query_ms,
                "trace_ms" => outcome.trace_ms,
                "util_mean_dist" => outcome.util_mean_dist,
                "peak_rss_mb" => peak_rss_mb,
                _ => unreachable!("END_TO_END names are matched above"),
            };
            values.push((name, unit, v));
        }
    }
    let mut metrics = Vec::new();
    for (name, unit, v) in values {
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(v)?
        ));
    }
    let attempted: u64 = outcome.ops.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcome.ops.iter().map(|o| o.failed).sum();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.checks.all_passed(),
        metrics.join(", ")
    ))
}
