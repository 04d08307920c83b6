//! Turning iterations into metrics: medians, the per-layer table, the
//! identity outputs, and the JSON result line.

use std::fmt::Write as _;

use crate::probe::IterationTotals;
use crate::traffic::SimStats;
use crate::workloads::Iteration;

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The compile passes the traced run replays, as span names.
const PASSES: [&str; 9] = [
    "compiler.spec_validate",
    "compiler.build_ir",
    "compiler.transforms",
    "compiler.namespaces",
    "compiler.visibility",
    "compiler.ir_validate",
    "compiler.simlower",
    "lint.run",
    "plugins.genart",
];

/// The simulator calls of the traffic phase.
const SIM_CALLS: [&str; 3] = ["simrt.submit", "simrt.run_until", "simrt.drain"];

/// Per-layer metrics of one traced iteration, in `BENCHMARK.json` order
/// (without `bench.trace_overhead`, which compares iterations).
pub fn layer_metrics(t: &IterationTotals, it: &Iteration) -> Vec<Metric> {
    let reqs = it.stats.completions.max(1) as f64;
    let sim_self: f64 = SIM_CALLS.iter().map(|n| t.self_s(n)).sum();
    let sim_allocs: u64 = SIM_CALLS.iter().map(|n| t.allocs(n)).sum();
    let passes: f64 = PASSES.iter().map(|n| t.total_s(n)).sum();
    let mut m = vec![
        Metric::new("wiring.parse_s", t.self_s("wiring.parse"), "s"),
        Metric::new("wiring.mutate_s", t.self_s("wiring.mutate"), "s"),
    ];
    for pass in &PASSES[..7] {
        m.push(Metric::new(format!("{pass}_s"), t.self_s(pass), "s"));
    }
    m.extend([
        Metric::new(
            "compiler.other_s",
            (t.total_s("compiler.compile") - passes).max(0.0),
            "s",
        ),
        Metric::new("lint.run_s", t.self_s("lint.run"), "s"),
        Metric::new("lint.diagnostics", t.count("lint.diagnostics"), "count"),
        Metric::new("plugins.genart_s", t.self_s("plugins.genart"), "s"),
        Metric::new(
            "plugins.artifact_files",
            t.count("plugins.artifact_files"),
            "count",
        ),
        Metric::new(
            "plugins.artifact_loc",
            t.count("plugins.artifact_loc"),
            "count",
        ),
        Metric::new("ir.nodes", t.count("ir.nodes"), "count"),
        Metric::new("ir.edges", t.count("ir.edges"), "count"),
        Metric::new(
            "compiler.allocs",
            t.allocs("compiler.compile") as f64,
            "count",
        ),
        Metric::new("simrt.boot_s", t.self_s("simrt.boot"), "s"),
        Metric::new("simrt.boot_allocs", t.allocs("simrt.boot") as f64, "count"),
        Metric::new("simrt.run_until_s", t.self_s("simrt.run_until"), "s"),
        Metric::new(
            "simrt.run_until_calls",
            t.count("simrt.run_until_calls"),
            "count",
        ),
        Metric::new("simrt.ns_per_req", sim_self * 1e9 / reqs, "ns"),
        Metric::new(
            "simrt.allocs_per_req",
            sim_allocs as f64 / reqs,
            "allocs/req",
        ),
        Metric::new("simrt.submit_s", t.self_s("simrt.submit"), "s"),
        Metric::new("simrt.drain_s", t.self_s("simrt.drain"), "s"),
        Metric::new("simrt.pending_max", t.count("simrt.pending_max"), "count"),
        Metric::new(
            "trace.spans_per_req",
            it.stats.trace_spans as f64 / reqs,
            "spans/req",
        ),
        Metric::new("trace.drain_s", t.self_s("trace.drain"), "s"),
        Metric::new("workload.gen_s", t.self_s("workload.gen"), "s"),
        Metric::new("workload.record_s", t.self_s("workload.record"), "s"),
        Metric::new("workload.oracle_s", t.self_s("workload.oracle"), "s"),
        Metric::new(
            "workload.oracle_anomalies",
            t.count("workload.oracle_anomalies"),
            "count",
        ),
    ]);
    m
}

/// Bits of the checksum reported as a JSON number (exact in an f64).
const CHECKSUM_BITS: u64 = (1 << 53) - 1;

/// The model outputs a speed-only change must leave unchanged.
pub fn identity_metrics(s: &SimStats) -> Vec<Metric> {
    let cache_lookups = s.cache_hits + s.cache_misses;
    vec![
        Metric::new("sim.completions", s.completions as f64, "count"),
        Metric::new("sim.ok", s.ok as f64, "count"),
        Metric::new("sim.retries", s.retries as f64, "count"),
        Metric::new("sim.timeouts", s.timeouts as f64, "count"),
        Metric::new("sim.gc_pauses", s.gc_pauses as f64, "count"),
        Metric::new(
            "sim.wire_amplification",
            if s.client_calls == 0 {
                1.0
            } else {
                (s.client_calls + s.retries) as f64 / s.client_calls as f64
            },
            "ratio",
        ),
        Metric::new(
            "sim.cache_hit_ratio",
            if cache_lookups == 0 {
                0.0
            } else {
                s.cache_hits as f64 / cache_lookups as f64
            },
            "ratio",
        ),
        Metric::new("sim.stale_reads", s.stale_reads as f64, "count"),
        Metric::new("sim.lost_writes", s.lost_writes as f64, "count"),
        Metric::new("sim.p50_ms", s.p50_ns as f64 / 1e6, "ms"),
        Metric::new("sim.p99_ms", s.p99_ns as f64 / 1e6, "ms"),
        Metric::new(
            "sim.checksum",
            (s.checksum & CHECKSUM_BITS) as f64,
            "hash53",
        ),
    ]
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// The revision the checkout was built from, read from `.git` in the
/// working directory without running git; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
