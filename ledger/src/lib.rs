//! A benchmark of the `systolicd` serve path.
//!
//! Three seeded workloads run through the real in-process path —
//! `wire::parse_line` → `AnalysisService::submit` / `Ticket::wait` →
//! `WireResponse::to_json` — from one client thread in a closed loop,
//! against a service with one worker per remaining core. The untraced run
//! reports end-to-end metrics; the traced run (`--trace 1`) replays the
//! same inputs with spans around each layer's public functions and
//! reports per-layer metrics.

pub mod cold_verify;
pub mod edit_stream;
pub mod gen;
pub mod harness;
pub mod hot_mix;
pub mod trace;

use harness::{Metrics, Phase};
use systolic_model::{parse_program, Topology};
use systolic_service::Json;
use trace::SpanLog;

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 3] = ["hot_mix", "cold_verify", "edit_stream"];

/// The request id spans recorded during set-up carry.
pub const SETUP: u64 = u64::MAX;

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed the correctness gate.
    pub failed: u64,
    /// The metrics to report.
    pub metrics: Metrics,
}

impl Outcome {
    /// The end-to-end outcome of a timed phase; prints the latency sample
    /// count and how many samples lie beyond p99.
    #[must_use]
    pub fn from_phase(phase: &Phase, setup_s: f64) -> Outcome {
        let samples = phase.latencies.len();
        println!(
            "latency samples: {samples}, {} beyond p99",
            samples - (samples * 99).div_ceil(100)
        );
        Outcome {
            attempted: phase.attempted,
            failed: phase.failed,
            metrics: harness::end_to_end(phase, setup_s),
        }
    }
}

/// Every per-layer metric, in report order, with its unit.
pub const LAYER_METRICS: [(&str, &str); 36] = [
    ("wire.parse_line_ns", "ns"),
    ("wire.json_parse_ns", "ns"),
    ("wire.program_parse_ns", "ns"),
    ("wire.topology_spec_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.bytes_in", "bytes"),
    ("wire.bytes_out", "bytes"),
    ("fingerprint.ns", "ns"),
    ("service.roundtrip_ns", "ns"),
    ("service.wait_ns", "ns"),
    ("cache.hit_ratio", "fraction"),
    ("cache.evictions", "count"),
    ("compiled.compile_ns", "ns"),
    ("compiled.route_cache_hit_ratio", "fraction"),
    ("compiled.cache_hit_ratio", "fraction"),
    ("analyzer.routes_ns", "ns"),
    ("analyzer.classify_ns", "ns"),
    ("analyzer.label_ns", "ns"),
    ("analyzer.consistency_ns", "ns"),
    ("analyzer.competing_ns", "ns"),
    ("analyzer.requirements_ns", "ns"),
    ("analyzer.plan_ns", "ns"),
    ("analyzer.certified_ratio", "fraction"),
    ("sim.arena_build_ns", "ns"),
    ("sim.replay_ns", "ns"),
    ("sim.replay_cycles", "cycles"),
    ("sim.arena_hit_ratio", "fraction"),
    ("incremental.apply_ns", "ns"),
    ("incremental.stage_reuse_ratio", "fraction"),
    ("incremental.fallback_ratio", "fraction"),
    ("incremental.dirty_ratio", "fraction"),
    ("snapshot.import_ns", "ns"),
    ("snapshot.export_ns", "ns"),
    ("snapshot.bytes_per_plan", "bytes"),
    ("bench.unattributed_frac", "fraction"),
    ("bench.trace_overhead_frac", "fraction"),
];

/// `part / whole`, 0 when `whole` is 0.
#[must_use]
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Mean of `values`, 0 when empty.
#[must_use]
pub fn mean(values: &[u64]) -> f64 {
    ratio(values.iter().sum(), values.len() as u64)
}

/// Sets metric `name` (which must be listed) to `value`.
pub fn set(metrics: &mut Metrics, name: &str, value: f64) {
    let slot = metrics
        .iter_mut()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("unlisted metric {name}"));
    slot.1 = value;
}

/// The per-layer metrics a traced pass determines by itself: mean ns per
/// call of every span-timed layer function, bytes per request, the
/// unattributed share of end-to-end latency and the tracing overhead
/// (traced mean latency over its untraced twin's, minus one). Ratios the
/// workloads measure start at 0.
#[must_use]
pub fn layer_metrics(log: &SpanLog, plain: &Phase, traced: &Phase) -> Metrics {
    let mut metrics: Metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name.to_owned(), 0.0, unit))
        .collect();
    for (name, (count, total, _)) in log.totals() {
        let metric = match name {
            "fingerprint" => "fingerprint.ns".to_owned(),
            "request" => continue,
            name => format!("{name}_ns"),
        };
        if metrics.iter().any(|(n, _, _)| *n == metric) {
            set(&mut metrics, &metric, ratio(total, count));
        }
    }
    let requests = traced.latencies.len() as u64;
    set(
        &mut metrics,
        "wire.bytes_in",
        ratio(traced.bytes_in, requests),
    );
    set(
        &mut metrics,
        "wire.bytes_out",
        ratio(traced.bytes_out, requests),
    );
    set(
        &mut metrics,
        "bench.unattributed_frac",
        trace::layer_table(log).1,
    );
    set(
        &mut metrics,
        "bench.trace_overhead_frac",
        mean(&traced.latencies) / mean(&plain.latencies).max(1.0) - 1.0,
    );
    metrics
}

/// Times the parts of `wire.parse_line` one by one on `line`: the JSON
/// parse, the program text parse and the topology spec parse.
pub fn probe_wire(log: &mut SpanLog, request: u64, line: &str) {
    let Ok(value) = log.time("wire.json_parse", None, request, || Json::parse(line)) else {
        return;
    };
    if let Some(text) = value.get("program").and_then(Json::as_str) {
        let _ = log.time("wire.program_parse", None, request, || parse_program(text));
    }
    if let Some(spec) = value.get("topology").and_then(Json::as_str) {
        let _ = log.time("wire.topology_spec", None, request, || {
            Topology::from_spec(spec)
        });
    }
}
