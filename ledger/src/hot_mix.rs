//! `hot_mix`: a restarted daemon serving the `systolicd gen` mix from a
//! snapshot. Every timed request is a warm cache hit, so the analyzer and
//! the simulator do no work and the fixed per-request cost of wire,
//! fingerprint, cache and worker hand-off is what the workload measures.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use systolic_core::request_fingerprint;
use systolic_service::wire::{parse_line, WireRequest};
use systolic_service::{AnalysisResponse, AnalysisService, CacheProvenance, ServiceOutcome};

use crate::harness::{self, Options, SetupTimes, SETUP_AFTER, SETUP_BEFORE};
use crate::trace::SpanLog;
use crate::{gen, mean, ratio, set, Outcome, SETUP};

/// Requests in the stream. `traffic` repeats its hot kernels and
/// parameter sweeps, so the distinct working set is several hundred
/// plans, well inside the default 8×256 plan cache.
const STREAM: usize = 12_000;

/// One request line with the donor's answer for it.
struct HotRequest {
    line: String,
    fingerprint: u128,
    plan: u128,
}

/// The stream, answered by an untimed donor service that is returned for
/// the snapshot export, plus the count of donor verdicts that were not
/// certified (the stream is deadlock-free by construction).
fn prepare(seed: u64) -> (Vec<HotRequest>, AnalysisService, u64) {
    let donor = AnalysisService::new(harness::service_config(false));
    let mut donor_failed = 0;
    let requests = gen::hot_mix_lines(seed, STREAM)
        .into_iter()
        .enumerate()
        .map(|(n, line)| {
            let Ok(WireRequest::Analysis(request)) = parse_line(&line, n + 1) else {
                unreachable!("generated lines parse");
            };
            let response = donor.submit(*request).wait();
            let plan = match response.outcome.as_ref() {
                Ok(certified) => certified.plan.fingerprint(),
                Err(_) => {
                    donor_failed += 1;
                    0
                }
            };
            HotRequest {
                line,
                fingerprint: response.fingerprint,
                plan,
            }
        })
        .collect();
    (requests, donor, donor_failed)
}

/// The workload's set-up: a fresh service warmed from the donor's
/// snapshot.
fn restart(snapshot: &[u8]) -> AnalysisService {
    let service = AnalysisService::new(harness::service_config(false));
    service
        .import_snapshot(snapshot)
        .expect("the donor's snapshot imports");
    service
}

/// In-loop checks are the cheap ones (warm provenance, the donor's
/// request fingerprint); each distinct shared outcome is kept for the
/// plan-fingerprint comparison after the phase.
struct Gate<'a> {
    requests: &'a [HotRequest],
    outcomes: HashMap<usize, (ServiceOutcome, u128)>,
}

impl Gate<'_> {
    fn check(&mut self, index: usize, response: &AnalysisResponse) -> bool {
        let expected = &self.requests[index];
        let ok = response.provenance == CacheProvenance::Warm
            && response.fingerprint == expected.fingerprint
            && response.is_certified();
        if ok {
            self.outcomes
                .entry(Arc::as_ptr(&response.outcome) as usize)
                .or_insert_with(|| (Arc::clone(&response.outcome), expected.plan));
        }
        ok
    }

    /// Served outcomes whose plan fingerprint differs from the donor's.
    fn plan_mismatches(&self) -> u64 {
        self.outcomes
            .values()
            .filter(|(outcome, plan)| {
                outcome
                    .as_ref()
                    .as_ref()
                    .map_or(true, |c| c.plan.fingerprint() != *plan)
            })
            .count() as u64
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(options: &Options) -> Outcome {
    let (requests, donor, donor_failed) = prepare(options.seed);
    let snapshot = donor.export_snapshot();
    println!(
        "hot_mix: {} lines, {} distinct plans, snapshot {} bytes",
        requests.len(),
        donor.cache_entries(),
        snapshot.len()
    );
    drop(donor);
    let mut setup = SetupTimes::default();
    let service = setup.run(SETUP_BEFORE, || restart(&snapshot));
    let mut gate = Gate {
        requests: &requests,
        outcomes: HashMap::new(),
    };
    let mut phase = harness::closed_loop(
        &service,
        &requests,
        |r| &r.line,
        2,
        Duration::from_secs(options.seconds),
        usize::MAX,
        |index, response| gate.check(index, response),
    );
    phase.failed += gate.plan_mismatches() + donor_failed;
    drop(service);
    drop(setup.run(SETUP_AFTER, || restart(&snapshot)));
    Outcome::from_phase(&phase, setup.median())
}

/// The traced run: per-layer metrics.
pub fn traced(options: &Options, log: &mut SpanLog) -> Outcome {
    let (requests, donor, donor_failed) = prepare(options.seed);
    let half = Duration::from_secs(options.seconds) / 2;
    let snapshot = log.time("snapshot.export", None, SETUP, || donor.export_snapshot());
    let plans = donor.cache_entries() as u64;
    drop(donor);

    // The untraced twin, sized by time; the traced pass replays its count.
    let plain = {
        let service = restart(&snapshot);
        harness::sequential(
            &service,
            &requests,
            |r| &r.line,
            usize::MAX,
            half,
            None,
            |_, _, _, _, _| true,
        )
    };

    let service = log.time("snapshot.import", None, SETUP, || restart(&snapshot));
    let before = service.cache_stats();
    let mut wait_ns = Vec::new();
    let traced = harness::sequential(
        &service,
        &requests,
        |r| &r.line,
        plain.latencies.len(),
        Duration::MAX,
        Some(log),
        |log, id, request, response, roundtrip| {
            let log = log.expect("traced pass has a log");
            wait_ns.push(roundtrip.saturating_sub(response.handle_micros * 1000));
            crate::probe_wire(log, id, &request.line);
            if let Ok(WireRequest::Analysis(parsed)) = parse_line(&request.line, 1) {
                log.time("fingerprint", None, id, || {
                    request_fingerprint(&parsed.program, &parsed.topology, &parsed.config)
                });
            }
            response.provenance == CacheProvenance::Warm
                && response.fingerprint == request.fingerprint
        },
    );
    let after = service.cache_stats();
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let mut metrics = crate::layer_metrics(log, &plain, &traced);
    set(&mut metrics, "service.wait_ns", mean(&wait_ns));
    set(
        &mut metrics,
        "cache.hit_ratio",
        ratio(after.hits - before.hits, lookups),
    );
    set(
        &mut metrics,
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    set(
        &mut metrics,
        "snapshot.bytes_per_plan",
        ratio(snapshot.len() as u64, plans),
    );
    Outcome {
        attempted: traced.attempted,
        failed: traced.failed + donor_failed,
        metrics,
    }
}
