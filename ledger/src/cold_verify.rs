//! `cold_verify`: every timed request is a program the service has never
//! seen, analyzed and — when certified — replayed through the simulator
//! by the worker. Topology compile, the analyzer stages and the replay do
//! most of the work; the large request lines stress the wire parser; the
//! plan cache is only written.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use systolic_core::{request_fingerprint, Analyzer, CompiledTopology};
use systolic_service::wire::{parse_line, WireRequest};
use systolic_service::{AnalysisResponse, AnalysisService, CacheProvenance};
use systolic_sim::ArenaLru;

use crate::gen::{self, Class, Expect, Request};
use crate::harness::{self, Options, SetupTimes, SETUP_AFTER, SETUP_BEFORE};
use crate::trace::SpanLog;
use crate::{mean, ratio, set, Outcome};

/// Requests in the warm-up lap: enough to visit every topology of the
/// stream, so compilations and arenas are warm before timing.
const WARMUP_LAP: u64 = 64;

/// Requests in the timed stream, which the loop cycles through. Nearly
/// three times the default 8×256 plan cache, so inserts evict and a
/// request comes round again only long after the cache forgot it; a
/// fixed count keeps the inputs' memory the same from run to run.
const STREAM: u64 = 6000;

/// `true` when `response` is the verdict `request` was built for: a
/// certified miss carrying a completed replay, or an `E-DEADLOCK`
/// rejection.
fn check(request: &Request, response: &AnalysisResponse) -> bool {
    match (request.expect, response.outcome.as_ref()) {
        (Expect::Certified, Ok(certified)) => {
            response.provenance == CacheProvenance::Miss
                && certified.verified.as_ref().is_some_and(|v| v.completed)
        }
        (Expect::Deadlocked, Err(rejection)) => rejection
            .diagnostics
            .iter()
            .any(|d| d.code().as_str() == "E-DEADLOCK"),
        _ => false,
    }
}

/// The workload's set-up: a fresh verifying service and a warm-up lap
/// over disjoint seeds of the same shapes.
fn setup(lap: &[Request]) -> AnalysisService {
    let service = AnalysisService::new(harness::service_config(true));
    harness::closed_loop(
        &service,
        lap,
        |r| &r.line,
        2,
        Duration::MAX,
        lap.len(),
        |_, _| true,
    );
    service
}

fn stream(seed: u64) -> Vec<Request> {
    (0..STREAM)
        .map(|i| gen::cold_verify_request(seed, gen::TIMED, i))
        .collect()
}

fn warmup_lap(seed: u64) -> Vec<Request> {
    (0..WARMUP_LAP)
        .map(|i| gen::cold_verify_request(seed, gen::WARMUP, i))
        .collect()
}

/// Prints the mesh class's skew over `requests`.
fn print_mesh_skew(requests: &[Request]) {
    let mesh: Vec<&Request> = requests
        .iter()
        .filter(|r| r.class == Class::MeshHotspot)
        .collect();
    let deadlocked = requests
        .iter()
        .filter(|r| r.expect == Expect::Deadlocked)
        .count();
    let n = mesh.len().max(1) as f64;
    println!(
        "cold_verify: {} requests, {} mesh-hotspot (mean Manhattan x words cost {:.1}, \
         hottest interval share mean {:.3} max {:.3}), {} deadlocked by construction",
        requests.len(),
        mesh.len(),
        mesh.iter().map(|r| r.cost as f64).sum::<f64>() / n,
        mesh.iter().map(|r| r.hottest_share).sum::<f64>() / n,
        mesh.iter().map(|r| r.hottest_share).fold(0.0, f64::max),
        deadlocked,
    );
}

/// The untraced run: end-to-end metrics.
pub fn run(options: &Options) -> Outcome {
    let lap = warmup_lap(options.seed);
    let requests = stream(options.seed);
    let mut setup_times = SetupTimes::default();
    let service = setup_times.run(SETUP_BEFORE, || setup(&lap));
    let phase = harness::closed_loop(
        &service,
        &requests,
        |r| &r.line,
        2,
        Duration::from_secs(options.seconds),
        usize::MAX,
        |index, response| check(&requests[index], response),
    );
    print_mesh_skew(&requests[..requests.len().min(phase.attempted as usize)]);
    drop(service);
    drop(setup_times.run(SETUP_AFTER, || setup(&lap)));
    Outcome::from_phase(&phase, setup_times.median())
}

/// The traced run: per-layer metrics.
pub fn traced(options: &Options, log: &mut SpanLog) -> Outcome {
    let lap = warmup_lap(options.seed);
    let half = Duration::from_secs(options.seconds) / 2;
    let requests = stream(options.seed);
    let plain = {
        let service = setup(&lap);
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

    let service = setup(&lap);
    let sim = harness::service_config(true);
    let mut arenas = ArenaLru::with_budget(sim.arena_budget());
    let mut compilations = HashMap::new();
    let (before, compiles_before, arenas_before) = (
        service.cache_stats(),
        service.compilation_cache_stats(),
        service.arena_cache_stats(),
    );
    let (mut wait_ns, mut cycles, mut analyzed, mut certified) =
        (Vec::new(), Vec::new(), 0u64, 0u64);
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
            let Ok(WireRequest::Analysis(parsed)) = parse_line(&request.line, 1) else {
                return false;
            };
            log.time("fingerprint", None, id, || {
                request_fingerprint(&parsed.program, &parsed.topology, &parsed.config)
            });
            if response.provenance != CacheProvenance::Miss {
                return check(request, response);
            }
            // The worker's miss path, one public call per span.
            let key = CompiledTopology::fingerprint_of(&parsed.topology, &parsed.config);
            let compiled: Arc<CompiledTopology> =
                Arc::clone(compilations.entry(key).or_insert_with(|| {
                    log.time("compiled.compile", None, id, || {
                        CompiledTopology::compile(&parsed.topology, &parsed.config).into_shared()
                    })
                }));
            let analyzer = Analyzer::new(Arc::clone(&compiled));
            let session = analyzer.session(&parsed.program);
            analyzed += 1;
            let stages: [(&'static str, &dyn Fn() -> bool); 6] = [
                ("analyzer.routes", &|| session.routes().is_ok()),
                ("analyzer.classify", &|| session.classification().is_ok()),
                ("analyzer.label", &|| session.labeling().is_ok()),
                ("analyzer.consistency", &|| session.consistency().is_ok()),
                ("analyzer.competing", &|| session.competing().is_ok()),
                ("analyzer.requirements", &|| session.requirements().is_ok()),
            ];
            // Stop at the first failing stage: later ones only repeat its
            // error.
            let passed = stages
                .into_iter()
                .all(|(name, stage)| log.time(name, None, id, stage));
            let plan = passed
                .then(|| log.time("analyzer.plan", None, id, || session.plan().ok().cloned()))
                .flatten();
            if let Some(plan) = plan {
                certified += 1;
                let plan = Arc::new(plan);
                let lookup = log.time("sim.arena_build", None, id, || {
                    arenas.get_or_build(&compiled, sim.sim)
                });
                if let Ok(report) = log.time("sim.replay", None, id, || {
                    lookup.arena.verify(&parsed.program, &plan)
                }) {
                    cycles.push(report.cycles);
                }
            }
            check(request, response)
        },
    );
    let (after, compiles_after, arenas_after) = (
        service.cache_stats(),
        service.compilation_cache_stats(),
        service.arena_cache_stats(),
    );
    let routes = service.route_cache_stats();
    let mut metrics = crate::layer_metrics(log, &plain, &traced);
    let lookups = |hits: u64, misses: u64, h0: u64, m0: u64| (hits - h0, hits + misses - h0 - m0);
    let (hits, total) = lookups(after.hits, after.misses, before.hits, before.misses);
    set(&mut metrics, "cache.hit_ratio", ratio(hits, total));
    set(
        &mut metrics,
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    let (hits, total) = lookups(
        compiles_after.hits,
        compiles_after.misses,
        compiles_before.hits,
        compiles_before.misses,
    );
    set(&mut metrics, "compiled.cache_hit_ratio", ratio(hits, total));
    set(
        &mut metrics,
        "compiled.route_cache_hit_ratio",
        ratio(routes.hits, routes.hits + routes.misses),
    );
    set(&mut metrics, "service.wait_ns", mean(&wait_ns));
    set(
        &mut metrics,
        "analyzer.certified_ratio",
        ratio(certified, analyzed),
    );
    set(&mut metrics, "sim.replay_cycles", mean(&cycles));
    let (hits, total) = lookups(
        arenas_after.hits,
        arenas_after.misses,
        arenas_before.hits,
        arenas_before.misses,
    );
    set(&mut metrics, "sim.arena_hit_ratio", ratio(hits, total));
    Outcome {
        attempted: traced.attempted,
        failed: traced.failed,
        metrics,
    }
}
