//! Criterion bench for the snapshot warm-start acceptance target: a
//! freshly constructed [`AnalysisService`] that imports a snapshot of a
//! previous run's plan cache must serve the same 300-request mixed
//! working set at least 5× faster end-to-end than a cold service that
//! has to analyze every distinct program from scratch (≥ 2× under
//! `SYSTOLIC_BENCH_QUICK=1`, headroom for noisy shared runners).
//!
//! Shape: half the stream is the standard daemon traffic mix
//! ([`traffic`]: hot kernels plus small parameter sweeps), half is a
//! 150-program library of heavyweight random kernels whose analyses —
//! and, with `verify` on, simulator chases — cost milliseconds each, so
//! the work a snapshot amortizes dominates per-request queue overhead,
//! as it does for real workloads. A donor service serves the working
//! set once and exports its snapshot; the warm arm then times *import +
//! replay* on a fresh service (the import is inside the timer — it is
//! the price of warming), while the cold arm times a fresh service
//! replaying the same stream with an empty cache. Request construction
//! happens outside the timers in both arms: the bench measures serving,
//! not traffic generation.
//!
//! Parity is asserted before timing: the warmed service must answer
//! every request with the same fingerprint and the same outcome as the
//! donor, and every answer must carry warm-cache provenance. The
//! measured ratio is recorded in `BENCH_snapshot.json` at the workspace
//! root (with `hw_threads` noted, since both arms use the same worker
//! pool) and the floor is asserted after the file is written. The arms
//! are timed in alternating rounds, each by its per-round minimum, the
//! noise-robust statistic. The warm arm also prints the minima of its two
//! phases, import and replay, so the split of its time is visible.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use systolic_bench::alternating_minima;
use systolic_service::{AnalysisRequest, AnalysisService, CacheProvenance, ServiceConfig};
use systolic_workloads::{random_program, random_topology, traffic, RandomConfig, TrafficConfig};

/// Working-set size (requests per replay).
const REQUESTS: usize = 300;
/// Distinct heavyweight programs in the library half of the stream.
const HEAVY_POOL: usize = 150;
/// Traffic stream seed.
const SEED: u64 = 97;

/// The heavyweight library kernels: large clustered random programs
/// (24-cell arrays, 200 messages, up to 16 words each) whose analyses
/// cost milliseconds — the plans a snapshot is worth persisting.
fn heavy_config() -> RandomConfig {
    RandomConfig {
        cells: 24,
        messages: 200,
        max_words: 16,
        max_span: 6,
        clustered: true,
    }
}

/// The 300-request mixed working set: half the standard daemon traffic
/// stream (hot kernels plus small parameter sweeps, the `systolicd gen`
/// mix), half a [`HEAVY_POOL`]-program library of large kernels — the
/// long tail a daemon accumulates and a restart would otherwise have to
/// reanalyze from scratch.
fn working_set() -> Vec<AnalysisRequest> {
    let mut requests: Vec<AnalysisRequest> = traffic(&TrafficConfig::default(), SEED, REQUESTS / 2)
        .iter()
        .map(AnalysisRequest::from_traffic)
        .collect();
    let heavy = heavy_config();
    let topology = random_topology(&heavy);
    for i in 0..REQUESTS / 2 {
        let pool_seed = SEED + (i % HEAVY_POOL) as u64;
        let program = random_program(&heavy, pool_seed).expect("random program builds");
        let mut request =
            AnalysisRequest::new(format!("heavy/{pool_seed}"), program, topology.clone());
        // Generously queued: the bench measures analysis cost, not
        // queue feasibility.
        request.config.queues_per_interval = 64;
        requests.push(request);
    }
    requests
}

fn config() -> ServiceConfig {
    ServiceConfig {
        // Chase every miss with a simulator replay: a cold start pays
        // analysis + verification per distinct program, a warm start
        // restores the already-verified plans from the snapshot.
        verify: true,
        ..ServiceConfig::default()
    }
}

fn bench_snapshot(c: &mut Criterion) {
    let requests = working_set();
    let donor = AnalysisService::new(config());
    let _ = donor.run_batch(requests.clone());
    let snapshot = donor.export_snapshot();

    let mut group = c.benchmark_group("snapshot_warm_start");
    group.sample_size(10);
    group.bench_function(format!("cold_{REQUESTS}req"), |b| {
        b.iter(|| {
            let service = AnalysisService::new(config());
            std::hint::black_box(service.run_batch(std::hint::black_box(requests.clone())))
        });
    });
    group.bench_function(format!("warm_{REQUESTS}req"), |b| {
        b.iter(|| {
            let service = AnalysisService::new(config());
            service
                .import_snapshot(std::hint::black_box(&snapshot))
                .expect("snapshot imports");
            std::hint::black_box(service.run_batch(std::hint::black_box(requests.clone())))
        });
    });
    group.finish();
}

/// The acceptance ratio, measured explicitly, asserted, and recorded in
/// `BENCH_snapshot.json`.
fn snapshot_acceptance_ratio(_c: &mut Criterion) {
    let quick = std::env::var("SYSTOLIC_BENCH_QUICK").is_ok_and(|v| v != "0");
    let rounds: usize = if quick { 2 } else { 3 };
    let target = if quick { 2.0 } else { 5.0 };
    let hw_threads = std::thread::available_parallelism().map_or(0, usize::from);

    // The donor run: serve the working set cold once, export the
    // snapshot the warm arm starts from.
    let requests = working_set();
    let donor = AnalysisService::new(config());
    let donor_responses = donor.run_batch(requests.clone());
    let snapshot = donor.export_snapshot();
    let donor_misses = donor.cache_stats().misses;

    // Parity first: a warmed service must answer every request with the
    // donor's exact outcome, and serve all of them from the warm cache.
    let warmed = AnalysisService::new(config());
    let report = warmed.import_snapshot(&snapshot).expect("snapshot imports");
    assert_eq!(
        report.plans as usize,
        donor.cache_entries(),
        "every cached plan must survive the round trip"
    );
    let warm_responses = warmed.run_batch(requests.clone());
    assert_eq!(donor_responses.len(), warm_responses.len());
    for (cold, warm) in donor_responses.iter().zip(&warm_responses) {
        assert_eq!(cold.fingerprint, warm.fingerprint, "requests must agree");
        assert_eq!(
            warm.provenance,
            CacheProvenance::Warm,
            "every warmed answer must come from the snapshot"
        );
        match (cold.outcome.as_ref(), warm.outcome.as_ref()) {
            (Ok(a), Ok(b)) => assert_eq!(
                a.plan.fingerprint(),
                b.plan.fingerprint(),
                "warmed plans must be byte-identical"
            ),
            (Err(a), Err(b)) => assert_eq!(a.diagnostics, b.diagnostics),
            _ => panic!("cold and warm outcomes must agree"),
        }
    }

    // Cold arm: a fresh service replays the stream with an empty cache.
    // Warm arm: import + replay, both inside the timer — the import is
    // the price of warming and the bench claims end-to-end speedup. Its
    // two phases are timed apart and the arm reports their sum.
    // Request construction stays outside the timer in both arms.
    let (mut import_min, mut replay_min) = (Duration::MAX, Duration::MAX);
    let (cold_time, warm_time) = alternating_minima(
        rounds,
        || {
            let service = AnalysisService::new(config());
            let batch = requests.clone();
            let started = Instant::now();
            std::hint::black_box(service.run_batch(batch));
            started.elapsed()
        },
        || {
            let service = AnalysisService::new(config());
            let batch = requests.clone();
            let started = Instant::now();
            service
                .import_snapshot(std::hint::black_box(&snapshot))
                .expect("snapshot imports");
            let imported = Instant::now();
            std::hint::black_box(service.run_batch(batch));
            let (import, replay) = (imported - started, imported.elapsed());
            import_min = import_min.min(import);
            replay_min = replay_min.min(replay);
            import + replay
        },
    );

    let ratio = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(f64::EPSILON);
    println!(
        "snapshot_warm_start_vs_cold   cold {cold_time:>12?}   warm {warm_time:>12?}   \
         ratio {ratio:>6.1}x (target >= {target}x)"
    );
    println!(
        "snapshot_warm_start_split     import {import_min:>12?}   replay {replay_min:>12?}   \
         (per-phase minima)"
    );

    let json = format!(
        "{{\n  \"bench\": \"snapshot_warm_start\",\n  \"requests\": {REQUESTS},\n  \
         \"seed\": {SEED},\n  \"distinct_plans\": {},\n  \"snapshot_bytes\": {},\n  \
         \"rounds\": {rounds},\n  \"hw_threads\": {hw_threads},\n  \
         \"cold_min_secs\": {:.6},\n  \"warm_min_secs\": {:.6},\n  \
         \"ratio\": {:.2},\n  \"target_ratio\": {target}\n}}\n",
        donor_misses,
        snapshot.len(),
        cold_time.as_secs_f64(),
        warm_time.as_secs_f64(),
        ratio,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_snapshot.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    }

    assert!(
        ratio >= target,
        "a snapshot-warmed service must replay the {REQUESTS}-request working set at least \
         {target}x faster end-to-end than a cold start, measured {ratio:.2}x"
    );
}

criterion_group!(benches, bench_snapshot, snapshot_acceptance_ratio);
criterion_main!(benches);
