//! Criterion bench for the arena-reuse acceptance target: replaying a
//! 64-plan batch through one reused arena (`SimArena::verify` in a loop)
//! must beat per-run setup (`verify_plan` in a loop, which routes every
//! message over the topology and builds a fresh arena per call) by ≥ 1.5×.
//!
//! The ratio is measured explicitly, asserted, and recorded in
//! `BENCH_verify.json` at the workspace root.
//!
//! `SYSTOLIC_BENCH_QUICK=1` shrinks the round count and relaxes the
//! asserted floor to 1.2× — headroom for noisy shared CI runners; full
//! mode asserts the acceptance target. The arms are timed in alternating
//! rounds, each by its per-round minimum, the noise-robust statistic.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use systolic_bench::alternating_minima;
use systolic_core::{AnalysisConfig, Analyzer, CommPlan};
use systolic_model::{CellId, Program, ProgramBuilder, Topology};
use systolic_sim::{verify_plan, SimArena, SimConfig, VerifyReport};

const BATCH: usize = 64;
const CELLS: usize = 256;
const MESSAGES: usize = 8;

/// A 256-cell chorded ring — a large fabric, the service shape where one
/// topology serves many small requests. Per-run setup scales with the
/// *fabric* (one BFS per message, pool construction for every interval);
/// the shared arena pays it once per batch.
fn topology() -> Topology {
    let mut edges = Vec::new();
    for i in 0..CELLS {
        edges.push((CellId::new(i as u32), CellId::new(((i + 1) % CELLS) as u32)));
        if i % 4 == 0 {
            edges.push((
                CellId::new(i as u32),
                CellId::new(((i + 19) % CELLS) as u32),
            ));
        }
    }
    Topology::graph(CELLS, edges).expect("chorded ring builds")
}

/// A small deadlock-free program: `MESSAGES` messages between
/// pseudo-random far-apart pairs (every cell accesses its messages in
/// ascending global order, so crossing-off consumes them sequentially).
/// Distinct per `seed`.
fn program(seed: u64) -> Program {
    let mut builder = ProgramBuilder::new(CELLS);
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    for k in 0..MESSAGES {
        let sender = next(CELLS);
        // A nearby receiver (a few hops): replays are short, so the
        // per-replay *setup* — not the cycle loop — is what the bench
        // arms disagree on.
        let receiver = (sender + 4 + next(12)) % CELLS;
        let name = format!("M{k}");
        builder
            .message(&name, sender as u32, receiver as u32)
            .expect("message declares");
        builder
            .write_n(sender as u32, &name, 1)
            .expect("writes append");
        builder
            .read_n(receiver as u32, &name, 1)
            .expect("reads append");
    }
    builder.build().expect("bench programs are valid")
}

struct Batch {
    topology: Topology,
    items: Vec<(Program, Arc<CommPlan>)>,
    sim: SimConfig,
}

fn certified_batch(size: usize) -> Batch {
    let topology = topology();
    let config = AnalysisConfig {
        queues_per_interval: MESSAGES,
        ..Default::default()
    };
    let analyzer = Analyzer::for_topology(&topology, &config);
    let items: Vec<(Program, Arc<CommPlan>)> = (0..size as u64 * 2)
        .map(program)
        .filter_map(|p| {
            let plan = analyzer.analyze(&p).ok()?.into_plan();
            Some((p, Arc::new(plan)))
        })
        .take(size)
        .collect();
    assert_eq!(items.len(), size, "enough bench programs certify");
    Batch {
        topology,
        items,
        sim: SimConfig::default(),
    }
}

fn run_per_plan(batch: &Batch) -> Vec<VerifyReport> {
    // The one-shot shape: every replay routes its messages over the
    // topology and builds a fresh arena (queue pools and run state).
    batch
        .items
        .iter()
        .map(|(program, plan)| {
            verify_plan(program, &batch.topology, plan, batch.sim).expect("setup succeeds")
        })
        .collect()
}

fn run_shared_arena(batch: &Batch) -> Vec<VerifyReport> {
    // One arena for the whole batch: routes from each plan, pools and
    // state reset in place.
    let mut arena = SimArena::new(&batch.topology, batch.sim);
    batch
        .items
        .iter()
        .map(|(program, plan)| arena.verify(program, plan).expect("setup succeeds"))
        .collect()
}

fn bench_verify(c: &mut Criterion) {
    let batch = certified_batch(BATCH);
    let mut group = c.benchmark_group("verify_batch");
    group.sample_size(10);
    group.bench_function(format!("per_run_setup_batch{BATCH}"), |b| {
        b.iter(|| run_per_plan(std::hint::black_box(&batch)));
    });
    group.bench_function(format!("shared_arena_batch{BATCH}"), |b| {
        b.iter(|| run_shared_arena(std::hint::black_box(&batch)));
    });
    group.finish();
}

/// One timed run of `f`.
fn timed(f: impl FnOnce() -> Vec<VerifyReport>) -> std::time::Duration {
    let started = Instant::now();
    std::hint::black_box(f());
    started.elapsed()
}

/// The acceptance ratio, measured explicitly, asserted, and recorded in
/// `BENCH_verify.json`.
fn verify_acceptance_ratio(_c: &mut Criterion) {
    let quick = std::env::var("SYSTOLIC_BENCH_QUICK").is_ok_and(|v| v != "0");
    let rounds: usize = if quick { 4 } else { 6 };

    // ---- Shared arena vs per-run setup (64-plan batch). ----
    // The full-mode assert is the acceptance target; the quick-mode smoke
    // (CI, noisy shared runners, millisecond-scale timings) keeps wide
    // headroom while still catching a regression to parity.
    let batch = certified_batch(BATCH);
    let shared_target = if quick { 1.2 } else { 1.5 };

    // Parity first: both paths must report identical verification results.
    let per_run = run_per_plan(&batch);
    let shared = run_shared_arena(&batch);
    assert_eq!(per_run, shared, "shared arena must match per-run reports");
    let completed = shared.iter().filter(|r| r.completed).count();
    assert_eq!(completed, BATCH, "certified plans complete (Theorem 1)");

    let (per_run_time, shared_time) = alternating_minima(
        rounds,
        || timed(|| run_per_plan(&batch)),
        || timed(|| run_shared_arena(&batch)),
    );
    let shared_ratio = per_run_time.as_secs_f64() / shared_time.as_secs_f64().max(f64::EPSILON);
    println!(
        "verify_shared_arena_vs_per_run           per-run {per_run_time:>12?}   \
         shared {shared_time:>12?}   ratio {shared_ratio:>6.1}x (target >= {shared_target}x)"
    );

    let json = format!(
        "{{\n  \"bench\": \"verify_batch\",\n  \"batch\": {BATCH},\n  \"rounds\": {rounds},\n  \
         \"per_run_min_secs\": {:.6},\n  \"shared_arena_min_secs\": {:.6},\n  \"ratio\": {:.2},\n  \
         \"target_ratio\": {shared_target}\n}}\n",
        per_run_time.as_secs_f64(),
        shared_time.as_secs_f64(),
        shared_ratio,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_verify.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    }

    assert!(
        shared_ratio >= shared_target,
        "shared-arena batch verification must be at least {shared_target}x faster than \
         per-run setup over a {BATCH}-plan batch, measured {shared_ratio:.2}x"
    );
}

criterion_group!(benches, bench_verify, verify_acceptance_ratio);
criterion_main!(benches);
