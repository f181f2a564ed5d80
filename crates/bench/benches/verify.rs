//! Criterion bench for the batch-verification acceptance targets:
//!
//! 1. **Shared arena** (PR 4): replaying a 64-plan batch through one
//!    arena (`verify_batch_compiled`) must beat per-run setup
//!    (`verify_plan` in a loop, which routes every message and builds
//!    fresh queue pools per call) by ≥ 1.5×.
//! 2. **Parallel pool**: fanning a one-topology 256-plan batch over a
//!    4-worker [`VerifyScheduler`] holding one arena per worker must beat
//!    the sequential `verify_batch_compiled` by ≥ 2× — on hardware with
//!    ≥ 4 cores. The asserted floor scales down with
//!    `available_parallelism` (a 1-core runner can only assert that the
//!    pool's coordination overhead is bounded), and the actual core count
//!    is recorded alongside the ratio.
//! 3. **Mixed-topology scheduler**: one persistent [`VerifyScheduler`]
//!    holding two arenas per worker (one per topology) and
//!    fanning an interleaved mesh+torus 256-plan batch out in a single
//!    heterogeneous dispatch must at least match splitting the batch by
//!    topology and building a fresh one-arena-per-worker scheduler per
//!    topology each call (which pays cold arenas and one fan-out per
//!    topology every time).
//!
//! All ratios are measured explicitly, asserted, and recorded in
//! `BENCH_verify.json` at the workspace root.
//!
//! `SYSTOLIC_BENCH_QUICK=1` shrinks the round count and relaxes the
//! asserted floors (shared arena 1.2×, parallel ≥ sequential) — headroom
//! for noisy shared CI runners; full mode asserts the acceptance
//! targets. All arms are timed by their per-round minimum, the
//! noise-robust statistic.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use systolic_core::{AnalysisConfig, Analyzer, CommPlan, CompiledTopology};
use systolic_model::{CellId, Program, ProgramBuilder, Topology};
use systolic_sim::{verify_batch_compiled, verify_plan, SimConfig, VerifyReport, VerifyScheduler};

const BATCH: usize = 64;
const PARALLEL_BATCH: usize = 256;
const PARALLEL_THREADS: usize = 4;
const CELLS: usize = 256;
const MESSAGES: usize = 8;
const MIXED_BATCH: usize = 256;
const MIXED_THREADS: usize = 4;
/// Arenas per mixed-scheduler worker: one per topology in the mixed batch.
const MIXED_ARENAS: usize = 2;
/// Mesh/torus side for the mixed-topology batch (8×8 = 64 cells each).
const MIXED_SIDE: usize = 8;

/// A 256-cell chorded ring — a large fabric, the service shape where one
/// topology serves many small requests. Per-run setup scales with the
/// *fabric* (topology clone, one BFS per message, pool construction for
/// every interval); the shared arena pays it once per batch.
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
    program_on(CELLS, seed)
}

fn program_on(cells: usize, seed: u64) -> Program {
    let mut builder = ProgramBuilder::new(cells);
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    for k in 0..MESSAGES {
        let sender = next(cells);
        // A nearby receiver (a few hops): replays are short, so the
        // per-replay *setup* — not the cycle loop — is what the bench
        // arms disagree on.
        let receiver = (sender + 4 + next(12)) % cells;
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
    compiled: Arc<CompiledTopology>,
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
    let compiled = CompiledTopology::compile(&topology, &config).into_shared();
    let analyzer = Analyzer::new(Arc::clone(&compiled));
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
        compiled,
        topology,
        items,
        sim: SimConfig::default(),
    }
}

fn run_per_plan(batch: &Batch) -> Vec<VerifyReport> {
    // The pre-arena shape: every replay routes its messages over the
    // topology and builds fresh queue pools and run state.
    batch
        .items
        .iter()
        .map(|(program, plan)| {
            verify_plan(program, &batch.topology, plan, batch.sim).expect("setup succeeds")
        })
        .collect()
}

fn run_shared_arena(batch: &Batch) -> Vec<VerifyReport> {
    // One arena for the whole batch: pools and state reset in place.
    verify_batch_compiled(
        batch.items.iter().map(|(p, plan)| (p, plan)),
        &batch.compiled,
        batch.sim,
    )
    .expect("setup succeeds")
}

fn run_pool(pool: &mut VerifyScheduler, batch: &Batch) -> Vec<VerifyReport> {
    // N arenas, work-stealing over the batch, reports in input order.
    pool.verify_batch(
        batch
            .items
            .iter()
            .map(|(p, plan)| (p, &batch.compiled, plan)),
    )
    .expect("setup succeeds")
}

/// An interleaved mesh/torus batch — the service shape the scheduler was
/// built for: one coalescing window holding chases against several
/// topologies at once.
type MixedItem = (Program, Arc<CompiledTopology>, Arc<CommPlan>);

struct MixedBatch {
    items: Vec<MixedItem>,
    sim: SimConfig,
}

fn mixed_batch(size: usize) -> MixedBatch {
    let topologies = [
        Topology::mesh(MIXED_SIDE, MIXED_SIDE),
        Topology::torus(MIXED_SIDE, MIXED_SIDE),
    ];
    let per_topology = size / topologies.len();
    let config = AnalysisConfig {
        queues_per_interval: MESSAGES,
        ..Default::default()
    };
    let mut streams: Vec<Vec<MixedItem>> = Vec::new();
    for topology in &topologies {
        let compiled = CompiledTopology::compile(topology, &config).into_shared();
        let analyzer = Analyzer::new(Arc::clone(&compiled));
        let cells = topology.num_cells();
        let stream: Vec<_> = (0..per_topology as u64 * 2)
            .map(|seed| program_on(cells, seed))
            .filter_map(|p| {
                let plan = analyzer.analyze(&p).ok()?.into_plan();
                Some((p, Arc::clone(&compiled), Arc::new(plan)))
            })
            .take(per_topology)
            .collect();
        assert_eq!(stream.len(), per_topology, "enough mixed programs certify");
        streams.push(stream);
    }
    // Round-robin interleave: consecutive items alternate topologies, the
    // worst case for any per-topology batching that relies on runs.
    let mut iters: Vec<_> = streams.into_iter().map(Vec::into_iter).collect();
    let mut items = Vec::with_capacity(per_topology * iters.len());
    for _ in 0..per_topology {
        for iter in &mut iters {
            items.push(iter.next().expect("streams are equal length"));
        }
    }
    MixedBatch {
        items,
        sim: SimConfig::default(),
    }
}

/// The split-by-topology baseline: build a fresh one-arena-per-worker
/// scheduler per topology each call (cold arenas), fan out once per
/// topology, and scatter the reports back to input order.
fn run_per_topology_pools(batch: &MixedBatch) -> Vec<VerifyReport> {
    let mut groups: Vec<(u128, Vec<usize>)> = Vec::new();
    for (i, (_, compiled, _)) in batch.items.iter().enumerate() {
        let key = compiled.fingerprint();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, indices)) => indices.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let mut reports: Vec<Option<VerifyReport>> = (0..batch.items.len()).map(|_| None).collect();
    for (_, indices) in &groups {
        let mut pool = VerifyScheduler::new(batch.sim, MIXED_THREADS, 1);
        let group_reports = pool
            .verify_batch(indices.iter().map(|&i| {
                let (program, compiled, plan) = &batch.items[i];
                (program, compiled, plan)
            }))
            .expect("setup succeeds");
        for (&i, report) in indices.iter().zip(group_reports) {
            reports[i] = Some(report);
        }
    }
    reports
        .into_iter()
        .map(|r| r.expect("every item verified"))
        .collect()
}

fn run_scheduler(scheduler: &mut VerifyScheduler, batch: &MixedBatch) -> Vec<VerifyReport> {
    // One heterogeneous fan-out, warm arenas, reports in input order.
    scheduler
        .verify_batch(batch.items.iter().map(|(p, c, plan)| (p, c, plan)))
        .expect("setup succeeds")
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

fn bench_parallel_verify(c: &mut Criterion) {
    let batch = certified_batch(PARALLEL_BATCH);
    let mut pool = VerifyScheduler::new(batch.sim, PARALLEL_THREADS, 1);
    let mut group = c.benchmark_group("parallel_verify");
    group.sample_size(10);
    group.bench_function(format!("sequential_arena_batch{PARALLEL_BATCH}"), |b| {
        b.iter(|| run_shared_arena(std::hint::black_box(&batch)));
    });
    group.bench_function(
        format!("pool{PARALLEL_THREADS}_batch{PARALLEL_BATCH}"),
        |b| {
            b.iter(|| run_pool(&mut pool, std::hint::black_box(&batch)));
        },
    );
    group.finish();
}

fn bench_mixed_verify(c: &mut Criterion) {
    let batch = mixed_batch(MIXED_BATCH);
    let mut scheduler = VerifyScheduler::new(batch.sim, MIXED_THREADS, MIXED_ARENAS);
    let mut group = c.benchmark_group("mixed_topology_verify");
    group.sample_size(10);
    group.bench_function(
        format!("per_topology_pools{MIXED_THREADS}_batch{MIXED_BATCH}"),
        |b| {
            b.iter(|| run_per_topology_pools(std::hint::black_box(&batch)));
        },
    );
    group.bench_function(
        format!("scheduler{MIXED_THREADS}_batch{MIXED_BATCH}"),
        |b| {
            b.iter(|| run_scheduler(&mut scheduler, std::hint::black_box(&batch)));
        },
    );
    group.finish();
}

/// Per-round minimum: the noise-robust statistic for wall-clock
/// comparisons on shared machines.
fn min_time(rounds: usize, mut f: impl FnMut() -> Vec<VerifyReport>) -> std::time::Duration {
    (0..rounds)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed()
        })
        .min()
        .expect("rounds >= 1")
}

/// The acceptance ratios, measured explicitly, asserted, and recorded in
/// `BENCH_verify.json`.
fn verify_acceptance_ratios(_c: &mut Criterion) {
    let quick = std::env::var("SYSTOLIC_BENCH_QUICK").is_ok_and(|v| v != "0");
    let rounds: usize = if quick { 4 } else { 6 };
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

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

    let per_run_time = min_time(rounds, || run_per_plan(&batch));
    let shared_time = min_time(rounds, || run_shared_arena(&batch));
    let shared_ratio = per_run_time.as_secs_f64() / shared_time.as_secs_f64().max(f64::EPSILON);
    println!(
        "verify_shared_arena_vs_per_run           per-run {per_run_time:>12?}   \
         shared {shared_time:>12?}   ratio {shared_ratio:>6.1}x (target >= {shared_target}x)"
    );

    // ---- Parallel pool vs sequential arena (256-plan batch). ----
    // The 2x acceptance floor presumes >= 4 cores (GitHub's standard
    // runners); fewer cores can at most assert the pool's coordination
    // overhead is bounded, so the floor degrades with the hardware and
    // the JSON records how many threads the ratio was measured on.
    let parallel_batch = certified_batch(PARALLEL_BATCH);
    let parallel_target = match (quick, hw_threads) {
        (_, 1) => 0.7,
        (true, _) => 1.0,
        (false, hw) if hw >= 4 => 2.0,
        (false, _) => 1.2,
    };
    let mut pool = VerifyScheduler::new(parallel_batch.sim, PARALLEL_THREADS, 1);

    // Parity again: the pool must be byte-identical to the sequential
    // path, reports in input order.
    let sequential = run_shared_arena(&parallel_batch);
    let pooled = run_pool(&mut pool, &parallel_batch);
    assert_eq!(
        pooled, sequential,
        "pool must match sequential reports in order"
    );

    let sequential_time = min_time(rounds, || run_shared_arena(&parallel_batch));
    let pool_time = min_time(rounds, || run_pool(&mut pool, &parallel_batch));
    let parallel_ratio = sequential_time.as_secs_f64() / pool_time.as_secs_f64().max(f64::EPSILON);
    println!(
        "verify_pool{PARALLEL_THREADS}_vs_sequential              seq {sequential_time:>12?}   \
         pool {pool_time:>12?}   ratio {parallel_ratio:>6.1}x \
         (target >= {parallel_target}x on {hw_threads} hw threads)"
    );

    // ---- Mixed-topology scheduler vs per-topology pools. ----
    // The baseline splits each interleaved window by topology and rebuilds
    // a cold per-topology pool every call; the persistent scheduler keeps
    // its arenas warm and dispatches the whole window in one fan-out. On a
    // 1-core or quick run the floor only bounds coordination overhead; a
    // full multi-core run must show the scheduler at least breaking even.
    let mixed = mixed_batch(MIXED_BATCH);
    let mixed_target = if quick || hw_threads == 1 { 0.8 } else { 1.0 };
    let mut scheduler = VerifyScheduler::new(mixed.sim, MIXED_THREADS, MIXED_ARENAS);

    // Parity: the heterogeneous fan-out must be byte-identical to the
    // split-by-topology reference, reports in input order.
    let split = run_per_topology_pools(&mixed);
    let scheduled = run_scheduler(&mut scheduler, &mixed);
    assert_eq!(
        scheduled, split,
        "scheduler must match per-topology pools in input order"
    );

    let split_time = min_time(rounds, || run_per_topology_pools(&mixed));
    let scheduler_time = min_time(rounds, || run_scheduler(&mut scheduler, &mixed));
    let mixed_ratio = split_time.as_secs_f64() / scheduler_time.as_secs_f64().max(f64::EPSILON);
    println!(
        "verify_scheduler{MIXED_THREADS}_vs_split_pools       split {split_time:>12?}   \
         sched {scheduler_time:>12?}   ratio {mixed_ratio:>6.1}x \
         (target >= {mixed_target}x on {hw_threads} hw threads)"
    );

    let json = format!(
        "{{\n  \"bench\": \"verify_batch\",\n  \"batch\": {BATCH},\n  \"rounds\": {rounds},\n  \
         \"per_run_min_secs\": {:.6},\n  \"shared_arena_min_secs\": {:.6},\n  \"ratio\": {:.2},\n  \
         \"target_ratio\": {shared_target},\n  \"parallel\": {{\n    \
         \"batch\": {PARALLEL_BATCH},\n    \"threads\": {PARALLEL_THREADS},\n    \
         \"hw_threads\": {hw_threads},\n    \"sequential_min_secs\": {:.6},\n    \
         \"pool_min_secs\": {:.6},\n    \"ratio\": {:.2},\n    \
         \"target_ratio\": {parallel_target}\n  }},\n  \"mixed\": {{\n    \
         \"batch\": {MIXED_BATCH},\n    \"threads\": {MIXED_THREADS},\n    \
         \"hw_threads\": {hw_threads},\n    \"per_topology_min_secs\": {:.6},\n    \
         \"scheduler_min_secs\": {:.6},\n    \"ratio\": {:.2},\n    \
         \"target_ratio\": {mixed_target}\n  }}\n}}\n",
        per_run_time.as_secs_f64(),
        shared_time.as_secs_f64(),
        shared_ratio,
        sequential_time.as_secs_f64(),
        pool_time.as_secs_f64(),
        parallel_ratio,
        split_time.as_secs_f64(),
        scheduler_time.as_secs_f64(),
        mixed_ratio,
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
    assert!(
        parallel_ratio >= parallel_target,
        "a {PARALLEL_THREADS}-thread one-topology pool must measure at least {parallel_target}x \
         the sequential arena over a {PARALLEL_BATCH}-plan batch on {hw_threads} hw \
         threads, measured {parallel_ratio:.2}x"
    );
    assert!(
        mixed_ratio >= mixed_target,
        "one {MIXED_THREADS}-thread VerifyScheduler fan-out must measure at least \
         {mixed_target}x the split-by-topology pools over a {MIXED_BATCH}-plan mixed \
         batch on {hw_threads} hw threads, measured {mixed_ratio:.2}x"
    );
}

criterion_group!(
    benches,
    bench_verify,
    bench_parallel_verify,
    bench_mixed_verify,
    verify_acceptance_ratios
);
criterion_main!(benches);
