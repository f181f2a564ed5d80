//! Criterion bench for the shared-compilation win (acceptance target of
//! the `Analyzer` redesign): a batch of ≥ 64 cache-miss requests that all
//! name one topology must run ≥ 1.3× faster when the misses share one
//! [`CompiledTopology`] than when each request compiles its own — the
//! difference between `Analyzer::new(shared)` in a loop and
//! `Analyzer::for_topology` per request.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use systolic_core::{AnalysisConfig, Analyzer, CompiledTopology};
use systolic_model::{CellId, Program, ProgramBuilder, Topology};

const BATCH: usize = 64;
const CELLS: usize = 64;

/// A 64-cell chorded ring: enough diameter that graph routing (BFS)
/// does real work per message, which is exactly what the compiled route
/// closure amortizes.
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

/// A deadlock-free program with `CELLS` messages between pseudo-random
/// far-apart pairs: every cell accesses its messages in ascending global
/// message order, so the crossing-off procedure consumes them
/// sequentially. Distinct per `seed`.
fn program(seed: u64) -> Program {
    let mut builder = ProgramBuilder::new(CELLS);
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    for k in 0..CELLS {
        let sender = next(CELLS);
        // A far receiver: at least a quarter of the ring away.
        let receiver = (sender + CELLS / 4 + next(CELLS / 2)) % CELLS;
        let name = format!("M{k}");
        builder
            .message(&name, sender as u32, receiver as u32)
            .expect("message declares");
        let words = 1 + next(2);
        builder
            .write_n(sender as u32, &name, words)
            .expect("writes append");
        builder
            .read_n(receiver as u32, &name, words)
            .expect("reads append");
    }
    builder.build().expect("bench programs are valid")
}

fn batch() -> Vec<Program> {
    (0..BATCH as u64).map(program).collect()
}

fn config() -> AnalysisConfig {
    AnalysisConfig {
        queues_per_interval: 64,
        ..Default::default()
    }
}

fn run_per_request(topology: &Topology, config: &AnalysisConfig, programs: &[Program]) -> usize {
    // Each request compiles its own topology.
    programs
        .iter()
        .filter(|p| Analyzer::for_topology(topology, config).analyze(p).is_ok())
        .count()
}

fn run_shared(topology: &Topology, config: &AnalysisConfig, programs: &[Program]) -> usize {
    // One compilation, shared by every miss of the batch.
    let analyzer = Analyzer::new(CompiledTopology::compile(topology, config));
    programs
        .iter()
        .filter(|p| analyzer.analyze(p).is_ok())
        .count()
}

fn bench_batch(c: &mut Criterion) {
    let topology = topology();
    let config = config();
    let programs = batch();
    let mut group = c.benchmark_group("compiled_topology");
    group.sample_size(10);
    group.bench_function(format!("per_request_batch{BATCH}"), |b| {
        b.iter(|| run_per_request(&topology, &config, std::hint::black_box(&programs)));
    });
    group.bench_function(format!("shared_batch{BATCH}"), |b| {
        b.iter(|| run_shared(&topology, &config, std::hint::black_box(&programs)));
    });
    group.finish();
}

/// The acceptance ratio, measured explicitly and asserted: sharing one
/// `CompiledTopology` across a 64-request cache-miss batch must beat
/// per-request compilation by ≥ 1.3×.
fn shared_vs_per_request_ratio(_c: &mut Criterion) {
    let topology = topology();
    let config = config();
    let programs = batch();
    const ROUNDS: usize = 6;

    // Both paths certify the same number of programs (sanity first).
    let certified = run_shared(&topology, &config, &programs);
    assert_eq!(certified, run_per_request(&topology, &config, &programs));
    assert!(
        certified >= BATCH / 2,
        "bench programs should mostly certify"
    );

    let per_request_started = Instant::now();
    for _ in 0..ROUNDS {
        assert_eq!(run_per_request(&topology, &config, &programs), certified);
    }
    let per_request = per_request_started.elapsed();

    let shared_started = Instant::now();
    for _ in 0..ROUNDS {
        assert_eq!(run_shared(&topology, &config, &programs), certified);
    }
    let shared = shared_started.elapsed();

    let ratio = per_request.as_secs_f64() / shared.as_secs_f64().max(f64::EPSILON);
    println!(
        "compiled_shared_vs_per_request           per-request {per_request:>12?}   \
         shared {shared:>12?}   ratio {ratio:>6.1}x (target >= 1.3x)"
    );
    assert!(
        ratio >= 1.3,
        "shared compilation must be at least 1.3x faster than per-request \
         compilation over a {BATCH}-request batch, measured {ratio:.2}x"
    );
}

criterion_group!(benches, bench_batch, shared_vs_per_request_ratio);
criterion_main!(benches);
