//! Criterion benches for the cycle-stepped simulator (F1, F7): systolic vs
//! memory-to-memory cost models, the policy comparison on Fig. 7, and
//! arena reuse (one `SimArena` across a stream of replays vs a fresh
//! `run_simulation` per run).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use systolic_core::{AnalysisConfig, Analyzer, CommPlan};
use systolic_sim::{
    run_simulation, AssignmentPolicy, CompatiblePolicy, CostModel, FifoPolicy, QueueConfig,
    SimArena, SimConfig,
};
use systolic_workloads as wl;

fn config(queues: usize, capacity: usize, cost: CostModel) -> SimConfig {
    SimConfig {
        queues_per_interval: queues,
        queue: QueueConfig {
            capacity,
            extension: false,
        },
        cost,
        max_cycles: 10_000_000,
    }
}

fn compatible(
    program: &systolic_model::Program,
    topology: &systolic_model::Topology,
    queues: usize,
) -> Box<dyn AssignmentPolicy> {
    let config = AnalysisConfig {
        queues_per_interval: queues,
        ..Default::default()
    };
    let plan = Analyzer::for_topology(topology, &config)
        .analyze(program)
        .expect("analyzes")
        .into_plan();
    Box::new(CompatiblePolicy::new(plan))
}

/// F1: the communication-model comparison at simulator level.
fn bench_comm_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig01_comm_models");
    group.sample_size(20);
    for n in [64usize, 256] {
        let program = wl::fir(3, n).expect("valid");
        let topology = wl::fir_topology(3);
        group.bench_with_input(BenchmarkId::new("systolic", n), &program, |b, p| {
            b.iter(|| {
                let policy = compatible(p, &topology, 2);
                run_simulation(p, &topology, policy, config(2, 1, CostModel::systolic()))
                    .expect("sim builds")
                    .is_completed()
            });
        });
        group.bench_with_input(BenchmarkId::new("mem2mem", n), &program, |b, p| {
            b.iter(|| {
                let policy = compatible(p, &topology, 2);
                run_simulation(
                    p,
                    &topology,
                    policy,
                    config(2, 1, CostModel::memory_to_memory()),
                )
                .expect("sim builds")
                .is_completed()
            });
        });
    }
    group.finish();
}

/// F7: deadlock detection (fifo) vs completion (compatible).
fn bench_fig7_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig07_policies");
    group.sample_size(20);
    for len in [8usize, 32] {
        let program = wl::fig7(len);
        let topology = wl::fig7_topology();
        group.bench_with_input(BenchmarkId::new("fifo_deadlock", len), &program, |b, p| {
            b.iter(|| {
                run_simulation(
                    p,
                    &topology,
                    Box::new(FifoPolicy::new()),
                    config(1, 1, CostModel::systolic()),
                )
                .expect("sim builds")
                .is_deadlocked()
            });
        });
        group.bench_with_input(BenchmarkId::new("compatible", len), &program, |b, p| {
            b.iter(|| {
                let policy = compatible(p, &topology, 1);
                run_simulation(p, &topology, policy, config(1, 1, CostModel::systolic()))
                    .expect("sim builds")
                    .is_completed()
            });
        });
    }
    group.finish();
}

/// Simulator throughput on larger structured workloads.
fn bench_workload_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_sim");
    group.sample_size(10);
    let cases: Vec<(&str, systolic_model::Program, systolic_model::Topology)> = vec![
        (
            "fir(8,256)",
            wl::fir(8, 256).expect("valid"),
            wl::fir_topology(8),
        ),
        (
            "wavefront(4,4,8)",
            wl::wavefront(4, 4, 8).expect("valid"),
            wl::wavefront_topology(4, 4),
        ),
        (
            "seq_align(8,64)",
            wl::seq_align(8, 64).expect("valid"),
            wl::seq_align_topology(8),
        ),
    ];
    for (name, program, topology) in cases {
        group.bench_function(name, |b| {
            b.iter(|| {
                let policy = compatible(&program, &topology, 8);
                run_simulation(
                    &program,
                    &topology,
                    policy,
                    config(8, 2, CostModel::systolic()),
                )
                .expect("sim builds")
                .is_completed()
            });
        });
    }
    group.finish();
}

/// Arena reuse on a replay stream: one `SimArena` resetting in place and
/// replaying over each plan's routes vs a fresh arena (pools + routing)
/// per `run_simulation` call.
fn bench_arena_replay(c: &mut Criterion) {
    let topology = wl::fig7_topology();
    let a_config = AnalysisConfig::default();
    let items: Vec<(systolic_model::Program, Arc<CommPlan>)> = (2..10)
        .map(|reps| {
            let program = wl::fig7(reps);
            let plan = Analyzer::for_topology(&topology, &a_config)
                .analyze(&program)
                .expect("fig7 certifies")
                .into_plan();
            (program, Arc::new(plan))
        })
        .collect();
    let sim = config(1, 1, CostModel::systolic());

    let mut group = c.benchmark_group("arena_replay");
    group.sample_size(20);
    group.bench_function("fresh_simulation_per_run", |b| {
        b.iter(|| {
            items
                .iter()
                .filter(|(program, plan)| {
                    run_simulation(
                        program,
                        &topology,
                        Box::new(CompatiblePolicy::new(Arc::clone(plan))),
                        sim,
                    )
                    .expect("sim builds")
                    .is_completed()
                })
                .count()
        });
    });
    group.bench_function("shared_arena", |b| {
        b.iter(|| {
            let mut arena = SimArena::new(&topology, sim);
            items
                .iter()
                .filter(|(program, plan)| {
                    let mut policy = CompatiblePolicy::new(Arc::clone(plan));
                    arena
                        .run(program, plan.routes(), &mut policy)
                        .expect("sim builds")
                        .is_completed()
                })
                .count()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_comm_models,
    bench_fig7_policies,
    bench_workload_sim,
    bench_arena_replay
);
criterion_main!(benches);
