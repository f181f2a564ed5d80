//! Criterion benches for the compile-time analysis passes (E1):
//! crossing-off classification, lookahead, labeling, the full pipeline, and
//! the `chain` scaling probe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use systolic_core::{
    classify, classify_with, label_messages, AnalysisConfig, Analyzer, LookaheadLimits,
};
use systolic_model::{Program, ProgramBuilder};
use systolic_workloads as wl;

fn bench_classify(c: &mut Criterion) {
    let mut group = c.benchmark_group("classify");
    group.sample_size(20);
    for n in [64usize, 256, 1024] {
        let program = wl::fir(3, n).expect("valid FIR");
        group.bench_with_input(BenchmarkId::new("fir3", n), &program, |b, p| {
            b.iter(|| classify(std::hint::black_box(p)).is_deadlock_free());
        });
    }
    let wide = wl::seq_align(16, 64).expect("valid");
    group.bench_function("seq_align(16,64)", |b| {
        b.iter(|| classify(std::hint::black_box(&wide)).is_deadlock_free());
    });
    group.finish();
}

fn bench_lookahead(c: &mut Criterion) {
    let mut group = c.benchmark_group("classify_lookahead");
    group.sample_size(20);
    let p1 = wl::fig5_p1();
    for cap in [1usize, 2, 8] {
        let limits = LookaheadLimits::uniform(&p1, cap);
        group.bench_with_input(BenchmarkId::new("p1_cap", cap), &limits, |b, l| {
            b.iter(|| classify_with(std::hint::black_box(&p1), l).is_deadlock_free());
        });
    }
    // A deep skip: W(A)*n W(B) pattern forces long scans.
    for n in [32usize, 128] {
        let text = format!(
            "cells 2\nmessage A: c0 -> c1\nmessage B: c0 -> c1\n\
             program c0 {{ W(A)*{n} W(B) }}\nprogram c1 {{ R(B) R(A)*{n} }}\n"
        );
        let program = systolic_model::parse_program(&text).expect("valid");
        let limits = LookaheadLimits::unbounded(&program);
        group.bench_with_input(BenchmarkId::new("deep_skip", n), &program, |b, p| {
            b.iter(|| classify_with(std::hint::black_box(p), &limits).is_deadlock_free());
        });
    }
    group.finish();
}

fn bench_labeling(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_messages");
    group.sample_size(20);
    for n in [64usize, 256, 1024] {
        let program = wl::fir(3, n).expect("valid FIR");
        let limits = LookaheadLimits::disabled(&program);
        group.bench_with_input(BenchmarkId::new("fir3", n), &program, |b, p| {
            b.iter(|| label_messages(std::hint::black_box(p), &limits).expect("labels"));
        });
    }
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("analyze_pipeline");
    group.sample_size(20);
    let cases: Vec<(&str, systolic_model::Program, systolic_model::Topology)> = vec![
        ("fig7(16)", wl::fig7(16), wl::fig7_topology()),
        (
            "fir(3,256)",
            wl::fir(3, 256).expect("valid"),
            wl::fir_topology(3),
        ),
        (
            "matmul(4,4,16)",
            wl::mesh_matmul(4, 4, 16).expect("valid"),
            wl::matmul_topology(4, 4),
        ),
    ];
    for (name, program, topology) in cases {
        let config = AnalysisConfig {
            queues_per_interval: 8,
            ..Default::default()
        };
        let analyzer = Analyzer::for_topology(&topology, &config);
        group.bench_function(name, |b| {
            b.iter(|| {
                analyzer
                    .analyze(std::hint::black_box(&program))
                    .expect("analyzes")
            });
        });
    }
    group.finish();
}

/// `n` one-word messages that `c0` writes and `c1` reads in the same order.
/// Every message shares both cells, so a procedure that re-examines every
/// message per crossed word is quadratic here; the ready set is linear.
fn chain(n: usize) -> Program {
    let mut b = ProgramBuilder::new(2);
    for i in 0..n {
        let name = format!("M{i}");
        b.message(name.as_str(), 0u32, 1u32).expect("fresh name");
        b.write(0u32, &name).expect("declared");
        b.read(1u32, &name).expect("declared");
    }
    b.build().expect("valid chain")
}

fn bench_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain");
    group.sample_size(10);
    for n in [1024usize, 2048, 4096, 8192] {
        let program = chain(n);
        let limits = LookaheadLimits::disabled(&program);
        group.bench_with_input(BenchmarkId::new("classify", n), &program, |b, p| {
            b.iter(|| classify(std::hint::black_box(p)).is_deadlock_free());
        });
        group.bench_with_input(BenchmarkId::new("label", n), &program, |b, p| {
            b.iter(|| label_messages(std::hint::black_box(p), &limits).expect("labels"));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_classify,
    bench_lookahead,
    bench_labeling,
    bench_pipeline,
    bench_chain
);
criterion_main!(benches);
