//! Criterion bench for the incremental-reanalysis acceptance target:
//! applying a small append-only edit script to a *warm*
//! [`IncrementalSession`] must beat a from-scratch `Analyzer::diagnose`
//! of the edited program — same precompiled topology, so the measured win
//! is stage reuse, not topology compilation.
//!
//! Shape: a 16×16 mesh (256 cells) running a 255-message relay pipeline
//! (cell *k* interleaves `R(M_{k-1})`/`W(M_k)` word by word — the classic
//! systolic wavefront). Every message is labeled within the first wave,
//! and both arms' Section 6 labeling stops there, since a from-scratch
//! analysis also proves the program deadlock-free before it labels. What
//! the warm arm saves is the crossing-off, resumed from the base run's end
//! state instead of crossing every word, and the stages it reuses: routes,
//! competing sets, and the queue requirements when the labeling comes out
//! unchanged. The edit appends one balanced write/read word to the first
//! 4 relay messages (8 ops, 5 dirty cells, dirty ratio ≈ 0.02). Each warm
//! round re-seeds its session *outside* the timed region, so the timer
//! sees exactly one `apply`.
//!
//! Parity is asserted before timing (identical plan fingerprints and
//! diagnostics vs from-scratch), the measured ratio is recorded in
//! `BENCH_incremental.json` at the workspace root, and the floor is
//! asserted afterwards: ≥ 3× warm-session speedup in full mode, ≥ 2×
//! under `SYSTOLIC_BENCH_QUICK=1` (headroom for noisy shared runners).
//! The arms are timed in alternating rounds, each by its per-round
//! minimum, the noise-robust statistic.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use systolic_bench::alternating_minima;
use systolic_core::{
    AnalysisConfig, Analyzer, CompiledTopology, EditOp, IncrementalConfig, IncrementalSession,
};
use systolic_model::{Op, Program, ProgramBuilder, Topology};

/// Mesh side: 16×16 = 256 cells.
const SIDE: usize = 16;
const CELLS: usize = SIDE * SIDE;
/// Relay messages: M_k carries cell k -> cell k+1.
const CHAIN: usize = CELLS - 1;
/// Words per relay message (wavefront rounds).
const WORDS: usize = 12;
/// Messages extended by the edit batch (one balanced W/R pair each).
const APPENDED_PAIRS: usize = 4;

fn topology() -> Topology {
    Topology::mesh(SIDE, SIDE)
}

/// The base program: a relay pipeline. Cell `k`'s program interleaves
/// `R(M_{k-1})` and `W(M_k)` one word at a time, so crossing-off sweeps
/// a wavefront down the chain: every message is crossed (and therefore
/// labeled) within the first round, and the remaining `WORDS - 1` rounds
/// assign no further labels — exactly the shape the early-stopping
/// labeling driver exploits.
fn base_program() -> Program {
    let mut builder = ProgramBuilder::new(CELLS);
    for k in 0..CHAIN {
        builder
            .message(format!("M{k}"), k as u32, k as u32 + 1)
            .expect("message declares");
    }
    for _round in 0..WORDS {
        for k in 0..CHAIN {
            let name = format!("M{k}");
            builder.write_n(k as u32, &name, 1).expect("writes append");
            builder
                .read_n(k as u32 + 1, &name, 1)
                .expect("reads append");
        }
    }
    builder.build().expect("bench program is valid")
}

/// The edit batch: one more relay word on each of the first
/// `APPENDED_PAIRS` messages — 8 ops over 5 distinct cells, dirty
/// ratio ≈ 0.02.
fn edit_batch(program: &Program) -> Vec<EditOp> {
    (0..APPENDED_PAIRS)
        .flat_map(|k| {
            let m = program
                .message_id(&format!("M{k}"))
                .expect("message exists");
            let decl = program.message(m);
            [
                EditOp::AppendOp {
                    cell: decl.sender(),
                    op: Op::write(m),
                },
                EditOp::AppendOp {
                    cell: decl.receiver(),
                    op: Op::read(m),
                },
            ]
        })
        .collect()
}

fn config() -> AnalysisConfig {
    AnalysisConfig {
        // Plenty of hardware queues: this bench is about analysis
        // speed, not queue feasibility.
        queues_per_interval: 64,
        ..Default::default()
    }
}

fn seed_session(compiled: &Arc<CompiledTopology>, program: &Arc<Program>) -> IncrementalSession {
    IncrementalSession::seed(
        Analyzer::new(Arc::clone(compiled)),
        Arc::clone(program),
        IncrementalConfig::default(),
    )
}

fn bench_incremental(c: &mut Criterion) {
    let compiled = CompiledTopology::compile(&topology(), &config()).into_shared();
    let program = Arc::new(base_program());
    let edits = edit_batch(&program);

    // The edited program, as committed by one apply — the from-scratch
    // arm's input.
    let mut session = seed_session(&compiled, &program);
    let _ = session.apply(&edits).expect("edit batch applies");
    let edited = Arc::clone(session.program());

    let analyzer = Analyzer::new(Arc::clone(&compiled));
    let mut group = c.benchmark_group("incremental_edit");
    group.sample_size(10);
    group.bench_function(format!("from_scratch_{CHAIN}relay"), |b| {
        b.iter(|| analyzer.diagnose(std::hint::black_box(&edited)));
    });
    // The vendored criterion has no `iter_batched`, so this arm times
    // seed + apply together; `incremental_acceptance_ratio` below times
    // the pure warm apply by seeding outside its timer.
    group.bench_function(format!("seed_plus_apply_{CHAIN}relay"), |b| {
        b.iter(|| {
            let mut session = seed_session(&compiled, &program);
            session.apply(std::hint::black_box(&edits)).unwrap()
        });
    });
    group.finish();
}

/// The acceptance ratio, measured explicitly, asserted, and recorded in
/// `BENCH_incremental.json`.
fn incremental_acceptance_ratio(_c: &mut Criterion) {
    let quick = std::env::var("SYSTOLIC_BENCH_QUICK").is_ok_and(|v| v != "0");
    let rounds: usize = if quick { 4 } else { 6 };
    let target = if quick { 2.0 } else { 3.0 };

    let compiled = CompiledTopology::compile(&topology(), &config()).into_shared();
    let program = Arc::new(base_program());
    let edits = edit_batch(&program);
    let analyzer = Analyzer::new(Arc::clone(&compiled));

    // Parity first: the warm apply must commit exactly the outcome a
    // from-scratch diagnose of the edited program produces.
    let mut session = seed_session(&compiled, &program);
    let report = session.apply(&edits).expect("edit batch applies");
    assert!(
        report.fallback.is_none(),
        "dirty ratio must stay incremental"
    );
    assert!(report.resumed_classification, "appends resume crossing-off");
    assert!(report.reused_routes && report.reused_competing);
    let edited = Arc::clone(session.program());
    let fresh = analyzer.diagnose(&edited);
    let (a, b) = (
        session.outcome().result().expect("bench program certifies"),
        fresh.result().expect("bench program certifies"),
    );
    assert_eq!(
        a.plan().fingerprint(),
        b.plan().fingerprint(),
        "incremental and from-scratch plans must be byte-identical"
    );
    assert_eq!(session.outcome().diagnostics(), fresh.diagnostics());

    // From-scratch arm: full diagnose of the edited program on the shared
    // precompiled topology. Warm arm: each round re-seeds outside the
    // timer, then times one apply of the same batch.
    let (scratch_time, incremental_time) = alternating_minima(
        rounds,
        || {
            let started = Instant::now();
            std::hint::black_box(analyzer.diagnose(std::hint::black_box(&edited)));
            started.elapsed()
        },
        || {
            let mut session = seed_session(&compiled, &program);
            let started = Instant::now();
            let _ = std::hint::black_box(session.apply(std::hint::black_box(&edits)).unwrap());
            started.elapsed()
        },
    );

    let ratio = scratch_time.as_secs_f64() / incremental_time.as_secs_f64().max(f64::EPSILON);
    println!(
        "incremental_warm_apply_vs_from_scratch   scratch {scratch_time:>12?}   \
         warm {incremental_time:>12?}   ratio {ratio:>6.1}x (target >= {target}x)"
    );

    let json = format!(
        "{{\n  \"bench\": \"incremental_edit\",\n  \"mesh\": \"{SIDE}x{SIDE}\",\n  \
         \"relay_messages\": {CHAIN},\n  \"words_per_message\": {WORDS},\n  \
         \"appended_ops\": {},\n  \"rounds\": {rounds},\n  \
         \"dirty_cells\": {},\n  \"total_cells\": {},\n  \
         \"from_scratch_min_secs\": {:.6},\n  \"warm_apply_min_secs\": {:.6},\n  \
         \"ratio\": {:.2},\n  \"target_ratio\": {target}\n}}\n",
        edits.len(),
        report.dirty_cells,
        report.total_cells,
        scratch_time.as_secs_f64(),
        incremental_time.as_secs_f64(),
        ratio,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    }

    assert!(
        ratio >= target,
        "a warm incremental apply of {} appended ops must be at least {target}x faster \
         than a from-scratch analysis of the {CHAIN}-message relay program, measured {ratio:.2}x",
        edits.len()
    );
}

criterion_group!(benches, bench_incremental, incremental_acceptance_ratio);
criterion_main!(benches);
