//! Quickstart: reproduce the paper's Fig. 7 deadlock and its cure.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds the Fig. 7 program (three messages competing for single-queue
//! intervals), shows the naive runtime deadlocking, then runs the paper's
//! pipeline — crossing-off, consistent labeling, compatible queue
//! assignment — through the staged `Analyzer` API and shows the same
//! program completing. Finally analyzes a genuinely deadlocked program to
//! show the structured diagnostics a rejection carries.

use systolic::core::{AnalysisConfig, Analyzer, CompiledTopology};
use systolic::model::parse_program;
use systolic::sim::{run_simulation, CompatiblePolicy, FifoPolicy, RunOutcome, SimConfig};
use systolic::workloads::{fig7, fig7_topology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = fig7(3);
    let topology = fig7_topology();
    println!(
        "Fig. 7 program:\n{}",
        systolic::model::side_by_side(&program)
    );

    // 1. A label-blind first-come-first-served runtime deadlocks.
    let naive = run_simulation(
        &program,
        &topology,
        Box::new(FifoPolicy::new()),
        SimConfig::default(),
    )?;
    let RunOutcome::Deadlocked { report, .. } = &naive else {
        return Err(format!("naive FIFO assignment did not deadlock: {naive:?}").into());
    };
    println!("naive FIFO assignment:\n{}", report.render(&program));

    // 2. Compile the topology once, then run the paper's staged analysis:
    //    crossing-off, consistent labeling, queue requirements.
    let compiled = CompiledTopology::compile(&topology, &AnalysisConfig::default()).into_shared();
    let analyzer = Analyzer::new(compiled);
    let session = analyzer.session(&program);
    println!(
        "crossing-off: deadlock-free in {} steps",
        session.classification()?.trace().steps().len()
    );
    println!("labels (consistent, per Section 6):");
    for (m, label) in session.labeling()?.iter() {
        println!("  {} -> {}", program.message(m).name(), label);
    }
    println!(
        "queue requirement: {} per interval",
        session.requirements()?.max_per_interval()
    );

    // 3. ...and compatible assignment completes the run (Theorem 1).
    let plan = session.plan()?.clone();
    let safe = run_simulation(
        &program,
        &topology,
        Box::new(CompatiblePolicy::new(plan)),
        SimConfig::default(),
    )?;
    let RunOutcome::Completed(stats) = safe else {
        return Err(format!("compatible assignment did not complete: {safe:?}").into());
    };
    println!(
        "compatible assignment: completed in {} cycles ({} words delivered)",
        stats.cycles, stats.words_delivered
    );

    // 4. A genuinely deadlocked program is rejected with structured
    //    diagnostics: a machine-readable code plus the offending ids.
    let deadlocked = parse_program(
        "cells 2\n\
         message A: c0 -> c1\n\
         message B: c1 -> c0\n\
         program c0 { R(B) W(A) }\n\
         program c1 { R(A) W(B) }\n",
    )?;
    let bad = Analyzer::for_topology(
        &systolic::model::Topology::linear(2),
        &AnalysisConfig::default(),
    );
    let outcome = bad.diagnose(&deadlocked);
    println!("\ncross-reading pair:");
    for diagnostic in outcome.diagnostics() {
        println!(
            "  {} (cells {:?}, messages {:?})",
            diagnostic,
            diagnostic.cell_ids(),
            diagnostic.message_ids()
        );
    }
    Ok(())
}
