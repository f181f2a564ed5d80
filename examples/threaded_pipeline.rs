//! Theorem 1 on real OS threads.
//!
//! ```text
//! cargo run --example threaded_pipeline
//! ```
//!
//! Runs the paper's programs on the `systolic-threaded` runtime: each cell
//! is a thread, words move through the simulator's bounded queues, and
//! the OS scheduler interleaves freely. The runtime takes the simulator's
//! policy objects. Compatible assignment completes every time (Theorem 1
//! is scheduling independent), and the example fails if it does not.
//! Under the naive FIFO discipline Fig. 7 deadlocks only on some
//! interleavings: when message A takes the queue between cells c2 and c3
//! before message C asks for it. The runtime decides the deadlock when
//! every unfinished thread waits; otherwise the FIFO run completes.

use systolic::core::{AnalysisConfig, Analyzer};
use systolic::sim::{CompatiblePolicy, FifoPolicy};
use systolic::threaded::{run_threaded, ThreadedConfig, ThreadedOutcome};
use systolic::workloads::{
    fig2_fir, fig2_topology, fig7, fig7_topology, seq_align, seq_align_topology,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fig. 7 under compatible assignment: five runs, five completions,
    // regardless of scheduling.
    let program = fig7(3);
    let topology = fig7_topology();
    // One compilation for all five runs.
    let analyzer = Analyzer::for_topology(&topology, &AnalysisConfig::default());
    for attempt in 1..=5 {
        let plan = analyzer.analyze(&program)?.into_plan();
        let outcome = run_threaded(
            &program,
            &topology,
            Box::new(CompatiblePolicy::new(plan)),
            ThreadedConfig::default(),
        )?;
        let ThreadedOutcome::Completed {
            words_delivered,
            elapsed,
        } = outcome
        else {
            return Err(format!("fig7 compatible, run {attempt}: {outcome:?}").into());
        };
        println!("fig7 compatible, run {attempt}: {words_delivered} words in {elapsed:.2?}");
    }

    // The same program under FIFO: a deadlock on some interleavings.
    let outcome = run_threaded(
        &program,
        &topology,
        Box::new(FifoPolicy::new()),
        ThreadedConfig::default(),
    )?;
    match outcome {
        ThreadedOutcome::Deadlocked { blocked } => {
            println!("\nfig7 fifo: deadlocked; blocked threads:");
            for b in blocked {
                println!("  {b}");
            }
        }
        ThreadedOutcome::Completed { .. } => {
            println!("\nfig7 fifo: this interleaving escaped the deadlock and completed");
        }
    }

    // The FIR filter and a P-NAC-style alignment, on threads.
    let fir = fig2_fir();
    let fir_top = fig2_topology();
    let fir_config = AnalysisConfig {
        queues_per_interval: 2,
        ..Default::default()
    };
    let plan = Analyzer::for_topology(&fir_top, &fir_config)
        .analyze(&fir)?
        .into_plan();
    let outcome = run_threaded(
        &fir,
        &fir_top,
        Box::new(CompatiblePolicy::new(plan)),
        ThreadedConfig {
            queues_per_interval: 2,
            ..Default::default()
        },
    )?;
    if !outcome.is_completed() {
        return Err(format!("fig2 FIR on threads: {outcome:?}").into());
    }
    println!("\nfig2 FIR on threads: {outcome:?}");

    let align = seq_align(4, 16)?;
    let align_top = seq_align_topology(4);
    let align_config = AnalysisConfig {
        queues_per_interval: 3,
        ..Default::default()
    };
    let plan = Analyzer::for_topology(&align_top, &align_config)
        .analyze(&align)?
        .into_plan();
    let outcome = run_threaded(
        &align,
        &align_top,
        Box::new(CompatiblePolicy::new(plan)),
        ThreadedConfig {
            queues_per_interval: 3,
            ..Default::default()
        },
    )?;
    if !outcome.is_completed() {
        return Err(format!("seq_align(4,16) on threads: {outcome:?}").into());
    }
    println!("seq_align(4,16) on threads: {outcome:?}");
    Ok(())
}
