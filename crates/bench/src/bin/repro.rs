//! Regenerates every figure of the paper plus the extension experiments,
//! printing one table per experiment.
//!
//! Usage:
//!
//! ```text
//! repro            # print all experiments as text
//! repro --markdown # print as markdown tables
//! repro F7 T1      # print selected experiments only (ids are case-insensitive)
//! ```
//!
//! An unknown id or flag prints a usage line to stderr and exits 2 before
//! any experiment runs.

use std::process::ExitCode;

use systolic_bench::EXPERIMENTS;

fn main() -> ExitCode {
    let mut markdown = false;
    let mut wanted = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--markdown" {
            markdown = true;
        } else if let Some(index) = EXPERIMENTS
            .iter()
            .position(|(id, _)| id.eq_ignore_ascii_case(&arg))
        {
            wanted.push(index);
        } else {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
            eprintln!(
                "repro: unknown argument `{arg}`\nusage: repro [--markdown] [ID ...]  (IDs: {})",
                ids.join(" ")
            );
            return ExitCode::from(2);
        }
    }

    for (index, (_, run)) in EXPERIMENTS.iter().enumerate() {
        if !wanted.is_empty() && !wanted.contains(&index) {
            continue;
        }
        let e = run();
        println!("## {} — {}", e.id, e.title);
        println!();
        if markdown {
            println!("{}", e.table.to_markdown());
        } else {
            println!("{}", e.table.to_text());
        }
        for note in &e.notes {
            println!("note: {note}");
        }
        println!();
    }
    ExitCode::SUCCESS
}
