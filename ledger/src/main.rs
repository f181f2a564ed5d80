//! `systolic_ledger --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints its metrics by name with units, a run
//! record, and — as the last line — a JSON result object. `--trace 1`
//! runs the traced variant instead: per-layer metrics, a self-time table
//! per layer, and the span log written as JSONL under `out/`. `--workload
//! all` runs every workload, each in its own process.

use std::process::{Command, ExitCode};

use systolic_ledger::harness::{self, Metrics, Options};
use systolic_ledger::trace::{self, SpanLog};
use systolic_ledger::{cold_verify, edit_stream, hot_mix, Outcome, WORKLOADS};

fn run_one(options: &Options) -> Result<Outcome, String> {
    let workload = options.workload.as_str();
    if !options.trace {
        return match workload {
            "hot_mix" => Ok(hot_mix::run(options)),
            "cold_verify" => Ok(cold_verify::run(options)),
            "edit_stream" => Ok(edit_stream::run(options)),
            other => Err(format!("unknown workload {other}")),
        };
    }
    let mut log = SpanLog::default();
    let outcome = match workload {
        "hot_mix" => hot_mix::traced(options, &mut log),
        "cold_verify" => cold_verify::traced(options, &mut log),
        "edit_stream" => edit_stream::traced(options, &mut log),
        other => return Err(format!("unknown workload {other}")),
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{}.jsonl", options.seed));
    log.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let (table, unattributed) = trace::layer_table(&log);
    println!(
        "{workload}: {} spans written to {}",
        log.spans().len(),
        path.display()
    );
    print!("{table}");
    let overhead = outcome
        .metrics
        .iter()
        .find(|(name, _, _)| name == "bench.trace_overhead_frac")
        .map_or(0.0, |m| m.1);
    println!("bench.unattributed_frac {unattributed:.4}");
    println!("bench.trace_overhead_frac {overhead:.4}");
    Ok(outcome)
}

/// Runs every workload in a child process of its own (so each reports
/// its own peak RSS) and merges their result lines, metric names
/// prefixed by workload.
fn run_all(options: &Options) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut merged = Outcome {
        attempted: 0,
        failed: 0,
        metrics: Metrics::new(),
    };
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("running {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        if !output.status.success() {
            return Err(format!(
                "{workload} failed: {}",
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        for line in lines {
            println!("{line}");
        }
        let result = systolic_service::Json::parse(last).map_err(|e| format!("{workload}: {e}"))?;
        merged.attempted += result
            .get("attempted")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        merged.failed += result.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        if let Some(systolic_service::Json::Obj(metrics)) = result.get("metrics") {
            for (name, metric) in metrics {
                let value = match metric.get("value") {
                    Some(systolic_service::Json::Num(v)) => *v,
                    _ => 0.0,
                };
                let unit = match metric.get("unit").and_then(|u| u.as_str()) {
                    Some(unit) => harness::unit(unit),
                    None => "",
                };
                merged
                    .metrics
                    .push((format!("{workload}.{name}"), value, unit));
            }
        }
    }
    Ok(merged)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match Options::parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\nusage: systolic_ledger --workload <hot_mix|cold_verify|edit_stream|all> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = if options.workload == "all" {
        run_all(&options)
    } else {
        run_one(&options)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if options.workload != "all" {
        harness::print_metrics(&options.workload, &outcome.metrics);
        println!(
            "{}",
            harness::run_record(&options, outcome.attempted, outcome.failed)
        );
    }
    println!(
        "{}",
        harness::result_line(outcome.attempted, outcome.failed, &outcome.metrics)
    );
    ExitCode::SUCCESS
}
