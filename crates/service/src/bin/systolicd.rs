//! `systolicd` — the JSONL front end of the analysis service.
//!
//! ```text
//! systolicd gen   --count 1000 [--seed 42] [--hot-percent 50]
//! systolicd serve [FILE] [--workers 4] [--shards 8] [--capacity 256]
//!                 [--queue-depth 64] [--verify] [--verify-threads N]
//!                 [--arena-cache-cap N]
//!                 [--session-cap N] [--incremental-fallback-ratio R]
//!                 [--snapshot-load PATH] [--snapshot-save PATH]
//!                 [--snapshot-every N]
//!                 [--summary] [--summary-json]
//!                 [--metrics-file PATH] [--trace-file PATH]
//! ```
//!
//! All flags are parsed and validated by [`systolic_service::daemon`];
//! this binary is the I/O loop. `gen` writes a deterministic stream of
//! mixed workload requests (one JSON object per line) to stdout. `serve`
//! reads request lines from FILE (or stdin), drives them through the
//! service with bounded backpressure, and streams one JSON response per
//! line to stdout in request order; `--verify` chases every certified
//! miss with a simulator replay on the analysis worker that computed it,
//! through a warm-arena cache borrowed from the verifier pool.
//! `--verify-threads N` sets the pool size, which caps concurrent
//! replays; `0` (the default) means one per analysis worker. Each
//! warm-arena cache keeps at most `--arena-cache-cap N` arenas (default
//! 4; `0` means 1, as `--workers 0` does) and evicts the least recently
//! used one past that. This count is the one residency setting: the
//! per-cache byte budget flag was removed, and passing it is a usage
//! error. `--summary` prints a throughput/latency/cache table —
//! including arena-cache counters and a per-topology verified/blocked
//! breakdown — to stderr, rendered from the
//! same registry snapshot `--metrics-file` exports.
//!
//! Incremental edits: a request line `{"op": "edit", "base": "0x...",
//! "ops": [...]}` reanalyzes an earlier program (named by its response
//! `fingerprint`) through a warm dirty-tracked session instead of from
//! scratch; `--session-cap N` bounds the warm-session table (default 64,
//! LRU eviction) and `--incremental-fallback-ratio R` sets the dirty-cell
//! fraction above which an edit falls back to a from-scratch analysis
//! (default 0.5). Edit responses carry `cache: "incremental"` and a
//! `reuse` object; the summary table gains `incremental *` rows once any
//! edit was served.
//!
//! Snapshot persistence: `--snapshot-load PATH` warms the plan cache from
//! a snapshot before the first request (a rejected load — missing file,
//! corrupt bytes, another format version — keeps serving cold, never
//! partially warmed); `--snapshot-save PATH` writes a snapshot when the
//! stream ends, `--snapshot-every N` additionally autosaves after every
//! `N` served requests, and a request line `{"op": "snapshot"}` saves
//! mid-stream after flushing every prior request and answers with a
//! `status: "snapshot"` report. Warmed cache hits respond with
//! `cache: "warm"` and the summary table gains `snapshot *` rows.
//!
//! Observability: `--summary-json` prints the summary as one JSON object
//! to stderr; `--metrics-file PATH` writes the full metrics registry as a
//! Prometheus text exposition on exit; `--trace-file PATH` writes the span
//! log (one JSON object per finished span, `trace` ids matching the
//! `trace` field of wire responses) as JSONL on exit. A request line
//! `{"op": "metrics"}` dumps the registry as one JSON response mid-stream
//! after flushing every prior request. A line longer than
//! `wire::MAX_LINE_BYTES` (1 MiB) is skipped without being buffered, and
//! a program beyond a `SizeLimit` is refused before it is built; both are
//! answered `status: "invalid"` like any malformed line, and serving goes
//! on. Exit
//! status is 0 when every line was a well-formed request (rejected
//! analyses still count as served), 2 on usage errors, 1 when some lines
//! were malformed.
//!
//! A full round trip:
//!
//! ```text
//! systolicd gen --count 1000 --seed 7 > requests.jsonl
//! systolicd serve requests.jsonl --workers 8 --summary \
//!     --snapshot-save warm.snap > responses.jsonl
//! systolicd serve requests.jsonl --snapshot-load warm.snap --summary \
//!     > responses2.jsonl   # instant warm cache, responses say "warm"
//! ```

use std::io::{BufReader, Read, Write};
use std::path::Path;
use std::time::Instant;

use systolic_service::daemon::{DaemonCommand, GenOptions, OptionsError, ServeOptions, USAGE};
use systolic_service::summary::{summary_json, summary_table, RunTotals};
use systolic_service::wire::{parse_line, BoundedLines, WireRequest, WireResponse};
use systolic_service::{AnalysisService, Json, Ticket};
use systolic_workloads::traffic;

/// Writes one output line, turning stdout failures into process exits
/// instead of panics: a broken pipe (`systolicd ... | head`) is the normal
/// way for a consumer to hang up, so it exits 0; anything else is a real
/// I/O failure and exits 2 with a message.
fn write_line(out: &mut dyn Write, line: &dyn std::fmt::Display) {
    if let Err(e) = writeln!(out, "{line}") {
        exit_for_stdout_error(&e);
    }
}

/// Flushes buffered output with the same error policy as [`write_line`].
fn flush_out(out: &mut dyn Write) {
    if let Err(e) = out.flush() {
        exit_for_stdout_error(&e);
    }
}

fn exit_for_stdout_error(e: &std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        // The consumer stopped reading; finishing early is not an error.
        std::process::exit(0);
    }
    eprintln!("systolicd: cannot write to stdout: {e}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match DaemonCommand::parse(&args) {
        Ok(DaemonCommand::Gen(options)) => gen_main(&options),
        Ok(DaemonCommand::Serve(options)) => serve_main(&options),
        Err(OptionsError::Usage) => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        Err(error) => {
            eprintln!("systolicd: {error}");
            std::process::exit(2);
        }
    }
}

fn gen_main(options: &GenOptions) {
    let config = options.traffic_config();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for (i, item) in traffic(&config, options.seed, options.count)
        .iter()
        .enumerate()
    {
        let id = format!("{}#{i}", item.name);
        write_line(&mut out, &WireResponse::Traffic { id: &id, item }.to_json());
    }
    flush_out(&mut out);
}

fn serve_main(options: &ServeOptions) {
    let config = options.service;

    let reader: Box<dyn Read> = match &options.input_path {
        Some(path) => Box::new(std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("systolicd: cannot open {path}: {e}");
            std::process::exit(2);
        })),
        None => Box::new(std::io::stdin()),
    };

    let service = AnalysisService::new(config);

    if let Some(path) = &options.snapshot_load {
        // A rejected load never partially applies: the daemon keeps
        // serving, cold, exactly as if no snapshot had been offered.
        match service.load_snapshot(Path::new(path)) {
            Ok(report) => eprintln!(
                "systolicd: snapshot {path} warmed {} plans ({} dropped, {} bytes, {} us)",
                report.plans, report.dropped, report.bytes, report.micros
            ),
            Err(error) => {
                eprintln!("systolicd: snapshot load rejected ({error}); serving cold");
            }
        }
    }

    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let started = Instant::now();
    let mut served = 0u64;
    let mut invalid = 0u64;
    let mut since_autosave = 0usize;

    // Stream responses in request order while keeping at most
    // `inflight_limit` tickets outstanding: the submission queue provides
    // the backpressure, this window just bounds reply buffering.
    let inflight_limit = config.workers * 2 + config.queue_depth;
    let mut inflight: std::collections::VecDeque<Ticket> = std::collections::VecDeque::new();
    let drain_one = |inflight: &mut std::collections::VecDeque<Ticket>, out: &mut dyn Write| {
        if let Some(ticket) = inflight.pop_front() {
            let response = ticket.wait();
            write_line(out, &WireResponse::Analysis(&response).to_json());
        }
    };
    let autosave = |service: &AnalysisService, since_autosave: &mut usize| {
        if options.snapshot_every == 0 {
            return;
        }
        *since_autosave += 1;
        if *since_autosave < options.snapshot_every {
            return;
        }
        *since_autosave = 0;
        if let Some(path) = &options.snapshot_save {
            // Autosave is best-effort persistence; a failed write is
            // reported but never interrupts serving.
            if let Err(error) = service.save_snapshot(Path::new(path)) {
                eprintln!("systolicd: snapshot autosave to {path} failed: {error}");
            }
        }
    };

    // A line longer than `MAX_LINE_BYTES` is skipped without being
    // buffered and answered `invalid` below, like any malformed line.
    for (i, line) in BoundedLines::new(BufReader::new(reader)).enumerate() {
        let line = line.unwrap_or_else(|e| {
            eprintln!("systolicd: read error: {e}");
            std::process::exit(2);
        });
        let line_number = i + 1;
        let request = match line {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => parse_line(&text, line_number),
            Err(error) => Err(error),
        };
        match request {
            Ok(WireRequest::Analysis(request)) => {
                if inflight.len() >= inflight_limit {
                    drain_one(&mut inflight, &mut out);
                }
                inflight.push_back(service.submit(*request));
                served += 1;
                autosave(&service, &mut since_autosave);
            }
            Ok(WireRequest::Metrics) => {
                // Flush in-flight responses first so the dump reflects
                // every request submitted before it (and output stays in
                // input order).
                while !inflight.is_empty() {
                    drain_one(&mut inflight, &mut out);
                }
                let snapshot = service.registry_snapshot();
                write_line(&mut out, &WireResponse::Metrics(&snapshot).to_json());
            }
            Ok(WireRequest::Edit(command)) => {
                // Edits chain on earlier responses' fingerprints, so every
                // prior submission must land (seeding its session inputs)
                // before the edit runs; flushing also keeps output in
                // input order.
                while !inflight.is_empty() {
                    drain_one(&mut inflight, &mut out);
                }
                let line =
                    match service.apply_edit(command.name.clone(), command.base, &command.ops) {
                        Ok(edit) => WireResponse::Edit(&edit).to_json(),
                        Err(error) => WireResponse::EditRejected {
                            name: &command.name,
                            base: command.base,
                            error: &error,
                        }
                        .to_json(),
                    };
                write_line(&mut out, &line);
                served += 1;
                autosave(&service, &mut since_autosave);
            }
            Ok(WireRequest::Snapshot(id)) => {
                // Flush so the snapshot covers every request submitted
                // before it; output also stays in input order.
                while !inflight.is_empty() {
                    drain_one(&mut inflight, &mut out);
                }
                let line = match &options.snapshot_save {
                    Some(path) => match service.save_snapshot(Path::new(path)) {
                        Ok(report) => WireResponse::Snapshot { name: &id, report }.to_json(),
                        Err(error) => WireResponse::SnapshotRejected {
                            name: &id,
                            error: &error.to_string(),
                        }
                        .to_json(),
                    },
                    None => WireResponse::SnapshotRejected {
                        name: &id,
                        error: "no --snapshot-save path configured",
                    }
                    .to_json(),
                };
                write_line(&mut out, &line);
                served += 1;
            }
            Err(error) => {
                // Flush pending responses first so output stays in input
                // order, then answer the malformed line inline.
                while !inflight.is_empty() {
                    drain_one(&mut inflight, &mut out);
                }
                write_line(
                    &mut out,
                    &WireResponse::Invalid {
                        line_number,
                        error: &error,
                    }
                    .to_json(),
                );
                invalid += 1;
            }
        }
    }
    while !inflight.is_empty() {
        drain_one(&mut inflight, &mut out);
    }
    flush_out(&mut out);

    if let Some(path) = &options.snapshot_save {
        match service.save_snapshot(Path::new(path)) {
            Ok(report) => eprintln!(
                "systolicd: snapshot saved to {path} ({} plans, {} bytes)",
                report.plans, report.bytes
            ),
            Err(error) => {
                eprintln!("systolicd: cannot write snapshot {path}: {error}");
                std::process::exit(2);
            }
        }
    }

    let secs = started.elapsed().as_secs_f64();
    let run = RunTotals {
        invalid_lines: invalid,
        wall_seconds: secs,
        throughput_per_sec: if secs > 0.0 {
            served as f64 / secs
        } else {
            0.0
        },
    };
    // One registry snapshot feeds both summaries and the exposition.
    let snapshot = service.registry_snapshot();
    if options.summary {
        let table = summary_table(&snapshot, config.arena_budget(), &run);
        eprintln!("{}", table.to_text());
    }
    if options.summary_json {
        eprintln!("{}", Json::Obj(summary_json(&snapshot, &run)));
    }
    if let Some(path) = &options.metrics_file {
        std::fs::write(path, snapshot.render_prometheus()).unwrap_or_else(|e| {
            eprintln!("systolicd: cannot write {path}: {e}");
            std::process::exit(2);
        });
    }

    if let Some(path) = &options.trace_file {
        let spans = service.obs().tracer().snapshot();
        let dropped = service.obs().tracer().dropped();
        let mut log = String::new();
        for span in &spans {
            log.push_str(&span.to_json_line());
            log.push('\n');
        }
        std::fs::write(path, log).unwrap_or_else(|e| {
            eprintln!("systolicd: cannot write {path}: {e}");
            std::process::exit(2);
        });
        if dropped > 0 {
            eprintln!("systolicd: trace ring dropped {dropped} oldest spans (bounded capacity)");
        }
    }

    std::process::exit(i32::from(invalid > 0));
}
