//! What every workload shares: options, the closed loop, latency
//! statistics, process counters, the run record and the result line.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use systolic_service::wire::{parse_line, WireRequest, WireResponse};
use systolic_service::{AnalysisResponse, AnalysisService, ServiceConfig};

use crate::trace::SpanLog;

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name (`hot_mix`, `cold_verify`, `edit_stream`, or `all`).
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
}

impl Options {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A usage message for unknown, missing or malformed arguments.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => options.workload = value.clone(),
                "--seed" => options.seed = number()?,
                "--seconds" => options.seconds = number()?.max(1),
                "--trace" => options.trace = number()? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if options.workload.is_empty() {
            return Err("--workload is required".to_owned());
        }
        Ok(options)
    }
}

/// The service every workload drives: one worker per core beside the
/// client thread, chases inline on the worker.
#[must_use]
pub fn service_config(verify: bool) -> ServiceConfig {
    ServiceConfig {
        workers: hw_threads().saturating_sub(1).max(1),
        verify,
        verify_threads: 0,
        ..ServiceConfig::default()
    }
}

/// Hardware threads available to the process.
#[must_use]
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Set-up repetitions before the timed phase; [`SETUP_AFTER`] more run
/// after it, so the median samples the machine at both ends of the run.
pub const SETUP_BEFORE: usize = 3;
/// Set-up repetitions after the timed phase.
pub const SETUP_AFTER: usize = 2;

/// Wall times of repeated set-ups; `setup_s` is their median.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs `setup` `reps` times (at least once), dropping each result
    /// before the next run, and returns the last.
    pub fn run<T>(&mut self, reps: usize, mut setup: impl FnMut() -> T) -> T {
        let mut kept = None;
        for _ in 0..reps.max(1) {
            drop(kept.take());
            let started = Instant::now();
            kept = Some(setup());
            self.0.push(started.elapsed().as_secs_f64());
        }
        kept.expect("at least one repetition")
    }

    /// The median set-up time in seconds.
    #[must_use]
    pub fn median(mut self) -> f64 {
        median(&mut self.0)
    }
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of sorted `values`.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Process user + system CPU time, from `/proc/self/stat`.
#[must_use]
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Peak resident set (`VmHWM`) in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-request latency, ns, parse start to encode end.
    pub latencies: Vec<u64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose response failed the correctness gate.
    pub failed: u64,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// CPU time of the process during the phase.
    pub cpu: Duration,
    /// Request bytes parsed.
    pub bytes_in: u64,
    /// Response bytes encoded.
    pub bytes_out: u64,
}

/// Drives `requests` (cycling through them) through `parse_line` →
/// `submit` → `wait` → `to_json` with `window` requests in flight, until
/// `deadline` passes or `limit` requests were sent. `check` sees each
/// response with its request's index and says whether it is the answer
/// the request was built for; lines that do not parse to an analysis
/// request fail too.
pub fn closed_loop<R>(
    service: &AnalysisService,
    requests: &[R],
    line: impl Fn(&R) -> &str,
    window: usize,
    deadline: Duration,
    limit: usize,
    mut check: impl FnMut(usize, &AnalysisResponse) -> bool,
) -> Phase {
    let mut phase = Phase::default();
    let mut in_flight = VecDeque::with_capacity(window);
    let cpu_start = process_cpu();
    let started = Instant::now();
    let mut sent = 0usize;
    loop {
        let more = sent < limit && started.elapsed() < deadline;
        if more {
            let index = sent % requests.len();
            let text = line(&requests[index]);
            sent += 1;
            phase.attempted += 1;
            phase.bytes_in += text.len() as u64;
            let t0 = Instant::now();
            match parse_line(text, sent) {
                Ok(WireRequest::Analysis(parsed)) => {
                    in_flight.push_back((t0, service.submit(*parsed), index));
                }
                _ => phase.failed += 1,
            }
        }
        if in_flight.len() >= window || (!more && !in_flight.is_empty()) {
            let (t0, ticket, index) = in_flight.pop_front().expect("non-empty");
            let response = ticket.wait();
            let encoded = WireResponse::Analysis(&response).to_json().to_string();
            phase.latencies.push(t0.elapsed().as_nanos() as u64);
            phase.bytes_out += encoded.len() as u64;
            if !check(index, &response) {
                phase.failed += 1;
            }
        } else if !more {
            break;
        }
    }
    phase.elapsed = started.elapsed();
    phase.cpu = process_cpu().saturating_sub(cpu_start);
    phase
}

/// Runs `f` as span `name` when tracing, plainly otherwise.
pub fn span<T>(
    log: &mut Option<&mut SpanLog>,
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match log {
        Some(log) => log.time(name, parent, request, f),
        None => f(),
    }
}

/// One request at a time through the same path as [`closed_loop`], for
/// the traced run and its untraced twin, until `count` requests were sent
/// or `deadline` passed. With a log, each request is a `request` span over
/// `wire.parse_line`, `service.roundtrip` and `wire.encode`; `after` then
/// runs outside the request span (for probes and checks) with the
/// response and the round trip's ns.
pub fn sequential<R>(
    service: &AnalysisService,
    requests: &[R],
    line: impl Fn(&R) -> &str,
    count: usize,
    deadline: Duration,
    mut log: Option<&mut SpanLog>,
    mut after: impl FnMut(Option<&mut SpanLog>, u64, &R, &AnalysisResponse, u64) -> bool,
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    for n in 0..count {
        if started.elapsed() >= deadline {
            break;
        }
        let request = &requests[n % requests.len()];
        let text = line(request);
        let id = n as u64;
        phase.attempted += 1;
        phase.bytes_in += text.len() as u64;
        let t0 = Instant::now();
        let root = log.as_deref_mut().map(|log| log.open("request", None, id));
        let parsed = span(&mut log, "wire.parse_line", root, id, || {
            parse_line(text, n + 1)
        });
        let Ok(WireRequest::Analysis(parsed)) = parsed else {
            phase.failed += 1;
            continue;
        };
        let t1 = Instant::now();
        let response = span(&mut log, "service.roundtrip", root, id, || {
            service.submit(*parsed).wait()
        });
        let roundtrip = t1.elapsed().as_nanos() as u64;
        let encoded = span(&mut log, "wire.encode", root, id, || {
            WireResponse::Analysis(&response).to_json().to_string()
        });
        if let (Some(log), Some(root)) = (log.as_deref_mut(), root) {
            log.close(root);
        }
        phase.latencies.push(t0.elapsed().as_nanos() as u64);
        phase.bytes_out += encoded.len() as u64;
        if !after(log.as_deref_mut(), id, request, &response, roundtrip) {
            phase.failed += 1;
        }
    }
    phase.elapsed = started.elapsed();
    phase
}

/// A metric value with its unit, in result-line order.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// The end-to-end metrics of a phase plus set-up time.
#[must_use]
pub fn end_to_end(phase: &Phase, setup_s: f64) -> Metrics {
    let mut sorted = phase.latencies.clone();
    sorted.sort_unstable();
    let completed = sorted.len().max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let metrics = vec![
        (
            "req_per_s",
            sorted.len() as f64 / phase.elapsed.as_secs_f64(),
            "1/s",
        ),
        ("latency_p50_ms", ms(percentile(&sorted, 50.0)), "ms"),
        ("latency_p99_ms", ms(percentile(&sorted, 99.0)), "ms"),
        (
            "cpu_ms_per_req",
            phase.cpu.as_secs_f64() * 1e3 / completed,
            "ms",
        ),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        (
            "success_rate",
            1.0 - phase.failed as f64 / phase.attempted.max(1) as f64,
            "fraction",
        ),
    ];
    metrics
        .into_iter()
        .map(|(name, value, unit)| (name.to_owned(), value, unit))
        .collect()
}

/// The static spelling of a metric unit read back from a result line.
#[must_use]
pub fn unit(text: &str) -> &'static str {
    [
        "1/s", "ms", "s", "MB", "fraction", "ns", "bytes", "count", "cycles",
    ]
    .into_iter()
    .find(|u| *u == text)
    .unwrap_or("")
}

/// Prints one human-readable line per metric.
pub fn print_metrics(workload: &str, metrics: &Metrics) {
    for (name, value, unit) in metrics {
        println!("{workload:<12} {name:<34} {value:>16.6} {unit}");
    }
}

/// The run record: enough about the machine and build that later
/// comparisons pair only runs from the same hardware.
#[must_use]
pub fn run_record(options: &Options, attempted: u64, failed: u64) -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        r#"{{"run_record":{{"workload":"{}","seed":{},"seconds":{},"trace":{},"hw_threads":{},"cpu_model":{:?},"rustc":{:?},"git_commit":{:?},"attempted":{attempted},"succeeded":{},"failed":{failed},"error_rate":{}}}}}"#,
        options.workload,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        hw_threads(),
        cpu_model,
        env!("LEDGER_RUSTC_VERSION"),
        env!("LEDGER_GIT_COMMIT"),
        attempted.saturating_sub(failed),
        crate::ratio(failed, attempted),
    )
}

/// The result line: the last line of standard output.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{failed},"metrics":{{{}}}}}"#,
        failed == 0 && attempted > 0,
        attempted.max(1),
        body.join(",")
    )
}
