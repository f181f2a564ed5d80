//! The `systolic-lint` command line.
//!
//! ```text
//! systolic-lint [--root DIR] [--config FILE] [--format human|json]
//!               [--rules L-A,L-B] [--list-rules]
//! ```
//!
//! Exit status: `0` clean, `1` findings, `2` usage or configuration
//! error. [`run`] is the testable entry point — the binary's `main` is a
//! one-line wrapper, and tests drive `run` with captured output to prove
//! exit codes (the fixture-inversion test asserts `1`).

use std::io::Write;
use std::path::PathBuf;

use crate::{config::Config, render, Engine};

/// Exit code for a clean tree.
pub const EXIT_CLEAN: i32 = 0;
/// Exit code when findings were reported.
pub const EXIT_FINDINGS: i32 = 1;
/// Exit code for usage, I/O, or configuration errors.
pub const EXIT_ERROR: i32 = 2;

const USAGE: &str = "usage: systolic-lint [--root DIR] [--config FILE] \
                     [--format human|json] [--rules L-A,L-B] [--list-rules]";

/// Parses `args` (without the program name), runs the engine, and writes
/// diagnostics to `out` and errors to `err`. Returns the process exit
/// code.
pub fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut format = "human".to_owned();
    let mut rule_filter: Option<Vec<String>> = None;
    let mut list_rules = false;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let result = match arg.as_str() {
            "--root" => value("--root").map(|v| root = PathBuf::from(v)),
            "--config" => value("--config").map(|v| config_path = Some(PathBuf::from(v))),
            "--format" => value("--format").map(|v| format = v),
            "--rules" => value("--rules").map(|v| {
                rule_filter = Some(v.split(',').map(|s| s.trim().to_owned()).collect());
            }),
            "--list-rules" => {
                list_rules = true;
                Ok(())
            }
            "--help" | "-h" => {
                let _ = writeln!(out, "{USAGE}");
                return EXIT_CLEAN;
            }
            other => Err(format!("unknown argument `{other}`\n{USAGE}")),
        };
        if let Err(message) = result {
            let _ = writeln!(err, "systolic-lint: {message}");
            return EXIT_ERROR;
        }
    }
    if format != "human" && format != "json" {
        let _ = writeln!(
            err,
            "systolic-lint: --format must be `human` or `json`\n{USAGE}"
        );
        return EXIT_ERROR;
    }

    let config = match &config_path {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| Config::parse(&text)),
        None => crate::load_config(&root),
    };
    let config = match config {
        Ok(config) => config,
        Err(message) => {
            let _ = writeln!(err, "systolic-lint: {message}");
            return EXIT_ERROR;
        }
    };

    let mut engine = Engine::new(config);
    if list_rules {
        for rule in engine.rules() {
            let _ = writeln!(out, "{:<18} {}", rule.code(), rule.summary());
        }
        return EXIT_CLEAN;
    }
    if let Some(filter) = &rule_filter {
        let codes: Vec<&str> = filter.iter().map(String::as_str).collect();
        engine.retain_rules(&codes);
    }

    let report = match engine.run(&root) {
        Ok(report) => report,
        Err(message) => {
            let _ = writeln!(err, "systolic-lint: {message}");
            return EXIT_ERROR;
        }
    };
    if report.files == 0 {
        let _ = writeln!(
            err,
            "systolic-lint: no .rs files under {} — wrong --root?",
            root.display()
        );
        return EXIT_ERROR;
    }
    let rendered = if format == "json" {
        render::json(&report) + "\n"
    } else {
        render::human(&report)
    };
    let _ = out.write_all(rendered.as_bytes());
    if report.clean() {
        EXIT_CLEAN
    } else {
        EXIT_FINDINGS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> (i32, String, String) {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run(&args, &mut out, &mut err);
        (
            code,
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        )
    }

    #[test]
    fn unknown_flag_is_a_usage_error() {
        let (code, _, err) = run_args(&["--frobnicate"]);
        assert_eq!(code, EXIT_ERROR);
        assert!(err.contains("usage:"));
    }

    #[test]
    fn bad_format_is_a_usage_error() {
        let (code, _, err) = run_args(&["--format", "xml"]);
        assert_eq!(code, EXIT_ERROR);
        assert!(err.contains("--format"));
    }

    #[test]
    fn missing_root_is_an_error() {
        let (code, _, err) = run_args(&["--root", "/nonexistent/systolic"]);
        assert_eq!(code, EXIT_ERROR);
        assert!(err.contains("no .rs files"));
    }

    #[test]
    fn list_rules_names_all_codes() {
        let (code, out, _) = run_args(&["--list-rules"]);
        assert_eq!(code, EXIT_CLEAN);
        for rule in ["L-LOCK-CYCLE", "L-ATOMIC-ORDER", "L-PANIC-PATH"] {
            assert!(out.contains(rule), "missing {rule} in:\n{out}");
        }
    }

    #[test]
    fn help_prints_usage_and_exits_clean() {
        let (code, out, _) = run_args(&["--help"]);
        assert_eq!(code, EXIT_CLEAN);
        assert!(out.contains("usage:"));
    }
}
