//! `systolic-lint` — workspace static analysis for the systolic sources.
//!
//! The paper this workspace reproduces (Kung 1988) certifies
//! communication programs *statically*: prove the queue acquisition order
//! deadlock-free before running anything. The workspace itself has grown
//! real hand-rolled concurrency — a worker pool, a pool of lent-out
//! arena LRUs, a lock-free metrics registry, bounded-queue hand-offs —
//! and this crate
//! holds that code to the same standard. It is a dependency-free,
//! token-level static-analysis engine with three rules:
//!
//! | code | checks |
//! |------|--------|
//! | `L-LOCK-CYCLE` | global lock acquisition-order graph has no cycles |
//! | `L-ATOMIC-ORDER` | atomic ops name an `Ordering`; `Relaxed` is justified |
//! | `L-PANIC-PATH` | no unjustified `unwrap`/`expect`/`panic!` on the serving path |
//!
//! Rule codes are stable and mirror the analyzer's `E-*` diagnostic
//! style; findings are suppressed either by in-source annotations
//! (`// lint: panic-ok(<reason>)`, `// lint: relaxed-ok(<reason>)`,
//! `// lint: lock-ok(<reason>)` — the reason is mandatory) or by
//! per-rule path allowlists in `lint.toml` (see [`config`]).
//!
//! The `systolic-lint` binary exits `0` on a clean tree, `1` on
//! findings, `2` on usage/configuration errors, and prints diagnostics
//! as human-readable text or machine-readable JSON (`--format json`).
//! CI gates on it; `cargo test` runs a self-check asserting the
//! workspace stays lint-clean.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod config;
pub mod lexer;
pub mod render;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

use config::Config;
use lexer::SourceFile;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule code (`L-LOCK-CYCLE`, ...).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description of the defect.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The result of one engine run.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
    /// Findings silenced by annotations or allowlists.
    pub suppressed: u64,
    /// Number of files scanned.
    pub files: u64,
}

impl Report {
    /// `true` when the run produced no findings.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Collects findings and suppression counts during a rule's scan.
///
/// Rules report everything they see; the engine applies the per-rule
/// path allowlist afterwards, so a rule never needs to know the config.
#[derive(Debug, Default)]
pub struct Sink {
    findings: Vec<Finding>,
    suppressed: u64,
}

impl Sink {
    /// Records a finding.
    pub fn finding(&mut self, rule: &'static str, path: &str, line: u32, message: String) {
        self.findings.push(Finding {
            rule,
            path: path.to_owned(),
            line,
            message,
        });
    }

    /// Records an annotation-suppressed would-be finding.
    pub fn suppressed(&mut self) {
        self.suppressed += 1;
    }
}

/// One static-analysis rule.
///
/// A rule sees every in-scope [`SourceFile`] once via [`Rule::scan`], and
/// gets a [`Rule::finish`] call after the last file for whole-workspace
/// analyses (the lock-order rule builds its graph in `scan` and reports
/// cycles in `finish`). Implementations should:
///
/// * report through the [`Sink`] — never print;
/// * call [`Sink::suppressed`] when an in-source annotation silences a
///   would-be finding, so suppressions stay countable;
/// * skip tokens marked `test` unless the rule explicitly audits test
///   code;
/// * keep the code stable — it is the contract CI configs and
///   `lint.toml` sections key on.
pub trait Rule {
    /// Stable rule code, e.g. `L-LOCK-CYCLE`.
    fn code(&self) -> &'static str;
    /// One-line description for `--list-rules` and docs.
    fn summary(&self) -> &'static str;
    /// Scans one file, accumulating state and/or reporting findings.
    fn scan(&mut self, file: &SourceFile, sink: &mut Sink);
    /// Called once after every file was scanned; whole-workspace rules
    /// report here. The default does nothing.
    fn finish(&mut self, _sink: &mut Sink) {}
}

/// The analysis engine: walks sources, runs rules, applies allowlists.
pub struct Engine {
    config: Config,
    rules: Vec<Box<dyn Rule>>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let codes: Vec<_> = self.rules.iter().map(|r| r.code()).collect();
        f.debug_struct("Engine").field("rules", &codes).finish()
    }
}

impl Engine {
    /// Creates an engine with the full built-in rule set.
    #[must_use]
    pub fn new(config: Config) -> Engine {
        Engine {
            config,
            rules: rules::default_rules(),
        }
    }

    /// Creates an engine with a caller-chosen rule set.
    #[must_use]
    pub fn with_rules(config: Config, rules: Vec<Box<dyn Rule>>) -> Engine {
        Engine { config, rules }
    }

    /// Restricts the engine to the rules whose codes are in `codes`.
    pub fn retain_rules(&mut self, codes: &[&str]) {
        self.rules.retain(|r| codes.contains(&r.code()));
    }

    /// Runs every rule over the `.rs` files under `root`'s configured
    /// scan roots.
    ///
    /// # Errors
    ///
    /// Returns a message if a scan root's directory walk fails outright;
    /// individual unreadable files are skipped.
    pub fn run(&mut self, root: &Path) -> Result<Report, String> {
        let mut files = Vec::new();
        for dir in &self.config.roots.clone() {
            collect_rust_files(&root.join(dir), &mut files);
        }
        files.sort();
        let sources: Vec<SourceFile> = files
            .iter()
            .filter_map(|path| {
                let rel = relative_path(root, path);
                if self.config.excluded(&rel) {
                    return None;
                }
                let text = std::fs::read_to_string(path).ok()?;
                Some(SourceFile::lex(&rel, &text))
            })
            .collect();
        Ok(self.run_sources(&sources))
    }

    /// Runs every rule over pre-lexed sources (the test entry point).
    pub fn run_sources(&mut self, sources: &[SourceFile]) -> Report {
        let mut report = Report {
            files: sources.len() as u64,
            ..Report::default()
        };
        for rule in &mut self.rules {
            let rc = self.config.rule(rule.code());
            if rc.disabled {
                continue;
            }
            let mut sink = Sink::default();
            for file in sources {
                if rc.in_scope(&file.path) {
                    rule.scan(file, &mut sink);
                }
            }
            rule.finish(&mut sink);
            report.suppressed += sink.suppressed;
            for finding in sink.findings {
                if rc.allowed(&finding.path) {
                    report.suppressed += 1;
                } else {
                    report.findings.push(finding);
                }
            }
        }
        report
            .findings
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        report
    }

    /// The engine's rules, for `--list-rules`.
    pub fn rules(&self) -> impl Iterator<Item = &dyn Rule> {
        self.rules.iter().map(AsRef::as_ref)
    }
}

/// Loads `lint.toml` from `root` if present, else the built-in defaults.
///
/// # Errors
///
/// Returns the config parse error message verbatim.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => Config::parse(&text),
        Err(_) => Ok(Config::default()),
    }
}

/// Runs a single rule over the workspace at `root` and panics with the
/// findings if any survive — the one-line form integration tests use:
///
/// ```no_run
/// systolic_lint::assert_rule_clean(env!("CARGO_MANIFEST_DIR"), "L-LOCK-CYCLE");
/// ```
///
/// # Panics
///
/// Panics listing every finding when the tree is not clean for `code`,
/// and on configuration errors.
pub fn assert_rule_clean(root: impl AsRef<Path>, code: &str) {
    let root = root.as_ref();
    let config = load_config(root).expect("lint.toml parses");
    let mut engine = Engine::new(config);
    engine.retain_rules(&[code]);
    let report = engine.run(root).expect("workspace scan succeeds");
    assert!(report.files > 0, "scan found no files — wrong root?");
    let rendered: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert!(
        report.clean(),
        "`{code}` findings in the workspace:\n{}",
        rendered.join("\n")
    );
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn relative_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Runs one rule over in-memory sources with the default config.
    pub fn run_rule(rule: impl Rule + 'static, sources: &[(&str, &str)]) -> Report {
        let lexed: Vec<SourceFile> = sources
            .iter()
            .map(|(path, text)| SourceFile::lex(path, text))
            .collect();
        Engine::with_rules(Config::default(), vec![Box::new(rule)]).run_sources(&lexed)
    }

    #[test]
    fn engine_applies_scope_and_allowlists() {
        let mut config = Config::default();
        config.rules.insert(
            "L-PANIC-PATH".to_owned(),
            config::RuleConfig {
                paths: vec!["crates/service".to_owned()],
                allow: vec!["crates/service/src/json.rs".to_owned()],
                disabled: false,
            },
        );
        let sources = [
            ("crates/service/src/wire.rs", "fn f() { x.unwrap(); }"),
            ("crates/service/src/json.rs", "fn f() { x.unwrap(); }"),
            ("crates/core/src/plan.rs", "fn f() { x.unwrap(); }"),
        ];
        let lexed: Vec<SourceFile> = sources.iter().map(|(p, t)| SourceFile::lex(p, t)).collect();
        let report =
            Engine::with_rules(config, vec![Box::new(rules::PanicPathRule)]).run_sources(&lexed);
        // wire.rs: flagged. json.rs: allowlisted. core: out of scope.
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].path, "crates/service/src/wire.rs");
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn disabled_rule_reports_nothing() {
        let mut config = Config::default();
        config.rules.insert(
            "L-PANIC-PATH".to_owned(),
            config::RuleConfig {
                disabled: true,
                ..Default::default()
            },
        );
        let lexed = [SourceFile::lex("a.rs", "fn f() { x.unwrap(); }")];
        let report =
            Engine::with_rules(config, vec![Box::new(rules::PanicPathRule)]).run_sources(&lexed);
        assert!(report.clean());
    }
}
