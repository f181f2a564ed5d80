//! The JSONL wire format of the `systolicd` binary.
//!
//! One request per line:
//!
//! ```json
//! {"id": "r1", "program": "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
//!  "topology": "linear:2", "queues": 1, "lookahead": "none"}
//! ```
//!
//! * `id` — optional string echoed in the response (defaults to the line
//!   number);
//! * `program` — required, the [`parse_program`] text format;
//! * `topology` — required, a [`Topology::from_spec`] spec string
//!   (`linear:N`, `ring:N`, `mesh:RxC`, `graph:N:a-b,...`);
//! * `queues` — optional hardware queues per interval (default 1);
//! * `lookahead` — optional: `"none"` (default), `"unbounded"`, an integer
//!   `n` (per-queue capacity `n`), or an array of per-message budgets
//!   (integers, `null` = unbounded).
//!
//! One response per line, e.g.:
//!
//! ```json
//! {"id": "r1", "status": "certified", "cache": "miss", "classification": "deadlock-free",
//!  "labeling": "section6", "labels": {"A": "1"}, "max_queues_per_interval": 1,
//!  "analysis_micros": 120, "micros": 130, "fingerprint": "0x..."}
//! ```
//!
//! `status` is `certified` or `rejected` (with `error` holding the
//! analysis error); malformed request lines are answered with `status:
//! "invalid"` and the parse error. Every response also carries `trace`,
//! the request's trace id — the span events in a `--trace-file` JSONL log
//! carry the same id, so responses join against their span trees.
//!
//! A control line `{"op": "metrics"}` is recognized by [`parse_line`]
//! and answered with one `status: "metrics"` object dumping the whole
//! metrics registry. A control line `{"op": "snapshot"}` persists the
//! daemon's warm state to its configured `--snapshot-save` path and
//! answers with a `status: "snapshot"` object (`plans`, `bytes`, `micros`),
//! or `status: "rejected"` with `error_kind: "snapshot"` when no save path
//! is configured. Every response shape is rendered by the one
//! [`WireResponse::to_json`] entry point, which writes the line straight
//! into one `String` (literal keys, strings escaped a run at a time, no
//! [`Json`] tree in between). [`Json`] is the request parser's value
//! type; `tests/wire_golden.rs` pins the response bytes of every shape.
//!
//! An edit line reanalyzes a previously submitted program incrementally
//! (dirty-tracked stage reuse instead of a from-scratch run):
//!
//! ```json
//! {"op": "edit", "id": "e1", "base": "0x00f3...",
//!  "ops": [{"edit": "append", "cell": "c0", "op": "W(A)"},
//!          {"edit": "remove_tail", "cell": "c1"},
//!          {"edit": "add_link", "a": "c0", "b": "c5"}]}
//! ```
//!
//! `base` is the `fingerprint` of an earlier response on this connection
//! (full submit or previous edit); `ops` entries are `append` (push
//! `"W(X)"`/`"R(X)"` onto a cell's program), `remove_tail` (pop a cell's
//! last op), and `add_link`/`remove_link` (graph topologies only). The
//! response is a normal analysis response with `cache: "incremental"`
//! plus a `base` echo and a `reuse` object (dirty cells, reused stages,
//! fallback reason); its `fingerprint` is the new base for chained edits.
//! Unknown bases and invalid batches answer `status: "rejected"` with
//! `error_kind: "edit"` and leave the base session intact.
//!
//! Rejected (unsafe) responses — and certified responses with warnings —
//! carry a `diagnostics` array of structured findings:
//!
//! ```json
//! {"id": "d", "status": "rejected", "error_kind": "deadlocked", "...": "...",
//!  "diagnostics": [{"code": "E-DEADLOCK", "severity": "error",
//!                   "message": "program is deadlocked: ...",
//!                   "messages": [0, 1], "cells": [0, 1]}]}
//! ```
//!
//! `code` is a stable machine-readable
//! [`DiagnosticCode`](systolic_core::DiagnosticCode) string; `messages` and
//! `cells` are the offending message/cell ids (declaration order indexes),
//! present only when non-empty.

use std::fmt::{self, Write as _};
use std::io::BufRead;

use systolic_core::{Diagnostic, Lookahead, LookaheadLimits};
use systolic_model::{parse_program, program_to_text, ModelError, Topology};
use systolic_obs::RegistrySnapshot;
use systolic_workloads::TrafficItem;

use crate::json::{write_escaped, write_number};
use crate::{
    AnalysisRequest, AnalysisResponse, CacheProvenance, EditRequestError, EditResponse, Json,
    JsonError, NamedEditOp, ServiceError, SnapshotReport,
};

/// Why a request line could not become an [`AnalysisRequest`].
#[derive(Clone, PartialEq, Debug)]
pub enum WireError {
    /// The line is not valid JSON.
    Json(JsonError),
    /// The embedded program or topology failed to parse/validate.
    Model(ModelError),
    /// A field is missing or has the wrong shape.
    Field(String),
    /// The line is longer than [`MAX_LINE_BYTES`]; it was skipped unread.
    LineTooLong,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Json(e) => write!(f, "{e}"),
            WireError::Model(e) => write!(f, "{e}"),
            WireError::Field(msg) => write!(f, "{msg}"),
            WireError::LineTooLong => {
                write!(f, "line longer than the limit of {MAX_LINE_BYTES} bytes")
            }
        }
    }
}

/// The longest request line read, in bytes, without its line ending.
/// Program sizes have their own bounds
/// ([`SizeLimit`](systolic_model::SizeLimit)); this one caps what a reader
/// buffers before it can parse anything.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The lines of a request stream, each read into memory only up to
/// [`MAX_LINE_BYTES`]: a longer line is consumed to its end, unstored, and
/// yields [`WireError::LineTooLong`]. Line endings are stripped as by
/// [`BufRead::lines`].
#[derive(Debug)]
pub struct BoundedLines<R> {
    reader: R,
}

impl<R: BufRead> BoundedLines<R> {
    /// Reads lines from `reader`.
    pub fn new(reader: R) -> Self {
        BoundedLines { reader }
    }
}

impl<R: BufRead> Iterator for BoundedLines<R> {
    /// An I/O failure (including a line that is not UTF-8), or the line.
    type Item = std::io::Result<Result<String, WireError>>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut line = Vec::new();
        let mut too_long = false;
        let mut terminated = false;
        let mut read_any = false;
        while !terminated {
            let chunk = match self.reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Some(Err(e)),
            };
            if chunk.is_empty() {
                break;
            }
            read_any = true;
            let (part, used) = match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    terminated = true;
                    (&chunk[..i], i + 1)
                }
                None => (chunk, chunk.len()),
            };
            if !too_long && line.len() + part.len() > MAX_LINE_BYTES {
                too_long = true;
                line = Vec::new();
            }
            if !too_long {
                line.extend_from_slice(part);
            }
            self.reader.consume(used);
        }
        if !read_any {
            return None;
        }
        if too_long {
            return Some(Ok(Err(WireError::LineTooLong)));
        }
        if terminated && line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(
            String::from_utf8(line)
                .map(Ok)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
        )
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        WireError::Json(e)
    }
}

impl From<ModelError> for WireError {
    fn from(e: ModelError) -> Self {
        WireError::Model(e)
    }
}

/// Largest per-queue capacity / per-message budget a wire request may ask
/// for. Bounds untrusted input well away from integer-overflow territory;
/// anything larger is indistinguishable from `"unbounded"` anyway.
const MAX_LOOKAHEAD: u64 = 1 << 20;

fn parse_lookahead(value: Option<&Json>) -> Result<Lookahead, WireError> {
    match value {
        None => Ok(Lookahead::Disabled),
        Some(Json::Str(s)) if s == "none" => Ok(Lookahead::Disabled),
        Some(Json::Str(s)) if s == "unbounded" => Ok(Lookahead::Unbounded),
        Some(n @ Json::Num(_)) => {
            let capacity = n.as_u64().filter(|&c| c <= MAX_LOOKAHEAD).ok_or_else(|| {
                WireError::Field(format!(
                    "lookahead must be an integer in 0..={MAX_LOOKAHEAD}"
                ))
            })?;
            Ok(Lookahead::PerQueueCapacity(capacity as usize))
        }
        Some(Json::Arr(items)) => {
            let table = items
                .iter()
                .map(|item| match item {
                    Json::Null => Ok(None),
                    n @ Json::Num(_) => n
                        .as_u64()
                        .filter(|&v| v <= MAX_LOOKAHEAD)
                        .map(|v| Some(v as usize))
                        .ok_or_else(|| {
                            WireError::Field(format!(
                                "lookahead entries must be null or integers in 0..={MAX_LOOKAHEAD}"
                            ))
                        }),
                    _ => Err(WireError::Field(
                        "lookahead entries must be integers or null".into(),
                    )),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Lookahead::Explicit(LookaheadLimits::from_table(table)))
        }
        Some(_) => Err(WireError::Field(
            "lookahead must be \"none\", \"unbounded\", an integer or an array".into(),
        )),
    }
}

/// Parses one JSONL request line. `line_number` (1-based) provides the
/// default `id`.
///
/// # Errors
///
/// Returns [`WireError`] for malformed JSON, missing fields, or invalid
/// embedded program/topology text.
pub fn parse_request(line: &str, line_number: usize) -> Result<AnalysisRequest, WireError> {
    request_from_json(&Json::parse(line)?, line_number)
}

/// Builds an [`AnalysisRequest`] from an already-parsed request line.
fn request_from_json(value: &Json, line_number: usize) -> Result<AnalysisRequest, WireError> {
    if !matches!(value, Json::Obj(_)) {
        return Err(WireError::Field(
            "request line must be a JSON object".into(),
        ));
    }
    let id = match value.get("id") {
        None => format!("line-{line_number}"),
        Some(Json::Str(s)) => s.clone(),
        Some(_) => return Err(WireError::Field("`id` must be a string".into())),
    };
    let program_text = value
        .get("program")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::Field("`program` (string) is required".into()))?;
    let topology_spec = value
        .get("topology")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::Field("`topology` (string) is required".into()))?;
    let queues = match value.get("queues") {
        None => 1,
        Some(v) => v
            .as_u64()
            .filter(|&q| q >= 1)
            .ok_or_else(|| WireError::Field("`queues` must be a positive integer".into()))?
            as usize,
    };
    let mut request = AnalysisRequest::new(
        id,
        parse_program(program_text)?,
        Topology::from_spec(topology_spec)?,
    );
    request.config.queues_per_interval = queues;
    request.config.lookahead = parse_lookahead(value.get("lookahead"))?;
    request
        .config
        .check_covers(&request.program)
        .map_err(WireError::Field)?;
    Ok(request)
}

/// One `{"op": "edit"}` wire line, parsed: the base fingerprint to edit
/// plus the named edit batch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EditCommand {
    /// Response id (defaults to the line number).
    pub name: String,
    /// Fingerprint of the base request/edit, from an earlier response.
    pub base: u128,
    /// The edit batch, in application order.
    pub ops: Vec<NamedEditOp>,
}

/// One parsed JSONL line: an analysis request, or a control op.
#[derive(Debug)]
pub enum WireRequest {
    /// A regular analysis request ([`parse_request`]).
    Analysis(Box<AnalysisRequest>),
    /// `{"op": "metrics"}`: dump the metrics registry as one JSON object
    /// on the response stream.
    Metrics,
    /// `{"op": "edit"}`: apply an edit batch to a warm session
    /// ([`crate::AnalysisService::apply_edit`]).
    Edit(Box<EditCommand>),
    /// `{"op": "snapshot"}`: persist the daemon's warm state to its
    /// configured `--snapshot-save` path. The string is the response id
    /// (defaults to the line number).
    Snapshot(String),
}

/// Parses one JSONL line, recognizing control ops (`{"op": "metrics"}`,
/// `{"op": "edit"}`, `{"op": "snapshot"}`) before falling back to an
/// analysis request ([`parse_request`]'s format). The line's JSON is
/// decoded once.
///
/// # Errors
///
/// Returns [`WireError`] for malformed JSON, unknown ops, or invalid
/// analysis requests.
pub fn parse_line(line: &str, line_number: usize) -> Result<WireRequest, WireError> {
    let value = Json::parse(line)?;
    match value.get("op").and_then(Json::as_str) {
        Some("metrics") => Ok(WireRequest::Metrics),
        Some("edit") => Ok(WireRequest::Edit(Box::new(parse_edit(
            &value,
            line_number,
        )?))),
        Some("snapshot") => {
            let name = match value.get("id") {
                None => format!("line-{line_number}"),
                Some(Json::Str(s)) => s.clone(),
                Some(_) => return Err(WireError::Field("`id` must be a string".into())),
            };
            Ok(WireRequest::Snapshot(name))
        }
        Some(other) => Err(WireError::Field(format!(
            "unknown op {other:?} (expected \"metrics\", \"edit\" or \"snapshot\")"
        ))),
        None => Ok(WireRequest::Analysis(Box::new(request_from_json(
            &value,
            line_number,
        )?))),
    }
}

/// Parses the `base` fingerprint field: a hex string with optional `0x`
/// prefix, exactly as responses render it (`{:#034x}`).
fn parse_base(value: Option<&Json>) -> Result<u128, WireError> {
    let text = value
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::Field("`base` (fingerprint hex string) is required".into()))?;
    let digits = text.strip_prefix("0x").unwrap_or(text);
    u128::from_str_radix(digits, 16)
        .map_err(|_| WireError::Field(format!("`base` is not a fingerprint: {text:?}")))
}

/// Parses an `"W(X)"` / `"R(X)"` op string into (is_write, message name).
fn parse_op_string(text: &str) -> Result<(bool, String), WireError> {
    let inner = |s: &str, prefix: &str| {
        s.strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(')'))
            .map(str::to_owned)
    };
    if let Some(message) = inner(text, "W(") {
        Ok((true, message))
    } else if let Some(message) = inner(text, "R(") {
        Ok((false, message))
    } else {
        Err(WireError::Field(format!(
            "`op` must look like \"W(A)\" or \"R(A)\", got {text:?}"
        )))
    }
}

fn parse_edit_op(item: &Json) -> Result<NamedEditOp, WireError> {
    let field = |name: &str| {
        item.get(name)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| WireError::Field(format!("edit op needs a string `{name}` field")))
    };
    match item.get("edit").and_then(Json::as_str) {
        Some("append") => {
            let (write, message) = parse_op_string(&field("op")?)?;
            Ok(NamedEditOp::Append {
                cell: field("cell")?,
                write,
                message,
            })
        }
        Some("remove_tail") => Ok(NamedEditOp::RemoveTail {
            cell: field("cell")?,
        }),
        Some("add_link") => Ok(NamedEditOp::AddLink {
            a: field("a")?,
            b: field("b")?,
        }),
        Some("remove_link") => Ok(NamedEditOp::RemoveLink {
            a: field("a")?,
            b: field("b")?,
        }),
        Some(other) => Err(WireError::Field(format!(
            "unknown edit {other:?} (expected \"append\", \"remove_tail\", \
             \"add_link\" or \"remove_link\")"
        ))),
        None => Err(WireError::Field(
            "each ops entry needs an `edit` discriminator string".into(),
        )),
    }
}

/// Parses one `{"op": "edit"}` line. `line_number` (1-based) provides the
/// default `id`.
///
/// # Errors
///
/// Returns [`WireError`] when `base` is missing/malformed or any `ops`
/// entry has the wrong shape.
pub fn parse_edit(value: &Json, line_number: usize) -> Result<EditCommand, WireError> {
    let name = match value.get("id") {
        None => format!("line-{line_number}"),
        Some(Json::Str(s)) => s.clone(),
        Some(_) => return Err(WireError::Field("`id` must be a string".into())),
    };
    let base = parse_base(value.get("base"))?;
    let Some(Json::Arr(items)) = value.get("ops") else {
        return Err(WireError::Field("`ops` (array) is required".into()));
    };
    let ops = items
        .iter()
        .map(parse_edit_op)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(EditCommand { name, base, ops })
}

/// One response line, unified over every shape the daemon writes.
///
/// [`WireResponse::to_json`] is the single rendering entry point for the
/// JSONL protocol: every response — analysis outcomes, edit results,
/// metrics dumps, parse errors, generated traffic, snapshot ops — goes
/// through it, so the daemon and tests cannot drift apart on field order
/// or vocabulary. The stable strings come from their types
/// ([`LabelingMethod::as_str`](systolic_core::LabelingMethod::as_str),
/// [`DiagnosticCode::as_str`](systolic_core::DiagnosticCode::as_str),
/// [`Severity::as_str`](systolic_core::Severity::as_str),
/// [`CoreError::kind`](systolic_core::CoreError::kind)), and the binary
/// snapshot format encodes the same labeling, code and severity strings,
/// so wire and disk cannot drift either.
#[derive(Debug)]
pub enum WireResponse<'a> {
    /// A regular analysis response (certified or rejected).
    Analysis(&'a AnalysisResponse),
    /// An incremental edit outcome (`cache: "incremental"`, plus the
    /// `base` echo and `reuse` report).
    Edit(&'a EditResponse),
    /// A rejected edit request (unknown base, unknown names, invalid
    /// batch); the base session, if any, survives.
    EditRejected {
        /// Response id.
        name: &'a str,
        /// The base fingerprint the edit named.
        base: u128,
        /// Why the edit was rejected.
        error: &'a EditRequestError,
    },
    /// The metrics-registry dump answering `{"op": "metrics"}`.
    Metrics(&'a RegistrySnapshot),
    /// A malformed request line (`status: "invalid"`).
    Invalid {
        /// 1-based input line number (also the response id).
        line_number: usize,
        /// The parse failure.
        error: &'a WireError,
    },
    /// One generated traffic item (the `systolicd gen` output format —
    /// a request line, not a response, but rendered by the same entry
    /// point so the formats stay in one place).
    Traffic {
        /// Request id.
        id: &'a str,
        /// The generated request.
        item: &'a TrafficItem,
    },
    /// A completed `{"op": "snapshot"}` save (`status: "snapshot"`).
    Snapshot {
        /// Response id.
        name: &'a str,
        /// What the save wrote.
        report: SnapshotReport,
    },
    /// A failed `{"op": "snapshot"}` — no configured `--snapshot-save`
    /// path, or the save itself failed (`error_kind: "snapshot"`).
    SnapshotRejected {
        /// Response id.
        name: &'a str,
        /// Why the snapshot was rejected.
        error: &'a str,
    },
}

impl WireResponse<'_> {
    /// Renders this response as one JSONL line (no trailing newline).
    ///
    /// The line is written straight into one `String`, with no [`Json`]
    /// tree in between: keys are literals, strings are escaped a run at a
    /// time, and every number is an `f64` rendered as [`Json`]'s `Display`
    /// renders it (integral values below 9e15 as integers). The bytes are
    /// those the equivalent [`Json`] value would print;
    /// `tests/wire_golden.rs` pins them for every shape.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut line = Line(String::with_capacity(256));
        line.open('{');
        match self {
            WireResponse::Analysis(response) => line.analysis(response),
            WireResponse::Edit(edit) => {
                line.analysis(&edit.response);
                line.reuse(edit);
            }
            WireResponse::EditRejected { name, base, error } => {
                line.str("id", name);
                line.str("status", "rejected");
                line.shown("error", error);
                line.str("error_kind", "edit");
                line.hex("base", *base);
            }
            WireResponse::Metrics(snapshot) => line.metrics(snapshot),
            WireResponse::Invalid { line_number, error } => {
                line.shown("id", format_args!("line-{line_number}"));
                line.str("status", "invalid");
                line.shown("error", error);
            }
            WireResponse::Traffic { id, item } => {
                line.str("id", id);
                line.str("program", &program_to_text(&item.program));
                line.str("topology", &item.topology.spec());
                line.num("queues", item.queues_per_interval as f64);
            }
            WireResponse::Snapshot { name, report } => {
                line.str("id", name);
                line.str("status", "snapshot");
                line.num("plans", report.plans as f64);
                line.num("bytes", report.bytes as f64);
                line.num("micros", report.micros as f64);
            }
            WireResponse::SnapshotRejected { name, error } => {
                line.str("id", name);
                line.str("status", "rejected");
                line.str("error", error);
                line.str("error_kind", "snapshot");
            }
        }
        line.close('}');
        line.0
    }
}

/// A response line under construction. A member or element gets a
/// leading comma unless it is the first of its object or array, which is
/// exactly when the line so far ends in `{`, `[` or a key's `:`. Writes
/// to a `String` cannot fail, so their `fmt::Result`s are dropped.
struct Line(String);

impl Line {
    fn separate(&mut self) {
        if !matches!(self.0.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.0.push(',');
        }
    }

    fn open(&mut self, bracket: char) {
        self.separate();
        self.0.push(bracket);
    }

    fn close(&mut self, bracket: char) {
        self.0.push(bracket);
    }

    /// Starts the member `key`. Keys are literals that need no escaping.
    fn key(&mut self, key: &'static str) {
        self.separate();
        self.0.push('"');
        self.0.push_str(key);
        self.0.push_str("\":");
    }

    /// Starts a member whose key is data (a message name, a metric
    /// series), escaped like any string.
    fn data_key(&mut self, key: &str) {
        self.string(key);
        self.0.push(':');
    }

    fn string(&mut self, value: &str) {
        self.separate();
        self.0.push('"');
        let _ = write_escaped(&mut self.0, value);
        self.0.push('"');
    }

    /// A string holding `value`'s `Display`, escaped as it is formatted.
    fn display(&mut self, value: impl fmt::Display) {
        self.separate();
        self.0.push('"');
        let _ = write!(Escaping(&mut self.0), "{value}");
        self.0.push('"');
    }

    fn number(&mut self, value: f64) {
        self.separate();
        let _ = write_number(&mut self.0, value);
    }

    fn str(&mut self, key: &'static str, value: &str) {
        self.key(key);
        self.string(value);
    }

    fn shown(&mut self, key: &'static str, value: impl fmt::Display) {
        self.key(key);
        self.display(value);
    }

    fn num(&mut self, key: &'static str, value: f64) {
        self.key(key);
        self.number(value);
    }

    fn flag(&mut self, key: &'static str, value: bool) {
        self.key(key);
        self.0.push_str(if value { "true" } else { "false" });
    }

    /// A fingerprint, as `"0x"` and 32 hex digits.
    fn hex(&mut self, key: &'static str, value: u128) {
        self.key(key);
        let _ = write!(self.0, "\"{value:#034x}\"");
    }

    fn indexes(&mut self, key: &'static str, indexes: impl Iterator<Item = usize>) {
        self.key(key);
        self.open('[');
        for index in indexes {
            self.number(index as f64);
        }
        self.close(']');
    }

    fn analysis(&mut self, response: &AnalysisResponse) {
        self.str("id", &response.name);
        let status = if response.is_certified() {
            "certified"
        } else {
            "rejected"
        };
        self.str("status", status);
        let cache = match response.provenance {
            CacheProvenance::Hit => "hit",
            CacheProvenance::Miss => "miss",
            CacheProvenance::Incremental => "incremental",
            CacheProvenance::Warm => "warm",
        };
        self.str("cache", cache);
        match response.outcome.as_ref() {
            Ok(certified) => {
                self.str("classification", "deadlock-free");
                self.str("labeling", certified.labeling_method.as_str());
                self.key("labels");
                self.open('{');
                for (name, label) in &certified.message_labels {
                    self.data_key(name);
                    self.display(label);
                }
                self.close('}');
                self.num(
                    "max_queues_per_interval",
                    certified.max_queues_per_interval as f64,
                );
                if let Some(report) = &certified.verified {
                    self.flag("verified", report.completed);
                    self.num("verify_cycles", report.cycles as f64);
                    if let Some(deadlock) = &report.deadlock {
                        // A failed chase is actionable: name the first
                        // blocked cell and the stall cycle, like analyzer
                        // diagnostics.
                        self.shown("verify_blocked_cell", deadlock.first_blocked);
                        self.num("verify_blocked_cycle", deadlock.cycle as f64);
                        self.str("verify_blocked_reason", &deadlock.reason);
                    }
                }
                self.num("analysis_micros", certified.analysis_micros as f64);
                if !certified.diagnostics.is_empty() {
                    self.diagnostics(&certified.diagnostics);
                }
            }
            Err(rejection) => {
                self.shown("error", &rejection.error);
                self.str("error_kind", error_kind(&rejection.error));
                self.diagnostics(&rejection.diagnostics);
            }
        }
        self.num("micros", response.handle_micros as f64);
        self.hex("fingerprint", response.fingerprint);
        // The trace id joins this response to its span tree in the
        // `--trace-file` JSONL log (span events carry the same `trace`).
        self.num("trace", response.trace_id as f64);
    }

    /// An edit's members after its analysis ones: the `base` echo and
    /// the `reuse` report.
    fn reuse(&mut self, edit: &EditResponse) {
        self.hex("base", edit.base);
        let reuse = &edit.reuse;
        let classification = if reuse.resumed_classification {
            "resumed"
        } else if reuse.seeded_classification {
            "seeded"
        } else {
            "none"
        };
        self.key("reuse");
        self.open('{');
        self.num("dirty_cells", reuse.dirty_cells as f64);
        self.num("total_cells", reuse.total_cells as f64);
        self.flag("routes", reuse.reused_routes);
        self.flag("competing", reuse.reused_competing);
        self.str("classification", classification);
        self.flag("fast_labeling", reuse.fast_labeling);
        if let Some(reason) = reuse.fallback {
            self.str("fallback", reason.as_str());
        }
        self.close('}');
    }

    /// The `metrics` wire op's response body: counters and gauges keyed
    /// by their rendered series name, histograms as `{count, sum, max,
    /// mean, p50, p99}` summaries (log2-bucket estimates for the
    /// percentiles — < 2× overestimate, never an underestimate).
    fn metrics(&mut self, snapshot: &RegistrySnapshot) {
        self.str("status", "metrics");
        self.key("counters");
        self.open('{');
        for (key, value) in &snapshot.counters {
            self.data_key(&key.render());
            self.number(*value as f64);
        }
        self.close('}');
        self.key("gauges");
        self.open('{');
        for (key, value) in &snapshot.gauges {
            self.data_key(&key.render());
            self.number(*value as f64);
        }
        self.close('}');
        self.key("histograms");
        self.open('{');
        for (key, h) in &snapshot.histograms {
            self.data_key(&key.render());
            self.open('{');
            self.num("count", h.count as f64);
            self.num("sum", h.sum as f64);
            self.num("max", h.max as f64);
            self.num("mean", h.mean());
            self.num("p50", h.quantile(0.5) as f64);
            self.num("p99", h.quantile(0.99) as f64);
            self.close('}');
        }
        self.close('}');
    }

    /// Structured diagnostics as a `diagnostics` array. Message/cell id
    /// arrays appear only when non-empty.
    fn diagnostics(&mut self, diagnostics: &[Diagnostic]) {
        self.key("diagnostics");
        self.open('[');
        for d in diagnostics {
            self.open('{');
            self.str("code", d.code().as_str());
            self.str("severity", d.severity().as_str());
            self.str("message", d.message());
            if !d.message_ids().is_empty() {
                self.indexes("messages", d.message_ids().iter().map(|m| m.index()));
            }
            if !d.cell_ids().is_empty() {
                self.indexes("cells", d.cell_ids().iter().map(|c| c.index()));
            }
            self.close('}');
        }
        self.close(']');
    }
}

/// Escapes everything formatted through it into the wrapped line.
struct Escaping<'a>(&'a mut String);

impl fmt::Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        write_escaped(self.0, s)
    }
}

/// The stable `error_kind` vocabulary: `"internal"` for contained panics,
/// `"config"` for a configuration that does not cover its program,
/// otherwise the analysis error's
/// [`CoreError::kind`](systolic_core::CoreError::kind).
fn error_kind(error: &ServiceError) -> &'static str {
    match error {
        ServiceError::Panicked(_) => "internal",
        ServiceError::InvalidConfig(_) => "config",
        ServiceError::Analysis(error) => error.kind(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_lines_strip_endings_and_skip_long_lines() {
        let long = "x".repeat(MAX_LINE_BYTES + 1);
        let fits = "y".repeat(MAX_LINE_BYTES);
        let input = format!("a\r\n\n{long}\n{fits}\nb\r");
        // A one-byte buffer makes every line span many reads.
        let reader = std::io::BufReader::with_capacity(1, input.as_bytes());
        let lines: Vec<Result<String, WireError>> = BoundedLines::new(reader)
            .map(|line| line.expect("in-memory reads succeed"))
            .collect();
        assert_eq!(
            lines,
            vec![
                Ok("a".to_owned()),
                Ok(String::new()),
                Err(WireError::LineTooLong),
                Ok(fits),
                Ok("b\r".to_owned()),
            ]
        );
        let invalid = BoundedLines::new(&b"\xff\n"[..]).next().unwrap();
        assert!(
            invalid.is_err(),
            "non-UTF-8 is an I/O error, as for `lines()`"
        );
    }
    use crate::{AnalysisService, ServiceConfig};
    use systolic_core::AnalysisConfig;
    use systolic_workloads::{traffic, TrafficConfig};

    const PROGRAM: &str =
        "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n";

    fn request_line(extra: &str) -> String {
        let program = Json::Str(PROGRAM.to_owned());
        format!(r#"{{"id":"r1","program":{program},"topology":"linear:2"{extra}}}"#)
    }

    #[test]
    fn parses_a_minimal_request() {
        let r = parse_request(&request_line(""), 1).unwrap();
        assert_eq!(r.name, "r1");
        assert_eq!(r.program.num_messages(), 1);
        assert_eq!(r.topology, Topology::linear(2));
        assert_eq!(r.config, AnalysisConfig::default());
    }

    #[test]
    fn id_defaults_to_line_number() {
        let program = Json::Str(PROGRAM.to_owned());
        let line = format!(r#"{{"program":{program},"topology":"linear:2"}}"#);
        let r = parse_request(&line, 7).unwrap();
        assert_eq!(r.name, "line-7");
    }

    #[test]
    fn parses_queues_and_lookahead_forms() {
        let r = parse_request(&request_line(r#","queues":3,"lookahead":2"#), 1).unwrap();
        assert_eq!(r.config.queues_per_interval, 3);
        assert_eq!(r.config.lookahead, Lookahead::PerQueueCapacity(2));

        let r = parse_request(&request_line(r#","lookahead":"unbounded""#), 1).unwrap();
        assert_eq!(r.config.lookahead, Lookahead::Unbounded);

        // The test program declares exactly one message, so a 1-entry
        // explicit table is accepted...
        let r = parse_request(&request_line(r#","lookahead":[null]"#), 1).unwrap();
        assert_eq!(
            r.config.lookahead,
            Lookahead::Explicit(LookaheadLimits::from_table(vec![None]))
        );
    }

    #[test]
    fn lookahead_array_must_match_message_count() {
        // ...while a mismatched table is a field error instead of an
        // out-of-bounds panic inside the analysis (regression test: this
        // exact shape used to kill the daemon).
        for table in ["[]", "[1,2]", "[1,null,3]"] {
            let line = request_line(&format!(r#","lookahead":{table}"#));
            assert!(
                matches!(parse_request(&line, 1), Err(WireError::Field(_))),
                "lookahead {table} should be rejected for a 1-message program"
            );
        }
    }

    #[test]
    fn lookahead_magnitudes_are_bounded() {
        for extra in [
            r#","lookahead":9223372036854775808"#,
            r#","lookahead":1048577"#,
            r#","lookahead":[1048577]"#,
        ] {
            assert!(
                matches!(
                    parse_request(&request_line(extra), 1),
                    Err(WireError::Field(_))
                ),
                "{extra} should be rejected"
            );
        }
        assert!(parse_request(&request_line(r#","lookahead":1048576"#), 1).is_ok());
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(matches!(
            parse_request("not json", 1),
            Err(WireError::Json(_))
        ));
        assert!(matches!(parse_request("[1]", 1), Err(WireError::Field(_))));
        assert!(matches!(
            parse_request(r#"{"topology":"linear:2"}"#, 1),
            Err(WireError::Field(_))
        ));
        assert!(matches!(
            parse_request(&request_line(r#","queues":0"#), 1),
            Err(WireError::Field(_))
        ));
        let bad_program = r#"{"program":"bogus directive","topology":"linear:2"}"#;
        assert!(matches!(
            parse_request(bad_program, 1),
            Err(WireError::Model(_))
        ));
        let bad_topology = format!(
            r#"{{"program":{},"topology":"tree:2"}}"#,
            Json::Str(PROGRAM.to_owned())
        );
        assert!(matches!(
            parse_request(&bad_topology, 1),
            Err(WireError::Model(_))
        ));
    }

    #[test]
    fn response_roundtrips_through_the_service() {
        let service = AnalysisService::new(ServiceConfig::default());
        let request = parse_request(&request_line(""), 1).unwrap();
        let response = service.submit(request).wait();
        let json = Json::parse(&WireResponse::Analysis(&response).to_json()).unwrap();
        assert_eq!(json.get("id").and_then(Json::as_str), Some("r1"));
        assert_eq!(json.get("status").and_then(Json::as_str), Some("certified"));
        assert_eq!(json.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(
            json.get("max_queues_per_interval").and_then(Json::as_u64),
            Some(1)
        );
        let labels = json.get("labels").unwrap();
        assert_eq!(labels.get("A").and_then(Json::as_str), Some("1"));
        // The rendered line parses back as JSON.
        assert_eq!(Json::parse(&json.to_string()).unwrap(), json);
    }

    #[test]
    fn rejected_response_names_the_error() {
        let service = AnalysisService::new(ServiceConfig::default());
        let deadlock = "cells 2\nmessage A: c0 -> c1\nmessage B: c1 -> c0\n\
                        program c0 { R(B) W(A) }\nprogram c1 { R(A) W(B) }\n";
        let line = format!(
            r#"{{"id":"d","program":{},"topology":"linear:2"}}"#,
            Json::Str(deadlock.to_owned())
        );
        let response = service.submit(parse_request(&line, 1).unwrap()).wait();
        let json = Json::parse(&WireResponse::Analysis(&response).to_json()).unwrap();
        assert_eq!(json.get("status").and_then(Json::as_str), Some("rejected"));
        assert_eq!(
            json.get("error_kind").and_then(Json::as_str),
            Some("deadlocked")
        );
        assert!(json
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("deadlocked"));

        // Structured diagnostics ride along: code, severity, and the
        // offending message/cell ids, machine-readable end to end.
        let Some(Json::Arr(diagnostics)) = json.get("diagnostics") else {
            panic!("rejected responses carry a diagnostics array");
        };
        assert!(!diagnostics.is_empty());
        let d = &diagnostics[0];
        assert_eq!(d.get("code").and_then(Json::as_str), Some("E-DEADLOCK"));
        assert_eq!(d.get("severity").and_then(Json::as_str), Some("error"));
        let Some(Json::Arr(cells)) = d.get("cells") else {
            panic!("deadlock diagnostic names the stuck cells");
        };
        assert_eq!(cells.len(), 2);
        assert!(matches!(d.get("messages"), Some(Json::Arr(m)) if !m.is_empty()));
        // The rendered line still parses back as JSON.
        assert_eq!(Json::parse(&json.to_string()).unwrap(), json);
    }

    #[test]
    fn generated_traffic_lines_parse_back() {
        let stream = traffic(&TrafficConfig::default(), 9, 25);
        for (i, item) in stream.iter().enumerate() {
            let line = WireResponse::Traffic {
                id: &format!("t{i}"),
                item,
            }
            .to_json();
            let request = parse_request(&line, i + 1).unwrap();
            assert_eq!(
                request.program, item.program,
                "{} did not round-trip",
                item.name
            );
            assert_eq!(request.topology, item.topology);
            assert_eq!(request.config.queues_per_interval, item.queues_per_interval);
        }
    }

    #[test]
    fn invalid_line_renders_an_error_response() {
        let err = parse_request("{", 3).unwrap_err();
        let json = Json::parse(
            &WireResponse::Invalid {
                line_number: 3,
                error: &err,
            }
            .to_json(),
        )
        .unwrap();
        assert_eq!(json.get("status").and_then(Json::as_str), Some("invalid"));
        assert_eq!(json.get("id").and_then(Json::as_str), Some("line-3"));
    }

    #[test]
    fn responses_echo_their_trace_id() {
        let service = AnalysisService::new(ServiceConfig::default());
        let response = service
            .submit(parse_request(&request_line(""), 1).unwrap())
            .wait();
        let json = Json::parse(&WireResponse::Analysis(&response).to_json()).unwrap();
        assert_eq!(
            json.get("trace").and_then(Json::as_u64),
            Some(response.trace_id)
        );
        assert!(response.trace_id > 0);
    }

    #[test]
    fn parse_line_routes_ops_and_requests() {
        assert!(matches!(
            parse_line(r#"{"op":"metrics"}"#, 1),
            Ok(WireRequest::Metrics)
        ));
        assert!(matches!(
            parse_line(r#"{"op":"stats"}"#, 1),
            Err(WireError::Field(_))
        ));
        assert!(matches!(
            parse_line(r#"{"op":"explode"}"#, 1),
            Err(WireError::Field(_))
        ));
        assert!(matches!(
            parse_line(&request_line(""), 1),
            Ok(WireRequest::Analysis(r)) if r.name == "r1"
        ));
        assert!(matches!(
            parse_line(r#"{"op":"edit","base":"0x2a","ops":[]}"#, 1),
            Ok(WireRequest::Edit(c)) if c.base == 42 && c.ops.is_empty()
        ));
    }

    #[test]
    fn parse_edit_covers_every_op_form() {
        let line = r#"{"op":"edit","id":"e1","base":"0x00000000000000000000000000000019",
            "ops":[{"edit":"append","cell":"c0","op":"W(A)"},
                   {"edit":"append","cell":"c1","op":"R(A)"},
                   {"edit":"remove_tail","cell":"c2"},
                   {"edit":"add_link","a":"c0","b":"c5"},
                   {"edit":"remove_link","a":"c0","b":"c5"}]}"#;
        let Ok(WireRequest::Edit(command)) = parse_line(line, 1) else {
            panic!("edit line must parse");
        };
        assert_eq!(command.name, "e1");
        assert_eq!(command.base, 0x19);
        assert_eq!(
            command.ops,
            vec![
                NamedEditOp::Append {
                    cell: "c0".to_owned(),
                    write: true,
                    message: "A".to_owned(),
                },
                NamedEditOp::Append {
                    cell: "c1".to_owned(),
                    write: false,
                    message: "A".to_owned(),
                },
                NamedEditOp::RemoveTail {
                    cell: "c2".to_owned(),
                },
                NamedEditOp::AddLink {
                    a: "c0".to_owned(),
                    b: "c5".to_owned(),
                },
                NamedEditOp::RemoveLink {
                    a: "c0".to_owned(),
                    b: "c5".to_owned(),
                },
            ]
        );
        // `id` defaults to the line number, `base` accepts bare hex.
        let Ok(WireRequest::Edit(command)) = parse_line(r#"{"op":"edit","base":"ff","ops":[]}"#, 9)
        else {
            panic!("edit line must parse");
        };
        assert_eq!(command.name, "line-9");
        assert_eq!(command.base, 0xff);
    }

    #[test]
    fn parse_edit_rejects_malformed_lines() {
        for line in [
            r#"{"op":"edit","ops":[]}"#,                                // no base
            r#"{"op":"edit","base":"xyz","ops":[]}"#,                   // bad hex
            r#"{"op":"edit","base":17,"ops":[]}"#,                      // base not a string
            r#"{"op":"edit","base":"0x1"}"#,                            // no ops
            r#"{"op":"edit","base":"0x1","ops":[{}]}"#,                 // no discriminator
            r#"{"op":"edit","base":"0x1","ops":[{"edit":"explode"}]}"#, // unknown edit
            r#"{"op":"edit","base":"0x1","ops":[{"edit":"append","cell":"c0","op":"X(A)"}]}"#,
            r#"{"op":"edit","base":"0x1","ops":[{"edit":"append","cell":"c0"}]}"#, // no op
            r#"{"op":"edit","base":"0x1","ops":[{"edit":"add_link","a":"c0"}]}"#,  // no b
        ] {
            assert!(
                matches!(parse_line(line, 1), Err(WireError::Field(_))),
                "{line} should be rejected"
            );
        }
    }

    #[test]
    fn edit_response_carries_base_and_reuse() {
        use crate::NamedEditOp;
        let service = AnalysisService::new(ServiceConfig::default());
        let base = service
            .submit(parse_request(&request_line(""), 1).unwrap())
            .wait();
        // Append a balanced W/R pair so the edited program stays valid.
        let edit = service
            .apply_edit(
                "e1",
                base.fingerprint,
                &[
                    NamedEditOp::Append {
                        cell: "c0".to_owned(),
                        write: true,
                        message: "A".to_owned(),
                    },
                    NamedEditOp::Append {
                        cell: "c1".to_owned(),
                        write: false,
                        message: "A".to_owned(),
                    },
                ],
            )
            .unwrap();
        let json = Json::parse(&WireResponse::Edit(&edit).to_json()).unwrap();
        assert_eq!(json.get("id").and_then(Json::as_str), Some("e1"));
        assert_eq!(
            json.get("cache").and_then(Json::as_str),
            Some("incremental")
        );
        assert_eq!(
            json.get("base").and_then(Json::as_str),
            Some(format!("{:#034x}", base.fingerprint).as_str())
        );
        let reuse = json.get("reuse").expect("reuse object");
        assert_eq!(reuse.get("dirty_cells").and_then(Json::as_u64), Some(2));
        assert_eq!(reuse.get("total_cells").and_then(Json::as_u64), Some(2));
        assert!(matches!(reuse.get("routes"), Some(Json::Bool(_))));
        assert!(matches!(reuse.get("classification"), Some(Json::Str(_))));
        // 2 dirty of 2 cells exceeds the 0.5 default ratio: a fallback.
        assert_eq!(
            reuse.get("fallback").and_then(Json::as_str),
            Some("dirty-ratio")
        );
        // The new fingerprint (not the base) is echoed for chaining.
        let next = json.get("fingerprint").and_then(Json::as_str).unwrap();
        assert_eq!(next, format!("{:#034x}", edit.response.fingerprint));
        assert_ne!(next, format!("{:#034x}", base.fingerprint));
        // The rendered line parses back as JSON.
        assert_eq!(Json::parse(&json.to_string()).unwrap(), json);
    }

    #[test]
    fn rejected_edit_renders_an_error_response() {
        let service = AnalysisService::new(ServiceConfig::default());
        let err = service.apply_edit("e1", 0x2a, &[]).unwrap_err();
        let json = Json::parse(
            &WireResponse::EditRejected {
                name: "e1",
                base: 0x2a,
                error: &err,
            }
            .to_json(),
        )
        .unwrap();
        assert_eq!(json.get("status").and_then(Json::as_str), Some("rejected"));
        assert_eq!(json.get("error_kind").and_then(Json::as_str), Some("edit"));
        assert!(json
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown base fingerprint"));
        assert_eq!(
            json.get("base").and_then(Json::as_str),
            Some("0x0000000000000000000000000000002a")
        );
    }

    #[test]
    fn metrics_op_dumps_the_registry_as_json() {
        let service = AnalysisService::new(ServiceConfig {
            verify: true,
            ..Default::default()
        });
        assert!(service
            .submit(parse_request(&request_line(""), 1).unwrap())
            .wait()
            .is_certified());
        let json =
            Json::parse(&WireResponse::Metrics(&service.registry_snapshot()).to_json()).unwrap();
        assert_eq!(json.get("status").and_then(Json::as_str), Some("metrics"));
        let counters = json.get("counters").expect("counters object");
        assert_eq!(
            counters
                .get("systolic_service_requests_total")
                .and_then(Json::as_u64),
            Some(1)
        );
        let histograms = json.get("histograms").expect("histograms object");
        let handle = histograms
            .get("systolic_service_handle_duration_micros")
            .expect("handle-duration summary");
        assert_eq!(handle.get("count").and_then(Json::as_u64), Some(1));
        // The rendered line parses back as JSON.
        assert_eq!(Json::parse(&json.to_string()).unwrap(), json);
    }

    #[test]
    fn snapshot_op_parses_and_renders() {
        assert!(matches!(
            parse_line(r#"{"op":"snapshot","id":"s1"}"#, 1),
            Ok(WireRequest::Snapshot(name)) if name == "s1"
        ));
        assert!(matches!(
            parse_line(r#"{"op":"snapshot"}"#, 4),
            Ok(WireRequest::Snapshot(name)) if name == "line-4"
        ));
        assert!(matches!(
            parse_line(r#"{"op":"snapshot","id":7}"#, 1),
            Err(WireError::Field(_))
        ));

        let done = WireResponse::Snapshot {
            name: "s1",
            report: crate::SnapshotReport {
                plans: 5,
                dropped: 0,
                bytes: 1234,
                micros: 99,
            },
        }
        .to_json();
        assert_eq!(
            done,
            r#"{"id":"s1","status":"snapshot","plans":5,"bytes":1234,"micros":99}"#
        );
        let rejected = WireResponse::SnapshotRejected {
            name: "s2",
            error: "no --snapshot-save path configured",
        }
        .to_json();
        assert_eq!(
            rejected,
            r#"{"id":"s2","status":"rejected","error":"no --snapshot-save path configured","error_kind":"snapshot"}"#
        );
    }

    /// Locks the exact serialized field order of an analysis response, so
    /// the `WireResponse` consolidation (and any future refactor) cannot
    /// silently reorder or rename what clients parse.
    #[test]
    fn golden_analysis_field_order_is_locked() {
        use crate::{CacheProvenance, Certified};
        use std::sync::Arc;
        use systolic_core::{Analyzer, Label, LabelingMethod};

        let program = parse_program(PROGRAM).unwrap();
        let topology = Topology::linear(2);
        let config = AnalysisConfig::default();
        let analysis = Analyzer::for_topology(&topology, &config)
            .analyze(&program)
            .unwrap();
        let certified = Certified {
            plan: Arc::new(analysis.into_plan()),
            labeling_method: LabelingMethod::Section6,
            message_labels: vec![("A".to_owned(), Label::integer(1))],
            max_queues_per_interval: 1,
            verified: None,
            analysis_micros: 120,
            diagnostics: Vec::new(),
        };
        let response = AnalysisResponse {
            seq: 0,
            name: "r1".to_owned(),
            fingerprint: 0x2a,
            provenance: CacheProvenance::Warm,
            outcome: Arc::new(Ok(certified)),
            handle_micros: 130,
            trace_id: 7,
        };
        assert_eq!(
            WireResponse::Analysis(&response).to_json(),
            r#"{"id":"r1","status":"certified","cache":"warm","classification":"deadlock-free","labeling":"section6","labels":{"A":"1"},"max_queues_per_interval":1,"analysis_micros":120,"micros":130,"fingerprint":"0x0000000000000000000000000000002a","trace":7}"#
        );
    }
}
