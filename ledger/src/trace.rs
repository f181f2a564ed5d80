//! The traced run's span log: spans kept in memory, written as JSONL at
//! exit, and folded into a per-layer self-time table.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One finished (or open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer function the span times, e.g. `wire.parse_line`.
    pub name: &'static str,
    /// Start, ns since the log was opened.
    pub start: u64,
    /// End, ns since the log was opened (0 while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let value = f();
        self.close(id);
        value
    }

    /// Every span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                span.name, span.start, span.end, span.request
            )?;
        }
        out.flush()
    }

    /// Per span name: (count, total ns, self ns), where a span's self time
    /// is its duration minus the time its child spans cover.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.ns();
            }
        }
        let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.ns();
            entry.2 += span.ns().saturating_sub(children);
        }
        totals
    }
}

/// Names of the spans that model work the service did inside a
/// `service.*` round trip (on its worker, where the benchmark cannot
/// place spans). Their time is subtracted from the round trip's self time.
pub const WORKER_LAYERS: [&str; 12] = [
    "fingerprint",
    "compiled.compile",
    "analyzer.routes",
    "analyzer.classify",
    "analyzer.label",
    "analyzer.consistency",
    "analyzer.competing",
    "analyzer.requirements",
    "analyzer.plan",
    "sim.arena_build",
    "sim.replay",
    "incremental.apply",
];

/// The per-layer table of a traced pass, plus the unattributed share of
/// end-to-end latency.
///
/// End-to-end latency is the sum of `request` spans. The in-path layers
/// are the request's children (`wire.parse_line`, `service.*`,
/// `wire.encode`). A round trip's self time is what remains after
/// subtracting the [`WORKER_LAYERS`] probes that modeled the worker's
/// part of it; probes of `wire.parse_line`'s parts are shown for
/// reference and not subtracted. Returns the printed table and
/// `unattributed_frac`.
#[must_use]
pub fn layer_table(log: &SpanLog) -> (String, f64) {
    let totals = log.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let e2e = get("request").1.max(1) as f64;
    let worker: u64 = WORKER_LAYERS.iter().map(|name| get(name).1).sum();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:>9} {:>15} {:>15} {:>8}\n",
        "layer", "count", "total_ns", "self_ns", "share"
    ));
    let mut in_path = 0u64;
    for (name, (count, total, self_ns)) in &totals {
        if *name == "request" {
            continue;
        }
        let (self_ns, share) = if name.starts_with("service.") {
            in_path += total;
            let own = total.saturating_sub(worker);
            (own, format!("{:.4}", own as f64 / e2e))
        } else if *name == "wire.parse_line" || *name == "wire.encode" {
            in_path += total;
            (*self_ns, format!("{:.4}", *self_ns as f64 / e2e))
        } else if WORKER_LAYERS.contains(name) {
            (*self_ns, format!("{:.4}", *self_ns as f64 / e2e))
        } else {
            (*self_ns, "-".to_owned())
        };
        out.push_str(&format!(
            "{name:<26} {count:>9} {total:>15} {self_ns:>15} {share:>8}\n"
        ));
    }
    let unattributed = get("request").1.saturating_sub(in_path) as f64 / e2e;
    (out, unattributed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_worker_probes() {
        let log = SpanLog {
            origin: Instant::now(),
            spans: vec![
                span("request", 0, 100, None),
                span("wire.parse_line", 0, 30, Some(0)),
                span("service.roundtrip", 30, 90, Some(0)),
                span("wire.encode", 90, 95, Some(0)),
                span("fingerprint", 200, 210, None),
            ],
        };
        let totals = log.totals();
        assert_eq!(totals["request"], (1, 100, 5));
        let (table, unattributed) = layer_table(&log);
        assert!((unattributed - 0.05).abs() < 1e-12);
        let roundtrip = table
            .lines()
            .find(|l| l.starts_with("service.roundtrip"))
            .expect("row");
        assert!(
            roundtrip.contains(" 60 ") && roundtrip.contains(" 50 "),
            "{roundtrip}"
        );
    }
}
