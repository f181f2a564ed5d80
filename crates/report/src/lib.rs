//! Plain-text/markdown tables, CSV output and small statistics helpers for
//! the experiment harness.
//!
//! No external dependencies: the `repro` binary and the benches use this to
//! print the paper-style tables.
//!
//! # Examples
//!
//! ```
//! use systolic_report::Table;
//!
//! let mut t = Table::new(["policy", "outcome", "cycles"]);
//! t.row(["fifo", "deadlock", "17"]);
//! t.row(["compatible", "completed", "23"]);
//! let text = t.to_markdown();
//! assert!(text.contains("| policy"));
//! assert!(text.contains("| compatible"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use core::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        widths
    }

    /// Renders as aligned plain text.
    #[must_use]
    pub fn to_text(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<w$}");
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&mut out, &rule);
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders as a GitHub-flavoured markdown table.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            out.push('|');
            for (cell, w) in cells.iter().zip(&widths) {
                let _ = write!(out, " {cell:<w$} |");
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&mut out, &rule);
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders as CSV with RFC 4180 quoting: cells containing commas,
    /// double quotes, or line breaks are wrapped in double quotes, with
    /// embedded quotes doubled.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            let joined: Vec<String> = cells.iter().map(|c| csv_escape(c)).collect();
            out.push_str(&joined.join(","));
            out.push('\n');
        };
        line(&mut out, &self.headers);
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Quotes one CSV cell per RFC 4180: wrap in `"` when the cell contains a
/// comma, quote or line break, doubling embedded quotes.
fn csv_escape(cell: &str) -> String {
    if cell.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_owned()
    }
}

/// Mean of a sample (0.0 for empty input).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation (0.0 for fewer than two points).
#[must_use]
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// The `p`-th percentile of a sample by nearest-rank (0.0 for empty input).
///
/// `p` is clamped to `0.0..=100.0`; `p = 0` returns the minimum and
/// `p = 100` the maximum. The sample need not be sorted.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over an already-sorted sample, skipping the copy and
/// sort — what latency reservoirs (`systolic_service`) use after sorting
/// once for several percentiles.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Formats a ratio like `3.2x` with one decimal.
#[must_use]
pub fn ratio(numerator: f64, denominator: f64) -> String {
    if denominator == 0.0 {
        "n/a".to_owned()
    } else {
        format!("{:.1}x", numerator / denominator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(["a", "bb"]);
        t.row(["1", "2"]).row(["333", "4"]);
        t
    }

    #[test]
    fn text_is_aligned() {
        let text = sample().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a    bb"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].starts_with("1"));
        assert!(lines[3].starts_with("333"));
    }

    #[test]
    fn markdown_has_pipes_and_rule() {
        let md = sample().to_markdown();
        assert!(md.starts_with("| a"));
        assert!(md.lines().nth(1).unwrap().contains("---"));
        assert_eq!(md.lines().count(), 4);
    }

    #[test]
    fn csv_joins_with_commas() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().next().unwrap(), "a,bb");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn csv_quotes_commas_rfc4180() {
        let mut t = Table::new(["x"]);
        t.row(["a,b"]);
        assert_eq!(t.to_csv(), "x\n\"a,b\"\n");
    }

    #[test]
    fn csv_doubles_embedded_quotes() {
        let mut t = Table::new(["x"]);
        t.row(["say \"hi\""]);
        assert_eq!(t.to_csv(), "x\n\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn csv_quotes_newlines_and_carriage_returns() {
        let mut t = Table::new(["x", "y"]);
        t.row(["line1\nline2", "cr\rcell"]);
        assert_eq!(t.to_csv(), "x,y\n\"line1\nline2\",\"cr\rcell\"\n");
    }

    #[test]
    fn csv_leaves_plain_cells_unquoted() {
        let mut t = Table::new(["a", "b"]);
        t.row(["plain", "also plain"]);
        assert_eq!(t.to_csv(), "a,b\nplain,also plain\n");
    }

    #[test]
    fn csv_quotes_header_cells_too() {
        let t = Table::new(["a,b", "c"]);
        assert_eq!(t.to_csv(), "\"a,b\",c\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[1.0]), 0.0);
        assert!((stddev(&[2.0, 4.0]) - 1.0).abs() < 1e-9);
        assert_eq!(ratio(6.0, 2.0), "3.0x");
        assert_eq!(ratio(1.0, 0.0), "n/a");
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 5.0);
        assert_eq!(percentile(&xs, 150.0), 5.0); // clamped
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty slice: 0.0 at every percentile, including the extremes.
        for p in [-10.0, 0.0, 50.0, 100.0, 200.0] {
            assert_eq!(percentile(&[], p), 0.0);
            assert_eq!(percentile_sorted(&[], p), 0.0);
        }
        // Single element: that element at every percentile.
        for p in [-1.0, 0.0, 0.1, 50.0, 99.9, 100.0, 101.0] {
            assert_eq!(percentile(&[7.5], p), 7.5);
        }
        // p = 0 is the minimum, p = 100 the maximum, even for pairs.
        assert_eq!(percentile(&[2.0, 9.0], 0.0), 2.0);
        assert_eq!(percentile(&[2.0, 9.0], 100.0), 9.0);
        // Negative p clamps to the minimum.
        assert_eq!(percentile(&[2.0, 9.0], -5.0), 2.0);
        // Unsorted input is sorted internally; ties are preserved.
        let xs = [9.0, 9.0, 1.0, 1.0];
        assert_eq!(percentile(&xs, 50.0), 1.0);
        assert_eq!(percentile(&xs, 75.0), 9.0);
    }

    #[test]
    fn percentile_sorted_matches_percentile() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(percentile(&xs, p), percentile_sorted(&sorted, p), "p={p}");
        }
    }

    #[test]
    fn empty_table_renders_headers() {
        let t = Table::new(["only"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_text().lines().count(), 2);
    }
}
