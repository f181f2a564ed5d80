//! Structured analysis diagnostics.
//!
//! A single [`CoreError`] is fine for a library caller but useless for a
//! client on the other side of the `systolicd` wire who wants to know
//! *which* messages deadlocked or *which* interval is short of queues.
//! The [`Analyzer`](crate::Analyzer) therefore also accumulates
//! [`Diagnostic`]s as its stages run: each carries a machine-readable [`DiagnosticCode`], a
//! [`Severity`], a human-readable message, and the offending
//! [`MessageId`]s / [`CellId`]s, so front ends can render or route them
//! without parsing prose.

use core::fmt;

use systolic_model::{CellId, MessageId, ModelError};

use crate::CoreError;

/// How bad a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Informational: the analysis succeeded, this is advisory detail
    /// (e.g. a message that would engage the queue-extension mechanism).
    Info,
    /// Suspicious but not fatal (e.g. the Section 6 labeling scheme wedged
    /// and the constraint solver was used instead).
    Warning,
    /// The analysis cannot certify the program.
    Error,
}

impl Severity {
    /// Every severity: the table [`Severity::as_str`]'s inverse searches.
    pub(crate) const ALL: [Severity; 3] = [Severity::Info, Severity::Warning, Severity::Error];

    /// Stable lower-case name (`"info"`, `"warning"`, `"error"`), used by
    /// the JSONL wire format.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Machine-readable diagnostic codes, one per way an analysis stage can
/// object. The string forms ([`DiagnosticCode::as_str`]) are a stable wire
/// contract: `E-*` are errors, `W-*` warnings, `I-*` informational.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum DiagnosticCode {
    /// The program and topology disagree on the number of cells.
    CellCountMismatch,
    /// A message cannot be routed over the topology.
    RouteFailure,
    /// Some other model-level validation failed.
    ModelInvalid,
    /// The crossing-off procedure stalled: the program is deadlocked
    /// (paper, Section 3.2).
    Deadlock,
    /// No consistent label exists for a message (paper, Section 6).
    LabelConflict,
    /// A labeling violates the Section 5 consistency definition.
    InconsistentLabeling,
    /// An interval needs more queues than the hardware provides
    /// (Theorem 1 assumption (ii)).
    Infeasible,
    /// The literal Section 6 scheme wedged; the constraint-solving scheme
    /// produced the labels instead.
    Section6Fallback,
    /// Lookahead skipped more writes of a message than fit in its route's
    /// queues: the iWarp queue-extension mechanism would engage
    /// (paper, Section 8.1).
    ExtensionCandidate,
}

impl DiagnosticCode {
    /// Every code: the table [`DiagnosticCode::as_str`]'s inverse
    /// searches.
    pub(crate) const ALL: [DiagnosticCode; 9] = [
        DiagnosticCode::CellCountMismatch,
        DiagnosticCode::RouteFailure,
        DiagnosticCode::ModelInvalid,
        DiagnosticCode::Deadlock,
        DiagnosticCode::LabelConflict,
        DiagnosticCode::InconsistentLabeling,
        DiagnosticCode::Infeasible,
        DiagnosticCode::Section6Fallback,
        DiagnosticCode::ExtensionCandidate,
    ];

    /// The number of codes: `code as usize` is below it.
    pub(crate) const COUNT: usize = Self::ALL.len();

    /// The stable wire string of this code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticCode::CellCountMismatch => "E-CELL-COUNT",
            DiagnosticCode::RouteFailure => "E-ROUTE",
            DiagnosticCode::ModelInvalid => "E-MODEL",
            DiagnosticCode::Deadlock => "E-DEADLOCK",
            DiagnosticCode::LabelConflict => "E-LABEL-CONFLICT",
            DiagnosticCode::InconsistentLabeling => "E-INCONSISTENT-LABELING",
            DiagnosticCode::Infeasible => "E-INFEASIBLE",
            DiagnosticCode::Section6Fallback => "W-SECTION6-FALLBACK",
            DiagnosticCode::ExtensionCandidate => "I-EXTENSION-CANDIDATE",
        }
    }

    /// The severity this code carries unless overridden.
    #[must_use]
    pub fn default_severity(self) -> Severity {
        match self {
            DiagnosticCode::CellCountMismatch
            | DiagnosticCode::RouteFailure
            | DiagnosticCode::ModelInvalid
            | DiagnosticCode::Deadlock
            | DiagnosticCode::LabelConflict
            | DiagnosticCode::InconsistentLabeling
            | DiagnosticCode::Infeasible => Severity::Error,
            DiagnosticCode::Section6Fallback => Severity::Warning,
            DiagnosticCode::ExtensionCandidate => Severity::Info,
        }
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured finding from an analysis stage.
///
/// # Examples
///
/// ```
/// use systolic_core::{Diagnostic, DiagnosticCode, Severity};
/// use systolic_model::MessageId;
///
/// let d = Diagnostic::new(DiagnosticCode::Deadlock, "program is deadlocked")
///     .with_messages([MessageId::new(0)]);
/// assert_eq!(d.code().as_str(), "E-DEADLOCK");
/// assert_eq!(d.severity(), Severity::Error);
/// assert_eq!(d.message_ids(), &[MessageId::new(0)]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    code: DiagnosticCode,
    severity: Severity,
    message: String,
    messages: Vec<MessageId>,
    cells: Vec<CellId>,
}

impl Diagnostic {
    /// A diagnostic with the code's default severity and no ids attached.
    #[must_use]
    pub fn new(code: DiagnosticCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            messages: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Attaches the offending message ids.
    #[must_use]
    pub fn with_messages(mut self, messages: impl IntoIterator<Item = MessageId>) -> Self {
        self.messages.extend(messages);
        self
    }

    /// Attaches the offending cell ids.
    #[must_use]
    pub fn with_cells(mut self, cells: impl IntoIterator<Item = CellId>) -> Self {
        self.cells.extend(cells);
        self
    }

    /// Overrides the severity (rarely needed; codes carry a default).
    #[must_use]
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// The machine-readable code.
    #[must_use]
    pub fn code(&self) -> DiagnosticCode {
        self.code
    }

    /// The severity.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// The human-readable description.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The offending messages (may be empty).
    #[must_use]
    pub fn message_ids(&self) -> &[MessageId] {
        &self.messages
    }

    /// The offending cells (may be empty).
    #[must_use]
    pub fn cell_ids(&self) -> &[CellId] {
        &self.cells
    }

    /// The baseline diagnostic for a [`CoreError`], with whatever ids the
    /// error itself carries. Analysis stages usually construct richer
    /// diagnostics with more context; this is the fallback mapping (used
    /// e.g. for cached legacy outcomes).
    #[must_use]
    pub fn from_error(error: &CoreError) -> Self {
        match error {
            CoreError::Model(ModelError::CellCountMismatch { .. }) => {
                Diagnostic::new(DiagnosticCode::CellCountMismatch, error.to_string())
            }
            CoreError::Model(ModelError::NoRoute { from, to }) => {
                Diagnostic::new(DiagnosticCode::RouteFailure, error.to_string())
                    .with_cells([*from, *to])
            }
            CoreError::Model(_) => Diagnostic::new(DiagnosticCode::ModelInvalid, error.to_string()),
            CoreError::ProgramDeadlocked { .. } => {
                Diagnostic::new(DiagnosticCode::Deadlock, error.to_string())
            }
            CoreError::LabelConflict { message, .. } => {
                Diagnostic::new(DiagnosticCode::LabelConflict, error.to_string())
                    .with_messages([*message])
            }
            CoreError::InconsistentLabeling { .. } => {
                Diagnostic::new(DiagnosticCode::InconsistentLabeling, error.to_string())
            }
            CoreError::Infeasible { hop, .. } => {
                Diagnostic::new(DiagnosticCode::Infeasible, error.to_string())
                    .with_cells([hop.from(), hop.to()])
            }
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code.as_str(), self.message)
    }
}

/// An ordered list of [`Diagnostic`]s, accumulated as analysis stages run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.items.push(diagnostic);
    }

    /// All diagnostics, in the order the stages emitted them.
    #[must_use]
    pub fn as_slice(&self) -> &[Diagnostic] {
        &self.items
    }

    /// Iterates over the diagnostics.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.items.iter()
    }

    /// Number of diagnostics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if nothing was reported.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` if any diagnostic is an error.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity() == Severity::Error)
    }

    /// Only the error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.items
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// The highest severity present, or `None` when empty.
    #[must_use]
    pub fn max_severity(&self) -> Option<Severity> {
        self.items.iter().map(Diagnostic::severity).max()
    }
}

impl<'a> IntoIterator for &'a Diagnostics {
    type Item = &'a Diagnostic;
    type IntoIter = core::slice::Iter<'a, Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_model::Hop;

    #[test]
    fn codes_have_stable_strings_and_severities() {
        let codes = [
            DiagnosticCode::CellCountMismatch,
            DiagnosticCode::RouteFailure,
            DiagnosticCode::ModelInvalid,
            DiagnosticCode::Deadlock,
            DiagnosticCode::LabelConflict,
            DiagnosticCode::InconsistentLabeling,
            DiagnosticCode::Infeasible,
            DiagnosticCode::Section6Fallback,
            DiagnosticCode::ExtensionCandidate,
        ];
        for code in codes {
            let s = code.as_str();
            let expected = match s.as_bytes()[0] {
                b'E' => Severity::Error,
                b'W' => Severity::Warning,
                b'I' => Severity::Info,
                _ => panic!("code {s} must start with E/W/I"),
            };
            assert_eq!(code.default_severity(), expected, "{s}");
        }
        // Strings are distinct.
        let mut strings: Vec<&str> = codes.iter().map(|c| c.as_str()).collect();
        strings.sort_unstable();
        strings.dedup();
        assert_eq!(strings.len(), codes.len());
        // `COUNT` covers every code; the match stops compiling when a code
        // is added, until it is listed above.
        assert_eq!(codes.len(), DiagnosticCode::COUNT);
        for code in codes {
            match code {
                DiagnosticCode::CellCountMismatch
                | DiagnosticCode::RouteFailure
                | DiagnosticCode::ModelInvalid
                | DiagnosticCode::Deadlock
                | DiagnosticCode::LabelConflict
                | DiagnosticCode::InconsistentLabeling
                | DiagnosticCode::Infeasible
                | DiagnosticCode::Section6Fallback
                | DiagnosticCode::ExtensionCandidate => {
                    assert!((code as usize) < DiagnosticCode::COUNT);
                }
            }
        }
    }

    #[test]
    fn from_error_attaches_available_ids() {
        let d = Diagnostic::from_error(&CoreError::Infeasible {
            hop: Hop::new(CellId::new(1), CellId::new(2)),
            required: 2,
            available: 1,
        });
        assert_eq!(d.code(), DiagnosticCode::Infeasible);
        assert_eq!(d.cell_ids(), &[CellId::new(1), CellId::new(2)]);

        let d = Diagnostic::from_error(&CoreError::ProgramDeadlocked {
            crossed_words: 1,
            remaining_ops: 2,
        });
        assert_eq!(d.code(), DiagnosticCode::Deadlock);
        assert!(d.message().contains("deadlocked"));
    }

    #[test]
    fn list_filters_by_severity() {
        let mut diagnostics = Diagnostics::new();
        assert!(diagnostics.max_severity().is_none());
        diagnostics.push(Diagnostic::new(DiagnosticCode::ExtensionCandidate, "info"));
        assert!(!diagnostics.has_errors());
        assert_eq!(diagnostics.max_severity(), Some(Severity::Info));
        diagnostics.push(Diagnostic::new(DiagnosticCode::Deadlock, "boom"));
        assert!(diagnostics.has_errors());
        assert_eq!(diagnostics.errors().count(), 1);
        assert_eq!(diagnostics.len(), 2);
        assert_eq!(diagnostics.max_severity(), Some(Severity::Error));
        let rendered = diagnostics.as_slice()[1].to_string();
        assert_eq!(rendered, "[E-DEADLOCK] boom");
    }
}
