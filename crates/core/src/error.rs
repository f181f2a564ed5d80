//! Error types for the analysis pipeline.

use core::fmt;

use systolic_model::{Hop, MessageId, ModelError};

use crate::Label;

/// Errors produced by the deadlock-avoidance analysis.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// A model-layer error (routing, validation, …).
    Model(ModelError),
    /// The program is deadlocked: the crossing-off procedure stalled with
    /// operations remaining (paper, Section 3.2).
    ProgramDeadlocked {
        /// Words successfully crossed off before the stall.
        crossed_words: usize,
        /// Read/write operations left un-crossed.
        remaining_ops: usize,
    },
    /// The labeling scheme could not find a consistent label for a message:
    /// the lower bound from past accesses exceeds the upper bound from
    /// already-labeled future accesses.
    LabelConflict {
        /// The message that could not be labeled.
        message: MessageId,
        /// Required to be exceeded (label of latest past access).
        lower_bound: Label,
        /// Required not to be reached (smallest labeled future access).
        upper_bound: Label,
    },
    /// The Section 6 scheme finished but its labeling violates the
    /// consistency definition — rules 1c/1d assign labels to messages whose
    /// own ordering constraints are only discovered later, which the
    /// literal scheme never re-checks. (The constraint-solving scheme,
    /// [`label_messages_robust`](crate::label_messages_robust), is immune.)
    InconsistentLabeling {
        /// Number of per-cell ordering violations found.
        violations: usize,
    },
    /// Theorem 1 assumption (ii) fails: an interval does not have enough
    /// queues for the simultaneous-assignment rule.
    Infeasible {
        /// The directed interval crossing that is short of queues.
        hop: Hop,
        /// Queues needed (largest same-label competing group).
        required: usize,
        /// Queues available on the interval.
        available: usize,
    },
}

impl CoreError {
    /// Stable `error_kind` string of this error (`"model"`,
    /// `"deadlocked"`, …), written by the JSONL wire's `"error_kind"`
    /// member.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            CoreError::Model(_) => "model",
            CoreError::ProgramDeadlocked { .. } => "deadlocked",
            CoreError::LabelConflict { .. } => "label-conflict",
            CoreError::InconsistentLabeling { .. } => "inconsistent-labeling",
            CoreError::Infeasible { .. } => "infeasible",
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::ProgramDeadlocked {
                crossed_words,
                remaining_ops,
            } => write!(
                f,
                "program is deadlocked: crossing-off stalled after {crossed_words} words \
                 with {remaining_ops} operations remaining"
            ),
            CoreError::LabelConflict {
                message,
                lower_bound,
                upper_bound,
            } => write!(
                f,
                "no consistent label for {message}: must exceed {lower_bound} \
                 yet stay below {upper_bound}"
            ),
            CoreError::InconsistentLabeling { violations } => write!(
                f,
                "the section 6 labeling scheme produced {violations} consistency violations"
            ),
            CoreError::Infeasible {
                hop,
                required,
                available,
            } => write!(
                f,
                "interval crossing {hop} needs {required} queues for compatible \
                 assignment but only {available} are available"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_model::CellId;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn error_is_send_sync() {
        assert_send_sync::<CoreError>();
    }

    #[test]
    fn displays_render() {
        let samples = vec![
            CoreError::Model(ModelError::UnknownCell { name: "x".into() }),
            CoreError::ProgramDeadlocked {
                crossed_words: 3,
                remaining_ops: 4,
            },
            CoreError::LabelConflict {
                message: MessageId::new(1),
                lower_bound: Label::integer(3),
                upper_bound: Label::integer(2),
            },
            CoreError::Infeasible {
                hop: Hop::new(CellId::new(0), CellId::new(1)),
                required: 2,
                available: 1,
            },
        ];
        for e in samples {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn source_chains_model_error() {
        use std::error::Error as _;
        let e = CoreError::Model(ModelError::UnknownCell { name: "x".into() });
        assert!(e.source().is_some());
        let e = CoreError::ProgramDeadlocked {
            crossed_words: 0,
            remaining_ops: 1,
        };
        assert!(e.source().is_none());
    }
}
