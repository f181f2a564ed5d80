//! Error types for model construction, validation, parsing and routing.

use core::fmt;

use crate::{CellId, MessageId, SizeLimit};

/// Errors produced while constructing or validating a
/// [`Program`](crate::Program) or while routing messages over a
/// [`Topology`](crate::Topology).
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ModelError {
    /// A cell name or id was referenced that does not exist.
    UnknownCell {
        /// The offending name (or rendered id).
        name: String,
    },
    /// A message name or id was referenced that does not exist.
    UnknownMessage {
        /// The offending name (or rendered id).
        name: String,
    },
    /// Two message declarations share the same name.
    DuplicateMessage {
        /// The duplicated name.
        name: String,
    },
    /// Two cells were given the same name.
    DuplicateCell {
        /// The duplicated name.
        name: String,
    },
    /// A message was declared with identical sender and receiver.
    SelfMessage {
        /// The message in question.
        message: MessageId,
        /// The cell that is both sender and receiver.
        cell: CellId,
    },
    /// A `W(X)` appears in a cell other than X's declared sender.
    WriteOutsideSender {
        /// The message being written.
        message: MessageId,
        /// The cell containing the stray write.
        cell: CellId,
        /// The declared sender.
        sender: CellId,
    },
    /// An `R(X)` appears in a cell other than X's declared receiver.
    ReadOutsideReceiver {
        /// The message being read.
        message: MessageId,
        /// The cell containing the stray read.
        cell: CellId,
        /// The declared receiver.
        receiver: CellId,
    },
    /// The number of writes to a message differs from the number of reads.
    WordCountMismatch {
        /// The message in question.
        message: MessageId,
        /// Total `W(X)` operations in the sender's program.
        writes: usize,
        /// Total `R(X)` operations in the receiver's program.
        reads: usize,
    },
    /// A cell id is out of range for the program or topology.
    CellOutOfRange {
        /// The offending cell.
        cell: CellId,
        /// Number of cells available.
        num_cells: usize,
    },
    /// The program's cell count differs from the topology's.
    CellCountMismatch {
        /// Cells in the program.
        program: usize,
        /// Cells in the topology.
        topology: usize,
    },
    /// No route exists between two cells in the topology.
    NoRoute {
        /// Route origin.
        from: CellId,
        /// Route destination.
        to: CellId,
    },
    /// Text parsing failed.
    Parse {
        /// 1-based line number of the failure.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A compact topology spec string
    /// ([`Topology::from_spec`](crate::Topology::from_spec)) failed to
    /// parse. Unlike [`ModelError::Parse`], which is line-oriented, this
    /// names the offending token and its byte offset within the (single
    /// line) spec string.
    SpecParse {
        /// The offending token, verbatim.
        token: String,
        /// Byte offset of the token within the spec string.
        offset: usize,
        /// What was wrong with it.
        message: String,
    },
    /// A program (or one repetition in it) exceeds a [`SizeLimit`].
    TooLarge {
        /// The bound exceeded.
        limit: SizeLimit,
        /// The size asked for.
        size: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownCell { name } => write!(f, "unknown cell `{name}`"),
            ModelError::UnknownMessage { name } => write!(f, "unknown message `{name}`"),
            ModelError::DuplicateMessage { name } => {
                write!(f, "message `{name}` declared more than once")
            }
            ModelError::DuplicateCell { name } => {
                write!(f, "cell `{name}` named more than once")
            }
            ModelError::SelfMessage { message, cell } => {
                write!(
                    f,
                    "message {message} has cell {cell} as both sender and receiver"
                )
            }
            ModelError::WriteOutsideSender {
                message,
                cell,
                sender,
            } => write!(
                f,
                "W({message}) appears in {cell} but the declared sender is {sender}"
            ),
            ModelError::ReadOutsideReceiver {
                message,
                cell,
                receiver,
            } => write!(
                f,
                "R({message}) appears in {cell} but the declared receiver is {receiver}"
            ),
            ModelError::WordCountMismatch {
                message,
                writes,
                reads,
            } => write!(
                f,
                "message {message} is written {writes} times but read {reads} times"
            ),
            ModelError::CellOutOfRange { cell, num_cells } => {
                write!(f, "cell {cell} out of range (array has {num_cells} cells)")
            }
            ModelError::CellCountMismatch { program, topology } => write!(
                f,
                "program has {program} cells but the topology has {topology}"
            ),
            ModelError::NoRoute { from, to } => {
                write!(f, "no route from {from} to {to} in the topology")
            }
            ModelError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            ModelError::SpecParse {
                token,
                offset,
                message,
            } => {
                write!(
                    f,
                    "topology spec error at byte {offset} (`{token}`): {message}"
                )
            }
            ModelError::TooLarge { limit, size } => write!(
                f,
                "program too large: {} {size} exceeds the limit of {}",
                limit.name(),
                limit.max()
            ),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn error_is_send_sync() {
        assert_send_sync::<ModelError>();
    }

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let e = ModelError::UnknownCell {
            name: "hostt".into(),
        };
        let s = e.to_string();
        assert!(!s.is_empty());
        assert!(s.starts_with(char::is_lowercase));
    }

    #[test]
    fn display_variants_render() {
        let samples: Vec<ModelError> = vec![
            ModelError::UnknownMessage { name: "A".into() },
            ModelError::DuplicateMessage { name: "A".into() },
            ModelError::DuplicateCell { name: "c1".into() },
            ModelError::SelfMessage {
                message: MessageId::new(0),
                cell: CellId::new(1),
            },
            ModelError::WriteOutsideSender {
                message: MessageId::new(0),
                cell: CellId::new(1),
                sender: CellId::new(2),
            },
            ModelError::ReadOutsideReceiver {
                message: MessageId::new(0),
                cell: CellId::new(1),
                receiver: CellId::new(2),
            },
            ModelError::WordCountMismatch {
                message: MessageId::new(0),
                writes: 3,
                reads: 2,
            },
            ModelError::CellOutOfRange {
                cell: CellId::new(9),
                num_cells: 4,
            },
            ModelError::CellCountMismatch {
                program: 3,
                topology: 4,
            },
            ModelError::NoRoute {
                from: CellId::new(0),
                to: CellId::new(3),
            },
            ModelError::Parse {
                line: 7,
                message: "bad token".into(),
            },
            ModelError::SpecParse {
                token: "torus".into(),
                offset: 0,
                message: "unknown topology kind".into(),
            },
            ModelError::TooLarge {
                limit: SizeLimit::Ops,
                size: SizeLimit::Ops.max() + 1,
            },
        ];
        for e in samples {
            assert!(!e.to_string().is_empty());
        }
    }
}
