//! Programs: one op list per cell plus the message declaration table
//! (paper, Section 2.2).

use core::fmt;

use crate::hash::NameSet;
use crate::{CellId, MessageDecl, MessageId, ModelError, Op, OpKind, SizeLimit};

/// The statement sequence of a single cell, restricted to `R`/`W` operations.
///
/// "From now on only statements involving write and read operations will be
/// present in a program" (paper, Section 2.2).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CellProgram {
    ops: Vec<Op>,
}

impl CellProgram {
    /// Creates a cell program from a list of operations.
    #[must_use]
    pub fn new(ops: Vec<Op>) -> Self {
        CellProgram { ops }
    }

    /// The operations, in program order.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the cell program has no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operation at position `index`, if any.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<Op> {
        self.ops.get(index).copied()
    }

    /// Iterates over the operations in program order.
    pub fn iter(&self) -> impl Iterator<Item = Op> + '_ {
        self.ops.iter().copied()
    }
}

impl FromIterator<Op> for CellProgram {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        CellProgram {
            ops: iter.into_iter().collect(),
        }
    }
}

impl Extend<Op> for CellProgram {
    fn extend<I: IntoIterator<Item = Op>>(&mut self, iter: I) {
        self.ops.extend(iter);
    }
}

/// A complete array program: message declarations plus one
/// [`CellProgram`] per cell.
///
/// A `Program` is validated at construction (see [`Program::new`]); once
/// built it is immutable, so every invariant below can be relied upon by the
/// analysis and runtime crates:
///
/// * every `W(X)` appears only in X's declared sender;
/// * every `R(X)` appears only in X's declared receiver;
/// * X is written exactly as many times as it is read (its *word count*).
///
/// # Examples
///
/// ```
/// use systolic_model::ProgramBuilder;
///
/// # fn main() -> Result<(), systolic_model::ModelError> {
/// let mut b = ProgramBuilder::new(2);
/// b.message("A", 0, 1)?;
/// b.write(0, "A")?.read(1, "A")?;
/// let program = b.build()?;
/// assert_eq!(program.num_cells(), 2);
/// assert_eq!(program.total_ops(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    cell_names: Vec<String>,
    messages: Vec<MessageDecl>,
    cells: Vec<CellProgram>,
    /// Cached per-message word counts (number of `W` = number of `R`).
    word_counts: Vec<usize>,
}

impl Program {
    /// Builds and validates a program.
    ///
    /// `cell_names` and `cells` must have equal length; entry `i` of each
    /// describes cell `i`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::TooLarge`] if the cells, messages or ops exceed their
    ///   [`SizeLimit`];
    /// * [`ModelError::DuplicateCell`] / [`ModelError::DuplicateMessage`] for
    ///   name collisions;
    /// * [`ModelError::CellOutOfRange`] if a declaration references a cell
    ///   index `>= cells.len()`;
    /// * [`ModelError::SelfMessage`] if a message's sender equals its
    ///   receiver;
    /// * [`ModelError::UnknownMessage`] if an op references an undeclared
    ///   message;
    /// * [`ModelError::WriteOutsideSender`] / [`ModelError::ReadOutsideReceiver`]
    ///   if an op appears in the wrong cell;
    /// * [`ModelError::WordCountMismatch`] if writes ≠ reads for a message.
    pub fn new(
        cell_names: Vec<String>,
        messages: Vec<MessageDecl>,
        cells: Vec<CellProgram>,
    ) -> Result<Self, ModelError> {
        assert_eq!(
            cell_names.len(),
            cells.len(),
            "cell_names and cells must describe the same number of cells"
        );
        let num_cells = cells.len();
        SizeLimit::Cells.check(num_cells)?;
        SizeLimit::Messages.check(messages.len())?;
        SizeLimit::Ops.check(cells.iter().map(CellProgram::len).sum())?;

        let mut seen = NameSet::default();
        seen.reserve(num_cells);
        for name in &cell_names {
            if !seen.insert(name.as_str()) {
                return Err(ModelError::DuplicateCell { name: name.clone() });
            }
        }
        let mut seen = NameSet::default();
        seen.reserve(messages.len());
        for (i, decl) in messages.iter().enumerate() {
            if !seen.insert(decl.name()) {
                return Err(ModelError::DuplicateMessage {
                    name: decl.name().to_owned(),
                });
            }
            for cell in [decl.sender(), decl.receiver()] {
                if cell.index() >= num_cells {
                    return Err(ModelError::CellOutOfRange { cell, num_cells });
                }
            }
            if decl.sender() == decl.receiver() {
                return Err(ModelError::SelfMessage {
                    message: MessageId::new(i as u32),
                    cell: decl.sender(),
                });
            }
        }

        let mut writes = vec![0usize; messages.len()];
        let mut reads = vec![0usize; messages.len()];
        for (ci, cp) in cells.iter().enumerate() {
            let cell = CellId::new(ci as u32);
            for op in cp.iter() {
                let m = op.message();
                let Some(decl) = messages.get(m.index()) else {
                    return Err(ModelError::UnknownMessage {
                        name: m.to_string(),
                    });
                };
                match op.kind() {
                    OpKind::Write => {
                        if decl.sender() != cell {
                            return Err(ModelError::WriteOutsideSender {
                                message: m,
                                cell,
                                sender: decl.sender(),
                            });
                        }
                        writes[m.index()] += 1;
                    }
                    OpKind::Read => {
                        if decl.receiver() != cell {
                            return Err(ModelError::ReadOutsideReceiver {
                                message: m,
                                cell,
                                receiver: decl.receiver(),
                            });
                        }
                        reads[m.index()] += 1;
                    }
                }
            }
        }
        for (i, (&w, &r)) in writes.iter().zip(reads.iter()).enumerate() {
            if w != r {
                return Err(ModelError::WordCountMismatch {
                    message: MessageId::new(i as u32),
                    writes: w,
                    reads: r,
                });
            }
        }

        Ok(Program {
            cell_names,
            messages,
            cells,
            word_counts: writes,
        })
    }

    /// Number of cells in the array (the host counts as a cell).
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of declared messages.
    #[must_use]
    pub fn num_messages(&self) -> usize {
        self.messages.len()
    }

    /// All message ids, in declaration order.
    pub fn message_ids(&self) -> impl Iterator<Item = MessageId> + '_ {
        (0..self.messages.len()).map(|i| MessageId::new(i as u32))
    }

    /// All cell ids, in array order.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.cells.len()).map(|i| CellId::new(i as u32))
    }

    /// The declaration of message `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn message(&self, id: MessageId) -> &MessageDecl {
        &self.messages[id.index()]
    }

    /// All message declarations, in declaration order.
    #[must_use]
    pub fn messages(&self) -> &[MessageDecl] {
        &self.messages
    }

    /// The op list of cell `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn cell(&self, id: CellId) -> &CellProgram {
        &self.cells[id.index()]
    }

    /// All cell programs, in array order.
    #[must_use]
    pub fn cells(&self) -> &[CellProgram] {
        &self.cells
    }

    /// The display name of cell `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn cell_name(&self, id: CellId) -> &str {
        &self.cell_names[id.index()]
    }

    /// Looks up a cell by name.
    #[must_use]
    pub fn cell_id(&self, name: &str) -> Option<CellId> {
        self.cell_names
            .iter()
            .position(|n| n == name)
            .map(|i| CellId::new(i as u32))
    }

    /// Looks up a message by name.
    #[must_use]
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        self.messages
            .iter()
            .position(|d| d.name() == name)
            .map(|i| MessageId::new(i as u32))
    }

    /// The number of words in message `id` (writes = reads, validated).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn word_count(&self, id: MessageId) -> usize {
        self.word_counts[id.index()]
    }

    /// Total number of operations across all cells.
    #[must_use]
    pub fn total_ops(&self) -> usize {
        self.cells.iter().map(CellProgram::len).sum()
    }

    /// Total number of words transferred by a complete run
    /// (half of [`Program::total_ops`]).
    #[must_use]
    pub fn total_words(&self) -> usize {
        self.word_counts.iter().sum()
    }
}

impl fmt::Display for Program {
    /// Renders the program in the paper's figure style: message declarations
    /// followed by each cell's op list.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, m) in self.messages.iter().enumerate() {
            let id = MessageId::new(i as u32);
            writeln!(
                f,
                "message {}: {} -> {}  ({} words)",
                m.name(),
                self.cell_name(m.sender()),
                self.cell_name(m.receiver()),
                self.word_count(id),
            )?;
        }
        for (i, cp) in self.cells.iter().enumerate() {
            let id = CellId::new(i as u32);
            write!(f, "{}:", self.cell_name(id))?;
            for op in cp.iter() {
                write!(f, " {}({})", op.kind(), self.message(op.message()).name())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(name: &str, s: u32, r: u32) -> MessageDecl {
        MessageDecl::new(name, CellId::new(s), CellId::new(r)).unwrap()
    }

    fn two_cell_names() -> Vec<String> {
        vec!["c0".into(), "c1".into()]
    }

    #[test]
    fn accepts_minimal_valid_program() {
        let m = MessageId::new(0);
        let p = Program::new(
            two_cell_names(),
            vec![decl("A", 0, 1)],
            vec![
                CellProgram::new(vec![Op::write(m)]),
                CellProgram::new(vec![Op::read(m)]),
            ],
        )
        .unwrap();
        assert_eq!(p.word_count(m), 1);
        assert_eq!(p.total_ops(), 2);
        assert_eq!(p.total_words(), 1);
        assert_eq!(p.message_id("A"), Some(m));
        assert_eq!(p.cell_id("c1"), Some(CellId::new(1)));
        assert_eq!(p.cell_id("nope"), None);
    }

    #[test]
    fn rejects_programs_beyond_the_size_limits() {
        // Every construction path, edits included, ends here, so a program
        // grown past a bound is refused even when no single step was.
        let m = MessageId::new(0);
        let words = SizeLimit::Ops.max() / 2 + 1;
        let err = Program::new(
            two_cell_names(),
            vec![decl("A", 0, 1)],
            vec![
                CellProgram::new(vec![Op::write(m); words]),
                CellProgram::new(vec![Op::read(m); words]),
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            ModelError::TooLarge {
                limit: SizeLimit::Ops,
                size: 2 * words
            }
        );
    }

    #[test]
    fn rejects_write_outside_sender() {
        let m = MessageId::new(0);
        let err = Program::new(
            two_cell_names(),
            vec![decl("A", 0, 1)],
            vec![
                CellProgram::new(vec![]),
                CellProgram::new(vec![Op::write(m), Op::read(m)]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::WriteOutsideSender { .. }));
    }

    #[test]
    fn rejects_read_outside_receiver() {
        let m = MessageId::new(0);
        let err = Program::new(
            two_cell_names(),
            vec![decl("A", 0, 1)],
            vec![
                CellProgram::new(vec![Op::write(m), Op::read(m)]),
                CellProgram::new(vec![]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::ReadOutsideReceiver { .. }));
    }

    #[test]
    fn rejects_word_count_mismatch() {
        let m = MessageId::new(0);
        let err = Program::new(
            two_cell_names(),
            vec![decl("A", 0, 1)],
            vec![
                CellProgram::new(vec![Op::write(m), Op::write(m)]),
                CellProgram::new(vec![Op::read(m)]),
            ],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ModelError::WordCountMismatch {
                writes: 2,
                reads: 1,
                ..
            }
        ));
    }

    #[test]
    fn rejects_unknown_message_in_ops() {
        let ghost = MessageId::new(7);
        let err = Program::new(
            two_cell_names(),
            vec![decl("A", 0, 1)],
            vec![
                CellProgram::new(vec![Op::write(ghost)]),
                CellProgram::new(vec![]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::UnknownMessage { .. }));
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = Program::new(
            two_cell_names(),
            vec![decl("A", 0, 1), decl("A", 1, 0)],
            vec![CellProgram::default(), CellProgram::default()],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateMessage { .. }));

        let err = Program::new(
            vec!["x".into(), "x".into()],
            vec![],
            vec![CellProgram::default(), CellProgram::default()],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateCell { .. }));
    }

    #[test]
    fn rejects_out_of_range_declaration() {
        let err = Program::new(
            two_cell_names(),
            vec![decl("A", 0, 5)],
            vec![CellProgram::default(), CellProgram::default()],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::CellOutOfRange { .. }));
    }

    #[test]
    fn zero_word_messages_are_allowed() {
        let p = Program::new(
            two_cell_names(),
            vec![decl("A", 0, 1)],
            vec![CellProgram::default(), CellProgram::default()],
        )
        .unwrap();
        assert_eq!(p.word_count(MessageId::new(0)), 0);
    }

    #[test]
    fn display_lists_messages_and_cells() {
        let m = MessageId::new(0);
        let p = Program::new(
            two_cell_names(),
            vec![decl("A", 0, 1)],
            vec![
                CellProgram::new(vec![Op::write(m)]),
                CellProgram::new(vec![Op::read(m)]),
            ],
        )
        .unwrap();
        let s = p.to_string();
        assert!(s.contains("message A: c0 -> c1  (1 words)"));
        assert!(s.contains("c0: W(A)"));
        assert!(s.contains("c1: R(A)"));
    }

    #[test]
    fn cell_program_collection_traits() {
        let m = MessageId::new(0);
        let mut cp: CellProgram = [Op::write(m)].into_iter().collect();
        cp.extend([Op::write(m)]);
        assert_eq!(cp.len(), 2);
        assert_eq!(cp.get(1), Some(Op::write(m)));
        assert_eq!(cp.get(2), None);
        assert!(!cp.is_empty());
    }
}
