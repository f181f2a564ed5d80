//! Fluent construction of [`Program`]s (C-BUILDER).

use crate::hash::NameMap;
use crate::{CellId, CellProgram, MessageDecl, MessageId, ModelError, Op, Program, SizeLimit};

/// A value that can name a cell while building: a [`CellId`], a raw index,
/// or a cell name string.
pub trait CellRef {
    /// Resolves to a concrete [`CellId`] against the builder's cell table.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownCell`] or [`ModelError::CellOutOfRange`]
    /// if the reference does not resolve.
    fn resolve(&self, builder: &ProgramBuilder) -> Result<CellId, ModelError>;
}

impl CellRef for CellId {
    fn resolve(&self, builder: &ProgramBuilder) -> Result<CellId, ModelError> {
        if self.index() < builder.cells.len() {
            Ok(*self)
        } else {
            Err(ModelError::CellOutOfRange {
                cell: *self,
                num_cells: builder.cells.len(),
            })
        }
    }
}

impl CellRef for u32 {
    fn resolve(&self, builder: &ProgramBuilder) -> Result<CellId, ModelError> {
        CellId::new(*self).resolve(builder)
    }
}

impl CellRef for &str {
    fn resolve(&self, builder: &ProgramBuilder) -> Result<CellId, ModelError> {
        builder
            .cell_ids
            .get(*self)
            .copied()
            .ok_or_else(|| ModelError::UnknownCell {
                name: (*self).to_owned(),
            })
    }
}

/// Incrementally builds a validated [`Program`].
///
/// Cells are created up front (with default names `c0`, `c1`, …, optionally
/// renamed); messages are declared with [`ProgramBuilder::message`]; ops are
/// appended with [`ProgramBuilder::write`] / [`ProgramBuilder::read`] (or
/// their `*_n` repetition variants, handy for the paper's `W(X)…` sequences).
/// [`ProgramBuilder::build`] runs full [`Program`] validation. Names
/// resolve through hash tables, and every size is checked against its
/// [`SizeLimit`] before anything is allocated for it.
///
/// # Examples
///
/// Fig. 6 of the paper — messages form a cycle yet the program is fine:
///
/// ```
/// use systolic_model::ProgramBuilder;
///
/// # fn main() -> Result<(), systolic_model::ModelError> {
/// let mut b = ProgramBuilder::new(4);
/// b.message("A", 0, 1)?;
/// b.message("B", 1, 2)?;
/// b.message("C", 2, 3)?;
/// b.message("D", 3, 0)?;
/// b.write(0, "A")?.read(0, "D")?;
/// b.read(1, "A")?.write(1, "B")?;
/// b.read(2, "B")?.write(2, "C")?;
/// b.read(3, "C")?.write(3, "D")?;
/// let program = b.build()?;
/// assert_eq!(program.total_words(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ProgramBuilder {
    cells: Vec<(String, Vec<Op>)>,
    /// Cell name → id; the first of two equal names wins, as
    /// [`Program::new`] rejects the pair anyway.
    cell_ids: NameMap<CellId>,
    messages: Vec<MessageDecl>,
    /// Message name → id.
    message_ids: NameMap<MessageId>,
    /// Ops appended so far, over all cells.
    ops: usize,
}

impl ProgramBuilder {
    /// Creates a builder for an array of `num_cells` cells named
    /// `c0`…`c{n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `num_cells` exceeds [`SizeLimit::Cells`]; check it first
    /// when the count comes from untrusted input.
    #[must_use]
    pub fn new(num_cells: usize) -> Self {
        if let Err(error) = SizeLimit::Cells.check(num_cells) {
            panic!("{error}");
        }
        Self::named((0..num_cells).map(|i| format!("c{i}")))
    }

    /// A builder whose cells carry `names`, indexed once; the caller has
    /// checked their count against [`SizeLimit::Cells`].
    pub(crate) fn named(names: impl IntoIterator<Item = String>) -> Self {
        let mut builder = ProgramBuilder {
            cells: names.into_iter().map(|name| (name, Vec::new())).collect(),
            cell_ids: NameMap::default(),
            messages: Vec::new(),
            message_ids: NameMap::default(),
            ops: 0,
        };
        builder.index_cells();
        builder
    }

    fn index_cells(&mut self) {
        self.cell_ids.clear();
        self.cell_ids.reserve(self.cells.len());
        for (i, (name, _)) in self.cells.iter().enumerate() {
            self.cell_ids
                .entry(name.clone())
                .or_insert(CellId::new(i as u32));
        }
    }

    /// Renames all cells at once (e.g. `["host", "c1", "c2", "c3"]`).
    ///
    /// # Panics
    ///
    /// Panics if the number of names differs from the number of cells.
    pub fn name_cells<S: Into<String>>(&mut self, names: impl IntoIterator<Item = S>) -> &mut Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert_eq!(
            names.len(),
            self.cells.len(),
            "must provide exactly one name per cell"
        );
        for (slot, name) in self.cells.iter_mut().zip(names) {
            slot.0 = name;
        }
        self.index_cells();
        self
    }

    /// Number of cells.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Declares a message and returns its id.
    ///
    /// # Errors
    ///
    /// Fails if `sender`/`receiver` do not resolve, if they are equal, if
    /// `name` is already declared, or if the program already declares
    /// [`SizeLimit::Messages`] messages.
    pub fn message(
        &mut self,
        name: impl Into<String>,
        sender: impl CellRef,
        receiver: impl CellRef,
    ) -> Result<MessageId, ModelError> {
        let name = name.into();
        if self.message_ids.contains_key(&name) {
            return Err(ModelError::DuplicateMessage { name });
        }
        let s = sender.resolve(self)?;
        let r = receiver.resolve(self)?;
        SizeLimit::Messages.check(self.messages.len() + 1)?;
        let decl = MessageDecl::new(name.clone(), s, r)?;
        let id = MessageId::new(self.messages.len() as u32);
        self.messages.push(decl);
        self.message_ids.insert(name, id);
        Ok(id)
    }

    /// Looks up a previously declared message by name.
    #[must_use]
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        self.message_ids.get(name).copied()
    }

    fn resolve_message(&self, name: &str) -> Result<MessageId, ModelError> {
        self.message_id(name)
            .ok_or_else(|| ModelError::UnknownMessage {
                name: name.to_owned(),
            })
    }

    /// Appends one `W(message)` to `cell`'s program.
    ///
    /// # Errors
    ///
    /// Fails if the cell or message does not resolve.
    pub fn write(&mut self, cell: impl CellRef, message: &str) -> Result<&mut Self, ModelError> {
        self.write_n(cell, message, 1)
    }

    /// Appends one `R(message)` to `cell`'s program.
    ///
    /// # Errors
    ///
    /// Fails if the cell or message does not resolve.
    pub fn read(&mut self, cell: impl CellRef, message: &str) -> Result<&mut Self, ModelError> {
        self.read_n(cell, message, 1)
    }

    /// Appends `n` consecutive `W(message)` ops — the paper's `W(X)…`
    /// sequence notation (Fig. 7).
    ///
    /// # Errors
    ///
    /// Fails if the cell or message does not resolve, if `n` exceeds
    /// [`SizeLimit::Repeat`], or if the program would exceed
    /// [`SizeLimit::Ops`].
    pub fn write_n(
        &mut self,
        cell: impl CellRef,
        message: &str,
        n: usize,
    ) -> Result<&mut Self, ModelError> {
        let c = cell.resolve(self)?;
        let m = self.resolve_message(message)?;
        self.push_n(c, Op::write(m), n)
    }

    /// Appends `n` consecutive `R(message)` ops.
    ///
    /// # Errors
    ///
    /// Fails if the cell or message does not resolve, if `n` exceeds
    /// [`SizeLimit::Repeat`], or if the program would exceed
    /// [`SizeLimit::Ops`].
    pub fn read_n(
        &mut self,
        cell: impl CellRef,
        message: &str,
        n: usize,
    ) -> Result<&mut Self, ModelError> {
        let c = cell.resolve(self)?;
        let m = self.resolve_message(message)?;
        self.push_n(c, Op::read(m), n)
    }

    /// Appends `n` copies of `op` to cell `c`, bounds checked first.
    fn push_n(&mut self, c: CellId, op: Op, n: usize) -> Result<&mut Self, ModelError> {
        SizeLimit::Repeat.check(n)?;
        SizeLimit::Ops.check(self.ops + n)?;
        self.ops += n;
        self.cells[c.index()].1.extend(std::iter::repeat_n(op, n));
        Ok(self)
    }

    /// Finishes construction, running full [`Program`] validation.
    ///
    /// # Errors
    ///
    /// Propagates every [`Program::new`] validation error.
    pub fn build(&self) -> Result<Program, ModelError> {
        assemble(self.cells.clone(), self.messages.clone())
    }

    /// [`ProgramBuilder::build`] without copying the cells and messages.
    pub(crate) fn into_program(self) -> Result<Program, ModelError> {
        assemble(self.cells, self.messages)
    }
}

fn assemble(
    cells: Vec<(String, Vec<Op>)>,
    messages: Vec<MessageDecl>,
) -> Result<Program, ModelError> {
    let (names, ops): (Vec<String>, Vec<Vec<Op>>) = cells.into_iter().unzip();
    Program::new(
        names,
        messages,
        ops.into_iter().map(CellProgram::new).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_by_index_and_name() {
        let mut b = ProgramBuilder::new(3);
        b.name_cells(["host", "c1", "c2"]);
        b.message("XA", "host", "c1").unwrap();
        b.message("XB", 1u32, 2u32).unwrap();
        b.write_n("host", "XA", 2).unwrap();
        b.read("c1", "XA").unwrap().read(1u32, "XA").unwrap();
        b.write("c1", "XB").unwrap().write("c1", "XB").unwrap();
        b.read_n("c2", "XB", 2).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.cell_name(CellId::new(0)), "host");
        assert_eq!(p.word_count(MessageId::new(0)), 2);
        assert_eq!(p.word_count(MessageId::new(1)), 2);
    }

    #[test]
    fn unknown_cell_name_fails() {
        let mut b = ProgramBuilder::new(2);
        let err = b.message("A", "nope", "c1").unwrap_err();
        assert!(matches!(err, ModelError::UnknownCell { .. }));
    }

    #[test]
    fn out_of_range_index_fails() {
        let mut b = ProgramBuilder::new(2);
        let err = b.message("A", 5u32, 1u32).unwrap_err();
        assert!(matches!(err, ModelError::CellOutOfRange { .. }));
    }

    #[test]
    fn duplicate_message_fails_eagerly() {
        let mut b = ProgramBuilder::new(2);
        b.message("A", 0u32, 1u32).unwrap();
        let err = b.message("A", 1u32, 0u32).unwrap_err();
        assert!(matches!(err, ModelError::DuplicateMessage { .. }));
    }

    #[test]
    fn unknown_message_in_op_fails() {
        let mut b = ProgramBuilder::new(2);
        let err = b.write(0u32, "ghost").unwrap_err();
        assert!(matches!(err, ModelError::UnknownMessage { .. }));
    }

    #[test]
    fn build_runs_full_validation() {
        let mut b = ProgramBuilder::new(2);
        b.message("A", 0u32, 1u32).unwrap();
        b.write(0u32, "A").unwrap();
        // missing the matching read
        let err = b.build().unwrap_err();
        assert!(matches!(err, ModelError::WordCountMismatch { .. }));
    }

    #[test]
    fn sizes_are_checked_before_allocating() {
        let mut b = ProgramBuilder::new(2);
        b.message("A", 0u32, 1u32).unwrap();
        let err = b.write_n(0u32, "A", 10_000_000_000).unwrap_err();
        assert_eq!(
            err,
            ModelError::TooLarge {
                limit: SizeLimit::Repeat,
                size: 10_000_000_000
            }
        );
        let repeat = SizeLimit::Repeat.max();
        b.write_n(0u32, "A", repeat).unwrap();
        let err = b.read_n(1u32, "A", repeat).unwrap_err();
        assert!(matches!(
            err,
            ModelError::TooLarge {
                limit: SizeLimit::Ops,
                ..
            }
        ));
    }

    #[test]
    #[should_panic(expected = "program too large: cells 65537 exceeds the limit of 65536")]
    fn too_many_cells_panics() {
        let _ = ProgramBuilder::new(SizeLimit::Cells.max() + 1);
    }

    #[test]
    fn renamed_cells_resolve_by_new_name() {
        let mut b = ProgramBuilder::new(2);
        b.name_cells(["host", "c0"]);
        b.message("A", "host", "c0").unwrap();
        assert!(matches!(
            b.message("B", "c1", "host").unwrap_err(),
            ModelError::UnknownCell { .. }
        ));
        let p = b.build().unwrap();
        assert_eq!(p.message(MessageId::new(0)).receiver(), CellId::new(1));
    }

    #[test]
    #[should_panic(expected = "one name per cell")]
    fn name_cells_wrong_arity_panics() {
        let mut b = ProgramBuilder::new(2);
        b.name_cells(["only-one"]);
    }
}
