//! Size bounds on programs: one table of fixed constants.
//!
//! A program text or a builder call names its sizes before it holds them:
//! `cells 10000000000` or `W(A)*10000000000` is a few bytes. The parser
//! and [`ProgramBuilder`](crate::ProgramBuilder) check these bounds before
//! they allocate, and [`Program::new`](crate::Program::new) checks them on
//! every program, edited ones included. Since the analysis is near-linear
//! in the op count, the ops bound also bounds the analysis time of any one
//! program.

use crate::ModelError;

/// One bounded program size.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SizeLimit {
    /// Cells in one program.
    Cells,
    /// Messages declared by one program.
    Messages,
    /// Operations across all cell programs of one program.
    Ops,
    /// The `N` of one `OP(MSG)*N` repetition, or one
    /// [`ProgramBuilder::write_n`](crate::ProgramBuilder::write_n) /
    /// [`read_n`](crate::ProgramBuilder::read_n) call. Equal to the ops
    /// bound, so a repetition may fill a whole program and every program
    /// within the bounds round-trips through its text; checked first, so
    /// adding it to an op count cannot overflow.
    Repeat,
}

impl SizeLimit {
    /// The largest size allowed.
    #[must_use]
    pub const fn max(self) -> usize {
        match self {
            SizeLimit::Cells => 1 << 16,
            SizeLimit::Messages => 1 << 18,
            SizeLimit::Ops => 1 << 20,
            SizeLimit::Repeat => 1 << 20,
        }
    }

    /// What the bound counts, for error text.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            SizeLimit::Cells => "cells",
            SizeLimit::Messages => "messages",
            SizeLimit::Ops => "operations",
            SizeLimit::Repeat => "repeat count",
        }
    }

    /// Checks `size` against the bound.
    ///
    /// # Errors
    ///
    /// [`ModelError::TooLarge`] when `size` exceeds [`SizeLimit::max`].
    pub fn check(self, size: usize) -> Result<(), ModelError> {
        if size > self.max() {
            Err(ModelError::TooLarge { limit: self, size })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_inclusive() {
        for limit in [
            SizeLimit::Cells,
            SizeLimit::Messages,
            SizeLimit::Ops,
            SizeLimit::Repeat,
        ] {
            assert!(limit.check(limit.max()).is_ok());
            let err = limit.check(limit.max() + 1).unwrap_err();
            assert_eq!(
                err,
                ModelError::TooLarge {
                    limit,
                    size: limit.max() + 1
                }
            );
            assert!(err.to_string().contains(limit.name()), "{err}");
        }
    }
}
