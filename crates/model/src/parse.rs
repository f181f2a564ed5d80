//! Text format for programs, mirroring the paper's figures.
//!
//! The grammar (one directive per line, `#` starts a comment):
//!
//! ```text
//! cells host c1 c2 c3          # names, or `cells 4` for c0..c3
//! message XA: host -> c1
//! message YA: c1 -> host
//! program host { W(XA)*3 R(YA) W(XA) R(YA) }
//! program c1 {
//!     R(XA) W(XA)              # blocks may span lines
//! }
//! ```
//!
//! `OP(MSG)*N` repeats an operation `N` times — the paper's `W(X)…`
//! sequence notation from Fig. 7.

use crate::{CellId, CellRef, ModelError, Program, ProgramBuilder, SizeLimit};

/// Parses a program from the text format above.
///
/// # Errors
///
/// Returns [`ModelError::Parse`] (with a 1-based line number) for syntax
/// errors, [`ModelError::TooLarge`] for a cell count, an `*N` repetition
/// or an op total beyond its [`SizeLimit`] (checked before anything is
/// allocated for it), and any [`Program`] validation error for semantic
/// ones.
///
/// # Examples
///
/// ```
/// use systolic_model::parse_program;
///
/// # fn main() -> Result<(), systolic_model::ModelError> {
/// let p = parse_program(
///     "cells 2\n\
///      message A: c0 -> c1\n\
///      program c0 { W(A)*2 }\n\
///      program c1 { R(A) R(A) }\n",
/// )?;
/// assert_eq!(p.total_words(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_program(text: &str) -> Result<Program, ModelError> {
    Parser::new(text).parse()
}

struct Parser<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, raw)| {
                let stripped = raw.split('#').next().unwrap_or("").trim();
                (i + 1, stripped)
            })
            .filter(|(_, s)| !s.is_empty())
            .collect();
        Parser { lines, pos: 0 }
    }

    fn err(line: usize, message: impl Into<String>) -> ModelError {
        ModelError::Parse {
            line,
            message: message.into(),
        }
    }

    fn parse(mut self) -> Result<Program, ModelError> {
        let builder = self.parse_cells()?;
        let mut builder = builder;
        while self.pos < self.lines.len() {
            let (line, text) = self.lines[self.pos];
            if let Some(rest) = text.strip_prefix("message ") {
                Self::parse_message(&mut builder, line, rest)?;
                self.pos += 1;
            } else if let Some(rest) = text.strip_prefix("program ") {
                self.parse_program_block(&mut builder, line, rest)?;
            } else {
                return Err(Self::err(
                    line,
                    format!("expected `message` or `program`, found `{text}`"),
                ));
            }
        }
        builder.into_program()
    }

    fn parse_cells(&mut self) -> Result<ProgramBuilder, ModelError> {
        let Some(&(line, text)) = self.lines.first() else {
            return Err(Self::err(1, "empty program text"));
        };
        let Some(rest) = text.strip_prefix("cells ") else {
            return Err(Self::err(line, "first directive must be `cells`"));
        };
        self.pos = 1;
        let tokens: Vec<&str> = rest.split_whitespace().collect();
        if tokens.is_empty() {
            return Err(Self::err(line, "`cells` needs a count or a name list"));
        }
        if tokens.len() == 1 {
            if let Ok(n) = tokens[0].parse::<usize>() {
                if n == 0 {
                    return Err(Self::err(line, "an array needs at least one cell"));
                }
                SizeLimit::Cells.check(n)?;
                return Ok(ProgramBuilder::new(n));
            }
        }
        SizeLimit::Cells.check(tokens.len())?;
        Ok(ProgramBuilder::named(tokens.into_iter().map(str::to_owned)))
    }

    fn parse_message(
        builder: &mut ProgramBuilder,
        line: usize,
        rest: &str,
    ) -> Result<(), ModelError> {
        // Syntax: NAME: SENDER -> RECEIVER
        let (name, route) = rest
            .split_once(':')
            .ok_or_else(|| Self::err(line, "expected `message NAME: SENDER -> RECEIVER`"))?;
        let (sender, receiver) = route
            .split_once("->")
            .ok_or_else(|| Self::err(line, "expected `SENDER -> RECEIVER`"))?;
        let (name, sender, receiver) = (name.trim(), sender.trim(), receiver.trim());
        if name.is_empty() || sender.is_empty() || receiver.is_empty() {
            return Err(Self::err(
                line,
                "message name, sender and receiver must be nonempty",
            ));
        }
        builder.message(name, sender, receiver)?;
        Ok(())
    }

    /// Parses `program NAME { ops… }`, where the block may span lines.
    fn parse_program_block(
        &mut self,
        builder: &mut ProgramBuilder,
        first_line: usize,
        rest: &str,
    ) -> Result<(), ModelError> {
        let (cell_name, after_brace) = rest
            .split_once('{')
            .ok_or_else(|| Self::err(first_line, "expected `program NAME { ... }`"))?;
        let cell_name = cell_name.trim().to_owned();
        if cell_name.is_empty() {
            return Err(Self::err(first_line, "program block needs a cell name"));
        }

        let mut body = String::new();
        let mut closed = false;
        if let Some(before_close) = after_brace.split_once('}') {
            body.push_str(before_close.0);
            if !before_close.1.trim().is_empty() {
                return Err(Self::err(first_line, "unexpected text after `}`"));
            }
            closed = true;
        } else {
            body.push_str(after_brace);
        }
        self.pos += 1;
        while !closed {
            let Some(&(line, text)) = self.lines.get(self.pos) else {
                return Err(Self::err(first_line, "unterminated program block"));
            };
            self.pos += 1;
            if let Some(before_close) = text.split_once('}') {
                body.push(' ');
                body.push_str(before_close.0);
                if !before_close.1.trim().is_empty() {
                    return Err(Self::err(line, "unexpected text after `}`"));
                }
                closed = true;
            } else {
                body.push(' ');
                body.push_str(text);
            }
        }

        // Resolved at the first op that reaches the builder, so a bad
        // token, or an empty block, reports what it did before.
        let mut cell: Option<CellId> = None;
        for token in body.split_whitespace() {
            Self::parse_op_token(builder, &mut cell, &cell_name, first_line, token)?;
        }
        Ok(())
    }

    /// Parses a single `W(MSG)`, `R(MSG)` or `OP(MSG)*N` token.
    fn parse_op_token(
        builder: &mut ProgramBuilder,
        cell: &mut Option<CellId>,
        cell_name: &str,
        line: usize,
        token: &str,
    ) -> Result<(), ModelError> {
        let (op_part, count) = match token.split_once('*') {
            Some((op, n)) => {
                let n: usize = n
                    .parse()
                    .map_err(|_| Self::err(line, format!("bad repeat count in `{token}`")))?;
                (op, n)
            }
            None => (token, 1),
        };
        let (kind, msg) = op_part
            .strip_suffix(')')
            .and_then(|s| s.split_once('('))
            .ok_or_else(|| Self::err(line, format!("bad op token `{token}`")))?;
        let msg = msg.trim();
        let write = match kind.trim() {
            "W" => true,
            "R" => false,
            other => {
                return Err(Self::err(
                    line,
                    format!("unknown op `{other}` in `{token}`"),
                ));
            }
        };
        let cell = match *cell {
            Some(id) => id,
            None => *cell.insert(cell_name.resolve(builder)?),
        };
        // The builder checks `count` against its bound before it reserves
        // anything.
        if write {
            builder.write_n(cell, msg, count)?;
        } else {
            builder.read_n(cell, msg, count)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellId, MessageId};

    #[test]
    fn parses_named_cells_and_messages() {
        let p = parse_program(
            "cells host c1\n\
             message A: host -> c1\n\
             program host { W(A) }\n\
             program c1 { R(A) }\n",
        )
        .unwrap();
        assert_eq!(p.cell_name(CellId::new(0)), "host");
        assert_eq!(p.word_count(MessageId::new(0)), 1);
    }

    #[test]
    fn parses_count_form_and_repeats() {
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             program c0 { W(A)*5 }\n\
             program c1 { R(A)*5 }\n",
        )
        .unwrap();
        assert_eq!(p.word_count(MessageId::new(0)), 5);
    }

    #[test]
    fn parses_multiline_blocks_and_comments() {
        let p = parse_program(
            "# Fig. 6 of the paper\n\
             cells 4\n\
             message A: c0 -> c1\n\
             message B: c1 -> c2\n\
             message C: c2 -> c3\n\
             message D: c3 -> c0\n\
             program c0 {\n\
                 W(A)   # write first\n\
                 R(D)\n\
             }\n\
             program c1 { R(A) W(B) }\n\
             program c2 { R(B) W(C) }\n\
             program c3 { R(C) W(D) }\n",
        )
        .unwrap();
        assert_eq!(p.total_words(), 4);
        assert_eq!(p.cell(CellId::new(0)).len(), 2);
    }

    #[test]
    fn error_carries_line_numbers() {
        let err = parse_program("cells 2\nbogus directive\n").unwrap_err();
        match err {
            ModelError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_missing_cells_directive() {
        let err = parse_program("message A: c0 -> c1\n").unwrap_err();
        assert!(matches!(err, ModelError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_bad_op_tokens() {
        for bad in ["X(A)", "W[A]", "W(A)*x", "W(A", "W"] {
            let text = format!(
                "cells 2\nmessage A: c0 -> c1\nprogram c0 {{ {bad} }}\nprogram c1 {{ R(A) }}\n"
            );
            let err = parse_program(&text).unwrap_err();
            assert!(
                matches!(err, ModelError::Parse { .. }),
                "`{bad}` should be a parse error, got {err:?}"
            );
        }
    }

    #[test]
    fn rejects_unterminated_block() {
        let err = parse_program("cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A)\n").unwrap_err();
        assert!(matches!(err, ModelError::Parse { .. }));
    }

    #[test]
    fn rejects_trailing_garbage_after_close() {
        let err =
            parse_program("cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) } extra\n").unwrap_err();
        assert!(matches!(err, ModelError::Parse { .. }));
    }

    #[test]
    fn semantic_errors_surface_from_build() {
        let err = parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) W(A) }\nprogram c1 { R(A) }\n",
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::WordCountMismatch { .. }));
    }

    #[test]
    fn block_cell_resolves_at_its_first_op() {
        // An empty block never names its cell to the builder...
        let p = parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram nosuch { }\n\
             program c0 { W(A) }\nprogram c1 { R(A) }\n",
        )
        .unwrap();
        assert_eq!(p.total_ops(), 2);
        // ...and a bad token is reported before the unknown cell is.
        let err =
            parse_program("cells 2\nmessage A: c0 -> c1\nprogram nosuch { X(A) }\n").unwrap_err();
        assert!(
            matches!(&err, ModelError::Parse { message, .. } if message.contains("unknown op `X`")),
            "{err:?}"
        );
        let err =
            parse_program("cells 2\nmessage A: c0 -> c1\nprogram nosuch { W(A) }\n").unwrap_err();
        assert!(matches!(err, ModelError::UnknownCell { .. }), "{err:?}");
    }

    #[test]
    fn oversized_counts_are_rejected_before_allocating() {
        let too_large = |text: &str| match parse_program(text).unwrap_err() {
            ModelError::TooLarge { limit, size } => (limit, size),
            other => panic!("expected TooLarge, got {other:?}"),
        };
        assert_eq!(
            too_large("cells 10000000000\n"),
            (SizeLimit::Cells, 10_000_000_000)
        );
        assert_eq!(
            too_large(
                "cells 2\nmessage A: c0 -> c1\n\
                 program c0 { W(A)*10000000000 }\nprogram c1 { R(A)*10000000000 }\n"
            ),
            (SizeLimit::Repeat, 10_000_000_000)
        );
        let (limit, _) = too_large(&format!(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 {{ W(A)*{n} W(A) }}\n",
            n = SizeLimit::Ops.max()
        ));
        assert_eq!(limit, SizeLimit::Ops);
    }

    #[test]
    fn zero_cells_rejected() {
        let err = parse_program("cells 0\n").unwrap_err();
        assert!(matches!(err, ModelError::Parse { .. }));
    }
}
