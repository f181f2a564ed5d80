//! The *related messages* relation (paper, Section 6).
//!
//! "Two messages A and B are said to be related, if in some cell program,
//! R(A) or W(A) appears between R(B) and R(B) (i.e., after the first R(B)
//! and before the second R(B)), or between W(B) and W(B). The relation is
//! defined to be symmetric and transitive."
//!
//! Interleaved access is exactly the situation of Figs. 8 and 9: the cell
//! alternates between messages, so both must hold queues at once, so the
//! labeling scheme gives the whole equivalence class one label and the
//! simultaneous-assignment rule hands each class member its own queue.

use systolic_model::{MessageId, Program};

/// Union–find over message ids.
#[derive(Clone, Debug)]
struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// The root of `x`'s set, halving the path on the way up.
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            core::cmp::Ordering::Less => self.parent[ra] = rb,
            core::cmp::Ordering::Greater => self.parent[rb] = ra,
            core::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
    }
}

/// The symmetric–transitive closure of the related-messages relation,
/// partitioning a program's messages into equivalence classes.
///
/// # Examples
///
/// Fig. 9 of the paper: cell `c0` writes A and B interleaved, so A ~ B.
///
/// ```
/// use systolic_core::RelatedMessages;
/// use systolic_model::parse_program;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = parse_program(
///     "cells 3\n\
///      message A: c0 -> c1\n\
///      message B: c0 -> c2\n\
///      program c0 { W(A) W(B) W(A) }\n\
///      program c1 { R(A) R(A) }\n\
///      program c2 { R(B) }\n",
/// )?;
/// let related = RelatedMessages::of(&p);
/// let a = p.message_id("A").unwrap();
/// let b = p.message_id("B").unwrap();
/// assert!(related.are_related(a, b));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RelatedMessages {
    /// Per message: the index of its class in `classes`.
    class_of: Vec<usize>,
    /// The classes, each sorted, ordered by smallest member.
    classes: Vec<Vec<MessageId>>,
}

impl RelatedMessages {
    /// Computes the relation for `program`.
    ///
    /// For every cell and every message `B`, any message accessed strictly
    /// between two *consecutive* same-kind accesses of `B` is related to
    /// `B`. (Consecutive pairs suffice: an access between the first and
    /// third `R(B)` necessarily sits between some consecutive pair.)
    #[must_use]
    pub fn of(program: &Program) -> Self {
        let n = program.num_messages();
        let mut uf = UnionFind::new(n);
        // prev[kind][message] = position of the previous access of that
        // kind in the current cell, if any. Allocated once; after each cell
        // only the entries it touched are reset.
        let mut prev_read = vec![None; n];
        let mut prev_write = vec![None; n];
        for cell in program.cell_ids() {
            let ops = program.cell(cell);
            for (pos, op) in ops.iter().enumerate() {
                let m = op.message().index();
                let prev = if op.is_read() {
                    &mut prev_read
                } else {
                    &mut prev_write
                };
                if let Some(start) = prev[m] {
                    // Everything strictly between `start` and `pos` relates
                    // to `m`.
                    for mid in (start + 1)..pos {
                        let between = ops.get(mid).expect("in range").message().index();
                        if between != m {
                            uf.union(m, between);
                        }
                    }
                }
                prev[m] = Some(pos);
            }
            for op in ops.iter() {
                let m = op.message().index();
                prev_read[m] = None;
                prev_write[m] = None;
            }
        }
        let mut class_of = vec![0; n];
        let mut class_of_root: Vec<Option<usize>> = vec![None; n];
        let mut classes: Vec<Vec<MessageId>> = Vec::new();
        for (i, slot) in class_of.iter_mut().enumerate() {
            let root = uf.find(i);
            let class = *class_of_root[root].get_or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[class].push(MessageId::new(i as u32));
            *slot = class;
        }
        Self { class_of, classes }
    }

    /// `true` if `a` and `b` are in the same equivalence class.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn are_related(&self, a: MessageId, b: MessageId) -> bool {
        self.class_of[a.index()] == self.class_of[b.index()]
    }

    /// All messages in `m`'s equivalence class, including `m` itself, in
    /// ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[must_use]
    pub fn class(&self, m: MessageId) -> &[MessageId] {
        &self.classes[self.class_of[m.index()]]
    }

    /// The equivalence classes, each sorted, ordered by smallest member.
    #[must_use]
    pub fn classes(&self) -> &[Vec<MessageId>] {
        &self.classes
    }

    /// Number of messages covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.class_of.len()
    }

    /// `true` if the program declared no messages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.class_of.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_model::parse_program;

    #[test]
    fn fig8_interleaved_reads_relate() {
        // C2 reads A and B interleaved (paper, Fig. 8).
        let p = parse_program(
            "cells 3\n\
             message B: c0 -> c2\n\
             message A: c1 -> c2\n\
             program c0 { W(B)*3 }\n\
             program c1 { W(A)*4 }\n\
             program c2 { R(A) R(B) R(A) R(A) R(B) R(B) R(A) }\n",
        )
        .unwrap();
        let rel = RelatedMessages::of(&p);
        let a = p.message_id("A").unwrap();
        let b = p.message_id("B").unwrap();
        assert!(rel.are_related(a, b));
        assert_eq!(rel.classes().len(), 1);
    }

    #[test]
    fn fig9_interleaved_writes_relate() {
        let p = parse_program(
            "cells 3\n\
             message A: c0 -> c1\n\
             message B: c0 -> c2\n\
             program c0 { W(A) W(B) W(A) W(A) W(B) W(B) W(A) }\n\
             program c1 { R(A)*4 }\n\
             program c2 { R(B)*3 }\n",
        )
        .unwrap();
        let rel = RelatedMessages::of(&p);
        assert!(rel.are_related(p.message_id("A").unwrap(), p.message_id("B").unwrap()));
    }

    #[test]
    fn sequential_access_does_not_relate() {
        // Fig. 7 shape: C3 reads all of A, then writes all of B.
        let p = parse_program(
            "cells 3\n\
             message A: c0 -> c1\n\
             message B: c1 -> c2\n\
             program c0 { W(A)*4 }\n\
             program c1 { R(A)*4 W(B)*3 }\n\
             program c2 { R(B)*3 }\n",
        )
        .unwrap();
        let rel = RelatedMessages::of(&p);
        let a = p.message_id("A").unwrap();
        let b = p.message_id("B").unwrap();
        assert!(!rel.are_related(a, b));
        assert!(
            rel.are_related(a, a),
            "relation is reflexive by class membership"
        );
        assert_eq!(rel.classes().len(), 2);
    }

    #[test]
    fn read_write_interleaving_of_different_kinds_does_not_relate() {
        // A's reads alternate with B's writes, but B is accessed only once
        // between *consecutive same-kind* accesses... here B IS between two
        // R(A)s, so they relate. The non-relating case needs single accesses.
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c1 -> c0\n\
             program c0 { W(A) R(B) }\n\
             program c1 { R(A) W(B) }\n",
        )
        .unwrap();
        let rel = RelatedMessages::of(&p);
        // Only one access of each message per cell: nothing is "between".
        assert!(!rel.are_related(p.message_id("A").unwrap(), p.message_id("B").unwrap()));
    }

    #[test]
    fn transitivity_chains_classes() {
        // c0 interleaves A with B, and B with C => A ~ C by transitivity.
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c0 -> c1\n\
             message C: c0 -> c1\n\
             program c0 { W(A) W(B) W(A) W(B) W(C) W(B) }\n\
             program c1 { R(A) R(A) R(B) R(B) R(B) R(C) }\n",
        )
        .unwrap();
        let rel = RelatedMessages::of(&p);
        let a = p.message_id("A").unwrap();
        let c = p.message_id("C").unwrap();
        assert!(rel.are_related(a, c));
        assert_eq!(rel.class(a).len(), 3);
    }

    #[test]
    fn fir_program_is_one_class() {
        // In the Fig. 2 FIR program every message interleaves with every
        // other through C1/C2, collapsing all six into one class.
        let p = systolic_workloads::fig2_fir();
        let rel = RelatedMessages::of(&p);
        assert_eq!(rel.classes().len(), 1);
        assert_eq!(rel.class(MessageId::new(0)).len(), 6);
    }

    #[test]
    fn empty_program_has_no_classes() {
        let p = systolic_model::ProgramBuilder::new(1).build().unwrap();
        let rel = RelatedMessages::of(&p);
        assert!(rel.is_empty());
        assert_eq!(rel.len(), 0);
        assert!(rel.classes().is_empty());
    }
}
