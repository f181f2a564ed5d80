//! The paper's figure programs, verbatim.
//!
//! Every example program that appears in the paper is reproduced here
//! op-for-op, so analyses and simulations can be checked against the text.
//! Where the source scan is ambiguous (Fig. 5), the reconstruction is
//! derived from the prose and the Fig. 10 walkthrough; see [`fig5_p1`].

use systolic_model::{parse_program, Program, Topology};

/// Fig. 2: the 3-tap FIR filter program computing `y1, y2` from
/// `x1..x4` on a host plus three cells.
///
/// Weights `w3, w2, w1` are preloaded into `c1, c2, c3` (not part of the
/// communication program). Message lengths: `XA` = 4, `XB` = 3, `XC` = 2,
/// `YA` = `YB` = `YC` = 2.
#[must_use]
pub fn fig2_fir() -> Program {
    parse_program(
        "cells host c1 c2 c3\n\
         message XA: host -> c1\n\
         message XB: c1 -> c2\n\
         message XC: c2 -> c3\n\
         message YA: c1 -> host\n\
         message YB: c2 -> c1\n\
         message YC: c3 -> c2\n\
         program host { W(XA) W(XA) W(XA) R(YA) W(XA) R(YA) }\n\
         program c1 {\n\
             R(XA) W(XB)\n\
             R(XA) W(XB)\n\
             R(XA) R(YB) W(XB) W(YA)\n\
             R(XA) R(YB) W(YA)\n\
         }\n\
         program c2 {\n\
             R(XB) W(XC)\n\
             R(XB) R(YC) W(XC) W(YB)\n\
             R(XB) R(YC) W(YB)\n\
         }\n\
         program c3 { R(XC) W(YC) R(XC) W(YC) }\n",
    )
    .expect("Fig. 2 program is valid")
}

/// The linear topology the Fig. 2 program runs on (host + 3 cells).
#[must_use]
pub fn fig2_topology() -> Topology {
    Topology::linear(4)
}

/// Fig. 5, program P1 (reconstructed from the Fig. 10 walkthrough).
///
/// Deadlocked without buffering; deadlock-free once each queue buffers two
/// words (Section 8 / Fig. 10), with A and B in separate queues.
#[must_use]
pub fn fig5_p1() -> Program {
    parse_program(
        "cells c1 c2\n\
         message A: c1 -> c2\n\
         message B: c1 -> c2\n\
         program c1 { W(A) W(A) W(B) W(A) W(B) W(A) }\n\
         program c2 { R(B) R(A) R(B) R(A) R(A) R(A) }\n",
    )
    .expect("Fig. 5 P1 is valid")
}

/// Fig. 5, program P2: both cells write first, then read.
///
/// Deadlocked without buffering ("neither C1 nor C2 can finish writing the
/// first word in its output message"); deadlock-free with any buffering.
#[must_use]
pub fn fig5_p2() -> Program {
    parse_program(
        "cells c1 c2\n\
         message A: c1 -> c2\n\
         message B: c2 -> c1\n\
         program c1 { W(A) R(B) }\n\
         program c2 { W(B) R(A) }\n",
    )
    .expect("Fig. 5 P2 is valid")
}

/// Fig. 5, program P3: a genuine circular data dependency.
///
/// Deadlocked no matter how much buffering exists — this is the program
/// rule R1 protects (skipping *reads* would misclassify it, because each
/// write may depend on the preceding read).
#[must_use]
pub fn fig5_p3() -> Program {
    parse_program(
        "cells c1 c2\n\
         message A: c1 -> c2\n\
         message B: c2 -> c1\n\
         program c1 { R(B) W(A) }\n\
         program c2 { R(A) W(B) }\n",
    )
    .expect("Fig. 5 P3 is valid")
}

/// Fig. 6: messages form a cycle `c1 → c2 → c3 → c4 → c1`, yet the program
/// is deadlock-free — cycles among senders/receivers do not imply deadlock.
#[must_use]
pub fn fig6_cycle() -> Program {
    parse_program(
        "cells c1 c2 c3 c4\n\
         message A: c1 -> c2\n\
         message B: c2 -> c3\n\
         message C: c3 -> c4\n\
         message D: c4 -> c1\n\
         program c1 { W(A) R(D) }\n\
         program c2 { R(A) W(B) }\n\
         program c3 { R(B) W(C) }\n\
         program c4 { R(C) W(D) }\n",
    )
    .expect("Fig. 6 program is valid")
}

/// The linear topology for Fig. 6 (message D travels back across all three
/// intervals).
#[must_use]
pub fn fig6_topology() -> Topology {
    Topology::linear(4)
}

/// Fig. 7: the queue-ordering deadlock example.
///
/// `A: c2 → c3` (4 words), `B: c3 → c4` (`len` words), `C: c1 → c4` (`len`
/// words, crossing every interval). With one queue per interval, assigning
/// B to the c3–c4 queue before C deadlocks the run; the consistent labels
/// A=1, C=2, B=3 plus compatible assignment forbid exactly that order.
///
/// `len` is the length of the `W(C)…`/`R(C)…` and `W(B)…`/`R(B)…` sequences
/// (the paper draws them as equal-length trails).
///
/// # Panics
///
/// Panics if `len == 0`.
#[must_use]
pub fn fig7(len: usize) -> Program {
    assert!(len > 0, "fig7 needs nonempty B and C sequences");
    parse_program(&format!(
        "cells c1 c2 c3 c4\n\
         message A: c2 -> c3\n\
         message B: c3 -> c4\n\
         message C: c1 -> c4\n\
         program c1 {{ W(C)*{len} }}\n\
         program c2 {{ W(A)*4 }}\n\
         program c3 {{ R(A)*4 W(B)*{len} }}\n\
         program c4 {{ R(C)*{len} R(B)*{len} }}\n"
    ))
    .expect("Fig. 7 program is valid")
}

/// The linear topology for Fig. 7.
#[must_use]
pub fn fig7_topology() -> Topology {
    Topology::linear(4)
}

/// Fig. 8: interleaved *reads* from multiple messages by cell C3.
///
/// `B: c1 → c3` (3 words, two hops), `A: c2 → c3` (4 words). C3 reads A and
/// B interleaved, so A ~ B (related) and they need separate queues between
/// c2 and c3: one queue deadlocks, two queues are fine.
#[must_use]
pub fn fig8() -> Program {
    parse_program(
        "cells c1 c2 c3\n\
         message B: c1 -> c3\n\
         message A: c2 -> c3\n\
         program c1 { W(B) W(B) W(B) }\n\
         program c2 { W(A) W(A) W(A) W(A) }\n\
         program c3 { R(A) R(B) R(A) R(A) R(B) R(B) R(A) }\n",
    )
    .expect("Fig. 8 program is valid")
}

/// The linear topology for Fig. 8.
#[must_use]
pub fn fig8_topology() -> Topology {
    Topology::linear(3)
}

/// Fig. 9: interleaved *writes* to multiple messages by cell C1 — the
/// symmetric case of Fig. 8.
///
/// `A: c1 → c2` (4 words), `B: c1 → c3` (3 words, two hops). One queue
/// between c1 and c2 deadlocks; two queues (A and B statically separated)
/// are fine.
#[must_use]
pub fn fig9() -> Program {
    parse_program(
        "cells c1 c2 c3\n\
         message A: c1 -> c2\n\
         message B: c1 -> c3\n\
         program c1 { W(A) W(B) W(A) W(A) W(B) W(B) W(A) }\n\
         program c2 { R(A) R(A) R(A) R(A) }\n\
         program c3 { R(B) R(B) R(B) }\n",
    )
    .expect("Fig. 9 program is valid")
}

/// The linear topology for Fig. 9.
#[must_use]
pub fn fig9_topology() -> Topology {
    Topology::linear(3)
}

/// Fig. 3's message layout: four messages over a 4-cell array, used to
/// illustrate message-to-queue assignment. (The figure shows queues, not a
/// full program; word counts here are illustrative.)
#[must_use]
pub fn fig3_messages() -> Program {
    parse_program(
        "cells c1 c2 c3 c4\n\
         message A: c1 -> c4\n\
         message B: c2 -> c3\n\
         message C: c1 -> c2\n\
         message D: c3 -> c2\n\
         program c1 { W(A)*2 W(C)*2 }\n\
         program c2 { R(C)*2 W(B)*2 R(D)*2 }\n\
         program c3 { R(B)*2 W(D)*2 }\n\
         program c4 { R(A)*2 }\n",
    )
    .expect("Fig. 3 program is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_model::{CellId, MessageId};

    #[test]
    fn fig2_word_counts_match_the_figure() {
        let p = fig2_fir();
        let count = |name: &str| p.word_count(p.message_id(name).unwrap());
        assert_eq!(count("XA"), 4);
        assert_eq!(count("XB"), 3);
        assert_eq!(count("XC"), 2);
        assert_eq!(count("YA"), 2);
        assert_eq!(count("YB"), 2);
        assert_eq!(count("YC"), 2);
        assert_eq!(p.total_words(), 15);
    }

    #[test]
    fn fig2_cell_op_counts() {
        let p = fig2_fir();
        assert_eq!(p.cell(CellId::new(0)).len(), 6); // host
        assert_eq!(p.cell(CellId::new(1)).len(), 11); // c1
        assert_eq!(p.cell(CellId::new(2)).len(), 9); // c2
        assert_eq!(p.cell(CellId::new(3)).len(), 4); // c3
    }

    #[test]
    fn fig5_programs_have_expected_shapes() {
        let p1 = fig5_p1();
        assert_eq!(p1.word_count(MessageId::new(0)), 4); // A
        assert_eq!(p1.word_count(MessageId::new(1)), 2); // B
        let p2 = fig5_p2();
        assert_eq!(p2.total_words(), 2);
        let p3 = fig5_p3();
        assert_eq!(p3.total_words(), 2);
    }

    #[test]
    fn fig7_scales_with_len() {
        let p = fig7(5);
        assert_eq!(p.word_count(p.message_id("B").unwrap()), 5);
        assert_eq!(p.word_count(p.message_id("C").unwrap()), 5);
        assert_eq!(p.word_count(p.message_id("A").unwrap()), 4);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn fig7_rejects_zero_len() {
        let _ = fig7(0);
    }

    #[test]
    fn fig8_and_fig9_word_counts() {
        let f8 = fig8();
        assert_eq!(f8.word_count(f8.message_id("A").unwrap()), 4);
        assert_eq!(f8.word_count(f8.message_id("B").unwrap()), 3);
        let f9 = fig9();
        assert_eq!(f9.word_count(f9.message_id("A").unwrap()), 4);
        assert_eq!(f9.word_count(f9.message_id("B").unwrap()), 3);
    }

    #[test]
    fn topologies_match_program_sizes() {
        assert_eq!(fig2_topology().num_cells(), fig2_fir().num_cells());
        assert_eq!(fig6_topology().num_cells(), fig6_cycle().num_cells());
        assert_eq!(fig7_topology().num_cells(), fig7(1).num_cells());
        assert_eq!(fig8_topology().num_cells(), fig8().num_cells());
        assert_eq!(fig9_topology().num_cells(), fig9().num_cells());
    }

    #[test]
    fn fig3_messages_route_over_four_cells() {
        let p = fig3_messages();
        assert_eq!(p.num_messages(), 4);
        assert_eq!(p.num_cells(), 4);
    }
}
