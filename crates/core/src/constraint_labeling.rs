//! A complete consistent-labeling scheme via constraint solving.
//!
//! The paper's Section 6 scheme ([`label_messages`](crate::label_messages))
//! is faithful to the text but *incomplete*: rules 1c/1d assign labels to
//! messages whose own ordering constraints have not been examined yet, and
//! rule 1a's "larger than all labels currently in use" can then leapfrog a
//! pending constraint chain, wedging rule 1b (a concrete 6-cell witness
//! lives in this module's tests). The paper itself notes that "many
//! labeling schemes can be used as long as they produce a consistent
//! labeling" — this module provides one that always succeeds.
//!
//! Consistency ("each cell program will write to or read from messages with
//! nondecreasing labels") is a system of constraints:
//!
//! * `label(a) <= label(b)` whenever `a` is accessed immediately before `b`
//!   somewhere in some cell program;
//! * `label(a) == label(b)` for related messages (rule 1c) and for messages
//!   skipped over while locating an executable pair under lookahead
//!   (Section 8.2 / rule 1d).
//!
//! Collapsing the strongly-connected components of the `<=` digraph
//! (augmented with the equality edges in both directions) and numbering the
//! resulting DAG in topological layers yields a consistent labeling that
//! (a) always exists, and (b) merges labels *only* where the constraints
//! force it — which is what keeps the simultaneous-assignment queue
//! requirement small.

use systolic_model::{MessageId, Program};

use crate::{
    classify_with, Classification, CoreError, Label, Labeling, LookaheadLimits, RelatedMessages,
};

/// Runs the constraint-solving labeling scheme.
///
/// Like the Section 6 scheme, it requires the program to be deadlock-free
/// under `limits`; unlike it, it never fails on deadlock-free input.
///
/// # Errors
///
/// Returns [`CoreError::ProgramDeadlocked`] if the crossing-off procedure
/// (with `limits`) stalls.
pub fn label_messages_robust(
    program: &Program,
    limits: &LookaheadLimits,
) -> Result<Labeling, CoreError> {
    label_classified(program, &classify_with(program, limits))
}

/// [`label_messages_robust`] from a classification of `program` already
/// made under the same limits, so a caller that holds one (the
/// [`Analyzer`](crate::Analyzer)'s fallback) does not cross the program
/// off again.
///
/// # Errors
///
/// As [`label_messages_robust`].
pub(crate) fn label_classified(
    program: &Program,
    classification: &Classification,
) -> Result<Labeling, CoreError> {
    // Deadlock-freedom check + the skip sets for rule-1d equalities.
    let trace = match classification {
        Classification::DeadlockFree(trace) => trace,
        Classification::Deadlocked { trace, stuck } => {
            return Err(CoreError::ProgramDeadlocked {
                crossed_words: trace.total_pairs(),
                remaining_ops: stuck.remaining_ops,
            });
        }
    };

    let n = program.num_messages();
    // Adjacency of the <= digraph, with equalities as edges both ways.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let add_le = |a: MessageId, b: MessageId, succ: &mut Vec<Vec<usize>>| {
        if a != b && !succ[a.index()].contains(&b.index()) {
            succ[a.index()].push(b.index());
        }
    };

    // Per-cell consecutive accesses: label(prev) <= label(next).
    for cell in program.cell_ids() {
        let ops = program.cell(cell);
        for w in ops.ops().windows(2) {
            add_le(w[0].message(), w[1].message(), &mut succ);
        }
    }
    // Rule 1c: related messages are equal.
    let related = RelatedMessages::of(program);
    for class in related.classes() {
        for pair in class.windows(2) {
            add_le(pair[0], pair[1], &mut succ);
            add_le(pair[1], pair[0], &mut succ);
        }
    }
    // Rule 1d: skipped-over messages share the pair's label.
    for pair in trace.pairs() {
        for &skipped in pair.skipped.keys() {
            add_le(pair.message, skipped, &mut succ);
            add_le(skipped, pair.message, &mut succ);
        }
    }

    let component = scc(&succ);
    // Kosaraju numbers components in topological order (every cross-
    // component edge goes from a lower-numbered to a higher-numbered
    // component), so `component index + 1` is itself a consistent labeling.
    // Using the *index* rather than a longest-path layer keeps labels
    // distinct wherever the constraints do not force equality: equal labels
    // trigger the simultaneous-assignment rule and cost extra queues, so
    // merging only forced classes minimizes the hardware requirement.
    let labels = (0..n)
        .map(|m| Label::integer(component[m] as i64 + 1))
        .collect();
    Ok(Labeling::from_labels(labels))
}

/// Kosaraju's algorithm (iterative), returning the component index of each
/// node, numbered in **topological order** of the condensation: every
/// cross-component edge goes from a lower-numbered component to a
/// higher-numbered one.
fn scc(succ: &[Vec<usize>]) -> Vec<usize> {
    let n = succ.len();
    // Pass 1: finish order on the original graph.
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for start in 0..n {
        if visited[start] {
            continue;
        }
        // Iterative DFS with explicit edge indices.
        let mut stack = vec![(start, 0usize)];
        visited[start] = true;
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            if *idx < succ[node].len() {
                let next = succ[node][*idx];
                *idx += 1;
                if !visited[next] {
                    visited[next] = true;
                    stack.push((next, 0));
                }
            } else {
                order.push(node);
                stack.pop();
            }
        }
    }
    // Pass 2: reverse graph, process in reverse finish order.
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, nexts) in succ.iter().enumerate() {
        for &b in nexts {
            pred[b].push(a);
        }
    }
    let mut component = vec![usize::MAX; n];
    let mut count = 0;
    for &start in order.iter().rev() {
        if component[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        component[start] = count;
        while let Some(node) = stack.pop() {
            for &p in &pred[node] {
                if component[p] == usize::MAX {
                    component[p] = count;
                    stack.push(p);
                }
            }
        }
        count += 1;
    }
    component
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_consistency, label_messages};
    use systolic_model::parse_program;

    #[test]
    fn robust_labels_are_consistent_on_fig7() {
        let p = systolic_workloads::fig7(3);
        let limits = LookaheadLimits::disabled(&p);
        let labeling = label_messages_robust(&p, &limits).unwrap();
        assert!(check_consistency(&p, &labeling).is_empty());
        // All three messages get distinct labels (nothing forces equality),
        // with B above both A (c2: R(A)… before W(B)…) and C (c3: R(C)…
        // before R(B)…) — so, as in the paper, one queue per interval
        // suffices.
        let a = labeling.label(p.message_id("A").unwrap());
        let b = labeling.label(p.message_id("B").unwrap());
        let c = labeling.label(p.message_id("C").unwrap());
        assert!(a < b && c < b, "expected {a} < {b} and {c} < {b}");
        assert_ne!(a, c, "independent messages keep distinct labels");
    }

    #[test]
    fn related_messages_collapse_to_one_label() {
        let p = systolic_workloads::fig9();
        let limits = LookaheadLimits::disabled(&p);
        let labeling = label_messages_robust(&p, &limits).unwrap();
        assert_eq!(
            labeling.label(p.message_id("A").unwrap()),
            labeling.label(p.message_id("B").unwrap())
        );
    }

    #[test]
    fn deadlocked_input_is_rejected() {
        let p = systolic_workloads::fig5_p3();
        let limits = LookaheadLimits::disabled(&p);
        let err = label_messages_robust(&p, &limits).unwrap_err();
        assert!(matches!(err, CoreError::ProgramDeadlocked { .. }));
    }

    /// The witness program on which the literal Section 6 scheme wedges
    /// (rule 1c labels M3 before its constraints are visible; rule 1a then
    /// leapfrogs it with M8; M2 sits between them: M8 <= M2 <= M3 becomes
    /// 5 <= M2 <= 4). The constraint solver handles it.
    #[test]
    fn witness_where_section6_wedges_but_solver_succeeds() {
        let p = parse_program(
            "cells 6\n\
             message M0: c5 -> c2\n\
             message M1: c1 -> c4\n\
             message M2: c3 -> c0\n\
             message M3: c0 -> c4\n\
             message M4: c4 -> c2\n\
             message M5: c0 -> c4\n\
             message M6: c2 -> c1\n\
             message M7: c4 -> c2\n\
             message M8: c2 -> c3\n\
             program c0 { W(M5) W(M5) R(M2) W(M3) }\n\
             program c1 { R(M6) R(M6) W(M1) W(M1) }\n\
             program c2 { R(M4) R(M4) W(M6) W(M6) W(M8) R(M7) R(M7) R(M0) R(M0) }\n\
             program c3 { R(M8) W(M2) }\n\
             program c4 { W(M4) W(M4) R(M5) R(M5) R(M1) R(M3) R(M1) W(M7) W(M7) }\n\
             program c5 { W(M0) W(M0) }\n",
        )
        .unwrap();
        let limits = LookaheadLimits::disabled(&p);

        // The faithful Section 6 implementation reports the wedge...
        let err = label_messages(&p, &limits).unwrap_err();
        assert!(matches!(err, CoreError::LabelConflict { .. }));

        // ...the constraint solver produces a consistent labeling.
        let labeling = label_messages_robust(&p, &limits).unwrap();
        assert!(check_consistency(&p, &labeling).is_empty());

        // And the forced equality (M1 ~ M3, related in c4) holds.
        let m1 = p.message_id("M1").unwrap();
        let m3 = p.message_id("M3").unwrap();
        assert_eq!(labeling.label(m1), labeling.label(m3));
    }

    #[test]
    fn lookahead_skip_equalities_are_honored() {
        // Locating W(B) skips W(A)x4: A and B must share a label.
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c0 -> c1\n\
             program c0 { W(A)*4 W(B) }\n\
             program c1 { R(B) R(A)*4 }\n",
        )
        .unwrap();
        let limits = LookaheadLimits::uniform(&p, 4);
        let labeling = label_messages_robust(&p, &limits).unwrap();
        assert_eq!(
            labeling.label(p.message_id("A").unwrap()),
            labeling.label(p.message_id("B").unwrap())
        );
    }

    #[test]
    fn chains_get_strictly_increasing_labels() {
        // Three messages in strict sequence: distinct, increasing labels.
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c0 -> c1\n\
             message C: c0 -> c1\n\
             program c0 { W(A) W(B) W(C) }\n\
             program c1 { R(A) R(B) R(C) }\n",
        )
        .unwrap();
        let limits = LookaheadLimits::disabled(&p);
        let labeling = label_messages_robust(&p, &limits).unwrap();
        let l = |name: &str| labeling.label(p.message_id(name).unwrap());
        assert!(l("A") < l("B") && l("B") < l("C"));
        assert_eq!(l("A"), Label::integer(1));
    }

    #[test]
    fn unused_messages_still_get_a_label() {
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message GHOST: c0 -> c1\n\
             program c0 { W(A) }\n\
             program c1 { R(A) }\n",
        )
        .unwrap();
        let limits = LookaheadLimits::disabled(&p);
        let labeling = label_messages_robust(&p, &limits).unwrap();
        // Unused messages are unconstrained: any label keeps consistency.
        assert_eq!(labeling.len(), 2);
        assert!(check_consistency(&p, &labeling).is_empty());
    }
}
