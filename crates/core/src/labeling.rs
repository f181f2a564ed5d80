//! The consistent message labeling scheme (paper, Sections 5, 6 and 8.2).
//!
//! A labeling is **consistent** when every cell program writes to or reads
//! from messages with *nondecreasing* labels (Section 5, step 1). The scheme
//! here is the paper's Section 6 algorithm: perform the crossing-off
//! procedure, and label each message as its first executable pair is crossed
//! off —
//!
//! 1. **(a)** if neither the sender nor the receiver will access an
//!    already-labeled message, give the new message a label larger than all
//!    labels in use;
//! 2. **(b)** otherwise give it a label smaller than the labels of those
//!    future accesses and larger than the label of the last (past) access —
//!    possibly "a real number between two consecutive integers", hence the
//!    rational [`Label`] type;
//! 3. **(c)** related messages ([`RelatedMessages`]) receive the same label;
//! 4. **(d)** with lookahead, messages whose writes were skipped over while
//!    locating the pair receive the pair's label (Section 8.2).

use std::collections::BTreeMap;

use systolic_model::{CellId, MessageId, Program};

use crate::{CoreError, Label, LookaheadLimits, Machine, RelatedMessages};

/// A complete label assignment for a program's messages.
///
/// # Examples
///
/// Fig. 7 of the paper: "messages A, B, and C will receive labels 1, 3,
/// and 2, respectively."
///
/// ```
/// use systolic_core::{label_messages, Label, LookaheadLimits};
/// use systolic_model::parse_program;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = parse_program(
///     "cells 4\n\
///      message A: c1 -> c2\n\
///      message B: c2 -> c3\n\
///      message C: c0 -> c3\n\
///      program c0 { W(C)*2 }\n\
///      program c1 { W(A)*4 }\n\
///      program c2 { R(A)*4 W(B)*2 }\n\
///      program c3 { R(C)*2 R(B)*2 }\n",
/// )?;
/// let report = label_messages(&p, &LookaheadLimits::disabled(&p))?;
/// let labels = report.labeling();
/// assert_eq!(labels.label(p.message_id("A").unwrap()), Label::integer(1));
/// assert_eq!(labels.label(p.message_id("B").unwrap()), Label::integer(3));
/// assert_eq!(labels.label(p.message_id("C").unwrap()), Label::integer(2));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Labeling {
    labels: Vec<Label>,
}

impl Labeling {
    /// Builds a labeling directly from a per-message table.
    ///
    /// Useful for testing hand-made labelings (e.g. the paper's "trivial
    /// consistent labeling scheme is to give the same label to all
    /// messages").
    #[must_use]
    pub fn from_labels(labels: Vec<Label>) -> Self {
        Labeling { labels }
    }

    /// The trivial labeling: every message gets label 1.
    ///
    /// Always consistent, but forces *every* competing message into one
    /// simultaneous-assignment group — the paper notes it "will not likely
    /// yield an efficient use of queues".
    #[must_use]
    pub fn trivial(program: &Program) -> Self {
        Labeling {
            labels: vec![Label::integer(1); program.num_messages()],
        }
    }

    /// The label of `message`.
    ///
    /// # Panics
    ///
    /// Panics if `message` is out of range.
    #[must_use]
    pub fn label(&self, message: MessageId) -> Label {
        self.labels[message.index()]
    }

    /// Iterates `(message, label)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (MessageId, Label)> + '_ {
        self.labels
            .iter()
            .enumerate()
            .map(|(i, &l)| (MessageId::new(i as u32), l))
    }

    /// Number of labeled messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if no messages are labeled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Which rule of the Section 6 scheme produced a label.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LabelRule {
    /// Rule 1a: larger than every label in use.
    FreshMax,
    /// Rule 1b: squeezed between the last past access and the smallest
    /// labeled future access.
    Between,
    /// Rule 1c: inherited from a related message.
    RelatedClass,
    /// Rule 1d: inherited because the message's writes were skipped over by
    /// lookahead (Section 8.2).
    SkippedCoLabel,
    /// The message is declared but carries no words; it never competes for
    /// queues, so it is given label 1 by convention.
    Unused,
}

/// The outcome of running the labeling scheme: the labels plus provenance.
#[derive(Clone, Debug)]
pub struct LabelingReport {
    labeling: Labeling,
    assignment_order: Vec<(MessageId, Label, LabelRule)>,
}

impl LabelingReport {
    /// The produced labeling.
    #[must_use]
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// Consumes the report, returning the labeling.
    #[must_use]
    pub fn into_labeling(self) -> Labeling {
        self.labeling
    }

    /// Messages in the order they were labeled, with the rule applied.
    #[must_use]
    pub fn assignment_order(&self) -> &[(MessageId, Label, LabelRule)] {
        &self.assignment_order
    }
}

/// Runs the Section 6 labeling scheme.
///
/// When multiple executable pairs are available the scheme must pick one;
/// this implementation prefers the pair whose message has the smallest
/// existing label (ties by message id), then unlabeled messages by id —
/// deterministic, and aligned with the transfer order of Theorem 1's proof.
/// (The paper leaves the pick open: "How to pick an 'optimal' one in some
/// sense is an issue".)
///
/// # Errors
///
/// * [`CoreError::ProgramDeadlocked`] if the crossing-off procedure stalls —
///   the scheme is defined only for deadlock-free programs;
/// * [`CoreError::LabelConflict`] if rule 1b's bounds cross;
/// * [`CoreError::InconsistentLabeling`] if the finished labeling violates
///   the consistency definition — the literal rules 1c/1d can assign labels
///   to messages whose own constraints are only discovered later, so the
///   result is post-verified rather than trusted.
///
/// Both failure modes are gaps of the *literal* Section 6 scheme on exotic
/// programs; [`label_messages_robust`](crate::label_messages_robust) always
/// succeeds and the [`Analyzer`](crate::Analyzer) falls back to it
/// automatically.
pub fn label_messages(
    program: &Program,
    limits: &LookaheadLimits,
) -> Result<LabelingReport, CoreError> {
    label_messages_mode(program, limits, false)
}

/// [`label_messages`] that stops crossing pairs as soon as every message
/// with a nonzero word count has a label.
///
/// Sound **only for programs already known deadlock-free**, which is why
/// the [`AnalyzerSession`](crate::AnalyzerSession) labeling stage calls it
/// only after its classification stage has proven that, and standalone
/// callers get the full driver: up to the stop point this is the
/// identical algorithm, and past it the full run assigns no further
/// labels — every rule (1a–1d) only ever labels unlabeled messages, and
/// none remain with words — so it can raise no `LabelConflict`, while
/// confluence of the crossing-off procedure rules out a late stall. The
/// `Unused` backfill and the final consistency check operate on the same
/// finished label table either way, so the report is identical.
pub(crate) fn label_messages_assignments_only(
    program: &Program,
    limits: &LookaheadLimits,
) -> Result<LabelingReport, CoreError> {
    label_messages_mode(program, limits, true)
}

/// The labels assigned so far, in assignment order, plus per cell the
/// multiset (label → count) of the labels of labeled messages that still
/// have words pending there, so rule 1b's smallest labeled future access
/// is a first key.
struct LabelTable<'p> {
    program: &'p Program,
    labels: Vec<Option<Label>>,
    pending: Vec<BTreeMap<Label, usize>>,
    order: Vec<(MessageId, Label, LabelRule)>,
    /// Messages still unlabeled that carry words: once this hits zero no
    /// further pair can assign a label, so early-stop mode may break.
    unlabeled_with_words: usize,
}

impl<'p> LabelTable<'p> {
    fn new(program: &'p Program) -> Self {
        LabelTable {
            program,
            labels: vec![None; program.num_messages()],
            pending: vec![BTreeMap::new(); program.num_cells()],
            order: Vec::new(),
            unlabeled_with_words: program
                .message_ids()
                .filter(|&m| program.word_count(m) > 0)
                .count(),
        }
    }

    fn get(&self, m: MessageId) -> Option<Label> {
        self.labels[m.index()]
    }

    fn endpoints(&self, m: MessageId) -> [CellId; 2] {
        let decl = self.program.message(m);
        [decl.sender(), decl.receiver()]
    }

    /// Labels the still-unlabeled `m` and ranks it by `label` in
    /// `machine`'s ready set. No word of an unlabeled message has crossed,
    /// so all of its words are pending.
    fn assign(&mut self, machine: &mut Machine<'_>, m: MessageId, label: Label, rule: LabelRule) {
        self.labels[m.index()] = Some(label);
        self.order.push((m, label, rule));
        machine.rank(m, label);
        if self.program.word_count(m) > 0 {
            self.unlabeled_with_words -= 1;
            for cell in self.endpoints(m) {
                *self.pending[cell.index()].entry(label).or_insert(0) += 1;
            }
        }
    }

    /// The smallest label among messages still pending in `cells`.
    fn future_min(&self, cells: [CellId; 2]) -> Option<Label> {
        cells
            .into_iter()
            .filter_map(|c| self.pending[c.index()].keys().next().copied())
            .min()
    }

    /// Notes that a word of the labeled `m` crossed: after its last word,
    /// its label leaves both cells' multisets.
    fn crossed(&mut self, machine: &Machine<'_>, m: MessageId) {
        if machine.pending(m) > 0 {
            return;
        }
        let label = self.get(m).expect("a crossed message is labeled");
        for cell in self.endpoints(m) {
            let set = &mut self.pending[cell.index()];
            let count = set.get_mut(&label).expect("a pending label is tracked");
            *count -= 1;
            if *count == 0 {
                set.remove(&label);
            }
        }
    }
}

fn label_messages_mode(
    program: &Program,
    limits: &LookaheadLimits,
    early_stop: bool,
) -> Result<LabelingReport, CoreError> {
    let related = RelatedMessages::of(program);
    let mut machine = Machine::new(program, limits);
    let mut table = LabelTable::new(program);
    // Per cell: the largest label among already-crossed (past) accesses.
    let mut cell_past_max: Vec<Option<Label>> = vec![None; program.num_cells()];
    let mut max_in_use: Option<Label> = None;
    let mut crossed_words = 0usize;
    let mut stopped_early = false;

    loop {
        if early_stop && table.unlabeled_with_words == 0 {
            stopped_early = true;
            break;
        }
        // Pick one pair at a time: the first in the machine's ready-set
        // order, which prefers the pair whose message already has the
        // SMALLEST label (ties by message id), and only then unlabeled
        // messages by id. This mirrors the order of Theorem 1's proof —
        // the smallest-label transfer proceeds first — and it matters:
        // under lookahead, rule 1d can pre-label a message (small label)
        // that is still executable while an unlabeled message is about to
        // receive a fresh larger label; crossing the fresh one first would
        // push a cell's "past maximum" above the pre-assigned label and
        // wedge rule 1b. (The paper leaves the pick open — "how to pick an
        // 'optimal' one in some sense is an issue".)
        let Some(pair) = machine.take_first_ready() else {
            break;
        };
        let m = pair.message;
        let cells = table.endpoints(m);

        if table.get(m).is_none() {
            // The smallest label among messages the sender or receiver will
            // still access (m itself is unlabeled, so not among them).
            let future_min = table.future_min(cells);
            let past_max = cells
                .into_iter()
                .filter_map(|c| cell_past_max[c.index()])
                .max();

            let (label, rule) = match future_min {
                None => {
                    // Rule 1a.
                    let next = match max_in_use {
                        Some(l) => l.next_integer_above(),
                        None => Label::integer(1),
                    };
                    (next, LabelRule::FreshMax)
                }
                Some(hi) => match past_max {
                    None => (hi.halved(), LabelRule::Between),
                    Some(lo) if lo < hi => (Label::midpoint(lo, hi), LabelRule::Between),
                    Some(lo) if lo == hi => (lo, LabelRule::Between),
                    Some(lo) => {
                        return Err(CoreError::LabelConflict {
                            message: m,
                            lower_bound: lo,
                            upper_bound: hi,
                        });
                    }
                },
            };
            table.assign(&mut machine, m, label, rule);
            max_in_use = Some(match max_in_use {
                Some(cur) if cur >= label => cur,
                _ => label,
            });
            // Rule 1c: the whole related class shares the label.
            for &other in related.class(m) {
                if table.get(other).is_none() {
                    table.assign(&mut machine, other, label, LabelRule::RelatedClass);
                }
            }
        }

        // Rule 1d (Section 8.2): skipped-over messages share the label.
        let pair_label = table.get(m).expect("just labeled");
        for &skipped in pair.skipped.keys() {
            if table.get(skipped).is_none() {
                table.assign(&mut machine, skipped, pair_label, LabelRule::SkippedCoLabel);
                max_in_use = Some(match max_in_use {
                    Some(cur) if cur >= pair_label => cur,
                    _ => pair_label,
                });
            }
        }

        for cell in cells {
            let slot = &mut cell_past_max[cell.index()];
            *slot = Some(match *slot {
                Some(cur) if cur >= pair_label => cur,
                _ => pair_label,
            });
        }

        machine.cross(&pair);
        crossed_words += 1;
        table.crossed(&machine, m);
    }

    if !stopped_early && machine.remaining_ops() != 0 {
        return Err(CoreError::ProgramDeadlocked {
            crossed_words,
            remaining_ops: machine.remaining_ops(),
        });
    }

    // Declared-but-unused messages never compete for queues; give them the
    // conventional label 1.
    let mut assignment_order = table.order;
    let labels: Vec<Label> = table
        .labels
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            l.unwrap_or_else(|| {
                assignment_order.push((
                    MessageId::new(i as u32),
                    Label::integer(1),
                    LabelRule::Unused,
                ));
                Label::integer(1)
            })
        })
        .collect();

    let labeling = Labeling { labels };
    // The literal Section 6 rules are not self-checking: rules 1c/1d can
    // assign a label that contradicts constraints discovered later. Verify
    // and report instead of returning a silently-broken labeling.
    let violations = crate::check_consistency(program, &labeling);
    if !violations.is_empty() {
        return Err(CoreError::InconsistentLabeling {
            violations: violations.len(),
        });
    }
    Ok(LabelingReport {
        labeling,
        assignment_order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_model::parse_program;

    fn fig7() -> Program {
        parse_program(
            "cells 4\n\
             message A: c1 -> c2\n\
             message B: c2 -> c3\n\
             message C: c0 -> c3\n\
             program c0 { W(C)*3 }\n\
             program c1 { W(A)*4 }\n\
             program c2 { R(A)*4 W(B)*3 }\n\
             program c3 { R(C)*3 R(B)*3 }\n",
        )
        .unwrap()
    }

    #[test]
    fn fig7_labels_are_1_3_2() {
        let p = fig7();
        let report = label_messages(&p, &LookaheadLimits::disabled(&p)).unwrap();
        let l = report.labeling();
        assert_eq!(l.label(p.message_id("A").unwrap()), Label::integer(1));
        assert_eq!(l.label(p.message_id("B").unwrap()), Label::integer(3));
        assert_eq!(l.label(p.message_id("C").unwrap()), Label::integer(2));
        // All three were fresh-max labels (no labeled futures at their time).
        for (_, _, rule) in report.assignment_order() {
            assert_eq!(*rule, LabelRule::FreshMax);
        }
    }

    #[test]
    fn fir_program_all_messages_share_one_label() {
        let p = systolic_workloads::fig2_fir();
        let report = label_messages(&p, &LookaheadLimits::disabled(&p)).unwrap();
        let labels: Vec<Label> = report.labeling().iter().map(|(_, l)| l).collect();
        assert!(labels.iter().all(|&l| l == Label::integer(1)));
        // One FreshMax, five RelatedClass.
        let fresh = report
            .assignment_order()
            .iter()
            .filter(|(_, _, r)| *r == LabelRule::FreshMax)
            .count();
        assert_eq!(fresh, 1);
    }

    #[test]
    fn deadlocked_program_is_rejected() {
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c1 -> c0\n\
             program c0 { R(B) W(A) }\n\
             program c1 { R(A) W(B) }\n",
        )
        .unwrap();
        let err = label_messages(&p, &LookaheadLimits::disabled(&p)).unwrap_err();
        assert!(matches!(err, CoreError::ProgramDeadlocked { .. }));
    }

    #[test]
    fn p1_messages_share_a_label_under_lookahead() {
        // P1 of Fig. 5: A and B interleave in both cells, so rule 1c alone
        // already forces a shared label; rule 1d would agree.
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c0 -> c1\n\
             program c0 { W(A) W(A) W(B) W(A) W(B) W(A) }\n\
             program c1 { R(B) R(A) R(B) R(A) R(A) R(A) }\n",
        )
        .unwrap();
        let limits = LookaheadLimits::uniform(&p, 2);
        let report = label_messages(&p, &limits).unwrap();
        let l = report.labeling();
        assert_eq!(
            l.label(p.message_id("A").unwrap()),
            l.label(p.message_id("B").unwrap()),
        );
        assert!(report
            .assignment_order()
            .iter()
            .any(|(_, _, r)| *r == LabelRule::RelatedClass));
    }

    #[test]
    fn lookahead_colabels_skipped_unrelated_messages() {
        // A is written four times before B, with no interleaving anywhere,
        // so A and B are NOT related — only rule 1d (Section 8.2) makes
        // them share a label when lookahead skips the W(A)s.
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c0 -> c1\n\
             program c0 { W(A)*4 W(B) }\n\
             program c1 { R(B) R(A)*4 }\n",
        )
        .unwrap();
        let limits = LookaheadLimits::uniform(&p, 4);
        let report = label_messages(&p, &limits).unwrap();
        let l = report.labeling();
        assert_eq!(
            l.label(p.message_id("A").unwrap()),
            l.label(p.message_id("B").unwrap()),
            "skipped-over message shares the pair's label"
        );
        assert!(report
            .assignment_order()
            .iter()
            .any(|(_, _, r)| *r == LabelRule::SkippedCoLabel));
    }

    #[test]
    fn rule_1b_produces_fractional_label_when_squeezed() {
        // With basic crossing-off, any labeled message a cell will access in
        // the future was already accessed in that cell's past, so rule 1b
        // can only ever force equality. A genuine squeeze needs lookahead's
        // rule 1d, which labels a message (L) *before* any of its ops cross:
        //
        //   1. K crosses first             -> K = 1        (rule 1a)
        //   2. F crosses, skipping W(L)    -> F = 2, L = 2 (rules 1a + 1d)
        //   3. M crosses: c1's past is K=1, c1's future holds R(L) with
        //      L = 2                       -> M = 3/2      (rule 1b)
        let p = parse_program(
            "cells 6\n\
             message K: c0 -> c1\n\
             message F: c3 -> c4\n\
             message L: c3 -> c1\n\
             message M: c5 -> c1\n\
             program c0 { W(K) }\n\
             program c1 { R(K) R(M) R(L) }\n\
             program c2 { }\n\
             program c3 { W(L) W(F) }\n\
             program c4 { R(F) }\n\
             program c5 { W(M) }\n",
        )
        .unwrap();
        let report = label_messages(&p, &LookaheadLimits::uniform(&p, 1)).unwrap();
        let l = report.labeling();
        let k = l.label(p.message_id("K").unwrap());
        let f = l.label(p.message_id("F").unwrap());
        let ll = l.label(p.message_id("L").unwrap());
        let m = l.label(p.message_id("M").unwrap());
        assert_eq!(k, Label::integer(1));
        assert_eq!(f, Label::integer(2));
        assert_eq!(ll, Label::integer(2), "L is co-labeled with F by rule 1d");
        assert_eq!(m, Label::ratio(3, 2), "M is squeezed between K and L");
        assert!(!m.is_integer());
        assert!(report
            .assignment_order()
            .iter()
            .any(|(_, _, r)| *r == LabelRule::Between));
        // The squeezed labeling is still consistent.
        assert!(crate::is_consistent(&p, l));
    }

    #[test]
    fn unused_messages_get_conventional_label() {
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message GHOST: c0 -> c1\n\
             program c0 { W(A) }\n\
             program c1 { R(A) }\n",
        )
        .unwrap();
        let report = label_messages(&p, &LookaheadLimits::disabled(&p)).unwrap();
        let ghost = p.message_id("GHOST").unwrap();
        assert_eq!(report.labeling().label(ghost), Label::integer(1));
        assert!(report
            .assignment_order()
            .iter()
            .any(|(m, _, r)| *m == ghost && *r == LabelRule::Unused));
    }

    #[test]
    fn trivial_labeling_is_all_ones() {
        let p = fig7();
        let t = Labeling::trivial(&p);
        assert!(t.iter().all(|(_, l)| l == Label::integer(1)));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }
}
