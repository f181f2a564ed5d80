//! The crossing-off procedure (paper, Sections 3 and 8.1).
//!
//! A pair of operations `W(X)`, `R(X)` is *executable* when both can be
//! reached at (or, with lookahead, near) the front of their cell programs.
//! The procedure repeatedly crosses off executable pairs; a program is
//! **deadlock-free** iff the procedure consumes every operation.
//!
//! Two variants, unified here:
//!
//! * **basic** (Section 3): both operations must be *the first remaining
//!   statement* of their cell programs. Use [`LookaheadLimits::disabled`].
//! * **lookahead** (Section 8.1): an operation may be located by scanning
//!   past *write* operations only (rule **R1**), and for each message the
//!   number of writes skipped in one scan may not exceed its queue-capacity
//!   budget (rule **R2**), captured by [`LookaheadLimits`].
//!
//! Each *step* crosses off **all** currently-executable pairs at once, which
//! is exactly how Fig. 4 of the paper presents the trace (steps 3, 5 and 9
//! each cross off two pairs). The procedure is confluent — crossing a pair
//! never disables another executable pair — so this choice affects only the
//! trace layout, not the classification.

use std::collections::BTreeMap;

use systolic_model::{CellId, MessageId, Op, Program};

use crate::{Label, LookaheadLimits};

/// One crossed-off executable pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Pair {
    /// The message the pair transfers a word of.
    pub message: MessageId,
    /// Zero-based index of the word within the message.
    pub word: usize,
    /// Position of the `W` operation in the sender's program.
    pub write_pos: usize,
    /// Position of the `R` operation in the receiver's program.
    pub read_pos: usize,
    /// Writes skipped (message → count) while locating the pair's
    /// operations, merged across the sender-side and receiver-side scans.
    /// Empty unless lookahead was used. Drives the Section 8.2 co-labeling
    /// rule and the queue-extension trigger.
    pub skipped: BTreeMap<MessageId, usize>,
}

/// One step of the procedure: every pair that was executable simultaneously.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Step {
    /// Pairs crossed off in this step, in ascending message-id order.
    pub pairs: Vec<Pair>,
}

/// The full record of a crossing-off run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Trace {
    steps: Vec<Step>,
}

impl Trace {
    /// The steps, in execution order.
    #[must_use]
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Total number of pairs crossed off.
    #[must_use]
    pub fn total_pairs(&self) -> usize {
        self.steps.iter().map(|s| s.pairs.len()).sum()
    }

    /// All pairs flattened in execution order (step order, then message id).
    pub fn pairs(&self) -> impl Iterator<Item = &Pair> + '_ {
        self.steps.iter().flat_map(|s| s.pairs.iter())
    }

    /// The highest number of writes of `message` skipped in any single scan
    /// — the quantity rule R2 bounds, and the trigger for the iWarp
    /// queue-extension mechanism (paper, Section 8.1).
    #[must_use]
    pub fn max_skips(&self, message: MessageId) -> usize {
        self.pairs()
            .filter_map(|p| p.skipped.get(&message).copied())
            .max()
            .unwrap_or(0)
    }

    /// Renders the trace in the paper's Fig. 4 style: one line per step,
    /// listing the `W(X)/R(X)` pairs crossed off, using `program`'s message
    /// names.
    ///
    /// # Panics
    ///
    /// Panics if the trace references messages not declared in `program`.
    #[must_use]
    pub fn render(&self, program: &Program) -> String {
        let mut out = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            let pairs: Vec<String> = step
                .pairs
                .iter()
                .map(|p| {
                    let name = program.message(p.message).name();
                    if p.skipped.is_empty() {
                        format!("W({name})/R({name})")
                    } else {
                        let skips: usize = p.skipped.values().sum();
                        format!("W({name})/R({name}) [skipped {skips}]")
                    }
                })
                .collect();
            out.push_str(&format!("step {:>2}: {}\n", i + 1, pairs.join("  ")));
        }
        out
    }
}

/// Why the procedure stalled, for deadlocked programs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StuckReport {
    /// Per cell: the first remaining (un-crossed) operation and its
    /// position, or `None` if the cell's program completed.
    pub fronts: Vec<Option<(usize, Op)>>,
    /// Total operations left un-crossed.
    pub remaining_ops: usize,
    /// Words successfully transferred before the stall.
    pub crossed_words: usize,
}

/// The verdict of the crossing-off procedure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Classification {
    /// Every operation was crossed off; the program is deadlock-free.
    DeadlockFree(Trace),
    /// The procedure stalled; the program is deadlocked.
    Deadlocked {
        /// Whatever was crossed off before the stall.
        trace: Trace,
        /// The stall state.
        stuck: StuckReport,
    },
}

impl Classification {
    /// `true` if the program was classified deadlock-free.
    #[must_use]
    pub fn is_deadlock_free(&self) -> bool {
        matches!(self, Classification::DeadlockFree(_))
    }

    /// The trace, regardless of verdict.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        match self {
            Classification::DeadlockFree(t) => t,
            Classification::Deadlocked { trace, .. } => trace,
        }
    }
}

/// Runs the basic crossing-off procedure (paper, Section 3).
///
/// # Examples
///
/// A message cycle that is nonetheless deadlock-free (paper, Fig. 6):
///
/// ```
/// use systolic_core::classify;
/// use systolic_model::parse_program;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = parse_program(
///     "cells 4\n\
///      message A: c0 -> c1\n\
///      message B: c1 -> c2\n\
///      message C: c2 -> c3\n\
///      message D: c3 -> c0\n\
///      program c0 { W(A) R(D) }\n\
///      program c1 { R(A) W(B) }\n\
///      program c2 { R(B) W(C) }\n\
///      program c3 { R(C) W(D) }\n",
/// )?;
/// assert!(classify(&p).is_deadlock_free());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn classify(program: &Program) -> Classification {
    classify_with(program, &LookaheadLimits::disabled(program))
}

/// Runs the crossing-off procedure with lookahead (paper, Section 8.1).
///
/// With [`LookaheadLimits::disabled`] this is exactly [`classify`]; larger
/// budgets classify more programs as deadlock-free, reflecting queue
/// buffering capacity at run time.
#[must_use]
pub fn classify_with(program: &Program, limits: &LookaheadLimits) -> Classification {
    run_to_completion(Machine::new(program, limits), Trace::default()).0
}

/// [`classify_with`], additionally returning the machine's end state so a
/// later run can resume from it (incremental reanalysis).
pub(crate) fn classify_with_snapshot(
    program: &Program,
    limits: &LookaheadLimits,
) -> (Classification, MachineSnapshot) {
    run_to_completion(Machine::new(program, limits), Trace::default())
}

/// Resumes the crossing-off procedure from a previous run's end state.
///
/// `program` must extend the snapshot's program by **appending** operations
/// at cell-program tails only (positions of existing ops unchanged), and
/// `limits` must be skip-free ([`LookaheadLimits::disabled`]-shaped) for the
/// result to be parity-sound:
///
/// * The procedure is confluent — crossing a pair never disables another
///   executable pair — so the final crossed-off set, the verdict and the
///   stuck report are independent of the order pairs were crossed. The
///   base run's crossed sequence is a valid prefix of a maximal crossing
///   sequence of the extended program (every base pair is still executable
///   at the same positions, including when the base run stalled: the
///   stall state is exactly where the appended ops may unblock it).
/// * Without lookahead every pair carries empty skip maps, so resuming
///   cannot diverge in recorded skip counts; only the grouping of pairs
///   into steps can differ from a from-scratch run, and nothing downstream
///   consumes step layout.
pub(crate) fn classify_resume(
    program: &Program,
    limits: &LookaheadLimits,
    snapshot: MachineSnapshot,
    base_trace: Trace,
) -> (Classification, MachineSnapshot) {
    run_to_completion(
        Machine::from_snapshot(program, limits, snapshot),
        base_trace,
    )
}

/// Drives a machine until no pair is executable, then packages the verdict
/// and the end-state snapshot.
///
/// Each step takes the whole ready set, so its pairs (skip counts
/// included) all describe the state before the step, in ascending
/// message-id order; they are then crossed together.
fn run_to_completion(
    mut machine: Machine<'_>,
    mut trace: Trace,
) -> (Classification, MachineSnapshot) {
    loop {
        let pairs = machine.take_ready();
        if pairs.is_empty() {
            break;
        }
        for p in &pairs {
            machine.cross(p);
        }
        trace.steps.push(Step { pairs });
    }
    let stuck = if machine.remaining_ops() == 0 {
        None
    } else {
        Some(machine.stuck_report(trace.total_pairs()))
    };
    let snapshot = machine.into_snapshot();
    let classification = match stuck {
        None => Classification::DeadlockFree(trace),
        Some(stuck) => Classification::Deadlocked { trace, stuck },
    };
    (classification, snapshot)
}

/// The portable end state of a crossing-off run, detached from the program
/// borrow, so an extended program can resume where the base run finished
/// instead of re-crossing every pair.
///
/// A cell's program holds only writes or only reads of a given message,
/// and each cross takes that message's first uncrossed op in both of its
/// cells, so the crossed ops are exactly each message's first
/// `words_done` ops in its sender and in its receiver.
#[derive(Clone, Debug)]
pub(crate) struct MachineSnapshot {
    words_done: Vec<usize>,
}

/// Orders the ready set: labeled messages first, by label, then unlabeled
/// ones; message id breaks ties. While nothing is labeled this is plain
/// message-id order.
type ReadyKey = (bool, Option<Label>, MessageId);

/// A maximal stretch of one repeated op in a cell program. Its crossed ops
/// are a prefix of it, so one step over a run covers all of its ops.
#[derive(Clone, Copy, Debug)]
struct Run {
    op: Op,
    /// Position of the run's first op.
    start: usize,
    len: usize,
    /// How many ops of the same message precede the run in this cell.
    ordinal: usize,
}

#[cfg(test)]
thread_local! {
    /// Runs visited by [`Machine::scan`] on this thread: the deterministic
    /// work counter the complexity tests read.
    pub(crate) static RUNS_VISITED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Working state of one crossing-off run.
///
/// Shared between [`classify_with`] (which crosses maximal pair sets per
/// step) and the labeling scheme (which crosses one pair at a time so labels
/// are assigned in the order Section 6 prescribes).
///
/// The machine keeps the executable pairs in an ordered *ready set*.
/// Whether a message is executable depends only on its sender's and its
/// receiver's programs, and a cell can locate an op only inside its
/// *window*: the uncrossed ops from its front up to the first read, or up
/// to the write whose skip would exceed its message's R2 budget (both
/// inclusive). Crossing an op only ever extends a window. So after a cross
/// the ready set is stale only for the crossed message and for the
/// messages with an op in a touched cell's window, and the next read of
/// the set re-examines exactly those. Windows are walked a run of repeated
/// ops at a time; with lookahead off a window is the front op alone, which
/// makes the whole procedure linear in the op count.
pub(crate) struct Machine<'p> {
    program: &'p Program,
    limits: &'p LookaheadLimits,
    /// Per cell: its program as runs of one repeated op.
    runs: Vec<Vec<Run>>,
    /// Per cell: index of the first run with an uncrossed op.
    front: Vec<usize>,
    /// Per message: number of words crossed so far.
    words_done: Vec<usize>,
    remaining_ops: usize,
    /// Every executable pair, current as of the last refresh.
    ready: BTreeMap<ReadyKey, Pair>,
    /// Per message: the label it is ranked by in the ready set.
    rank: Vec<Option<Label>>,
    /// Messages to re-examine at the next refresh.
    stale: Vec<MessageId>,
    /// Cells crossed in since the last refresh.
    touched: Vec<CellId>,
    /// Per message and per cell: already queued for the next refresh?
    stale_mark: Vec<bool>,
    touched_mark: Vec<bool>,
    /// Scratch: the messages of one window's runs.
    window: Vec<MessageId>,
}

/// Result of scanning one cell program for a target operation.
struct Located {
    pos: usize,
    skipped: BTreeMap<MessageId, usize>,
}

impl<'p> Machine<'p> {
    pub(crate) fn new(program: &'p Program, limits: &'p LookaheadLimits) -> Self {
        let snapshot = MachineSnapshot {
            words_done: vec![0; program.num_messages()],
        };
        Self::from_snapshot(program, limits, snapshot)
    }

    /// Rebuilds a machine over `program` from a previous run's end state.
    ///
    /// `program` must extend the snapshot's program by appending operations
    /// at cell-program tails only: same cells, same message declarations,
    /// and each cell's op list an extension of what the snapshot saw, so
    /// every crossed op keeps its place among its message's ops. Every
    /// message is examined once for the first read of the ready set.
    pub(crate) fn from_snapshot(
        program: &'p Program,
        limits: &'p LookaheadLimits,
        snapshot: MachineSnapshot,
    ) -> Self {
        let MachineSnapshot { words_done } = snapshot;
        debug_assert_eq!(
            words_done.len(),
            program.num_messages(),
            "messages are fixed"
        );
        let messages = program.num_messages();
        // A message's writes all sit in its sender and its reads all in its
        // receiver, so counting per (kind, message) across the whole
        // program counts within the one cell that holds them.
        let mut seen = [vec![0; messages], vec![0; messages]];
        let runs: Vec<Vec<Run>> = program
            .cells()
            .iter()
            .map(|cp| {
                let mut runs: Vec<Run> = Vec::new();
                for (pos, op) in cp.iter().enumerate() {
                    let ordinal = &mut seen[usize::from(op.is_read())][op.message().index()];
                    match runs.last_mut() {
                        Some(run) if run.op == op => run.len += 1,
                        _ => runs.push(Run {
                            op,
                            start: pos,
                            len: 1,
                            ordinal: *ordinal,
                        }),
                    }
                    *ordinal += 1;
                }
                runs
            })
            .collect();
        let crossed_ops: usize = words_done.iter().sum::<usize>() * 2;
        let mut machine = Machine {
            program,
            limits,
            front: vec![0; runs.len()],
            runs,
            words_done,
            remaining_ops: program.total_ops() - crossed_ops,
            ready: BTreeMap::new(),
            rank: vec![None; messages],
            stale: program.message_ids().collect(),
            touched: Vec::new(),
            stale_mark: vec![true; messages],
            touched_mark: vec![false; program.num_cells()],
            window: Vec::new(),
        };
        for cell in program.cell_ids() {
            machine.advance_front(cell);
        }
        machine
    }

    /// Consumes the machine into its portable end state.
    pub(crate) fn into_snapshot(self) -> MachineSnapshot {
        MachineSnapshot {
            words_done: self.words_done,
        }
    }

    pub(crate) fn remaining_ops(&self) -> usize {
        self.remaining_ops
    }

    pub(crate) fn stuck_report(&self, crossed_words: usize) -> StuckReport {
        StuckReport {
            fronts: self
                .program
                .cell_ids()
                .map(|c| {
                    let run = self.runs[c.index()].get(self.front[c.index()])?;
                    Some((run.start + self.crossed_in(run), run.op))
                })
                .collect(),
            remaining_ops: self.remaining_ops,
            crossed_words,
        }
    }

    /// Words of `message` not yet crossed. `Program::new` admits writes only
    /// in a message's sender and reads only in its receiver, in equal
    /// numbers, so this is also its uncrossed op count in either endpoint.
    pub(crate) fn pending(&self, message: MessageId) -> usize {
        self.program.word_count(message) - self.words_done[message.index()]
    }

    /// Ranks `message` by `label` in the ready set from now on (labeling
    /// order: smallest label first, unlabeled messages last).
    pub(crate) fn rank(&mut self, message: MessageId, label: Label) {
        let ready = self.ready.remove(&self.key(message));
        self.rank[message.index()] = Some(label);
        if let Some(pair) = ready {
            self.ready.insert(self.key(message), pair);
        }
    }

    /// Removes and returns every executable pair, in ready-set order.
    pub(crate) fn take_ready(&mut self) -> Vec<Pair> {
        self.refresh();
        let mut pairs = Vec::with_capacity(self.ready.len());
        // Popping keeps the map's root node for the next step.
        while let Some((_, pair)) = self.ready.pop_first() {
            pairs.push(pair);
        }
        pairs
    }

    /// Removes and returns the first executable pair in ready-set order.
    pub(crate) fn take_first_ready(&mut self) -> Option<Pair> {
        self.refresh();
        self.ready.pop_first().map(|(_, pair)| pair)
    }

    fn key(&self, message: MessageId) -> ReadyKey {
        let label = self.rank[message.index()];
        (label.is_none(), label, message)
    }

    /// How many of `run`'s ops are crossed: its message's crossed ops in
    /// this cell are the first `words_done` of them.
    fn crossed_in(&self, run: &Run) -> usize {
        self.words_done[run.op.message().index()]
            .saturating_sub(run.ordinal)
            .min(run.len)
    }

    /// Re-examines every stale message: the ones crossed and the ones with
    /// an op in a touched cell's window.
    fn refresh(&mut self) {
        for i in 0..self.touched.len() {
            let cell = self.touched[i];
            self.touched_mark[cell.index()] = false;
            let mut window = std::mem::take(&mut self.window);
            self.scan(cell, |op| {
                window.push(op.message());
                false
            });
            for &m in &window {
                self.mark_stale(m);
            }
            window.clear();
            self.window = window;
        }
        self.touched.clear();
        for i in 0..self.stale.len() {
            let m = self.stale[i];
            self.stale_mark[m.index()] = false;
            let key = self.key(m);
            match self.executable_pair(m) {
                Some(pair) => self.ready.insert(key, pair),
                None => self.ready.remove(&key),
            };
        }
        self.stale.clear();
    }

    fn mark_stale(&mut self, message: MessageId) {
        if !std::mem::replace(&mut self.stale_mark[message.index()], true) {
            self.stale.push(message);
        }
    }

    /// `message`'s next word as a pair, if its write and its read can both
    /// be located now.
    fn executable_pair(&self, m: MessageId) -> Option<Pair> {
        if self.pending(m) == 0 {
            return None;
        }
        let decl = self.program.message(m);
        // The read must end the receiver's window, so most probes fail on
        // this side first.
        let r = self.locate(decl.receiver(), Op::read(m))?;
        let w = self.locate(decl.sender(), Op::write(m))?;
        let mut skipped = w.skipped;
        for (msg, n) in r.skipped {
            *skipped.entry(msg).or_insert(0) += n;
        }
        Some(Pair {
            message: m,
            word: self.words_done[m.index()],
            write_pos: w.pos,
            read_pos: r.pos,
            skipped,
        })
    }

    /// Scans `cell`'s program from its front for `target`, skipping only
    /// un-crossed *write* operations (rule R1) within the per-message budget
    /// (rule R2). Returns the position and the skip counts, or `None`.
    fn locate(&self, cell: CellId, target: Op) -> Option<Located> {
        self.scan(cell, |op| op == target)
    }

    /// Walks `cell`'s window in program order, offering each run's op to
    /// `hit` (a run's uncrossed ops are all that op). Returns the first
    /// uncrossed position of the run `hit` accepted, with the writes
    /// skipped before it, or `None` once the window ends.
    fn scan(&self, cell: CellId, mut hit: impl FnMut(Op) -> bool) -> Option<Located> {
        let mut skipped: BTreeMap<MessageId, usize> = BTreeMap::new();
        for run in &self.runs[cell.index()][self.front[cell.index()]..] {
            #[cfg(test)]
            RUNS_VISITED.with(|v| v.set(v.get() + 1));
            let crossed = self.crossed_in(run);
            if crossed == run.len {
                continue;
            }
            if hit(run.op) {
                return Some(Located {
                    pos: run.start + crossed,
                    skipped,
                });
            }
            if run.op.is_read() {
                // R1: only write operations may be skipped. If skipping reads
                // were allowed, program P3 of Fig. 5 would be misclassified —
                // a skipped read may feed the very write we are looking for.
                return None;
            }
            let message = run.op.message();
            let count = skipped.get(&message).copied().unwrap_or(0) + run.len - crossed;
            if !self.limits.allows(message, count) {
                // R2: budget exhausted for this message, somewhere in this
                // run. Checked before the count is recorded, so a rejected
                // probe allocates nothing.
                return None;
            }
            skipped.insert(message, count);
        }
        None
    }

    /// Moves `cell`'s front past runs whose ops are all crossed.
    fn advance_front(&mut self, cell: CellId) {
        let runs = &self.runs[cell.index()];
        let mut f = self.front[cell.index()];
        while f < runs.len() && self.crossed_in(&runs[f]) == runs[f].len {
            f += 1;
        }
        self.front[cell.index()] = f;
    }

    /// Crosses `pair` off and queues what it can change — the pair's
    /// message and both of its cells' windows — for the next refresh.
    pub(crate) fn cross(&mut self, pair: &Pair) {
        let decl = self.program.message(pair.message);
        debug_assert!(self.pending(pair.message) > 0, "word crossed twice");
        self.words_done[pair.message.index()] += 1;
        self.remaining_ops -= 2;
        for cell in [decl.sender(), decl.receiver()] {
            self.advance_front(cell);
            if !std::mem::replace(&mut self.touched_mark[cell.index()], true) {
                self.touched.push(cell);
            }
        }
        self.mark_stale(pair.message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_model::{parse_program, ProgramBuilder};

    /// Program P1 of Fig. 5, reconstructed from the Fig. 10 walkthrough.
    fn p1() -> Program {
        parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c0 -> c1\n\
             program c0 { W(A) W(A) W(B) W(A) W(B) W(A) }\n\
             program c1 { R(B) R(A) R(B) R(A) R(A) R(A) }\n",
        )
        .unwrap()
    }

    /// Program P2 of Fig. 5.
    fn p2() -> Program {
        parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c1 -> c0\n\
             program c0 { W(A) R(B) }\n\
             program c1 { W(B) R(A) }\n",
        )
        .unwrap()
    }

    /// Program P3 of Fig. 5: a true circular data dependency.
    fn p3() -> Program {
        parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c1 -> c0\n\
             program c0 { R(B) W(A) }\n\
             program c1 { R(A) W(B) }\n",
        )
        .unwrap()
    }

    #[test]
    fn trivial_send_receive_is_deadlock_free() {
        let p = parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
        )
        .unwrap();
        let c = classify(&p);
        assert!(c.is_deadlock_free());
        assert_eq!(c.trace().total_pairs(), 1);
    }

    #[test]
    fn fig5_programs_are_deadlocked_without_lookahead() {
        for (name, p) in [("P1", p1()), ("P2", p2()), ("P3", p3())] {
            let c = classify(&p);
            assert!(!c.is_deadlock_free(), "{name} must be deadlocked");
            match c {
                Classification::Deadlocked { trace, stuck } => {
                    assert_eq!(trace.total_pairs(), 0, "{name}: no pair is executable");
                    assert_eq!(stuck.remaining_ops, p.total_ops());
                    assert!(stuck.fronts.iter().all(Option::is_some));
                }
                Classification::DeadlockFree(_) => unreachable!(),
            }
        }
    }

    #[test]
    fn p1_with_capacity_two_is_deadlock_free_fig10() {
        let p = p1();
        let limits = LookaheadLimits::uniform(&p, 2);
        let c = classify_with(&p, &limits);
        assert!(
            c.is_deadlock_free(),
            "Fig. 10: P1 is deadlock-free with 2-word queues"
        );

        // Golden trace from Fig. 10 (positions are 0-based here; the figure
        // numbers steps from 1).
        let trace = c.trace();
        let a = MessageId::new(0);
        let b = MessageId::new(1);

        let first = &trace.steps()[0].pairs;
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].message, b);
        assert_eq!(first[0].write_pos, 2, "W(B) in step 3 of the C1 program");
        assert_eq!(first[0].read_pos, 0, "R(B) in step 1 of the C2 program");
        assert_eq!(
            first[0].skipped.get(&a),
            Some(&2),
            "skipped the two W(A)s in steps 1-2"
        );

        let second = &trace.steps()[1].pairs;
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].message, a);
        assert_eq!(second[0].write_pos, 0, "W(A) in step 1 of the C1 program");
        assert_eq!(second[0].read_pos, 1, "R(A) in step 2 of the C2 program");

        let third = &trace.steps()[2].pairs;
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].message, b);
        assert_eq!(third[0].write_pos, 4, "W(B) in step 5 of the C1 program");
        assert_eq!(third[0].read_pos, 2, "R(B) in step 3 of the C2 program");
        assert_eq!(
            third[0].skipped.get(&a),
            Some(&2),
            "skipped the W(A)s in steps 2 and 4"
        );

        assert_eq!(trace.max_skips(a), 2);
        assert_eq!(trace.max_skips(b), 0);
        assert_eq!(trace.total_pairs(), 6);
    }

    #[test]
    fn p1_with_capacity_one_stays_deadlocked() {
        let p = p1();
        let c = classify_with(&p, &LookaheadLimits::uniform(&p, 1));
        assert!(
            !c.is_deadlock_free(),
            "one word of buffering is not enough for P1"
        );
    }

    #[test]
    fn p2_with_any_buffering_is_deadlock_free() {
        let p = p2();
        assert!(classify_with(&p, &LookaheadLimits::uniform(&p, 1)).is_deadlock_free());
    }

    #[test]
    fn p3_is_deadlocked_even_with_unbounded_lookahead() {
        let p = p3();
        // Rule R1: reads can never be skipped, so no buffering saves P3.
        let c = classify_with(&p, &LookaheadLimits::unbounded(&p));
        assert!(!c.is_deadlock_free());
    }

    #[test]
    fn disabled_limits_reproduce_basic_procedure() {
        // On a program with mixed results, the two entry points agree.
        for p in [p1(), p2(), p3()] {
            let basic = classify(&p);
            let zero = classify_with(&p, &LookaheadLimits::disabled(&p));
            assert_eq!(basic.is_deadlock_free(), zero.is_deadlock_free());
            assert_eq!(basic.trace().total_pairs(), zero.trace().total_pairs());
        }
    }

    #[test]
    fn reversing_two_statements_breaks_fig2_style_program() {
        // Section 3.2: "if the first two statements in the C3 program are
        // reversed so that R(XC) follows W(YC), then the program is no longer
        // deadlock-free." Miniature version of the same effect:
        let good = parse_program(
            "cells 2\n\
             message X: c0 -> c1\n\
             message Y: c1 -> c0\n\
             program c0 { W(X) R(Y) }\n\
             program c1 { R(X) W(Y) }\n",
        )
        .unwrap();
        assert!(classify(&good).is_deadlock_free());

        let bad = parse_program(
            "cells 2\n\
             message X: c0 -> c1\n\
             message Y: c1 -> c0\n\
             program c0 { W(X) R(Y) }\n\
             program c1 { W(Y) R(X) }\n",
        )
        .unwrap();
        assert!(!classify(&bad).is_deadlock_free());
    }

    #[test]
    fn empty_program_is_deadlock_free() {
        let p = ProgramBuilder::new(2).build().unwrap();
        let c = classify(&p);
        assert!(c.is_deadlock_free());
        assert_eq!(c.trace().steps().len(), 0);
    }

    #[test]
    fn multiple_pairs_cross_in_one_step() {
        // Two independent transfers are simultaneously executable.
        let p = parse_program(
            "cells 4\n\
             message A: c0 -> c1\n\
             message B: c2 -> c3\n\
             program c0 { W(A) }\n\
             program c1 { R(A) }\n\
             program c2 { W(B) }\n\
             program c3 { R(B) }\n",
        )
        .unwrap();
        let c = classify(&p);
        assert!(c.is_deadlock_free());
        let steps = c.trace().steps();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].pairs.len(), 2);
    }

    #[test]
    fn stuck_report_points_at_blocking_fronts() {
        let p = p3();
        let Classification::Deadlocked { stuck, .. } = classify(&p) else {
            panic!("P3 must be deadlocked")
        };
        // Both cells are stuck at their very first op, a read.
        for front in &stuck.fronts {
            let (pos, op) = front.expect("both cells have remaining ops");
            assert_eq!(pos, 0);
            assert!(op.is_read());
        }
    }

    /// `n` one-word messages that `c0` writes and `c1` reads in the same
    /// order: every message shares both cells, the worst case for a
    /// procedure that re-examines every message after each cross.
    fn chain(n: usize) -> Program {
        let mut b = ProgramBuilder::new(2);
        for i in 0..n {
            let name = format!("M{i}");
            b.message(name.as_str(), 0u32, 1u32).unwrap();
            b.write(0u32, &name).unwrap();
            b.read(1u32, &name).unwrap();
        }
        b.build().unwrap()
    }

    /// Runs visited by [`Machine::scan`] while `f` runs on this thread.
    fn runs_visited(f: impl FnOnce()) -> usize {
        let before = RUNS_VISITED.with(std::cell::Cell::get);
        f();
        RUNS_VISITED.with(std::cell::Cell::get) - before
    }

    #[test]
    fn chain_work_is_linear_in_messages() {
        for n in [1024, 8192] {
            let p = chain(n);
            let limits = LookaheadLimits::disabled(&p);
            let classify_runs = runs_visited(|| {
                let c = classify(&p);
                assert!(c.is_deadlock_free());
                assert_eq!(c.trace().steps().len(), n, "one message per step");
            });
            let label_runs = runs_visited(|| {
                crate::label_messages(&p, &limits).unwrap();
            });
            // Each cross re-examines the crossed message and the one new
            // front op per cell (every run here is a single op); a per-step
            // scan of every message would visit on the order of n * n.
            assert!(
                classify_runs <= 6 * n,
                "classify visited {classify_runs} runs for {n}"
            );
            assert!(
                label_runs <= 6 * n,
                "labeling visited {label_runs} runs for {n}"
            );
        }
    }

    #[test]
    fn word_indices_count_up_per_message() {
        let p = parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A)*3 }\nprogram c1 { R(A)*3 }\n",
        )
        .unwrap();
        let c = classify(&p);
        let words: Vec<usize> = c.trace().pairs().map(|p| p.word).collect();
        assert_eq!(words, vec![0, 1, 2]);
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;
    use systolic_workloads as wl;

    #[test]
    fn fig4_render_matches_paper_layout() {
        let p = wl::fig2_fir();
        let c = classify(&p);
        let text = c.trace().render(&p);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 12, "Fig. 4 has 12 steps");
        assert_eq!(lines[0], "step  1: W(XA)/R(XA)");
        assert!(lines[2].contains("W(XA)/R(XA)") && lines[2].contains("W(XC)/R(XC)"));
        assert!(lines[8].contains("W(YA)/R(YA)") && lines[8].contains("W(YC)/R(YC)"));
    }

    #[test]
    fn lookahead_render_shows_skips() {
        let p = wl::fig5_p1();
        let limits = LookaheadLimits::uniform(&p, 2);
        let c = classify_with(&p, &limits);
        let text = c.trace().render(&p);
        assert!(text.contains("[skipped 2]"), "{text}");
    }
}
