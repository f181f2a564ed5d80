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
//!
//! A [`Trace`] keeps how many words of each message its run crossed. By
//! confluence that is the whole end state: after appends at cell-program
//! tails, `classify_resume` picks up from any trace (fresh, reused or
//! itself resumed) instead of re-crossing every pair.
//!
//! The executable pairs are kept in a ready set that a cross updates only
//! around the two cells it touches. With every lookahead budget zero, a
//! message is executable exactly when its sender's and its receiver's
//! front ops are its write and its read, so a cross examines just the two
//! new fronts. With any nonzero budget, each touched cell's window of
//! skippable writes is walked instead. The budgets alone pick the path,
//! and both produce the same trace.

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
///
/// Besides its steps, a trace keeps how many words of each message the run
/// crossed. The procedure is confluent, so these counts alone say where the
/// run stopped, and a run over a tail-extended program can pick up from
/// them (incremental reanalysis).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Trace {
    steps: Vec<Step>,
    /// Per message: words crossed by the end of the run, which is the
    /// number of that message's pairs in `steps`. Kept rather than
    /// recounted so that `classify_resume` reads the end state in time
    /// linear in the messages and moves `steps` over untouched, instead
    /// of passing over every pair crossed so far on each append.
    words_done: Vec<usize>,
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
    run_to_completion(Machine::new(program, limits), Vec::new())
}

/// Resumes the crossing-off procedure where `base_trace`'s run stopped.
///
/// `program` must extend the base run's program by **appending** operations
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
///
/// Any trace can be resumed, whether its run was fresh or itself resumed.
/// With skip-free limits the machine takes its front path, which rebuilds
/// its state from the trace's per-message word counts alone, in time
/// linear in the cells and messages rather than the ops.
pub(crate) fn classify_resume(
    program: &Program,
    limits: &LookaheadLimits,
    base_trace: Trace,
) -> Classification {
    let Trace { steps, words_done } = base_trace;
    run_to_completion(Machine::resume(program, limits, words_done), steps)
}

/// Drives a machine until no pair is executable, appending each step to
/// `steps`, then packages the verdict with the machine's word counts.
///
/// Each step takes the whole ready set, so its pairs (skip counts
/// included) all describe the state before the step, in ascending
/// message-id order; they are then crossed together.
fn run_to_completion(mut machine: Machine<'_>, mut steps: Vec<Step>) -> Classification {
    loop {
        let pairs = machine.take_ready();
        if pairs.is_empty() {
            break;
        }
        for p in &pairs {
            machine.cross(p);
        }
        steps.push(Step { pairs });
    }
    let stuck = (machine.remaining_ops() > 0).then(|| machine.stuck_report());
    let trace = Trace {
        steps,
        words_done: machine.progress.words_done,
    };
    match stuck {
        None => Classification::DeadlockFree(trace),
        Some(stuck) => Classification::Deadlocked { trace, stuck },
    }
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
    /// Runs visited by [`Windows::scan`] on this thread: the window walk's
    /// deterministic work counter, which the complexity tests read.
    pub(crate) static RUNS_VISITED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Cell fronts examined by [`Fronts::refresh`] on this thread: the
    /// front path's work counter.
    pub(crate) static FRONTS_EXAMINED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// While set, machines built on this thread walk windows even when
    /// every budget is zero, so tests can hold the front path to the
    /// window walk.
    static FORCE_WINDOW_WALK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with every machine it builds walking windows, whatever the
/// budgets: the reference the front path is tested against.
#[cfg(test)]
pub(crate) fn with_window_walk<T>(f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            FORCE_WINDOW_WALK.with(|force| force.set(false));
        }
    }
    FORCE_WINDOW_WALK.with(|force| force.set(true));
    let _reset = Reset;
    f()
}

/// `true` when `limits` let no write be skipped, so every cell's window is
/// its front op and the machine can take the front path.
fn fronts_suffice(limits: &LookaheadLimits) -> bool {
    let skip_free = limits.as_table().iter().all(|&budget| budget == Some(0));
    #[cfg(test)]
    let skip_free = skip_free && !FORCE_WINDOW_WALK.with(std::cell::Cell::get);
    skip_free
}

/// Working state of one crossing-off run.
///
/// Shared between [`classify_with`] (which crosses maximal pair sets per
/// step) and the labeling scheme (which crosses one pair at a time so labels
/// are assigned in the order Section 6 prescribes).
///
/// The machine keeps the executable pairs in a *ready set*, ordered by
/// rank (see [`Machine::rank`]) and then message id. Whether a message is
/// executable depends only on its sender's and its receiver's programs,
/// so after a cross only the messages around the two touched cells can
/// change, and the next read of the set re-examines just those. How it
/// examines them depends on the lookahead budgets alone:
///
/// * with every budget zero ([`Fronts`]) a message is executable exactly
///   when its two cells' front ops are its write and its read. The set
///   holds message keys, and a [`Pair`] is built only when one is taken;
/// * with any nonzero budget ([`Windows`]) each touched cell's *window* is
///   walked, and the set holds the pairs with their skip counts.
///
/// Both find the same pairs in the same order; the window walk is the
/// reference the tests hold the front path to.
pub(crate) struct Machine<'p> {
    progress: Progress<'p>,
    path: Path<'p>,
}

/// What both paths read: the program and how far each message has got.
struct Progress<'p> {
    program: &'p Program,
    /// Per message: number of words crossed so far.
    words_done: Vec<usize>,
    remaining_ops: usize,
    /// Per message: the label it is ranked by in the ready set.
    rank: Vec<Option<Label>>,
}

impl Progress<'_> {
    /// Words of `message` not yet crossed. `Program::new` admits writes only
    /// in a message's sender and reads only in its receiver, in equal
    /// numbers, so this is also its uncrossed op count in either endpoint.
    fn pending(&self, message: MessageId) -> usize {
        self.program.word_count(message) - self.words_done[message.index()]
    }

    fn key(&self, message: MessageId) -> ReadyKey {
        let label = self.rank[message.index()];
        (label.is_none(), label, message)
    }
}

/// How the ready set is kept.
enum Path<'p> {
    Fronts(Fronts),
    Windows(Windows<'p>),
}

impl<'p> Machine<'p> {
    pub(crate) fn new(program: &'p Program, limits: &'p LookaheadLimits) -> Self {
        Self::resume(program, limits, vec![0; program.num_messages()])
    }

    /// Rebuilds a machine over `program` from a previous run's per-message
    /// crossed-word counts.
    ///
    /// `program` must extend the previous run's program by appending
    /// operations at cell-program tails only: same cells, same message
    /// declarations, and each cell's op list an extension of what that run
    /// saw, so every crossed op keeps its place among its message's ops.
    ///
    /// A cell's program holds only writes or only reads of a given message,
    /// and each cross takes that message's first uncrossed op in both of its
    /// cells, so the crossed ops are exactly each message's first
    /// `words_done` ops in its sender and in its receiver. Every cell
    /// (front path) or message (window walk) is examined once for the first
    /// read of the ready set.
    fn resume(program: &'p Program, limits: &'p LookaheadLimits, words_done: Vec<usize>) -> Self {
        debug_assert_eq!(
            words_done.len(),
            program.num_messages(),
            "messages are fixed"
        );
        let crossed_ops: usize = words_done.iter().sum::<usize>() * 2;
        let progress = Progress {
            program,
            words_done,
            remaining_ops: program.total_ops() - crossed_ops,
            rank: vec![None; program.num_messages()],
        };
        let path = if fronts_suffice(limits) {
            Path::Fronts(Fronts::new(&progress))
        } else {
            Path::Windows(Windows::new(&progress, limits))
        };
        Machine { progress, path }
    }

    pub(crate) fn remaining_ops(&self) -> usize {
        self.progress.remaining_ops
    }

    fn stuck_report(&self) -> StuckReport {
        let program = self.progress.program;
        StuckReport {
            fronts: program
                .cell_ids()
                .map(|c| match &self.path {
                    Path::Fronts(fronts) => fronts
                        .front_op(program, c)
                        .map(|op| (fronts.front[c.index()], op)),
                    Path::Windows(windows) => windows.front_op(&self.progress, c),
                })
                .collect(),
            remaining_ops: self.progress.remaining_ops,
            crossed_words: self.progress.words_done.iter().sum(),
        }
    }

    /// Words of `message` not yet crossed, in either of its endpoints.
    pub(crate) fn pending(&self, message: MessageId) -> usize {
        self.progress.pending(message)
    }

    /// Ranks `message` by `label` in the ready set from now on (labeling
    /// order: smallest label first, unlabeled messages last).
    pub(crate) fn rank(&mut self, message: MessageId, label: Label) {
        let old = self.progress.key(message);
        self.progress.rank[message.index()] = Some(label);
        let new = self.progress.key(message);
        match &mut self.path {
            Path::Fronts(fronts) => fronts.rekey(old, new),
            Path::Windows(windows) => windows.rekey(old, new),
        }
    }

    /// Removes and returns every executable pair, in ready-set order.
    /// Nothing is crossed between the takes, so only the first refreshes.
    pub(crate) fn take_ready(&mut self) -> Vec<Pair> {
        std::iter::from_fn(|| self.take_first_ready()).collect()
    }

    /// Removes and returns the first executable pair in ready-set order.
    pub(crate) fn take_first_ready(&mut self) -> Option<Pair> {
        match &mut self.path {
            Path::Fronts(fronts) => {
                fronts.refresh(&self.progress);
                fronts.take_first(&self.progress)
            }
            Path::Windows(windows) => {
                windows.refresh(&self.progress);
                windows.ready.pop_first().map(|(_, pair)| pair)
            }
        }
    }

    /// Crosses `pair` off and queues what it can change for the next
    /// refresh of the ready set.
    pub(crate) fn cross(&mut self, pair: &Pair) {
        debug_assert!(self.pending(pair.message) > 0, "word crossed twice");
        self.progress.words_done[pair.message.index()] += 1;
        self.progress.remaining_ops -= 2;
        let decl = self.progress.program.message(pair.message);
        let cells = [decl.sender(), decl.receiver()];
        match &mut self.path {
            Path::Fronts(fronts) => fronts.crossed(pair, cells),
            Path::Windows(windows) => windows.crossed(&self.progress, pair.message, cells),
        }
    }
}

/// The ready set when every lookahead budget is zero.
///
/// Only front ops are ever crossed then, so each cell's crossed ops are a
/// prefix of its program and one position per cell says where it stands.
/// An executable message holds the fronts of both of its cells, so
/// executable messages have disjoint cells: a cross changes only its own
/// message and the messages at the new fronts of its two cells, and
/// [`Fronts::refresh`] examines one front per touched cell.
struct Fronts {
    /// Per cell: position of its first uncrossed op.
    front: Vec<usize>,
    /// The executable messages' keys in descending ready-set order, so the
    /// next pair to take is the last one.
    ready: Vec<ReadyKey>,
    /// Per message: is its key in `ready`?
    queued: Vec<bool>,
    /// Cells crossed in since the last refresh.
    touched: Vec<CellId>,
}

impl Fronts {
    fn new(progress: &Progress<'_>) -> Self {
        let program = progress.program;
        // A cell's crossed prefix holds each of its messages' first
        // `words_done` ops (see `Machine::resume`).
        let mut front = vec![0; program.num_cells()];
        for (decl, &done) in program.messages().iter().zip(&progress.words_done) {
            front[decl.sender().index()] += done;
            front[decl.receiver().index()] += done;
        }
        Fronts {
            front,
            ready: Vec::new(),
            queued: vec![false; program.num_messages()],
            touched: program.cell_ids().collect(),
        }
    }

    /// The first uncrossed op of `cell`, if any remains.
    fn front_op(&self, program: &Program, cell: CellId) -> Option<Op> {
        program
            .cell(cell)
            .ops()
            .get(self.front[cell.index()])
            .copied()
    }

    /// Adds to the ready set the messages now executable at the touched
    /// cells' fronts: a front op is its message's write or read, so the
    /// message is executable when its other cell's front op pairs with it.
    fn refresh(&mut self, progress: &Progress<'_>) {
        let program = progress.program;
        for i in 0..self.touched.len() {
            let cell = self.touched[i];
            #[cfg(test)]
            FRONTS_EXAMINED.with(|v| v.set(v.get() + 1));
            let Some(op) = self.front_op(program, cell) else {
                continue;
            };
            let m = op.message();
            if self.queued[m.index()] {
                continue;
            }
            let decl = program.message(m);
            let other = if op.is_write() {
                decl.receiver()
            } else {
                decl.sender()
            };
            if self
                .front_op(program, other)
                .is_some_and(|front| front.pairs_with(op))
            {
                self.queued[m.index()] = true;
                let key = progress.key(m);
                let at = self.ready.partition_point(|k| *k > key);
                self.ready.insert(at, key);
            }
        }
        self.touched.clear();
    }

    /// Moves a queued message's key from `old` to `new`.
    fn rekey(&mut self, old: ReadyKey, new: ReadyKey) {
        if !self.queued[old.2.index()] {
            return;
        }
        let at = self.ready.partition_point(|k| *k > old);
        debug_assert_eq!(self.ready[at], old, "a queued message is in the set");
        self.ready.remove(at);
        let at = self.ready.partition_point(|k| *k > new);
        self.ready.insert(at, new);
    }

    /// Removes the first executable message and builds its pair from the
    /// two fronts.
    fn take_first(&mut self, progress: &Progress<'_>) -> Option<Pair> {
        let (_, _, m) = self.ready.pop()?;
        self.queued[m.index()] = false;
        let decl = progress.program.message(m);
        Some(Pair {
            message: m,
            word: progress.words_done[m.index()],
            write_pos: self.front[decl.sender().index()],
            read_pos: self.front[decl.receiver().index()],
            skipped: BTreeMap::new(),
        })
    }

    /// Steps both of a crossed pair's cells past the ops it crossed.
    fn crossed(&mut self, pair: &Pair, cells: [CellId; 2]) {
        debug_assert_eq!(
            [pair.write_pos, pair.read_pos],
            cells.map(|c| self.front[c.index()]),
            "only front ops are crossed"
        );
        for cell in cells {
            self.front[cell.index()] += 1;
            self.touched.push(cell);
        }
    }
}

/// The ready set when some message may have writes skipped.
///
/// A cell can locate an op only inside its *window*: the uncrossed ops
/// from its front up to the first read, or up to the write whose skip
/// would exceed its message's R2 budget (both inclusive). Crossing an op
/// only ever extends a window, so after a cross the set is stale only for
/// the crossed message and for the messages with an op in a touched
/// cell's window. Windows are walked a run of repeated ops at a time.
struct Windows<'p> {
    limits: &'p LookaheadLimits,
    /// Per cell: its program as runs of one repeated op.
    runs: Vec<Vec<Run>>,
    /// Per cell: index of the first run with an uncrossed op.
    front: Vec<usize>,
    /// Every executable pair, current as of the last refresh.
    ready: BTreeMap<ReadyKey, Pair>,
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

impl<'p> Windows<'p> {
    /// Splits every cell program into runs and queues every message for
    /// the first refresh.
    fn new(progress: &Progress<'_>, limits: &'p LookaheadLimits) -> Self {
        let program = progress.program;
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
        let mut windows = Windows {
            limits,
            front: vec![0; runs.len()],
            runs,
            ready: BTreeMap::new(),
            stale: program.message_ids().collect(),
            touched: Vec::new(),
            stale_mark: vec![true; messages],
            touched_mark: vec![false; program.num_cells()],
            window: Vec::new(),
        };
        for cell in program.cell_ids() {
            windows.advance_front(progress, cell);
        }
        windows
    }

    /// The first uncrossed op of `cell` and its position, if any remains.
    fn front_op(&self, progress: &Progress<'_>, cell: CellId) -> Option<(usize, Op)> {
        let run = self.runs[cell.index()].get(self.front[cell.index()])?;
        Some((run.start + crossed_in(progress, run), run.op))
    }

    /// Moves a pair from key `old` to key `new`.
    fn rekey(&mut self, old: ReadyKey, new: ReadyKey) {
        if let Some(pair) = self.ready.remove(&old) {
            self.ready.insert(new, pair);
        }
    }

    /// Re-examines every stale message: the ones crossed and the ones with
    /// an op in a touched cell's window.
    fn refresh(&mut self, progress: &Progress<'_>) {
        for i in 0..self.touched.len() {
            let cell = self.touched[i];
            self.touched_mark[cell.index()] = false;
            let mut window = std::mem::take(&mut self.window);
            self.scan(progress, cell, |op| {
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
            let key = progress.key(m);
            match self.executable_pair(progress, m) {
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
    fn executable_pair(&self, progress: &Progress<'_>, m: MessageId) -> Option<Pair> {
        if progress.pending(m) == 0 {
            return None;
        }
        let decl = progress.program.message(m);
        // The read must end the receiver's window, so most probes fail on
        // this side first.
        let r = self.locate(progress, decl.receiver(), Op::read(m))?;
        let w = self.locate(progress, decl.sender(), Op::write(m))?;
        let mut skipped = w.skipped;
        for (msg, n) in r.skipped {
            *skipped.entry(msg).or_insert(0) += n;
        }
        Some(Pair {
            message: m,
            word: progress.words_done[m.index()],
            write_pos: w.pos,
            read_pos: r.pos,
            skipped,
        })
    }

    /// Scans `cell`'s program from its front for `target`, skipping only
    /// un-crossed *write* operations (rule R1) within the per-message budget
    /// (rule R2). Returns the position and the skip counts, or `None`.
    fn locate(&self, progress: &Progress<'_>, cell: CellId, target: Op) -> Option<Located> {
        self.scan(progress, cell, |op| op == target)
    }

    /// Walks `cell`'s window in program order, offering each run's op to
    /// `hit` (a run's uncrossed ops are all that op). Returns the first
    /// uncrossed position of the run `hit` accepted, with the writes
    /// skipped before it, or `None` once the window ends.
    fn scan(
        &self,
        progress: &Progress<'_>,
        cell: CellId,
        mut hit: impl FnMut(Op) -> bool,
    ) -> Option<Located> {
        let mut skipped: BTreeMap<MessageId, usize> = BTreeMap::new();
        for run in &self.runs[cell.index()][self.front[cell.index()]..] {
            #[cfg(test)]
            RUNS_VISITED.with(|v| v.set(v.get() + 1));
            let crossed = crossed_in(progress, run);
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
    fn advance_front(&mut self, progress: &Progress<'_>, cell: CellId) {
        let runs = &self.runs[cell.index()];
        let mut f = self.front[cell.index()];
        while f < runs.len() && crossed_in(progress, &runs[f]) == runs[f].len {
            f += 1;
        }
        self.front[cell.index()] = f;
    }

    /// Queues what a cross of `message` can change: the message itself and
    /// both of its cells' windows.
    fn crossed(&mut self, progress: &Progress<'_>, message: MessageId, cells: [CellId; 2]) {
        for cell in cells {
            self.advance_front(progress, cell);
            if !std::mem::replace(&mut self.touched_mark[cell.index()], true) {
                self.touched.push(cell);
            }
        }
        self.mark_stale(message);
    }
}

/// How many of `run`'s ops are crossed: its message's crossed ops in its
/// cell are the first `words_done` of them.
fn crossed_in(progress: &Progress<'_>, run: &Run) -> usize {
    progress.words_done[run.op.message().index()]
        .saturating_sub(run.ordinal)
        .min(run.len)
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

    /// Runs visited by [`Windows::scan`] and fronts examined by
    /// [`Fronts::refresh`] while `f` runs on this thread.
    fn work(f: impl FnOnce()) -> (usize, usize) {
        let read = || {
            (
                RUNS_VISITED.with(std::cell::Cell::get),
                FRONTS_EXAMINED.with(std::cell::Cell::get),
            )
        };
        let (runs, fronts) = read();
        f();
        let (runs_after, fronts_after) = read();
        (runs_after - runs, fronts_after - fronts)
    }

    /// Classifies and labels `p` under `limits`, returning the work each
    /// took.
    fn classify_and_label_work(p: &Program, limits: &LookaheadLimits) -> [(usize, usize); 2] {
        let classify = work(|| {
            let c = classify_with(p, limits);
            assert!(c.is_deadlock_free());
        });
        let label = work(|| {
            crate::label_messages(p, limits).unwrap();
        });
        [classify, label]
    }

    #[test]
    fn window_walk_work_is_linear_in_messages() {
        for n in [1024, 8192] {
            let p = chain(n);
            let limits = LookaheadLimits::disabled(&p);
            assert_eq!(
                with_window_walk(|| classify(&p)).trace().steps().len(),
                n,
                "one message per step"
            );
            let [(classify_runs, _), (label_runs, _)] =
                with_window_walk(|| classify_and_label_work(&p, &limits));
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
    fn front_path_examines_two_fronts_per_cross() {
        for n in [1024, 8192] {
            let p = chain(n);
            let limits = LookaheadLimits::disabled(&p);
            for (what, (runs, fronts)) in ["classify", "labeling"]
                .into_iter()
                .zip(classify_and_label_work(&p, &limits))
            {
                // Every cell once for the first refresh, then the two new
                // fronts of each of the n crosses.
                assert!(
                    fronts <= 2 * n + p.num_cells(),
                    "{what} examined {fronts} fronts for {n} crosses"
                );
                assert_eq!(runs, 0, "{what} walked a window");
            }
        }
    }

    #[test]
    fn budgets_alone_pick_the_path() {
        let p = p1();
        // All-zero tables take the front path, whoever built them.
        for limits in [
            LookaheadLimits::disabled(&p),
            LookaheadLimits::uniform(&p, 0),
            LookaheadLimits::from_table(vec![Some(0); p.num_messages()]),
        ] {
            let (runs, fronts) = work(|| drop(classify_with(&p, &limits)));
            assert!(fronts > 0 && runs == 0, "{limits:?}");
        }
        // One nonzero budget, or an unbounded one, walks windows.
        for limits in [
            LookaheadLimits::from_table(vec![Some(0), Some(1)]),
            LookaheadLimits::from_table(vec![None, Some(0)]),
            LookaheadLimits::uniform(&p, 2),
        ] {
            let (runs, fronts) = work(|| drop(classify_with(&p, &limits)));
            assert!(runs > 0 && fronts == 0, "{limits:?}");
        }
    }

    #[test]
    fn ranking_a_ready_message_moves_it_in_the_ready_set() {
        let p = parse_program(
            "cells 6\n\
             message X: c0 -> c1\n\
             message Y: c2 -> c3\n\
             message Z: c4 -> c5\n\
             program c0 { W(X) }\nprogram c1 { R(X) }\n\
             program c2 { W(Y) }\nprogram c3 { R(Y) }\n\
             program c4 { W(Z) }\nprogram c5 { R(Z) }\n",
        )
        .unwrap();
        let limits = LookaheadLimits::disabled(&p);
        let id = |name| p.message_id(name).unwrap();
        let order = || {
            let mut machine = Machine::new(&p, &limits);
            // All three are ready; unlabeled, they go in id order.
            let first = machine.take_first_ready().unwrap().message;
            // Labeled while ready, Z and then Y overtake what is left.
            machine.rank(id("Z"), Label::integer(1));
            machine.rank(id("Y"), Label::integer(2));
            let rest = std::iter::from_fn(|| machine.take_first_ready()).map(|pair| pair.message);
            std::iter::once(first).chain(rest).collect::<Vec<_>>()
        };
        let expected = vec![id("X"), id("Z"), id("Y")];
        assert_eq!(order(), expected);
        assert_eq!(with_window_walk(order), expected);
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

/// The front path held to the window walk on zero budgets: every output of
/// the procedure must be identical, on random programs small and mid-size,
/// deadlock-free by construction or perturbed into deadlock.
#[cfg(test)]
mod front_path_tests {
    use super::*;
    use crate::labeling::label_messages_assignments_only;
    use crate::{label_messages, CoreError, LabelingReport};
    use proptest::prelude::*;
    use systolic_model::{CellProgram, MessageDecl};
    use systolic_workloads::{random_program, scramble, swap_adjacent, RandomConfig};

    /// SplitMix64: the case's perturbation choices.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    fn rebuilt(program: &Program, messages: Vec<MessageDecl>, ops: Vec<Vec<Op>>) -> Program {
        let names = program
            .cell_ids()
            .map(|c| program.cell_name(c).to_owned())
            .collect();
        Program::new(
            names,
            messages,
            ops.into_iter().map(CellProgram::new).collect(),
        )
        .expect("balanced edits keep the program valid")
    }

    fn ops_of(program: &Program) -> Vec<Vec<Op>> {
        program.cells().iter().map(|c| c.ops().to_vec()).collect()
    }

    /// Splices a read-before-write cycle between two cells: each waits for
    /// the other's write, so the result is deadlocked.
    fn splice(program: &Program, s: &mut Stream) -> Program {
        let cells = program.num_cells();
        let a = s.below(cells);
        let b = (a + 1 + s.below(cells - 1)) % cells;
        let (a, b) = (CellId::new(a as u32), CellId::new(b as u32));
        let mut messages = program.messages().to_vec();
        let x = MessageId::new(messages.len() as u32);
        let y = MessageId::new(messages.len() as u32 + 1);
        messages.push(MessageDecl::new("X", a, b).unwrap());
        messages.push(MessageDecl::new("Y", b, a).unwrap());
        let mut ops = ops_of(program);
        for (cell, wait, send) in [(a, y, x), (b, x, y)] {
            let list = &mut ops[cell.index()];
            let at = s.below(list.len() + 1);
            list.splice(at..at, [Op::read(wait), Op::write(send)]);
        }
        rebuilt(program, messages, ops)
    }

    /// Appends `words` more words of random messages at cell tails.
    fn appended(program: &Program, s: &mut Stream, words: usize) -> Program {
        let mut ops = ops_of(program);
        for _ in 0..words {
            let m = MessageId::new(s.below(program.num_messages()) as u32);
            let decl = program.message(m);
            ops[decl.sender().index()].push(Op::write(m));
            ops[decl.receiver().index()].push(Op::read(m));
        }
        rebuilt(program, program.messages().to_vec(), ops)
    }

    /// A random program of kind `kind`: schedule-projected (deadlock-free),
    /// scrambled, with adjacent ops swapped, or with a deadlock spliced in.
    fn program(config: &RandomConfig, seed: u64, kind: usize, s: &mut Stream) -> Program {
        let base = random_program(config, seed).expect("random programs build");
        match kind {
            0 => base,
            1 => scramble(&base, seed),
            2 => (0..3).fold(base, |p, _| {
                let cell = s.below(p.num_cells());
                let pos = s.below(p.cells()[cell].len().max(1));
                swap_adjacent(&p, cell, pos).unwrap_or(p)
            }),
            _ => splice(&base, s),
        }
    }

    fn same_labeling(
        front: Result<LabelingReport, CoreError>,
        walk: Result<LabelingReport, CoreError>,
    ) -> Result<(), TestCaseError> {
        match (front, walk) {
            (Ok(front), Ok(walk)) => {
                prop_assert_eq!(front.labeling(), walk.labeling());
                prop_assert_eq!(front.assignment_order(), walk.assignment_order());
            }
            (Err(front), Err(walk)) => prop_assert_eq!(front, walk),
            (front, walk) => {
                prop_assert!(false, "labelings diverged: {front:?} against {walk:?}");
            }
        }
        Ok(())
    }

    /// Per message, the pairs a trace's steps cross: what its word counts
    /// must hold.
    fn words_in_steps(trace: &Trace, messages: usize) -> Vec<usize> {
        let mut words = vec![0; messages];
        for pair in trace.pairs() {
            words[pair.message.index()] += 1;
        }
        words
    }

    /// Every output of both paths on `program`, and on its run resumed
    /// after `extended`'s tail appends.
    fn paths_agree(program: &Program, extended: &Program) -> Result<(), TestCaseError> {
        let limits = LookaheadLimits::disabled(program);
        let front = classify_with(program, &limits);
        let walk = with_window_walk(|| classify_with(program, &limits));
        prop_assert_eq!(&front, &walk);
        prop_assert_eq!(
            &front.trace().words_done,
            &words_in_steps(front.trace(), program.num_messages())
        );
        same_labeling(
            label_messages(program, &limits),
            with_window_walk(|| label_messages(program, &limits)),
        )?;
        if front.is_deadlock_free() {
            same_labeling(
                label_messages_assignments_only(program, &limits),
                with_window_walk(|| label_messages_assignments_only(program, &limits)),
            )?;
        }

        let limits = LookaheadLimits::disabled(extended);
        let resumed = classify_resume(extended, &limits, front.trace().clone());
        let resumed_walk =
            with_window_walk(|| classify_resume(extended, &limits, walk.trace().clone()));
        prop_assert_eq!(&resumed, &resumed_walk);
        // Confluence: a resumed run crosses what a fresh one does and
        // stalls where it stalls. Its steps are the base run's followed by
        // its own, each once, so they agree with its word counts.
        let fresh = classify(extended);
        prop_assert_eq!(resumed.trace().total_pairs(), fresh.trace().total_pairs());
        prop_assert_eq!(&resumed.trace().words_done, &fresh.trace().words_done);
        prop_assert_eq!(
            &resumed.trace().words_done,
            &words_in_steps(resumed.trace(), extended.num_messages())
        );
        match (&resumed, &fresh) {
            (Classification::DeadlockFree(_), Classification::DeadlockFree(_)) => {}
            (
                Classification::Deadlocked { stuck: a, .. },
                Classification::Deadlocked { stuck: b, .. },
            ) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "resumed {a:?} against fresh {b:?}"),
        }
        Ok(())
    }

    fn check(
        config: RandomConfig,
        seed: u64,
        kind: usize,
        appends: usize,
    ) -> Result<(), TestCaseError> {
        let mut s = Stream(seed);
        let program = program(&config, seed, kind, &mut s);
        let extended = appended(&program, &mut s, appends);
        paths_agree(&program, &extended)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn small_programs_agree_on_both_paths(
            shape in (2usize..6, 1usize..8, 1usize..4, any::<bool>()),
            seed in 0u64..1_000_000,
            kind in 0usize..4,
            appends in 0usize..4,
        ) {
            let (cells, messages, max_words, clustered) = shape;
            let config = RandomConfig { cells, messages, max_words, max_span: 2, clustered };
            check(config, seed, kind, appends)?;
        }

        #[test]
        fn mid_size_programs_agree_on_both_paths(
            shape in (6usize..17, 8usize..41, 1usize..6, any::<bool>()),
            seed in 0u64..1_000_000,
            kind in 0usize..4,
            appends in 0usize..12,
        ) {
            let (cells, messages, max_words, clustered) = shape;
            let config = RandomConfig { cells, messages, max_words, max_span: 3, clustered };
            check(config, seed, kind, appends)?;
        }
    }

    /// The differential cases cover both verdicts and a labeling error, so
    /// agreement is not vacuous.
    #[test]
    fn the_corpus_reaches_every_outcome() {
        let mut free = 0;
        let mut deadlocked = 0;
        let mut wedged = 0;
        for seed in 0..200u64 {
            let config = RandomConfig {
                cells: 6,
                messages: 12,
                max_words: 3,
                max_span: 3,
                clustered: seed % 2 == 0,
            };
            let p = program(&config, seed, (seed % 4) as usize, &mut Stream(seed));
            let limits = LookaheadLimits::disabled(&p);
            if classify(&p).is_deadlock_free() {
                free += 1;
                wedged += usize::from(label_messages(&p, &limits).is_err());
            } else {
                deadlocked += 1;
            }
        }
        assert!(
            free > 0 && deadlocked > 0 && wedged > 0,
            "{free} {deadlocked} {wedged}"
        );
    }
}
