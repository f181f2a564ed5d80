//! The cycle-stepped simulation engine.
//!
//! Each cycle proceeds in three phases:
//!
//! 1. **assignment** — the queue needs that arose in the previous cycle
//!    are raised into the run's [`PendingRequests`] (a sender ready at a
//!    write whose first hop has no queue, in cell order; then a header
//!    word waiting at a hop with no queue, in message and hop order), and
//!    one grant pass hands the outstanding requests, oldest first, to the
//!    [`AssignmentPolicy`]. A need stays until granted, so each is raised
//!    once;
//! 2. **forwarding** — the transparent I/O processes move words one hop
//!    along each message's route ("transferring words through queues is
//!    transparent to cell programs", Section 2.3), visiting only messages
//!    with words before their last hop;
//! 3. **cells** — each cell attempts its current `R`/`W` operation against
//!    its queues, with latencies and memory-access counts from the
//!    [`CostModel`]. A word is readable from the cycle after it was
//!    written.
//!
//! The run ends when every cell finishes (**completed**), when a cycle
//! passes with no activity (**deadlocked** — the system is quiescent and
//! can never move again, since all conditions are monotone), or at the
//! configured cycle limit.
//!
//! # The arena
//!
//! A [`SimArena`] holds what a replay reads — the topology's cell count,
//! the [`SimConfig`] and the flat queue pool ([`QueuePools`]) — and the
//! run state: per-cell program counters, per-hop departure counters,
//! per-message transit counts and the pending requests, all in vectors
//! indexed by cell/message/hop ids. Between replays the run state is
//! **reset in place, not reallocated**, so N replays through one arena
//! perform one setup, not N. [`SimArena::run`] replays a program over the
//! routes it is given; [`run_simulation`] routes over the topology and
//! runs one fresh arena.

use systolic_model::{
    CellId, Hop, MessageId, MessageRoutes, ModelError, Op, Program, QueueId, Topology,
};

use crate::{
    AssignmentEvent, AssignmentPolicy, BlockReason, BlockedCell, CostModel, DeadlockReport,
    PendingRequests, QueueConfig, QueuePools, QueueSnapshot, RunStats, Word,
};

/// Simulation parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimConfig {
    /// Hardware queues per interval.
    pub queues_per_interval: usize,
    /// Configuration of every queue (capacity, extension).
    pub queue: QueueConfig,
    /// Cell execution cost model.
    pub cost: CostModel,
    /// Safety cap on simulated cycles.
    pub max_cycles: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            queues_per_interval: 1,
            queue: QueueConfig::default(),
            cost: CostModel::systolic(),
            max_cycles: 1_000_000,
        }
    }
}

/// How a run ended.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// Every cell completed its program.
    Completed(RunStats),
    /// The system quiesced with work remaining.
    Deadlocked {
        /// Statistics up to the stall.
        stats: RunStats,
        /// Full diagnosis.
        report: DeadlockReport,
    },
    /// `max_cycles` elapsed (livelock is impossible; this means the limit
    /// was set too low for the workload).
    CycleLimit(RunStats),
}

impl RunOutcome {
    /// `true` for [`RunOutcome::Completed`].
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed(_))
    }

    /// `true` for [`RunOutcome::Deadlocked`].
    #[must_use]
    pub fn is_deadlocked(&self) -> bool {
        matches!(self, RunOutcome::Deadlocked { .. })
    }

    /// The run statistics, however the run ended.
    #[must_use]
    pub fn stats(&self) -> &RunStats {
        match self {
            RunOutcome::Completed(s) | RunOutcome::CycleLimit(s) => s,
            RunOutcome::Deadlocked { stats, .. } => stats,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CellState {
    Ready,
    Busy {
        remaining: u64,
    },
    /// A latch write waits for its word to leave the first-hop queue.
    AwaitDeparture {
        message: MessageId,
        word: usize,
    },
    Done,
}

/// The reusable simulation state for one topology: the cell count, the
/// [`SimConfig`], the queue pools, and the per-cell, per-message and
/// per-hop run state and pending requests, all reset in place between
/// replays.
///
/// One arena serves any number of replays over its topology: call
/// [`SimArena::run`] (or [`SimArena::verify`]) once per replay. Queue
/// pools grow on demand via [`SimArena::ensure_queues`] and never shrink,
/// so replays whose plans need different queue counts still reuse one
/// allocation.
///
/// # Examples
///
/// ```
/// use systolic_sim::{GreedyPolicy, SimArena, SimConfig};
/// use systolic_model::{parse_program, MessageRoutes, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topology = Topology::linear(2);
/// let mut arena = SimArena::new(&topology, SimConfig::default());
/// let mut policy = GreedyPolicy::new();
/// for reps in 1..4 {
///     let program = parse_program(&format!(
///         "cells 2\nmessage A: c0 -> c1\nprogram c0 {{ W(A)*{reps} }}\nprogram c1 {{ R(A)*{reps} }}\n",
///     ))?;
///     let routes = MessageRoutes::compute(&program, &topology)?;
///     // Same arena, three replays: state is reset, not reallocated.
///     let outcome = arena.run(&program, &routes, &mut policy)?;
///     assert!(outcome.is_completed());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimArena {
    /// Cells of the topology; a replayed program must have as many.
    cells: usize,
    config: SimConfig,
    pools: QueuePools,
    // Per-cell state.
    pc: Vec<usize>,
    state: Vec<CellState>,
    /// Cells with non-empty programs — the only ones the cycle loops
    /// visit (a large fabric runs small programs: most cells are idle).
    active: Vec<u32>,
    /// Active cells not yet done; the run completes when it reaches 0.
    unfinished: usize,
    // Per-message state.
    words_written: Vec<usize>,
    /// Cycle tag (`cycle + 1`, 0 = never) of the last word each one-hop
    /// message's writer pushed. Each message has one writer and one
    /// reader, so this is the only word a reader may find in its queue
    /// that was not there when the cell phase began.
    written_at: Vec<u64>,
    /// Words of each message in queues before its last hop.
    in_transit: Vec<usize>,
    /// Bit set of the messages whose `in_transit` is nonzero: the only
    /// messages forwarding can move.
    in_flight: Vec<u64>,
    /// Hop table offsets: message `m`'s hops live at
    /// `hop_off[m]..hop_off[m + 1]` in the flat per-hop arrays.
    hop_off: Vec<usize>,
    /// Directed hop per (message, hop index), flattened.
    hops: Vec<Hop>,
    /// Interval-table index of each hop, flattened (parallel to `hops`).
    hop_iv: Vec<u32>,
    /// Words that have departed each hop's queue, flattened.
    departed: Vec<usize>,
    /// Outstanding queue requests, oldest first.
    pending: PendingRequests,
    /// Messages whose writer became ready at a write since the last
    /// assignment phase, in cell order (a need if its first hop has no
    /// queue).
    new_writes: Vec<MessageId>,
    /// `(message, flat hop k)` where a word entered hop `k − 1`'s queue
    /// since the last assignment phase while hop `k` had no queue.
    new_headers: Vec<(MessageId, usize)>,
    // Current-run accounting.
    stats: RunStats,
    cycle: u64,
}

impl SimArena {
    /// Builds the arena for `topology` under `config`, allocating queue
    /// pools for every interval of the topology.
    #[must_use]
    pub fn new(topology: &Topology, config: SimConfig) -> Self {
        let pools = QueuePools::uniform(
            topology.intervals().iter().copied(),
            config.queues_per_interval,
            config.queue,
        );
        SimArena {
            cells: topology.num_cells(),
            config,
            pools,
            pc: Vec::new(),
            state: Vec::new(),
            active: Vec::new(),
            unfinished: 0,
            words_written: Vec::new(),
            written_at: Vec::new(),
            in_transit: Vec::new(),
            in_flight: Vec::new(),
            hop_off: Vec::new(),
            hops: Vec::new(),
            hop_iv: Vec::new(),
            departed: Vec::new(),
            pending: PendingRequests::new(),
            new_writes: Vec::new(),
            new_headers: Vec::new(),
            stats: RunStats::default(),
            cycle: 0,
        }
    }

    /// Raises the queue pool to at least `queues_per_interval` queues on
    /// every interval (never shrinks). Call between replays when a plan
    /// needs more queues than the arena's configured floor.
    pub fn ensure_queues(&mut self, queues_per_interval: usize) {
        self.pools.ensure_queues_per_interval(queues_per_interval);
    }

    /// Replays `program` over `routes` under `policy`, resetting the
    /// arena's run state in place. The routes must have been computed
    /// over this arena's topology for this program: a certified plan's
    /// [`routes`](systolic_core::CommPlan::routes), or
    /// [`MessageRoutes::compute`].
    ///
    /// # Errors
    ///
    /// [`ModelError::CellCountMismatch`] if the program's cell count is
    /// not the topology's.
    ///
    /// # Panics
    ///
    /// Panics if `routes` does not cover exactly the program's messages or
    /// crosses an interval the topology does not have.
    pub fn run(
        &mut self,
        program: &Program,
        routes: &MessageRoutes,
        policy: &mut dyn AssignmentPolicy,
    ) -> Result<RunOutcome, ModelError> {
        if program.num_cells() != self.cells {
            return Err(ModelError::CellCountMismatch {
                program: program.num_cells(),
                topology: self.cells,
            });
        }
        assert_eq!(
            routes.len(),
            program.num_messages(),
            "routes must cover exactly the program's messages"
        );
        self.reset(program, routes);
        policy.begin_run();
        loop {
            if self.unfinished == 0 {
                self.finish_stats();
                return Ok(RunOutcome::Completed(std::mem::take(&mut self.stats)));
            }
            if self.cycle >= self.config.max_cycles {
                self.finish_stats();
                return Ok(RunOutcome::CycleLimit(std::mem::take(&mut self.stats)));
            }
            let mut activity = 0usize;
            activity += self.phase_assignment(policy);
            activity += self.phase_forwarding(program);
            activity += self.phase_cells(program);
            self.cycle += 1;
            if activity == 0 {
                self.finish_stats();
                let report = self.diagnose(program);
                return Ok(RunOutcome::Deadlocked {
                    stats: std::mem::take(&mut self.stats),
                    report,
                });
            }
        }
    }

    /// Clears all run state in place and rebuilds the per-message hop
    /// tables for this replay. No long-lived allocation is dropped; the
    /// flat vectors only grow to the batch's high-water mark.
    fn reset(&mut self, program: &Program, routes: &MessageRoutes) {
        let cells = program.num_cells();
        let msgs = program.num_messages();
        self.pools.reset_for(msgs);
        self.pc.clear();
        self.pc.resize(cells, 0);
        self.state.clear();
        self.state.extend(program.cells().iter().map(|cp| {
            if cp.is_empty() {
                CellState::Done
            } else {
                CellState::Ready
            }
        }));
        self.active.clear();
        self.active.extend(
            program
                .cells()
                .iter()
                .enumerate()
                .filter(|(_, cp)| !cp.is_empty())
                .map(|(i, _)| i as u32),
        );
        self.unfinished = self.active.len();
        self.words_written.clear();
        self.words_written.resize(msgs, 0);
        self.written_at.clear();
        self.written_at.resize(msgs, 0);
        self.in_transit.clear();
        self.in_transit.resize(msgs, 0);
        self.in_flight.clear();
        self.in_flight.resize(msgs.div_ceil(64), 0);
        self.hop_off.clear();
        self.hops.clear();
        self.hop_iv.clear();
        self.hop_off.push(0);
        for (_, route) in routes.iter() {
            for hop in route.hops() {
                let iv = self
                    .pools
                    .interval_index(hop.interval())
                    // lint: panic-ok(`run` documents the panic: its routes are computed over this topology)
                    .expect("route crosses an interval of the arena's topology");
                self.hops.push(hop);
                self.hop_iv.push(iv as u32);
            }
            self.hop_off.push(self.hops.len());
        }
        self.departed.clear();
        self.departed.resize(self.hops.len(), 0);
        self.pending.clear();
        self.new_headers.clear();
        self.new_writes.clear();
        for &i in &self.active {
            if let Some(op) = program.cells()[i as usize]
                .get(0)
                .filter(|op| op.is_write())
            {
                self.new_writes.push(op.message());
            }
        }
        self.stats = RunStats::new(cells);
        self.cycle = 0;
    }

    fn finish_stats(&mut self) {
        self.stats.cycles = self.cycle;
        self.stats.queue_high_water = self
            .pools
            .iter()
            .map(|(id, q)| (id, q.high_water()))
            .collect();
    }

    /// Raises the needs that arose in the previous cycle and runs one
    /// grant pass.
    fn phase_assignment(&mut self, policy: &mut dyn AssignmentPolicy) -> usize {
        // Senders stalled on their first hop, in cell order.
        for &m in &self.new_writes {
            let hop = self.hops[self.hop_off[m.index()]];
            self.pending.raise(&self.pools, m, hop);
        }
        self.new_writes.clear();
        // Headers waiting at intermediate hops, in message and hop order.
        self.new_headers.sort_unstable();
        self.new_headers.dedup();
        for &(m, k) in &self.new_headers {
            self.pending.raise(&self.pools, m, self.hops[k]);
        }
        self.new_headers.clear();

        let grants = self.pending.grant_pass(policy, &mut self.pools);
        for g in &grants {
            self.stats.grants += 1;
            self.stats.assignment_events.push(AssignmentEvent {
                cycle: self.cycle,
                queue: QueueId::new(g.hop.interval(), g.queue as u32),
                message: g.message,
                granted: true,
            });
        }
        grants.len()
    }

    /// Moves words one hop along their routes: messages with words before
    /// their last hop, in id order.
    fn phase_forwarding(&mut self, program: &Program) -> usize {
        let mut moves = 0;
        for w in 0..self.in_flight.len() {
            let mut bits = self.in_flight[w];
            while bits != 0 {
                let m = MessageId::new((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
                moves += self.forward(program, m);
            }
        }
        moves
    }

    /// Moves `m`'s words one hop along its route, downstream hops first.
    fn forward(&mut self, program: &Program, m: MessageId) -> usize {
        let mut moves = 0;
        let (start, end) = (self.hop_off[m.index()], self.hop_off[m.index() + 1]);
        for k in (start + 1..end).rev() {
            let src_iv = self.hop_iv[k - 1] as usize;
            let dst_iv = self.hop_iv[k] as usize;
            let Some(src_q) = self.pools.live_at(m, src_iv) else {
                continue;
            };
            let Some(dst_q) = self.pools.live_at(m, dst_iv) else {
                continue;
            };
            if self.pools.queue_at(src_iv, src_q).front().is_none() {
                continue;
            }
            if !self.pools.queue_at(dst_iv, dst_q).can_accept() {
                continue;
            }
            let word = self.pools.queue_at_mut(src_iv, src_q).pop();
            let spilled = self.pools.queue_at_mut(dst_iv, dst_q).push(word);
            if spilled {
                self.stats.spill_accesses += 2;
            }
            self.stats.words_forwarded += 1;
            moves += 1;
            if k + 1 == end {
                self.in_transit[m.index()] -= 1;
                if self.in_transit[m.index()] == 0 {
                    self.in_flight[m.index() / 64] &= !(1 << (m.index() % 64));
                }
            } else {
                self.note_header(m, k + 1);
            }
            self.note_departure(program, m, k - 1);
        }
        moves
    }

    /// A word of `m` entered the queue of flat hop `k − 1`: hop `k` needs
    /// a queue unless it has had one.
    fn note_header(&mut self, m: MessageId, k: usize) {
        if !self.pools.has_granted_at(m, self.hop_iv[k] as usize) {
            self.new_headers.push((m, k));
        }
    }

    /// Records that a word of `m` left the queue at flat hop index
    /// `flat_k`, releasing the queue after the message's last word has
    /// passed it.
    fn note_departure(&mut self, program: &Program, m: MessageId, flat_k: usize) {
        self.departed[flat_k] += 1;
        if self.departed[flat_k] == program.word_count(m) {
            let iv = self.hop_iv[flat_k] as usize;
            let queue = self
                .pools
                .live_at(m, iv)
                .expect("departing message holds the queue"); // lint: panic-ok(departure follows a grant; pool corruption otherwise)
            let interval = self.pools.interval_at(iv);
            self.pools.release(m, interval);
            self.stats.assignment_events.push(AssignmentEvent {
                cycle: self.cycle,
                queue: QueueId::new(interval, queue as u32),
                message: m,
                granted: false,
            });
        }
    }

    /// Each cell attempts its current operation, in cell order.
    fn phase_cells(&mut self, program: &Program) -> usize {
        let mut activity = 0;
        for idx in 0..self.active.len() {
            let i = self.active[idx] as usize;
            let cell = CellId::new(i as u32);
            let acted = match self.state[i] {
                CellState::Done => false,
                CellState::Busy { remaining } => {
                    self.stats.busy_cycles[i] += 1;
                    self.state[i] = if remaining > 1 {
                        CellState::Busy {
                            remaining: remaining - 1,
                        }
                    } else {
                        CellState::Ready
                    };
                    true
                }
                CellState::AwaitDeparture { message, word } => {
                    if self.departed[self.hop_off[message.index()]] > word {
                        // The latch released our word: the write completes.
                        self.pc[i] += 1;
                        self.state[i] = CellState::Ready;
                        true
                    } else {
                        self.stats.blocked_cycles[i] += 1;
                        false
                    }
                }
                CellState::Ready => match program.cell(cell).get(self.pc[i]) {
                    Some(op) => self.attempt_op(program, cell, op),
                    None => true,
                },
            };
            if acted {
                activity += 1;
                self.settle(program, cell);
            }
        }
        activity
    }

    /// After a cell acted: a ready cell past its last op is done, and one
    /// now at a write is noted for the next assignment phase.
    fn settle(&mut self, program: &Program, cell: CellId) {
        let i = cell.index();
        if !matches!(self.state[i], CellState::Ready) {
            return;
        }
        match program.cell(cell).get(self.pc[i]) {
            None => {
                self.state[i] = CellState::Done;
                self.unfinished -= 1;
            }
            Some(op) if op.is_write() => self.new_writes.push(op.message()),
            Some(_) => {}
        }
    }

    /// Attempts `op` for `cell`; returns whether it completed (or, for a
    /// latch write, started).
    fn attempt_op(&mut self, program: &Program, cell: CellId, op: Op) -> bool {
        let i = cell.index();
        let m = op.message();
        let cost = self.config.cost;
        let last = self.hop_off[m.index() + 1] - 1;
        if op.is_write() {
            let h0 = self.hop_off[m.index()];
            let iv = self.hop_iv[h0] as usize;
            let Some(q) = self.pools.live_at(m, iv) else {
                self.stats.blocked_cycles[i] += 1;
                return false;
            };
            if !self.pools.queue_at(iv, q).can_accept() {
                self.stats.blocked_cycles[i] += 1;
                return false;
            }
            let word = Word {
                message: m,
                index: self.words_written[m.index()],
            };
            self.words_written[m.index()] += 1;
            let spilled = self.pools.queue_at_mut(iv, q).push(word);
            if spilled {
                self.stats.spill_accesses += 2;
            }
            if h0 == last {
                self.written_at[m.index()] = self.cycle + 1;
            } else {
                self.in_transit[m.index()] += 1;
                self.in_flight[m.index() / 64] |= 1 << (m.index() % 64);
                self.note_header(m, h0 + 1);
            }
            self.stats.memory_accesses += cost.write_mem_accesses;
            self.stats.busy_cycles[i] += 1;
            if self.pools.queue_at(iv, q).config().capacity == 0 {
                // Latch semantics: the write completes only when the word
                // departs (Section 3.2).
                self.state[i] = CellState::AwaitDeparture {
                    message: m,
                    word: word.index,
                };
            } else {
                self.pc[i] += 1;
                let latency = cost.write_latency();
                if latency > 1 {
                    self.state[i] = CellState::Busy {
                        remaining: latency - 1,
                    };
                }
            }
            true
        } else {
            let iv = self.hop_iv[last] as usize;
            let Some(q) = self.pools.live_at(m, iv) else {
                self.stats.blocked_cycles[i] += 1;
                return false;
            };
            // Lock step: the word written in this very cycle is not yet
            // readable.
            let fresh = usize::from(self.written_at[m.index()] == self.cycle + 1);
            if self.pools.queue_at(iv, q).occupancy() <= fresh {
                self.stats.blocked_cycles[i] += 1;
                return false;
            }
            let word = self.pools.queue_at_mut(iv, q).pop();
            debug_assert_eq!(word.message, m, "queue serves one message at a time");
            self.stats.words_delivered += 1;
            self.stats.memory_accesses += cost.read_mem_accesses;
            self.stats.busy_cycles[i] += 1;
            self.note_departure(program, m, last);
            self.pc[i] += 1;
            let latency = cost.read_latency();
            if latency > 1 {
                self.state[i] = CellState::Busy {
                    remaining: latency - 1,
                };
            }
            true
        }
    }

    /// Builds the deadlock report for the current (quiescent) state.
    fn diagnose(&self, program: &Program) -> DeadlockReport {
        let mut blocked = Vec::new();
        let queue_id = |iv: usize, q: usize| QueueId::new(self.pools.interval_at(iv), q as u32);
        for cell in program.cell_ids() {
            let i = cell.index();
            let Some(op) = program.cell(cell).get(self.pc[i]) else {
                continue;
            };
            let m = op.message();
            let reason = match self.state[i] {
                CellState::AwaitDeparture { message, word } => {
                    let h0 = self.hop_off[message.index()];
                    let iv = self.hop_iv[h0] as usize;
                    let q = self
                        .pools
                        .live_at(message, iv)
                        .expect("latch holds assignment"); // lint: panic-ok(latched set is rebuilt each step from live grants)
                    BlockReason::AwaitingDeparture {
                        queue: queue_id(iv, q),
                        word,
                    }
                }
                _ if op.is_write() => {
                    let h0 = self.hop_off[m.index()];
                    let iv = self.hop_iv[h0] as usize;
                    match self.pools.live_at(m, iv) {
                        None => BlockReason::NoQueueAssigned { hop: self.hops[h0] },
                        Some(q) => BlockReason::QueueFull {
                            queue: queue_id(iv, q),
                        },
                    }
                }
                _ => {
                    let last = self.hop_off[m.index() + 1] - 1;
                    let iv = self.hop_iv[last] as usize;
                    match self.pools.live_at(m, iv) {
                        None => BlockReason::NoQueueAssigned {
                            hop: self.hops[last],
                        },
                        Some(q) => BlockReason::QueueEmpty {
                            queue: queue_id(iv, q),
                        },
                    }
                }
            };
            blocked.push(BlockedCell {
                cell,
                pc: self.pc[i],
                op,
                reason,
            });
        }
        let queues = self
            .pools
            .iter()
            .map(|(id, q)| QueueSnapshot {
                id,
                assigned: q.assigned(),
                occupancy: q.occupancy(),
                departed: q.departed(),
            })
            .collect();
        DeadlockReport {
            cycle: self.cycle,
            blocked,
            queues,
        }
    }
}

/// Runs `program` once over `topology` under `policy`: routes from
/// [`MessageRoutes::compute`], then one fresh [`SimArena`]. Repeated
/// replays reuse one arena instead.
///
/// # Errors
///
/// Cell-count mismatches and routing failures from
/// [`MessageRoutes::compute`].
pub fn run_simulation(
    program: &Program,
    topology: &Topology,
    mut policy: Box<dyn AssignmentPolicy>,
    config: SimConfig,
) -> Result<RunOutcome, ModelError> {
    let routes = MessageRoutes::compute(program, topology)?;
    SimArena::new(topology, config).run(program, &routes, policy.as_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompatiblePolicy, FifoPolicy, GreedyPolicy, StaticPolicy};
    use systolic_core::{AnalysisConfig, Analyzer, Lookahead};
    use systolic_model::parse_program;
    use systolic_workloads as wl;

    fn buffered(queues: usize, capacity: usize) -> SimConfig {
        SimConfig {
            queues_per_interval: queues,
            queue: QueueConfig {
                capacity,
                extension: false,
            },
            ..Default::default()
        }
    }

    fn compatible_policy(
        program: &Program,
        topology: &Topology,
        queues: usize,
        lookahead: Lookahead,
    ) -> Box<dyn AssignmentPolicy> {
        let config = AnalysisConfig {
            queues_per_interval: queues,
            lookahead,
        };
        let plan = Analyzer::for_topology(topology, &config)
            .analyze(program)
            .expect("analysis succeeds")
            .into_plan();
        Box::new(CompatiblePolicy::new(plan))
    }

    #[test]
    fn single_transfer_completes() {
        let p = parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
        )
        .unwrap();
        let out = run_simulation(
            &p,
            &Topology::linear(2),
            Box::new(GreedyPolicy::new()),
            buffered(1, 1),
        )
        .unwrap();
        let RunOutcome::Completed(stats) = out else {
            panic!("expected completion")
        };
        assert_eq!(stats.words_delivered, 1);
        assert_eq!(stats.memory_accesses, 0, "systolic model touches no memory");
        assert!(stats.cycles >= 2, "at least one cycle of queue latency");
    }

    #[test]
    fn fig2_fir_completes_with_one_queue_per_direction() {
        // All FIR messages share one label; each interval carries one
        // message per direction, so 2 queues per interval suffice.
        let p = wl::fig2_fir();
        let t = wl::fig2_topology();
        let policy = compatible_policy(&p, &t, 2, Lookahead::Disabled);
        let out = run_simulation(&p, &t, policy, buffered(2, 1)).unwrap();
        assert!(out.is_completed(), "FIR must complete: {out:?}");
        assert_eq!(out.stats().words_delivered, 15);
    }

    #[test]
    fn fig5_p2_deadlocks_on_latches_but_completes_buffered() {
        // P2: both cells write first. With latch queues (capacity 0) the
        // writes never complete (Section 3.2); with 1 word of buffering the
        // run finishes (Section 8 + lookahead classification).
        let p = wl::fig5_p2();
        let t = Topology::linear(2);
        let latch = run_simulation(&p, &t, Box::new(GreedyPolicy::new()), buffered(2, 0)).unwrap();
        assert!(latch.is_deadlocked(), "P2 deadlocks on latches");

        let buf = run_simulation(&p, &t, Box::new(GreedyPolicy::new()), buffered(2, 1)).unwrap();
        assert!(buf.is_completed(), "P2 completes with buffering");
    }

    #[test]
    fn fig5_p1_needs_two_words_of_buffering_and_two_queues() {
        let p = wl::fig5_p1();
        let t = Topology::linear(2);
        // Capacity 1: deadlocked (C1 blocks on its second W(A)).
        let out = run_simulation(&p, &t, Box::new(GreedyPolicy::new()), buffered(2, 1)).unwrap();
        assert!(out.is_deadlocked());
        // Capacity 2, separate queues for A and B: completes (Fig. 10).
        let out = run_simulation(&p, &t, Box::new(GreedyPolicy::new()), buffered(2, 2)).unwrap();
        assert!(out.is_completed());
        // Capacity 2 but a single queue: A fills it and B can never pass.
        let out = run_simulation(&p, &t, Box::new(GreedyPolicy::new()), buffered(1, 2)).unwrap();
        assert!(out.is_deadlocked());
    }

    #[test]
    fn fig5_p3_deadlocks_no_matter_what() {
        let p = wl::fig5_p3();
        let t = Topology::linear(2);
        for (queues, cap) in [(1, 0), (2, 1), (4, 16)] {
            let out = run_simulation(&p, &t, Box::new(GreedyPolicy::new()), buffered(queues, cap))
                .unwrap();
            assert!(
                out.is_deadlocked(),
                "P3 must deadlock with {queues} queues cap {cap}"
            );
        }
    }

    #[test]
    fn fig6_cycle_completes() {
        let p = wl::fig6_cycle();
        let t = wl::fig6_topology();
        let out = run_simulation(&p, &t, Box::new(GreedyPolicy::new()), buffered(1, 1)).unwrap();
        assert!(
            out.is_completed(),
            "message cycles are not deadlocks: {out:?}"
        );
    }

    #[test]
    fn fig7_fifo_deadlocks_compatible_completes() {
        let p = wl::fig7(3);
        let t = wl::fig7_topology();
        let naive = run_simulation(&p, &t, Box::new(FifoPolicy::new()), buffered(1, 1)).unwrap();
        let RunOutcome::Deadlocked { report, .. } = naive else {
            panic!("fifo policy must deadlock on Fig. 7")
        };
        // The deadlock is queue-induced: someone waits for an assignment.
        assert!(!report.assignment_waiters().is_empty(), "{report}");

        let policy = compatible_policy(&p, &t, 1, Lookahead::Disabled);
        let safe = run_simulation(&p, &t, policy, buffered(1, 1)).unwrap();
        assert!(
            safe.is_completed(),
            "compatible assignment completes Fig. 7"
        );
    }

    #[test]
    fn fig8_one_queue_deadlocks_two_complete() {
        let p = wl::fig8();
        let t = wl::fig8_topology();
        let one = run_simulation(&p, &t, Box::new(FifoPolicy::new()), buffered(1, 1)).unwrap();
        assert!(one.is_deadlocked(), "Fig. 8 with one queue deadlocks");

        // Two queues: even the naive policies complete.
        for policy in [
            Box::new(FifoPolicy::new()) as Box<dyn AssignmentPolicy>,
            Box::new(GreedyPolicy::new()),
        ] {
            let out = run_simulation(&p, &t, policy, buffered(2, 1)).unwrap();
            assert!(out.is_completed(), "Fig. 8 with two queues completes");
        }
        // And the compatible policy (which reserves both queues at once).
        let policy = compatible_policy(&p, &t, 2, Lookahead::Disabled);
        let out = run_simulation(&p, &t, policy, buffered(2, 1)).unwrap();
        assert!(out.is_completed());
    }

    #[test]
    fn fig9_one_queue_deadlocks_static_two_completes() {
        let p = wl::fig9();
        let t = wl::fig9_topology();
        let one = run_simulation(&p, &t, Box::new(GreedyPolicy::new()), buffered(1, 1)).unwrap();
        assert!(one.is_deadlocked(), "Fig. 9 with one queue deadlocks");

        // Paper: two queues, A and B statically separated => no deadlock.
        let config = AnalysisConfig {
            queues_per_interval: 2,
            ..Default::default()
        };
        let plan = Analyzer::for_topology(&t, &config)
            .analyze(&p)
            .unwrap()
            .into_plan();
        let static_policy = StaticPolicy::new(&plan, 2).unwrap();
        let out = run_simulation(&p, &t, Box::new(static_policy), buffered(2, 1)).unwrap();
        assert!(out.is_completed());
    }

    #[test]
    fn mem2mem_costs_four_accesses_per_updated_word() {
        let p = parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A)*4 }\nprogram c1 { R(A)*4 }\n",
        )
        .unwrap();
        let config = SimConfig {
            cost: CostModel::memory_to_memory(),
            ..buffered(1, 1)
        };
        let out = run_simulation(
            &p,
            &Topology::linear(2),
            Box::new(GreedyPolicy::new()),
            config,
        )
        .unwrap();
        let RunOutcome::Completed(stats) = out else {
            panic!("expected completion")
        };
        // 4 words x (2 accesses on write + 2 on read).
        assert_eq!(stats.memory_accesses, 16);
        assert_eq!(stats.accesses_per_word(), 4.0);

        let systolic = run_simulation(
            &p,
            &Topology::linear(2),
            Box::new(GreedyPolicy::new()),
            buffered(1, 1),
        )
        .unwrap();
        assert_eq!(systolic.stats().memory_accesses, 0);
        assert!(
            systolic.stats().cycles < stats.cycles,
            "systolic is faster: {} vs {}",
            systolic.stats().cycles,
            stats.cycles
        );
    }

    #[test]
    fn queue_extension_rescues_p1_with_small_queues() {
        // P1 needs 2 words of buffering; with capacity 1 + extension the
        // overflow spills to memory and the run completes (Section 8.1's
        // queue-extension mechanism), at a measurable spill cost.
        let p = wl::fig5_p1();
        let t = Topology::linear(2);
        let config = SimConfig {
            queues_per_interval: 2,
            queue: QueueConfig {
                capacity: 1,
                extension: true,
            },
            ..Default::default()
        };
        let out = run_simulation(&p, &t, Box::new(GreedyPolicy::new()), config).unwrap();
        let RunOutcome::Completed(stats) = out else {
            panic!("expected completion: {out:?}")
        };
        assert!(stats.spill_accesses > 0, "extension must have been used");
    }

    #[test]
    fn multi_hop_message_is_forwarded() {
        let p = parse_program(
            "cells 4\nmessage A: c0 -> c3\nprogram c0 { W(A)*2 }\nprogram c3 { R(A)*2 }\n\
             program c1 { }\nprogram c2 { }\n",
        )
        .unwrap();
        let out = run_simulation(
            &p,
            &Topology::linear(4),
            Box::new(GreedyPolicy::new()),
            buffered(1, 1),
        )
        .unwrap();
        let RunOutcome::Completed(stats) = out else {
            panic!("expected completion")
        };
        // 2 words x 2 intermediate hops.
        assert_eq!(stats.words_forwarded, 4);
        assert_eq!(stats.words_delivered, 2);
    }

    /// Lock-step read rule: a word a one-hop writer pushes is readable
    /// only from the next cycle on, so the same transfer takes a different
    /// number of cycles when the writer is stepped before its reader (c0
    /// writes) than after it (c1 writes).
    #[test]
    fn one_hop_reads_see_only_words_written_in_earlier_cycles() {
        let run = |writer: usize, capacity: usize| {
            let reader = 1 - writer;
            let p = parse_program(&format!(
                "cells 2\nmessage A: c{writer} -> c{reader}\n\
                 program c{writer} {{ W(A)*3 }}\nprogram c{reader} {{ R(A)*3 }}\n"
            ))
            .unwrap();
            let out = run_simulation(
                &p,
                &Topology::linear(2),
                Box::new(GreedyPolicy::new()),
                buffered(1, capacity),
            )
            .unwrap();
            let RunOutcome::Completed(stats) = out else {
                panic!("expected completion: {out:?}")
            };
            (stats.cycles, stats.blocked_cycles)
        };
        // (capacity, writer at c0, writer at c1): cycles, blocked c0/c1.
        let expected = [
            (0, (9, [3, 5]), (6, [3, 0])),
            (1, (6, [2, 3]), (4, [1, 0])),
            (2, (4, [0, 1]), (4, [1, 0])),
        ];
        for (capacity, (c0_cycles, c0_blocked), (c1_cycles, c1_blocked)) in expected {
            assert_eq!(
                run(0, capacity),
                (c0_cycles, c0_blocked.to_vec()),
                "writer first, capacity {capacity}"
            );
            assert_eq!(
                run(1, capacity),
                (c1_cycles, c1_blocked.to_vec()),
                "reader first, capacity {capacity}"
            );
        }
    }

    #[test]
    fn cycle_limit_is_reported() {
        let p = parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A)*100 }\nprogram c1 { R(A)*100 }\n",
        )
        .unwrap();
        let config = SimConfig {
            max_cycles: 5,
            ..buffered(1, 1)
        };
        let out = run_simulation(
            &p,
            &Topology::linear(2),
            Box::new(GreedyPolicy::new()),
            config,
        )
        .unwrap();
        assert!(matches!(out, RunOutcome::CycleLimit(_)));
    }

    #[test]
    fn deadlock_report_names_holder_and_waiter() {
        let p = wl::fig7(2);
        let t = wl::fig7_topology();
        let out = run_simulation(&p, &t, Box::new(FifoPolicy::new()), buffered(1, 1)).unwrap();
        let RunOutcome::Deadlocked { report, .. } = out else {
            panic!("must deadlock")
        };
        let text = report.to_string();
        assert!(text.contains("held by"), "{text}");
        assert!(text.contains("waiting for a queue"), "{text}");
    }

    #[test]
    fn blocked_and_busy_cycles_are_tracked() {
        let p = wl::fig7(3);
        let t = wl::fig7_topology();
        let policy = compatible_policy(&p, &t, 1, Lookahead::Disabled);
        let out = run_simulation(&p, &t, policy, buffered(1, 1)).unwrap();
        let RunOutcome::Completed(stats) = out else {
            panic!("expected completion")
        };
        // c4 (reader of C then B) must have been blocked at some point while
        // C crossed three intervals.
        assert!(stats.total_blocked() > 0);
        assert!(stats.busy(CellId::new(3)) > 0);
        assert!(
            stats.grants >= 5,
            "A, B and C each secure queues along their routes"
        );
    }

    #[test]
    fn empty_program_completes_immediately() {
        let p = systolic_model::ProgramBuilder::new(3).build().unwrap();
        let out = run_simulation(
            &p,
            &Topology::linear(3),
            Box::new(GreedyPolicy::new()),
            buffered(1, 1),
        )
        .unwrap();
        let RunOutcome::Completed(stats) = out else {
            panic!("expected completion")
        };
        assert_eq!(stats.words_delivered, 0);
    }

    #[test]
    fn workload_generators_run_to_completion() {
        // A smoke sweep: every generator's output completes under the
        // compatible policy with generous queues.
        let cases: Vec<(Program, Topology)> = vec![
            (wl::fir(4, 8).unwrap(), wl::fir_topology(4)),
            (wl::matvec(4).unwrap(), wl::matvec_topology(4)),
            (wl::odd_even_sort(4, 4).unwrap(), wl::sort_topology(4)),
            (wl::seq_align(3, 4).unwrap(), wl::seq_align_topology(3)),
            (wl::horner(3, 3).unwrap(), wl::horner_topology(3)),
            (wl::token_ring(4, 2).unwrap(), wl::ring_topology(4)),
            (wl::mesh_matmul(2, 3, 3).unwrap(), wl::matmul_topology(2, 3)),
            (
                wl::wavefront(3, 3, 2).unwrap(),
                wl::wavefront_topology(3, 3),
            ),
        ];
        for (program, topology) in cases {
            let config = AnalysisConfig {
                queues_per_interval: 8,
                ..Default::default()
            };
            let analysis = Analyzer::for_topology(&topology, &config)
                .analyze(&program)
                .expect("workloads are deadlock-free");
            let policy = Box::new(CompatiblePolicy::new(analysis.into_plan()));
            let out = run_simulation(&program, &topology, policy, buffered(8, 2)).unwrap();
            assert!(out.is_completed(), "workload failed: {out:?}");
        }
    }
}

#[cfg(test)]
mod arena_tests {
    use super::*;
    use crate::{CompatiblePolicy, GreedyPolicy};
    use systolic_core::{AnalysisConfig, Analyzer};
    use systolic_model::parse_program;
    use systolic_workloads as wl;

    fn routed(program: &Program, topology: &Topology) -> MessageRoutes {
        MessageRoutes::compute(program, topology).unwrap()
    }

    /// Replaying through one arena must be bit-identical to fresh
    /// one-shot simulations — for completions and for deadlocks.
    #[test]
    fn arena_replays_match_one_shot_runs() {
        let cases: Vec<(Program, Topology, usize)> = vec![
            (wl::fig7(3), wl::fig7_topology(), 1),
            (wl::fig7(2), wl::fig7_topology(), 1),
            (wl::fig7(5), wl::fig7_topology(), 1),
        ];
        let config = SimConfig::default();
        let mut arena = SimArena::new(&wl::fig7_topology(), config);
        for (program, topology, queues) in cases {
            let a_config = AnalysisConfig {
                queues_per_interval: queues,
                ..Default::default()
            };
            let plan = Analyzer::for_topology(&topology, &a_config)
                .analyze(&program)
                .unwrap()
                .into_plan();
            let mut policy = CompatiblePolicy::new(plan.clone());
            let arena_out = arena.run(&program, plan.routes(), &mut policy).unwrap();
            let fresh_out = run_simulation(
                &program,
                &topology,
                Box::new(CompatiblePolicy::new(plan)),
                config,
            )
            .unwrap();
            assert_eq!(arena_out.is_completed(), fresh_out.is_completed());
            assert_eq!(arena_out.stats().cycles, fresh_out.stats().cycles);
            assert_eq!(
                arena_out.stats().words_delivered,
                fresh_out.stats().words_delivered
            );
            assert_eq!(arena_out.stats().grants, fresh_out.stats().grants);
        }
    }

    /// Stateful policies reset with the arena: a FIFO policy reused across
    /// replays must not carry a deadlocked run's arrival lines into the
    /// next run (its stale entries would grab queues for messages that
    /// never requested them).
    #[test]
    fn stateful_policy_resets_between_replays() {
        use crate::FifoPolicy;
        let t = Topology::linear(2);
        let mut arena = SimArena::new(
            &t,
            SimConfig {
                queues_per_interval: 1,
                ..Default::default()
            },
        );
        let mut fifo = FifoPolicy::new();
        // P1 deadlocks with 1 queue, leaving requests waiting in the line.
        let p1 = wl::fig5_p1();
        let out = arena.run(&p1, &routed(&p1, &t), &mut fifo).unwrap();
        assert!(out.is_deadlocked());
        // A fresh transfer through the same (reused) policy must complete.
        let ok = parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
        )
        .unwrap();
        let out = arena.run(&ok, &routed(&ok, &t), &mut fifo).unwrap();
        assert!(
            out.is_completed(),
            "stale FIFO lines leaked into the replay: {out:?}"
        );
    }

    /// A deadlocked replay must not poison later replays in the same
    /// arena: the reset clears queues, assignments and history.
    #[test]
    fn deadlocked_replay_does_not_poison_the_arena() {
        let t = Topology::linear(2);
        let mut arena = SimArena::new(
            &t,
            SimConfig {
                queues_per_interval: 2,
                ..Default::default()
            },
        );
        let mut greedy = GreedyPolicy::new();
        let p3 = wl::fig5_p3();
        let out = arena.run(&p3, &routed(&p3, &t), &mut greedy).unwrap();
        assert!(out.is_deadlocked(), "P3 deadlocks");

        let ok = parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
        )
        .unwrap();
        let out = arena.run(&ok, &routed(&ok, &t), &mut greedy).unwrap();
        assert!(
            out.is_completed(),
            "arena is clean after a deadlock: {out:?}"
        );
        assert_eq!(out.stats().words_delivered, 1);
    }

    /// `ensure_queues` grows the pool between replays; runs needing fewer
    /// queues are unaffected by the larger pool under the compatible
    /// policy (it only draws from its per-direction ranges).
    #[test]
    fn ensure_queues_grows_between_replays() {
        let t = wl::fig9_topology();
        let p = wl::fig9();
        let mut arena = SimArena::new(&t, SimConfig::default());
        let config = AnalysisConfig {
            queues_per_interval: 2,
            ..Default::default()
        };
        let plan = Analyzer::for_topology(&t, &config)
            .analyze(&p)
            .unwrap()
            .into_plan();
        arena.ensure_queues(plan.requirements().max_per_interval());
        let mut policy = CompatiblePolicy::new(plan.clone());
        let out = arena.run(&p, plan.routes(), &mut policy).unwrap();
        assert!(out.is_completed(), "{out:?}");
    }

    #[test]
    fn run_rejects_cell_count_mismatch() {
        let p = parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
        )
        .unwrap();
        let routes = routed(&p, &Topology::linear(2));
        let mut arena = SimArena::new(&Topology::linear(3), SimConfig::default());
        let mut policy = GreedyPolicy::new();
        assert!(matches!(
            arena.run(&p, &routes, &mut policy),
            Err(ModelError::CellCountMismatch { .. })
        ));
    }
}
