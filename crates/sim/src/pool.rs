//! Per-interval queue pools and assignment bookkeeping.
//!
//! The pools are laid out as an **arena**: one flat `Vec<HwQueue>` indexed
//! by `(interval index, queue index)` plus flat per-`(message, interval)`
//! assignment tables, so a batch of replays ([`crate::SimArena`]) can
//! [`reset`](QueuePools::reset_for) the whole structure in place — no
//! per-run map rebuilds, no reallocation. The interval table is sorted, so
//! interval-keyed lookups are a binary search over a slice.
//!
//! [`PendingRequests`] is the outstanding-request list both runtimes feed
//! their [`AssignmentPolicy`] from: a need is raised once, when it arises,
//! and a grant pass applies the policy's grants to the pools.

use systolic_model::{Hop, Interval, MessageId, QueueId};

use crate::{AssignmentPolicy, Grant, HwQueue, QueueConfig, Request};

/// Sentinel in the live-assignment table: no queue held.
const NONE: u32 = u32::MAX;

/// The hardware's queues, organized per interval, plus the record of which
/// message holds (or has held) which queue.
///
/// Interval-keyed methods accept any [`Interval`]; unknown intervals read
/// as empty pools (and panic on mutation, as before).
#[derive(Clone, Debug)]
pub struct QueuePools {
    /// Sorted interval table; position = interval index.
    intervals: Vec<Interval>,
    queues_per_interval: usize,
    config: QueueConfig,
    /// Flat queue storage: `interval index * queues_per_interval + queue`.
    queues: Vec<HwQueue>,
    /// Messages the assignment tables currently cover.
    num_messages: usize,
    /// Live assignments: `message * intervals + interval index` → queue
    /// index, `NONE` if unheld.
    live: Vec<u32>,
    /// Every (message, interval) ever granted a queue — the "has been
    /// successfully assigned" predicate of the ordered-assignment rule.
    history: Vec<bool>,
}

impl QueuePools {
    /// Builds pools with `queues_per_interval` queues of `config` on each
    /// of `intervals` (sorted and deduplicated).
    #[must_use]
    pub fn uniform(
        intervals: impl IntoIterator<Item = Interval>,
        queues_per_interval: usize,
        config: QueueConfig,
    ) -> Self {
        let mut intervals: Vec<Interval> = intervals.into_iter().collect();
        intervals.sort_unstable();
        intervals.dedup();
        let queues = (0..intervals.len() * queues_per_interval)
            .map(|_| HwQueue::new(config))
            .collect();
        QueuePools {
            intervals,
            queues_per_interval,
            config,
            queues,
            num_messages: 0,
            live: Vec::new(),
            history: Vec::new(),
        }
    }

    /// Resets every queue and assignment table in place and sizes the
    /// per-message tables for `num_messages` messages. Allocations are
    /// kept; only contents are cleared — the arena's per-replay entry
    /// point.
    pub fn reset_for(&mut self, num_messages: usize) {
        for q in &mut self.queues {
            q.reset();
        }
        self.num_messages = num_messages;
        let cells = num_messages * self.intervals.len();
        self.live.clear();
        self.live.resize(cells, NONE);
        self.history.clear();
        self.history.resize(cells, false);
    }

    /// Raises the pool to `queues_per_interval` queues on every interval
    /// (a no-op if the pool is already at least that wide). The flat
    /// layout changes, so this also clears all queues and assignments;
    /// call it before (or as part of) a reset, never mid-run.
    pub fn ensure_queues_per_interval(&mut self, queues_per_interval: usize) {
        if queues_per_interval <= self.queues_per_interval {
            return;
        }
        self.queues_per_interval = queues_per_interval;
        let config = self.config;
        self.queues.clear();
        self.queues
            .resize_with(self.intervals.len() * queues_per_interval, || {
                HwQueue::new(config)
            });
        let messages = self.num_messages;
        self.reset_for(messages);
    }

    /// Position of `interval` in the sorted interval table, if present.
    #[must_use]
    pub fn interval_index(&self, interval: Interval) -> Option<usize> {
        self.intervals.binary_search(&interval).ok()
    }

    /// The interval at table position `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn interval_at(&self, index: usize) -> Interval {
        self.intervals[index]
    }

    /// The intervals covered by the pools.
    pub fn intervals(&self) -> impl Iterator<Item = Interval> + '_ {
        self.intervals.iter().copied()
    }

    /// Number of queues on `interval` (0 if unknown).
    #[must_use]
    pub fn pool_size(&self, interval: Interval) -> usize {
        if self.interval_index(interval).is_some() {
            self.queues_per_interval
        } else {
            0
        }
    }

    /// Indices of currently free queues on `interval`.
    #[must_use]
    pub fn free_queues(&self, interval: Interval) -> Vec<usize> {
        let Some(iv) = self.interval_index(interval) else {
            return Vec::new();
        };
        self.queue_slice(iv)
            .iter()
            .enumerate()
            .filter(|(_, q)| q.is_free())
            .map(|(i, _)| i)
            .collect()
    }

    fn queue_slice(&self, iv: usize) -> &[HwQueue] {
        &self.queues[iv * self.queues_per_interval..(iv + 1) * self.queues_per_interval]
    }

    fn table_index(&self, message: MessageId, iv: usize) -> Option<usize> {
        if message.index() >= self.num_messages {
            return None;
        }
        Some(message.index() * self.intervals.len() + iv)
    }

    /// Grows the per-message tables to cover `message` (used by callers
    /// that grant directly without an arena-style reset, e.g. tests).
    fn ensure_message(&mut self, message: MessageId) {
        if message.index() >= self.num_messages {
            self.num_messages = message.index() + 1;
            let cells = self.num_messages * self.intervals.len();
            self.live.resize(cells, NONE);
            self.history.resize(cells, false);
        }
    }

    /// `true` if `message` holds or has ever held a queue on `interval`.
    #[must_use]
    pub fn has_granted(&self, message: MessageId, interval: Interval) -> bool {
        self.interval_index(interval)
            .and_then(|iv| self.table_index(message, iv))
            .is_some_and(|i| self.history[i])
    }

    /// The queue currently serving `message` on `interval`, if any.
    #[must_use]
    pub fn live_assignment(&self, message: MessageId, interval: Interval) -> Option<usize> {
        let iv = self.interval_index(interval)?;
        self.live_at(message, iv)
    }

    /// [`QueuePools::has_granted`] by interval *index* — the arena's
    /// hot-path lookup (no interval search).
    #[must_use]
    pub fn has_granted_at(&self, message: MessageId, iv: usize) -> bool {
        self.table_index(message, iv)
            .is_some_and(|i| self.history[i])
    }

    /// [`QueuePools::live_assignment`] by interval *index* — the arena's
    /// hot-path lookup (no interval search).
    #[must_use]
    pub fn live_at(&self, message: MessageId, iv: usize) -> Option<usize> {
        let i = self.table_index(message, iv)?;
        let q = self.live[i];
        (q != NONE).then_some(q as usize)
    }

    /// `true` if queue `index` exists on interval index `iv` and is free.
    #[must_use]
    pub fn is_free_at(&self, iv: usize, index: usize) -> bool {
        self.queue_slice(iv)
            .get(index)
            .is_some_and(HwQueue::is_free)
    }

    /// Grants queue `index` of `hop.interval()` to `message`.
    ///
    /// # Panics
    ///
    /// Panics if the queue does not exist, is not free, or the message
    /// already holds a queue on the interval.
    pub fn grant(&mut self, message: MessageId, hop: Hop, index: usize) {
        let interval = hop.interval();
        let iv = self
            .interval_index(interval)
            .filter(|_| index < self.queues_per_interval)
            // lint: panic-ok(documented # Panics invariant: callers index queues they created)
            .unwrap_or_else(|| panic!("no queue {index} on {interval}"));
        self.ensure_message(message);
        self.queues[iv * self.queues_per_interval + index].assign(message, hop);
        // lint: panic-ok(ensure_message() ran above; absence is pool corruption)
        let t = self.table_index(message, iv).expect("message ensured");
        assert!(
            self.live[t] == NONE,
            "{message} already holds a queue on {interval}"
        );
        self.live[t] = index as u32;
        self.history[t] = true;
    }

    /// Releases the queue serving `message` on `interval` (after its last
    /// word passed). The grant *history* is retained.
    ///
    /// # Panics
    ///
    /// Panics if the message holds no queue there or words remain buffered.
    pub fn release(&mut self, message: MessageId, interval: Interval) {
        let index = self
            .interval_index(interval)
            .and_then(|iv| self.table_index(message, iv))
            .filter(|&t| self.live[t] != NONE)
            // lint: panic-ok(documented # Panics invariant: release without a matching acquire)
            .unwrap_or_else(|| panic!("{message} holds no queue on {interval}"));
        let iv = self.interval_index(interval).expect("checked above"); // lint: panic-ok(guarded by the interval_index check above)
        let q = self.live[index] as usize;
        self.live[index] = NONE;
        self.queues[iv * self.queues_per_interval + q].release();
    }

    /// Immutable access to a queue.
    ///
    /// # Panics
    ///
    /// Panics if the queue does not exist.
    #[must_use]
    pub fn queue(&self, id: QueueId) -> &HwQueue {
        let iv = self
            .interval_index(id.interval())
            // lint: panic-ok(documented # Panics invariant: ids come from this pool set)
            .unwrap_or_else(|| panic!("no interval {} in the pools", id.interval()));
        &self.queue_slice(iv)[id.index()]
    }

    /// Mutable access to a queue.
    ///
    /// # Panics
    ///
    /// Panics if the queue does not exist.
    #[must_use]
    pub fn queue_mut(&mut self, id: QueueId) -> &mut HwQueue {
        let iv = self
            .interval_index(id.interval())
            // lint: panic-ok(documented # Panics invariant: ids come from this pool set)
            .unwrap_or_else(|| panic!("no interval {} in the pools", id.interval()));
        let index = id.index();
        assert!(
            index < self.queues_per_interval,
            "no queue {index} on {}",
            id.interval()
        );
        &mut self.queues[iv * self.queues_per_interval + index]
    }

    /// Access by flat `(interval index, queue index)` coordinates — the
    /// arena's hot-path accessor (no interval search).
    #[must_use]
    pub fn queue_at(&self, iv: usize, index: usize) -> &HwQueue {
        &self.queues[iv * self.queues_per_interval + index]
    }

    /// Mutable [`QueuePools::queue_at`].
    #[must_use]
    pub fn queue_at_mut(&mut self, iv: usize, index: usize) -> &mut HwQueue {
        &mut self.queues[iv * self.queues_per_interval + index]
    }

    /// Iterates over every `(queue id, queue)` pair in interval order.
    pub fn iter(&self) -> impl Iterator<Item = (QueueId, &HwQueue)> + '_ {
        self.queues.iter().enumerate().map(move |(flat, q)| {
            let iv = self.intervals[flat / self.queues_per_interval];
            (
                QueueId::new(iv, (flat % self.queues_per_interval) as u32),
                q,
            )
        })
    }
}

/// The outstanding queue requests of one run, oldest first: the one list
/// both runtimes hand their [`AssignmentPolicy`].
///
/// A need is [raised](PendingRequests::raise) once, when it arises; a
/// [grant pass](PendingRequests::grant_pass) makes one policy call,
/// applies its grants to the pools and drops the requests they satisfy.
/// The simulator runs one pass per cycle; the threaded controller runs
/// passes until one grants nothing.
#[derive(Clone, Debug, Default)]
pub struct PendingRequests {
    requests: Vec<Request>,
    /// The last birth stamp handed out.
    born: u64,
}

impl PendingRequests {
    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises `message`'s need for a queue to cross `hop`: pushes a request
    /// with the next birth stamp, unless the message holds or held a queue
    /// on the interval (a reservation made for it counts) or has already
    /// asked. Returns whether a request was pushed.
    pub fn raise(&mut self, pools: &QueuePools, message: MessageId, hop: Hop) -> bool {
        let interval = hop.interval();
        if pools.has_granted(message, interval)
            || self
                .requests
                .iter()
                .any(|r| r.message == message && r.hop.interval() == interval)
        {
            return false;
        }
        self.born += 1;
        self.requests.push(Request {
            message,
            hop,
            born: self.born,
        });
        true
    }

    /// One grant pass: a single [`AssignmentPolicy::grant`] call over the
    /// outstanding requests. Each grant is applied through
    /// [`QueuePools::grant`] and drops the request it satisfies (a
    /// reservation for a message that has not asked yet drops nothing).
    /// Returns the grants in the policy's order.
    ///
    /// # Panics
    ///
    /// As [`QueuePools::grant`], if the policy grants a queue that is not
    /// free.
    pub fn grant_pass(
        &mut self,
        policy: &mut dyn AssignmentPolicy,
        pools: &mut QueuePools,
    ) -> Vec<Grant> {
        let grants = policy.grant(pools, &self.requests);
        for g in &grants {
            pools.grant(g.message, g.hop, g.queue);
        }
        self.requests.retain(|r| {
            !grants
                .iter()
                .any(|g| g.message == r.message && g.hop.interval() == r.hop.interval())
        });
        grants
    }

    /// The outstanding requests, oldest first.
    #[must_use]
    pub fn as_slice(&self) -> &[Request] {
        &self.requests
    }

    /// Drops every request and restarts the birth stamps, for a new run.
    pub fn clear(&mut self) {
        self.requests.clear();
        self.born = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Word;
    use systolic_model::CellId;

    fn iv() -> Interval {
        Interval::new(CellId::new(0), CellId::new(1))
    }

    fn hop() -> Hop {
        Hop::new(CellId::new(0), CellId::new(1))
    }

    fn pools(n: usize) -> QueuePools {
        QueuePools::uniform([iv()], n, QueueConfig::default())
    }

    #[test]
    fn grant_release_roundtrip_keeps_history() {
        let mut p = pools(2);
        let m = MessageId::new(0);
        assert_eq!(p.free_queues(iv()), vec![0, 1]);
        assert!(!p.has_granted(m, iv()));

        p.grant(m, hop(), 1);
        assert_eq!(p.free_queues(iv()), vec![0]);
        assert_eq!(p.live_assignment(m, iv()), Some(1));
        assert!(p.has_granted(m, iv()));

        p.release(m, iv());
        assert_eq!(p.free_queues(iv()), vec![0, 1]);
        assert_eq!(p.live_assignment(m, iv()), None);
        assert!(p.has_granted(m, iv()), "history survives release");
    }

    #[test]
    fn queue_access_by_id() {
        let mut p = pools(1);
        let m = MessageId::new(0);
        p.grant(m, hop(), 0);
        let qid = QueueId::new(iv(), 0);
        p.queue_mut(qid).push(Word {
            message: m,
            index: 0,
        });
        assert_eq!(p.queue(qid).occupancy(), 1);
        assert_eq!(p.iter().count(), 1);
    }

    #[test]
    fn policy_reads_reflect_state() {
        let mut p = pools(2);
        let m = MessageId::new(3);
        p.grant(m, hop(), 0);
        assert_eq!(p.free_queues(iv()), vec![1]);
        assert_eq!(p.pool_size(iv()), 2);
        assert!(p.has_granted(m, iv()));
        assert!(!p.has_granted(MessageId::new(9), iv()));
    }

    #[test]
    #[should_panic(expected = "no queue")]
    fn grant_out_of_range_panics() {
        let mut p = pools(1);
        p.grant(MessageId::new(0), hop(), 5);
    }

    #[test]
    #[should_panic(expected = "holds no queue")]
    fn release_without_grant_panics() {
        let mut p = pools(1);
        p.release(MessageId::new(0), iv());
    }

    #[test]
    fn reset_for_clears_everything_in_place() {
        let mut p = pools(2);
        let m = MessageId::new(1);
        p.grant(m, hop(), 0);
        p.queue_mut(QueueId::new(iv(), 0)).push(Word {
            message: m,
            index: 0,
        });
        p.reset_for(3);
        assert_eq!(p.free_queues(iv()), vec![0, 1]);
        assert_eq!(p.live_assignment(m, iv()), None);
        assert!(!p.has_granted(m, iv()), "history is per replay");
        assert_eq!(p.queue(QueueId::new(iv(), 0)).occupancy(), 0);
        // And the pool is immediately reusable.
        p.grant(m, hop(), 1);
        assert_eq!(p.live_assignment(m, iv()), Some(1));
    }

    #[test]
    fn ensure_queues_only_grows() {
        let mut p = pools(1);
        assert_eq!(p.pool_size(iv()), 1);
        p.ensure_queues_per_interval(3);
        assert_eq!(p.pool_size(iv()), 3);
        assert_eq!(p.free_queues(iv()), vec![0, 1, 2]);
        p.ensure_queues_per_interval(2);
        assert_eq!(p.pool_size(iv()), 3, "never shrinks");
        assert_eq!(p.iter().count(), 3);
    }

    #[test]
    fn policy_reads_look_up_by_interval_index() {
        let mut p = pools(2);
        let m = MessageId::new(3);
        p.grant(m, hop(), 1);
        let at = p.interval_index(iv()).unwrap();
        assert!(p.has_granted_at(m, at));
        assert!(!p.has_granted_at(MessageId::new(0), at));
        assert!(p.is_free_at(at, 0));
        assert!(!p.is_free_at(at, 1), "held");
        assert!(!p.is_free_at(at, 2), "no such queue");
        assert_eq!(
            p.interval_index(Interval::new(CellId::new(4), CellId::new(5))),
            None
        );
    }

    #[test]
    fn pending_requests_raise_once_and_drop_when_granted() {
        use crate::GreedyPolicy;
        let mut p = pools(1);
        let mut pending = PendingRequests::new();
        let (a, b) = (MessageId::new(0), MessageId::new(1));
        assert!(pending.raise(&p, a, hop()));
        assert!(!pending.raise(&p, a, hop()), "already asked");
        assert!(pending.raise(&p, b, hop()));
        let borns: Vec<u64> = pending.as_slice().iter().map(|r| r.born).collect();
        assert_eq!(borns, [1, 2], "oldest first");

        // One queue: the pass grants the older request and keeps the other.
        let grants = pending.grant_pass(&mut GreedyPolicy::new(), &mut p);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].message, a);
        assert_eq!(p.live_assignment(a, iv()), Some(0));
        assert_eq!(pending.as_slice().len(), 1);
        assert_eq!(pending.as_slice()[0].message, b);
        assert!(!pending.raise(&p, a, hop()), "a holds a queue");

        // Held and released still counts as granted.
        p.release(a, iv());
        assert!(!pending.raise(&p, a, hop()), "a held a queue");
        assert_eq!(
            pending.grant_pass(&mut GreedyPolicy::new(), &mut p).len(),
            1
        );
        assert!(pending.as_slice().is_empty());

        pending.clear();
        p.reset_for(2);
        assert!(pending.raise(&p, b, hop()));
        assert_eq!(pending.as_slice()[0].born, 1, "stamps restart");
    }

    #[test]
    fn unknown_interval_reads_as_empty() {
        let p = pools(2);
        let other = Interval::new(CellId::new(4), CellId::new(5));
        assert_eq!(p.pool_size(other), 0);
        assert!(p.free_queues(other).is_empty());
        assert!(!p.has_granted(MessageId::new(0), other));
        assert_eq!(p.live_assignment(MessageId::new(0), other), None);
    }
}
