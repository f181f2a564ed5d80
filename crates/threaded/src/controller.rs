//! The shared state of one threaded run, under one lock.
//!
//! The controller holds the run's [`AssignmentPolicy`], the simulator's
//! [`PendingRequests`] list it is fed from, and the [`QueuePools`] whose
//! [`HwQueue`](systolic_sim::HwQueue)s carry the words. So both runtimes
//! enforce the same copy of Section 7's rules and the same queue
//! discipline: capacity, the latch, and one message per assignment.
//!
//! Every blocking step goes through [`Controller::wait_until`], which is
//! also the wait table that decides deadlock. Every change a blocked
//! thread may wait for (a push, a pop, a grant, a release or a thread
//! leaving) bumps an epoch. A blocked thread counts itself as waiting at
//! most once per epoch, so the run is deadlocked exactly when every
//! unfinished thread waits: each has seen its condition false in the
//! current state, and no thread is left to change that state.

use parking_lot::{Condvar, Mutex};
use systolic_model::{Hop, Interval, MessageId, QueueId};
use systolic_sim::{AssignmentPolicy, PendingRequests, QueueConfig, QueuePools, Word};

/// A blocking step's error: the run was decided deadlocked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Deadlock;

#[derive(Debug)]
struct State {
    policy: Box<dyn AssignmentPolicy>,
    /// Outstanding requests, oldest first.
    pending: PendingRequests,
    pools: QueuePools,
    /// Moves on every change a blocked thread may wait for.
    epoch: u64,
    /// Threads that have waited since `epoch` last moved.
    waiting: usize,
    /// Threads that have not left the run.
    unfinished: usize,
    /// Set when the last unfinished thread started to wait; every wait
    /// fails from then on.
    deadlocked: bool,
}

impl State {
    fn bump(&mut self) {
        self.epoch += 1;
        self.waiting = 0;
    }

    /// Runs grant passes over the outstanding requests until one grants
    /// nothing: a pass that grants a smaller label can enable a larger
    /// label earlier in the list, and no cycle clock re-runs the policy
    /// as the simulator's does.
    fn grant_pending(&mut self) {
        while !self
            .pending
            .grant_pass(self.policy.as_mut(), &mut self.pools)
            .is_empty()
        {
            self.bump();
        }
    }
}

/// One run's queues, assignment policy and wait table.
#[derive(Debug)]
pub(crate) struct Controller {
    state: Mutex<State>,
    cv: Condvar,
}

impl Controller {
    /// A run of `workers` threads over `intervals`, each with
    /// `queues_per_interval` queues of `capacity` words (0 = latch),
    /// granted under `policy`.
    pub(crate) fn new(
        mut policy: Box<dyn AssignmentPolicy>,
        intervals: impl IntoIterator<Item = Interval>,
        queues_per_interval: usize,
        capacity: usize,
        workers: usize,
    ) -> Self {
        policy.begin_run();
        let queue = QueueConfig {
            capacity,
            extension: false,
        };
        Controller {
            state: Mutex::new(State {
                policy,
                pending: PendingRequests::new(),
                pools: QueuePools::uniform(intervals, queues_per_interval, queue),
                epoch: 0,
                waiting: 0,
                unfinished: workers,
                deadlocked: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Applies `change` under the lock.
    fn update<T>(&self, change: impl FnOnce(&mut State) -> T) -> T {
        self.apply(&mut self.state.lock(), change)
    }

    /// Applies `change`, waking every waiter if it moved the epoch.
    fn apply<T>(&self, st: &mut State, change: impl FnOnce(&mut State) -> T) -> T {
        let epoch = st.epoch;
        let value = change(st);
        if st.epoch != epoch {
            self.cv.notify_all();
        }
        value
    }

    /// Blocks until `ready` returns a value (it may change the state to
    /// get it) and returns it, or fails once every unfinished thread
    /// waits.
    fn wait_until<T>(&self, mut ready: impl FnMut(&mut State) -> Option<T>) -> Result<T, Deadlock> {
        let mut st = self.state.lock();
        let mut counted = None;
        loop {
            if st.deadlocked {
                return Err(Deadlock);
            }
            if let Some(value) = self.apply(&mut st, &mut ready) {
                return Ok(value);
            }
            // The condvar may wake a thread spuriously, and `ready` can
            // only turn true after the epoch moves: count once per epoch.
            if counted != Some(st.epoch) {
                counted = Some(st.epoch);
                st.waiting += 1;
                if st.waiting == st.unfinished {
                    st.deadlocked = true;
                    self.cv.notify_all();
                    return Err(Deadlock);
                }
            }
            self.cv.wait(&mut st);
        }
    }

    /// Raises `message`'s request for a queue to cross `hop` (sender or
    /// forwarder) and blocks until it holds one.
    pub(crate) fn acquire(&self, message: MessageId, hop: Hop) -> Result<QueueId, Deadlock> {
        self.update(|st| {
            // An earlier grant is a reservation made for a group member.
            if st.pending.raise(&st.pools, message, hop) {
                st.grant_pending();
            }
        });
        self.await_assignment(message, hop.interval())
    }

    /// Blocks until someone has secured a queue for `message` on
    /// `interval`: how a reader or forwarder finds its queue.
    pub(crate) fn await_assignment(
        &self,
        message: MessageId,
        interval: Interval,
    ) -> Result<QueueId, Deadlock> {
        self.wait_until(|st| {
            let index = st.pools.live_assignment(message, interval)?;
            // The pools keep indices as `u32`.
            Some(QueueId::new(interval, index as u32))
        })
    }

    /// Blocks until `queue` has room and pushes `word`. With `hold` on a
    /// latch, then also blocks until the word departs: the paper's cell
    /// "cannot finish writing" (forwarders do not hold).
    pub(crate) fn push(&self, queue: QueueId, word: Word, hold: bool) -> Result<(), Deadlock> {
        let latch = self.wait_until(|st| {
            let q = st.pools.queue_mut(queue);
            if !q.can_accept() {
                return None;
            }
            q.push(word);
            let latch = q.config().capacity == 0;
            st.bump();
            Some(latch)
        })?;
        if hold && latch {
            // The release after the message's last word resets the
            // queue's departure count, which ends the hold as well.
            self.wait_until(|st| {
                let q = st.pools.queue(queue);
                (q.assigned() != Some(word.message) || q.departed() > word.index).then_some(())
            })?;
        }
        Ok(())
    }

    /// Blocks until `queue` holds a word and pops it.
    pub(crate) fn pop(&self, queue: QueueId) -> Result<Word, Deadlock> {
        self.wait_until(|st| {
            let q = st.pools.queue_mut(queue);
            q.front()?;
            let word = q.pop();
            st.bump();
            Some(word)
        })
    }

    /// Blocks until `queue` holds a word and returns a copy of the front
    /// one: how a forwarder sees "the header of a message arrives" before
    /// it requests the next hop's queue.
    pub(crate) fn peek(&self, queue: QueueId) -> Result<Word, Deadlock> {
        self.wait_until(|st| st.pools.queue(queue).front())
    }

    /// Releases `message`'s queue on `interval` after its last word
    /// passed, and grants what the release enables.
    ///
    /// # Panics
    ///
    /// Panics if the message holds no queue there or words remain in it.
    pub(crate) fn release(&self, message: MessageId, interval: Interval) {
        self.update(|st| {
            st.pools.release(message, interval);
            st.bump();
            st.grant_pending();
        });
    }

    /// Takes a finished (or panicking) thread out of the wait table.
    pub(crate) fn leave(&self) {
        self.update(|st| {
            st.unfinished -= 1;
            st.bump();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use systolic_core::{AnalysisConfig, Analyzer};
    use systolic_model::CellId;
    use systolic_sim::{CompatiblePolicy, FifoPolicy, GreedyPolicy};

    impl Controller {
        /// Spins until the wait table counts a waiter, which is `t` unless
        /// `t` finished first; returns whether `t` blocked.
        fn blocks<T>(&self, t: &thread::JoinHandle<T>) -> bool {
            loop {
                if self.state.lock().waiting > 0 {
                    return true;
                }
                if t.is_finished() {
                    return false;
                }
                thread::yield_now();
            }
        }
    }

    fn iv() -> Interval {
        Interval::new(CellId::new(0), CellId::new(1))
    }

    fn hop() -> Hop {
        Hop::new(CellId::new(0), CellId::new(1))
    }

    fn word(index: usize) -> Word {
        Word {
            message: MessageId::new(0),
            index,
        }
    }

    /// A one-queue interval of `capacity`, granted greedily to message 0,
    /// for the main thread and one spawned thread.
    fn one_queue(capacity: usize) -> (Arc<Controller>, QueueId) {
        let c = Controller::new(Box::new(GreedyPolicy::new()), [iv()], 1, capacity, 2);
        let q = c.acquire(MessageId::new(0), hop()).unwrap();
        (Arc::new(c), q)
    }

    #[test]
    fn push_pop_roundtrip() {
        let (c, q) = one_queue(2);
        c.push(q, word(0), false).unwrap();
        c.push(q, word(1), false).unwrap();
        assert_eq!(c.state.lock().pools.queue(q).occupancy(), 2);
        assert_eq!(c.pop(q).unwrap(), word(0));
        assert_eq!(c.pop(q).unwrap(), word(1));
    }

    #[test]
    fn full_queue_blocks_until_pop() {
        let (c, q) = one_queue(1);
        c.push(q, word(0), false).unwrap();
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || c2.push(q, word(1), false));
        assert!(c.blocks(&t), "push must block while full");
        c.pop(q).unwrap();
        t.join().unwrap().unwrap();
    }

    #[test]
    fn latch_push_waits_for_departure() {
        let (c, q) = one_queue(0);
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || c2.push(q, word(0), true));
        assert!(c.blocks(&t), "latch write completes only on departure");
        assert_eq!(c.pop(q).unwrap(), word(0));
        t.join().unwrap().unwrap();
    }

    #[test]
    fn poison_unblocks_waiters() {
        let (c, q) = one_queue(1);
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || c2.pop(q));
        assert!(c.blocks(&t));
        // Once the main thread leaves, the popper is the only thread left
        // and it waits: the run is deadlocked.
        c.leave();
        assert_eq!(t.join().unwrap(), Err(Deadlock));
    }

    #[test]
    fn latch_hold_ends_when_the_queue_is_released() {
        let (c, q) = one_queue(0);
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || c2.push(q, word(0), true));
        assert!(c.blocks(&t));
        // The reader pops the last word and releases the queue before the
        // writer looks again: the release reset the departure count.
        c.update(|st| {
            st.pools.queue_mut(q).pop();
            st.pools.release(MessageId::new(0), iv());
            st.bump();
        });
        c.leave();
        assert_eq!(t.join().unwrap(), Ok(()));
    }

    #[test]
    fn a_spurious_wakeup_counts_no_waiter_twice() {
        // std's condvar may wake a waiter when nothing changed. Counted
        // twice, the one waiter would match both threads and decide a
        // deadlock while the main thread can still push.
        let (c, q) = one_queue(1);
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || c2.pop(q));
        assert!(c.blocks(&t));
        for _ in 0..1000 {
            c.cv.notify_all();
            thread::yield_now();
        }
        c.push(q, word(0), false).unwrap();
        assert_eq!(t.join().unwrap(), Ok(word(0)));
    }

    #[test]
    fn greedy_grants_immediately() {
        let c = Controller::new(Box::new(GreedyPolicy::new()), [iv()], 1, 1, 1);
        let idx = c.acquire(MessageId::new(0), hop()).unwrap();
        assert_eq!(idx.index(), 0);
        c.release(MessageId::new(0), iv());
        assert_eq!(c.acquire(MessageId::new(1), hop()).unwrap().index(), 0);
    }

    #[test]
    fn fifo_blocks_second_until_release() {
        let c = Arc::new(Controller::new(
            Box::new(FifoPolicy::new()),
            [iv()],
            1,
            1,
            2,
        ));
        c.acquire(MessageId::new(0), hop()).unwrap();
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || c2.acquire(MessageId::new(1), hop()));
        assert!(c.blocks(&t));
        c.release(MessageId::new(0), iv());
        assert_eq!(t.join().unwrap().unwrap().index(), 0);
    }

    #[test]
    fn compatible_orders_by_label_across_threads() {
        // Fig. 7 plan: on interval c2-c3 (ids 2,3), C (label 2) precedes
        // B (label 3).
        let p = systolic_workloads::fig7(2);
        let plan = Analyzer::for_topology(
            &systolic_workloads::fig7_topology(),
            &AnalysisConfig::default(),
        )
        .analyze(&p)
        .unwrap()
        .into_plan();
        let iv = Interval::new(CellId::new(2), CellId::new(3));
        let hop = Hop::new(CellId::new(2), CellId::new(3));
        let c = Arc::new(Controller::new(
            Box::new(CompatiblePolicy::new(plan)),
            [iv],
            1,
            1,
            2,
        ));
        let b = p.message_id("B").unwrap();
        let cc = p.message_id("C").unwrap();

        // B asks first but must wait; C is granted; after C releases, B gets it.
        let c2 = Arc::clone(&c);
        let tb = thread::spawn(move || c2.acquire(b, hop));
        assert!(c.blocks(&tb), "B must wait for C");
        assert_eq!(c.acquire(cc, hop).unwrap().index(), 0);
        c.release(cc, iv);
        assert_eq!(tb.join().unwrap().unwrap().index(), 0);
    }

    #[test]
    fn await_assignment_sees_reservations() {
        let c = Arc::new(Controller::new(
            Box::new(GreedyPolicy::new()),
            [iv()],
            2,
            1,
            2,
        ));
        let m = MessageId::new(5);
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || c2.await_assignment(m, iv()));
        assert!(c.blocks(&t));
        let idx = c.acquire(m, hop()).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), idx);
    }

    #[test]
    fn poison_aborts_waiters() {
        let c = Arc::new(Controller::new(
            Box::new(GreedyPolicy::new()),
            [iv()],
            0,
            1,
            2,
        ));
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || c2.acquire(MessageId::new(0), hop()));
        assert!(c.blocks(&t));
        c.leave();
        assert_eq!(t.join().unwrap(), Err(Deadlock));
    }

    #[test]
    fn grant_passes_repeat_until_nothing_is_granted() {
        let p = systolic_model::parse_program(
            "cells 2\n\
             message P1: c0 -> c1\nmessage P2: c0 -> c1\n\
             message C: c0 -> c1\nmessage B: c0 -> c1\n\
             program c0 { W(P1) W(P2) W(P1) W(P2) W(C) W(B) }\n\
             program c1 { R(P1) R(P2) R(P1) R(P2) R(C) R(B) }\n",
        )
        .unwrap();
        let config = AnalysisConfig {
            queues_per_interval: 2,
            ..Default::default()
        };
        let plan = Analyzer::for_topology(&systolic_model::Topology::linear(2), &config)
            .analyze(&p)
            .unwrap()
            .into_plan();
        let [p1, p2, cc, b] = ["P1", "P2", "C", "B"].map(|name| p.message_id(name).unwrap());
        let labels = [p1, p2, cc, b].map(|m| plan.label(m));
        assert_eq!(labels, [1, 1, 2, 3].map(systolic_core::Label::integer));
        let (iv, hop) = (iv(), hop());
        let c = Arc::new(Controller::new(
            Box::new(CompatiblePolicy::new(plan)),
            [iv],
            2,
            1,
            2,
        ));

        // B asks first and waits for every smaller label.
        let c2 = Arc::clone(&c);
        let tb = thread::spawn(move || c2.acquire(b, hop));
        assert!(c.blocks(&tb));

        // P1's request grants the equal-label group; P2's queue is the
        // reservation made for it.
        let q1 = c.acquire(p1, hop).unwrap();
        let q2 = c.acquire(p2, hop).unwrap();
        assert_ne!(q1, q2, "the group gets distinct queues");
        c.release(p1, iv);
        c.release(p2, iv);
        let b_queue = || c.state.lock().pools.live_assignment(b, iv);
        assert_eq!(b_queue(), None, "B must wait for C");

        // One pass grants C; only the next pass can grant B, which is
        // earlier in the request list. No later event comes while C holds
        // its queue, so C's own request must grant B.
        let qc = c.acquire(cc, hop).unwrap();
        assert!(b_queue().is_some(), "B is granted while C holds its queue");
        let qb = tb.join().unwrap().unwrap();
        assert_ne!(qb, qc, "B and C hold different queues");
    }
}

#[cfg(test)]
mod static_mode_tests {
    use super::*;
    use systolic_core::{AnalysisConfig, Analyzer};
    use systolic_model::CellId;
    use systolic_sim::StaticPolicy;

    #[test]
    fn static_mode_dedicates_distinct_slots() {
        let p = systolic_workloads::fig9();
        let config = AnalysisConfig {
            queues_per_interval: 2,
            ..Default::default()
        };
        let plan = Analyzer::for_topology(&systolic_workloads::fig9_topology(), &config)
            .analyze(&p)
            .unwrap()
            .into_plan();
        let iv = Interval::new(CellId::new(0), CellId::new(1));
        let hop = Hop::new(CellId::new(0), CellId::new(1));
        let policy = StaticPolicy::new(&plan, 2).unwrap();
        let c = Controller::new(Box::new(policy), [iv], 2, 1, 1);
        let a = p.message_id("A").unwrap();
        let b = p.message_id("B").unwrap();
        let qa = c.acquire(a, hop).unwrap();
        let qb = c.acquire(b, hop).unwrap();
        assert_ne!(qa, qb, "dedicated queues are distinct");
    }
}
