//! The queue-assignment controller: the threaded runtime's arbiter.
//!
//! It grants queues through one of the simulator's assignment policies
//! ([`AssignmentPolicy`]), fed from the simulator's [`PendingRequests`]
//! list, so both runtimes enforce the same copy of Section 7's rules: the
//! policy decides, and the controller applies its grants under one lock
//! and wakes the threads that wait for them.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};
use systolic_model::{Hop, Interval, MessageId};
use systolic_sim::{AssignmentPolicy, PendingRequests, QueueConfig, QueuePools};

use crate::{Liveness, Poisoned};

#[derive(Debug)]
struct State {
    policy: Box<dyn AssignmentPolicy>,
    /// Bookkeeping only: which queues are free, which are held and which
    /// have ever been granted. Words travel through the runtime's
    /// `ThreadedQueue`s, so these pools' `HwQueue`s stay empty.
    pools: QueuePools,
    /// Outstanding requests, oldest first.
    pending: PendingRequests,
}

/// Grants queue indices to messages under an [`AssignmentPolicy`].
///
/// After every request and every release the controller runs the policy
/// over the outstanding requests until a pass grants nothing: a pass that
/// grants a smaller label can enable a larger label that is earlier in the
/// list, and no cycle clock re-runs the policy as the simulator's does.
#[derive(Debug)]
pub struct Controller {
    state: Mutex<State>,
    cv: Condvar,
    live_flag: Arc<Liveness>,
}

impl Controller {
    /// Creates a controller over `intervals`, each with
    /// `queues_per_interval` queues, granting under `policy`.
    #[must_use]
    pub fn new(
        mut policy: Box<dyn AssignmentPolicy>,
        intervals: impl IntoIterator<Item = Interval>,
        queues_per_interval: usize,
        live_flag: Arc<Liveness>,
    ) -> Self {
        policy.begin_run();
        let pools = QueuePools::uniform(intervals, queues_per_interval, QueueConfig::default());
        Controller {
            state: Mutex::new(State {
                policy,
                pools,
                pending: PendingRequests::new(),
            }),
            cv: Condvar::new(),
            live_flag,
        }
    }

    /// Wakes all waiters (used by the watchdog after poisoning).
    pub fn notify_all(&self) {
        self.cv.notify_all();
    }

    /// Blocks until `message` holds a queue on `hop.interval()` and returns
    /// its index. Raised by the sender (first hop) or the forwarder of that
    /// hop.
    ///
    /// # Errors
    ///
    /// Returns [`Poisoned`] if the watchdog declares deadlock while waiting.
    pub fn acquire(&self, message: MessageId, hop: Hop) -> Result<usize, Poisoned> {
        let mut st = self.state.lock();
        let State { pools, pending, .. } = &mut *st;
        // An earlier grant is a reservation made for a group member.
        if pending.raise(pools, message, hop) {
            self.grant_pending(&mut st);
        }
        self.wait_live(st, message, hop.interval())
    }

    /// Blocks until someone (sender or forwarder) has secured a queue for
    /// `message` on `interval` — used by readers to find their queue.
    ///
    /// # Errors
    ///
    /// Returns [`Poisoned`] if the watchdog declares deadlock while waiting.
    pub fn await_assignment(
        &self,
        message: MessageId,
        interval: Interval,
    ) -> Result<usize, Poisoned> {
        self.wait_live(self.state.lock(), message, interval)
    }

    /// Releases `message`'s queue on `interval` after its last word passed.
    ///
    /// # Panics
    ///
    /// Panics if the message holds no queue there.
    pub fn release(&self, message: MessageId, interval: Interval) {
        let mut st = self.state.lock();
        st.pools.release(message, interval);
        self.live_flag.bump();
        self.cv.notify_all();
        self.grant_pending(&mut st);
    }

    fn wait_live(
        &self,
        mut st: MutexGuard<'_, State>,
        message: MessageId,
        interval: Interval,
    ) -> Result<usize, Poisoned> {
        loop {
            if let Some(idx) = st.pools.live_assignment(message, interval) {
                return Ok(idx);
            }
            if self.live_flag.is_poisoned() {
                return Err(Poisoned);
            }
            self.cv.wait_for(&mut st, Duration::from_millis(25));
        }
    }

    /// Runs grant passes over the outstanding requests until one grants
    /// nothing.
    fn grant_pending(&self, st: &mut State) {
        let State {
            policy,
            pools,
            pending,
        } = st;
        while !pending.grant_pass(policy.as_mut(), pools).is_empty() {
            self.live_flag.bump();
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use systolic_core::{AnalysisConfig, Analyzer};
    use systolic_model::CellId;
    use systolic_sim::{CompatiblePolicy, FifoPolicy, GreedyPolicy};

    fn live() -> Arc<Liveness> {
        Arc::new(Liveness::default())
    }

    #[test]
    fn greedy_grants_immediately() {
        let iv = Interval::new(CellId::new(0), CellId::new(1));
        let c = Controller::new(Box::new(GreedyPolicy::new()), [iv], 1, live());
        let hop = Hop::new(CellId::new(0), CellId::new(1));
        let idx = c.acquire(MessageId::new(0), hop).unwrap();
        assert_eq!(idx, 0);
        c.release(MessageId::new(0), iv);
        assert_eq!(c.acquire(MessageId::new(1), hop).unwrap(), 0);
    }

    #[test]
    fn fifo_blocks_second_until_release() {
        let iv = Interval::new(CellId::new(0), CellId::new(1));
        let l = live();
        let c = Arc::new(Controller::new(
            Box::new(FifoPolicy::new()),
            [iv],
            1,
            Arc::clone(&l),
        ));
        let hop = Hop::new(CellId::new(0), CellId::new(1));
        c.acquire(MessageId::new(0), hop).unwrap();
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || c2.acquire(MessageId::new(1), hop));
        thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished());
        c.release(MessageId::new(0), iv);
        assert_eq!(t.join().unwrap().unwrap(), 0);
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
        let l = live();
        let c = Arc::new(Controller::new(
            Box::new(CompatiblePolicy::new(plan)),
            [iv],
            1,
            Arc::clone(&l),
        ));
        let b = p.message_id("B").unwrap();
        let cc = p.message_id("C").unwrap();

        // B asks first but must wait; C is granted; after C releases, B gets it.
        let c2 = Arc::clone(&c);
        let tb = thread::spawn(move || c2.acquire(b, hop));
        thread::sleep(Duration::from_millis(20));
        assert!(!tb.is_finished(), "B must wait for C");
        assert_eq!(c.acquire(cc, hop).unwrap(), 0);
        c.release(cc, iv);
        assert_eq!(tb.join().unwrap().unwrap(), 0);
    }

    #[test]
    fn await_assignment_sees_reservations() {
        let iv = Interval::new(CellId::new(0), CellId::new(1));
        let l = live();
        let c = Arc::new(Controller::new(
            Box::new(GreedyPolicy::new()),
            [iv],
            2,
            Arc::clone(&l),
        ));
        let hop = Hop::new(CellId::new(0), CellId::new(1));
        let m = MessageId::new(5);
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || c2.await_assignment(m, iv));
        thread::sleep(Duration::from_millis(10));
        let idx = c.acquire(m, hop).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), idx);
    }

    #[test]
    fn poison_aborts_waiters() {
        let iv = Interval::new(CellId::new(0), CellId::new(1));
        let l = live();
        let c = Arc::new(Controller::new(
            Box::new(GreedyPolicy::new()),
            [iv],
            0,
            Arc::clone(&l),
        ));
        let hop = Hop::new(CellId::new(0), CellId::new(1));
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || c2.acquire(MessageId::new(0), hop));
        thread::sleep(Duration::from_millis(10));
        l.poisoned.store(true, std::sync::atomic::Ordering::Relaxed);
        c.notify_all();
        assert_eq!(t.join().unwrap(), Err(Poisoned));
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
        let iv = Interval::new(CellId::new(0), CellId::new(1));
        let hop = Hop::new(CellId::new(0), CellId::new(1));
        let c = Arc::new(Controller::new(
            Box::new(CompatiblePolicy::new(plan)),
            [iv],
            2,
            live(),
        ));

        // B asks first and waits for every smaller label.
        let c2 = Arc::clone(&c);
        let tb = thread::spawn(move || c2.acquire(b, hop));
        while !c
            .state
            .lock()
            .pending
            .as_slice()
            .iter()
            .any(|r| r.message == b)
        {
            thread::sleep(Duration::from_millis(1));
        }

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
    use std::sync::Arc;
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
        let live = Arc::new(crate::Liveness::default());
        let policy = StaticPolicy::new(&plan, 2).unwrap();
        let c = Controller::new(Box::new(policy), [iv], 2, live);
        let a = p.message_id("A").unwrap();
        let b = p.message_id("B").unwrap();
        let qa = c.acquire(a, hop).unwrap();
        let qb = c.acquire(b, hop).unwrap();
        assert_ne!(qa, qb, "dedicated queues are distinct");
    }
}
