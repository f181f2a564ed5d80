//! The threaded runtime: each cell is an OS thread, queues are real bounded
//! buffers, a [`Controller`] grants them under the caller's
//! [`AssignmentPolicy`], and a watchdog detects true deadlock.
//!
//! This runtime demonstrates that the paper's guarantee is *scheduling
//! independent*: Theorem 1 promises completion under compatible assignment
//! no matter how cell execution interleaves, so the threaded tests pass
//! deterministically even though the OS scheduler is free to do anything.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use systolic_model::{Interval, MessageId, MessageRoutes, ModelError, Program, Topology};
use systolic_sim::AssignmentPolicy;

use crate::{Controller, Liveness, Poisoned, ThreadedQueue};

/// How long the watchdog sleeps between checks for progress.
const WATCHDOG_POLL: Duration = Duration::from_millis(10);

/// Configuration of a threaded run.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedConfig {
    /// Queues per interval.
    pub queues_per_interval: usize,
    /// Per-queue capacity (0 = latch semantics for cell writes).
    pub capacity: usize,
    /// How long the run may be globally quiescent before the watchdog
    /// declares deadlock.
    pub quiet_period: Duration,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            queues_per_interval: 1,
            capacity: 1,
            quiet_period: Duration::from_millis(250),
        }
    }
}

/// How a threaded run ended.
#[derive(Clone, Debug)]
pub enum ThreadedOutcome {
    /// Every cell thread finished its program.
    Completed {
        /// Words delivered to final receivers.
        words_delivered: usize,
        /// Wall-clock duration of the run.
        elapsed: Duration,
    },
    /// The watchdog detected global quiescence with work remaining.
    Deadlocked {
        /// One description per thread that was still blocked.
        blocked: Vec<String>,
    },
}

impl ThreadedOutcome {
    /// `true` for [`ThreadedOutcome::Completed`].
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, ThreadedOutcome::Completed { .. })
    }

    /// `true` for [`ThreadedOutcome::Deadlocked`].
    #[must_use]
    pub fn is_deadlocked(&self) -> bool {
        matches!(self, ThreadedOutcome::Deadlocked { .. })
    }
}

/// Runs `program` on real threads over `topology`, granting queues under
/// `policy` — the same policy objects [`systolic_sim::run_simulation`]
/// takes.
///
/// # Errors
///
/// Returns routing/validation errors from [`MessageRoutes::compute`].
pub fn run_threaded(
    program: &Program,
    topology: &Topology,
    policy: Box<dyn AssignmentPolicy>,
    config: ThreadedConfig,
) -> Result<ThreadedOutcome, ModelError> {
    let routes = MessageRoutes::compute(program, topology)?;
    let live = Arc::new(Liveness::default());
    let controller = Arc::new(Controller::new(
        policy,
        topology.intervals().iter().copied(),
        config.queues_per_interval,
        Arc::clone(&live),
    ));
    let queues: BTreeMap<Interval, Vec<Arc<ThreadedQueue>>> = topology
        .intervals()
        .iter()
        .copied()
        .map(|iv| {
            let qs = (0..config.queues_per_interval)
                .map(|_| Arc::new(ThreadedQueue::new(config.capacity, Arc::clone(&live))))
                .collect();
            (iv, qs)
        })
        .collect();

    let total_workers = program.cells().iter().filter(|cp| !cp.is_empty()).count()
        + routes
            .iter()
            .map(|(_, r)| r.num_hops().saturating_sub(1))
            .sum::<usize>();
    let finished = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let mut failures: Vec<String> = Vec::new();
    let words_total = program.total_words();

    let elapsed = std::thread::scope(|scope| {
        let mut handles = Vec::new();

        // Cell threads.
        for cell in program.cell_ids() {
            if program.cell(cell).is_empty() {
                continue;
            }
            let routes = &routes;
            let controller = Arc::clone(&controller);
            let queues = &queues;
            let finished = Arc::clone(&finished);
            let cell_name = program.cell_name(cell).to_owned();
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut write_index: BTreeMap<MessageId, usize> = BTreeMap::new();
                let mut reads_done: BTreeMap<MessageId, usize> = BTreeMap::new();
                for (pc, op) in program.cell(cell).iter().enumerate() {
                    let m = op.message();
                    let route = routes.route(m);
                    let fail =
                        |what: &str| format!("{cell_name} blocked at op {pc} ({op}): {what}");
                    if op.is_write() {
                        let hop = route.hops().next().expect("nonempty route");
                        let idx = controller
                            .acquire(m, hop)
                            .map_err(|Poisoned| fail("acquiring first-hop queue"))?;
                        let q = &queues[&hop.interval()][idx];
                        let w = write_index.entry(m).or_insert(0);
                        let word = (m, *w);
                        *w += 1;
                        q.push(word, true)
                            .map_err(|Poisoned| fail("pushing (queue full or latch held)"))?;
                    } else {
                        let last = route.num_hops() - 1;
                        let interval = route.hops().nth(last).expect("last hop exists").interval();
                        let idx = controller
                            .await_assignment(m, interval)
                            .map_err(|Poisoned| fail("waiting for queue assignment"))?;
                        let q = &queues[&interval][idx];
                        let (got, _) = q.pop().map_err(|Poisoned| fail("reading (queue empty)"))?;
                        debug_assert_eq!(got, m, "queue serves one message at a time");
                        let done = reads_done.entry(m).or_insert(0);
                        *done += 1;
                        if *done == program.word_count(m) {
                            controller.release(m, interval);
                        }
                    }
                }
                finished.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(completion tally; watchdog only compares the count, no data published)
                Ok(())
            }));
        }

        // Forwarder threads: one per (message, intermediate hop).
        for (m, route) in routes.iter() {
            let hops: Vec<_> = route.hops().collect();
            for k in 1..hops.len() {
                let controller = Arc::clone(&controller);
                let queues = &queues;
                let finished = Arc::clone(&finished);
                let words = program.word_count(m);
                let (src_hop, dst_hop) = (hops[k - 1], hops[k]);
                handles.push(scope.spawn(move || -> Result<(), String> {
                    let fail = |what: &str| format!("forwarder {m}@{dst_hop}: {what}");
                    if words == 0 {
                        finished.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(completion tally; watchdog only compares the count, no data published)
                        return Ok(());
                    }
                    let src_idx = controller
                        .await_assignment(m, src_hop.interval())
                        .map_err(|Poisoned| fail("waiting for upstream queue"))?;
                    let src = &queues[&src_hop.interval()][src_idx];
                    // The header must be present before we request the next
                    // hop's queue ("when the header of a message arrives at
                    // a cell" — Section 5).
                    src.peek()
                        .map_err(|Poisoned| fail("waiting for header word"))?;
                    let dst_idx = controller
                        .acquire(m, dst_hop)
                        .map_err(|Poisoned| fail("acquiring next-hop queue"))?;
                    let dst = &queues[&dst_hop.interval()][dst_idx];
                    for _ in 0..words {
                        let word = src.pop().map_err(|Poisoned| fail("popping"))?;
                        dst.push(word, false).map_err(|Poisoned| fail("pushing"))?;
                    }
                    controller.release(m, src_hop.interval());
                    finished.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(completion tally; watchdog only compares the count, no data published)
                    Ok(())
                }));
            }
        }

        // Watchdog: declare deadlock after a full quiet period with workers
        // still unfinished.
        {
            let live = Arc::clone(&live);
            let controller = Arc::clone(&controller);
            let queues = &queues;
            let finished = Arc::clone(&finished);
            scope.spawn(move || {
                // The watchdog only compares heartbeat values across polls;
                // no memory is published through these flags, and eventual
                // visibility (guaranteed by the sleep loop) suffices.
                // lint: relaxed-ok(heartbeat compare; eventual visibility suffices)
                let mut last = live.progress.load(Ordering::Relaxed);
                let mut quiet_since = Instant::now();
                loop {
                    std::thread::sleep(WATCHDOG_POLL);
                    // lint: relaxed-ok(heartbeat compare; eventual visibility suffices)
                    if finished.load(Ordering::Relaxed) >= total_workers {
                        return;
                    }
                    let now = live.progress.load(Ordering::Relaxed); // lint: relaxed-ok(heartbeat compare)
                    if now != last {
                        last = now;
                        quiet_since = Instant::now();
                        continue;
                    }
                    if quiet_since.elapsed() >= config.quiet_period {
                        // lint: relaxed-ok(poison flag; waiters recheck under their own mutexes after notify_all)
                        live.poisoned.store(true, Ordering::Relaxed);
                        controller.notify_all();
                        for qs in queues.values() {
                            for q in qs {
                                q.notify_all();
                            }
                        }
                        return;
                    }
                }
            });
        }

        for h in handles {
            if let Err(desc) = h.join().expect("worker threads do not panic") {
                failures.push(desc);
            }
        }
        // The run ends with its workers; the scope still waits for the
        // watchdog's current poll.
        start.elapsed()
    });

    if failures.is_empty() {
        Ok(ThreadedOutcome::Completed {
            words_delivered: words_total,
            elapsed,
        })
    } else {
        failures.sort();
        Ok(ThreadedOutcome::Deadlocked { blocked: failures })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::{AnalysisConfig, Analyzer};
    use systolic_sim::{CompatiblePolicy, GreedyPolicy};
    use systolic_workloads as wl;

    fn compatible(
        program: &Program,
        topology: &Topology,
        queues: usize,
    ) -> Box<dyn AssignmentPolicy> {
        let config = AnalysisConfig {
            queues_per_interval: queues,
            ..Default::default()
        };
        let plan = Analyzer::for_topology(topology, &config)
            .analyze(program)
            .expect("analysis succeeds")
            .into_plan();
        Box::new(CompatiblePolicy::new(plan))
    }

    #[test]
    fn fig2_fir_completes_on_threads() {
        let p = wl::fig2_fir();
        let t = wl::fig2_topology();
        let policy = compatible(&p, &t, 2);
        let config = ThreadedConfig {
            queues_per_interval: 2,
            ..Default::default()
        };
        let out = run_threaded(&p, &t, policy, config).unwrap();
        let ThreadedOutcome::Completed {
            words_delivered, ..
        } = out
        else {
            panic!("FIR must complete on threads: {out:?}")
        };
        assert_eq!(words_delivered, 15);
    }

    #[test]
    fn fig7_compatible_completes_under_any_scheduling() {
        let p = wl::fig7(3);
        let t = wl::fig7_topology();
        // Run several times: Theorem 1 holds regardless of interleaving.
        for _ in 0..5 {
            let policy = compatible(&p, &t, 1);
            let out = run_threaded(&p, &t, policy, ThreadedConfig::default()).unwrap();
            assert!(out.is_completed(), "{out:?}");
        }
    }

    #[test]
    fn fig8_one_queue_deadlocks_on_threads() {
        // Structural queue-induced deadlock: c3 needs A and B interleaved,
        // but one queue between c2 and c3 can serve only one of them.
        let p = wl::fig8();
        let t = wl::fig8_topology();
        let out = run_threaded(
            &p,
            &t,
            Box::new(GreedyPolicy::new()),
            ThreadedConfig::default(),
        )
        .unwrap();
        let ThreadedOutcome::Deadlocked { blocked } = out else {
            panic!("Fig. 8 with one queue must deadlock: {out:?}")
        };
        assert!(!blocked.is_empty());

        // Two queues: completes.
        let config = ThreadedConfig {
            queues_per_interval: 2,
            ..Default::default()
        };
        let policy = compatible(&p, &t, 2);
        let out = run_threaded(&p, &t, policy, config).unwrap();
        assert!(out.is_completed());
    }

    #[test]
    fn fig5_p3_true_program_deadlock_is_caught() {
        let p = wl::fig5_p3();
        let out = run_threaded(
            &p,
            &Topology::linear(2),
            Box::new(GreedyPolicy::new()),
            ThreadedConfig {
                queues_per_interval: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let ThreadedOutcome::Deadlocked { blocked } = out else {
            panic!("P3 must deadlock: {out:?}")
        };
        // Both cells are stuck on their first op, a read.
        assert_eq!(blocked.len(), 2);
        assert!(blocked.iter().all(|b| b.contains("op 0")), "{blocked:?}");
    }

    #[test]
    fn fig5_p2_latches_deadlock_buffering_completes() {
        let p = wl::fig5_p2();
        let t = Topology::linear(2);
        let latch = ThreadedConfig {
            queues_per_interval: 2,
            capacity: 0,
            ..Default::default()
        };
        let out = run_threaded(&p, &t, Box::new(GreedyPolicy::new()), latch).unwrap();
        assert!(out.is_deadlocked(), "latch queues deadlock P2: {out:?}");

        let buffered = ThreadedConfig {
            queues_per_interval: 2,
            capacity: 1,
            ..Default::default()
        };
        let out = run_threaded(&p, &t, Box::new(GreedyPolicy::new()), buffered).unwrap();
        assert!(out.is_completed(), "{out:?}");
    }

    #[test]
    fn multi_hop_forwarding_works_on_threads() {
        let p = wl::matvec(3).unwrap();
        let t = wl::matvec_topology(3);
        let policy = compatible(&p, &t, 3);
        let config = ThreadedConfig {
            queues_per_interval: 3,
            ..Default::default()
        };
        let out = run_threaded(&p, &t, policy, config).unwrap();
        assert!(out.is_completed(), "{out:?}");
    }

    #[test]
    fn seq_align_completes_with_two_queues_per_interval() {
        let p = wl::seq_align(3, 4).unwrap();
        let t = wl::seq_align_topology(3);
        let policy = compatible(&p, &t, 3);
        let config = ThreadedConfig {
            queues_per_interval: 3,
            ..Default::default()
        };
        let out = run_threaded(&p, &t, policy, config).unwrap();
        assert!(out.is_completed(), "{out:?}");
    }

    #[test]
    fn empty_program_completes() {
        let p = systolic_model::ProgramBuilder::new(2).build().unwrap();
        let out = run_threaded(
            &p,
            &Topology::linear(2),
            Box::new(GreedyPolicy::new()),
            ThreadedConfig::default(),
        )
        .unwrap();
        assert!(out.is_completed());
        // No workers: the run takes no time, whatever the watchdog sleeps.
        let ThreadedOutcome::Completed { elapsed, .. } = out else {
            unreachable!()
        };
        assert!(elapsed < WATCHDOG_POLL, "{elapsed:?} measures the watchdog");
    }
}
