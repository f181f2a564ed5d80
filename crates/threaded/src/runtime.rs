//! The threaded runtime: each cell and each forwarding hop is an OS
//! thread, and words move through the queues of one shared controller,
//! granted under the caller's [`AssignmentPolicy`].
//!
//! This runtime demonstrates that the paper's guarantee is *scheduling
//! independent*: Theorem 1 promises completion under compatible assignment
//! no matter how cell execution interleaves, so the threaded tests pass
//! deterministically even though the OS scheduler is free to do anything.
//! A stall is decided from the run's state, not from a timeout: the run is
//! deadlocked exactly when every unfinished thread waits.

use std::time::{Duration, Instant};

use systolic_model::{CellId, Hop, MessageId, MessageRoutes, ModelError, Program, Topology};
use systolic_sim::{AssignmentPolicy, Word};

use crate::controller::{Controller, Deadlock};

/// Configuration of a threaded run.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedConfig {
    /// Queues per interval.
    pub queues_per_interval: usize,
    /// Per-queue capacity (0 = latch semantics for cell writes).
    pub capacity: usize,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            queues_per_interval: 1,
            capacity: 1,
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
    /// Every unfinished thread waited, so no word could move again.
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
///
/// # Panics
///
/// Panics if a worker thread panics, for instance on a word read out of
/// order or a grant of a queue that does not exist.
pub fn run_threaded(
    program: &Program,
    topology: &Topology,
    policy: Box<dyn AssignmentPolicy>,
    config: ThreadedConfig,
) -> Result<ThreadedOutcome, ModelError> {
    let routes = MessageRoutes::compute(program, topology)?;
    let cells: Vec<CellId> = program
        .cell_ids()
        .filter(|&cell| !program.cell(cell).is_empty())
        .collect();
    // One forwarder per (message, pair of consecutive hops).
    let forwarders: Vec<(MessageId, Hop, Hop)> = routes
        .iter()
        .filter(|&(m, _)| program.word_count(m) > 0)
        .flat_map(|(m, route)| {
            let next = route.hops().skip(1);
            route.hops().zip(next).map(move |(src, dst)| (m, src, dst))
        })
        .collect();
    let controller = Controller::new(
        policy,
        topology.intervals().iter().copied(),
        config.queues_per_interval,
        config.capacity,
        cells.len() + forwarders.len(),
    );

    let start = Instant::now();
    let mut blocked: Vec<String> = std::thread::scope(|scope| {
        let (ctl, routes) = (&controller, &routes);
        let handles: Vec<_> = cells
            .iter()
            .map(|&cell| scope.spawn(move || run_cell(ctl, program, routes, cell)))
            .chain(
                forwarders
                    .iter()
                    .map(|&(m, src, dst)| scope.spawn(move || forward(ctl, program, m, src, dst))),
            )
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("worker threads do not panic").err())
            .collect()
    });
    let elapsed = start.elapsed();

    if blocked.is_empty() {
        Ok(ThreadedOutcome::Completed {
            words_delivered: program.total_words(),
            elapsed,
        })
    } else {
        blocked.sort();
        Ok(ThreadedOutcome::Deadlocked { blocked })
    }
}

/// Takes its worker out of the wait table when the worker ends, by return
/// or by panic, so that no peer waits for it.
struct Leave<'a>(&'a Controller);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        self.0.leave();
    }
}

/// Runs `cell`'s program: a write pushes into the message's first-hop
/// queue, a read pops from the queue of its last hop.
fn run_cell(
    ctl: &Controller,
    program: &Program,
    routes: &MessageRoutes,
    cell: CellId,
) -> Result<(), String> {
    let _leave = Leave(ctl);
    let name = program.cell_name(cell);
    let mut written = vec![0; program.num_messages()];
    let mut read = vec![0; program.num_messages()];
    for (pc, op) in program.cell(cell).iter().enumerate() {
        let m = op.message();
        let mut hops = routes.route(m).hops();
        let message = program.message(m).name();
        let fail = |what: &str| {
            let kind = op.kind();
            format!("{name} blocked at op {pc} ({kind}({message})): {what}")
        };
        if op.is_write() {
            let hop = hops.next().expect("nonempty route");
            let queue = ctl
                .acquire(m, hop)
                .map_err(|Deadlock| fail("acquiring first-hop queue"))?;
            let word = Word {
                message: m,
                index: written[m.index()],
            };
            written[m.index()] += 1;
            ctl.push(queue, word, true)
                .map_err(|Deadlock| fail("pushing (queue full or latch held)"))?;
        } else {
            let interval = hops.last().expect("nonempty route").interval();
            let queue = ctl
                .await_assignment(m, interval)
                .map_err(|Deadlock| fail("waiting for queue assignment"))?;
            let word = ctl
                .pop(queue)
                .map_err(|Deadlock| fail("reading (queue empty)"))?;
            let done = &mut read[m.index()];
            let due = Word {
                message: m,
                index: *done,
            };
            assert_eq!(word, due, "{name} read a word out of order");
            *done += 1;
            if *done == program.word_count(m) {
                ctl.release(m, interval);
            }
        }
    }
    Ok(())
}

/// Moves `m`'s words from its queue on `src` to its queue on `dst`,
/// across the cell between the two hops.
fn forward(
    ctl: &Controller,
    program: &Program,
    m: MessageId,
    src: Hop,
    dst: Hop,
) -> Result<(), String> {
    let _leave = Leave(ctl);
    // Named as the program names them, like the cells' reports.
    let fail = |what: &str| {
        format!(
            "forwarder {}@{}->{}: {what}",
            program.message(m).name(),
            program.cell_name(dst.from()),
            program.cell_name(dst.to())
        )
    };
    let from = ctl
        .await_assignment(m, src.interval())
        .map_err(|Deadlock| fail("waiting for upstream queue"))?;
    // The header must be present before we request the next hop's queue
    // ("when the header of a message arrives at a cell" — Section 5).
    ctl.peek(from)
        .map_err(|Deadlock| fail("waiting for header word"))?;
    let to = ctl
        .acquire(m, dst)
        .map_err(|Deadlock| fail("acquiring next-hop queue"))?;
    for _ in 0..program.word_count(m) {
        let word = ctl.pop(from).map_err(|Deadlock| fail("popping"))?;
        ctl.push(to, word, false)
            .map_err(|Deadlock| fail("pushing"))?;
    }
    ctl.release(m, src.interval());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use systolic_core::{AnalysisConfig, Analyzer, DiagnosticCode};
    use systolic_sim::{
        run_simulation, CompatiblePolicy, FifoPolicy, Grant, GreedyPolicy, QueueConfig, QueuePools,
        Request, SimConfig,
    };
    use systolic_workloads as wl;

    /// Runs per outcome check: a decided deadlock costs under a
    /// millisecond, so every schedule-dependent check repeats this often.
    const RUNS: usize = 100;

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
        let config = ThreadedConfig {
            queues_per_interval: 2,
            ..Default::default()
        };
        for _ in 0..RUNS {
            let policy = compatible(&p, &t, 2);
            let out = run_threaded(&p, &t, policy, config).unwrap();
            let ThreadedOutcome::Completed {
                words_delivered, ..
            } = out
            else {
                panic!("FIR must complete on threads: {out:?}")
            };
            assert_eq!(words_delivered, 15);
        }
    }

    #[test]
    fn fig7_compatible_completes_under_any_scheduling() {
        let p = wl::fig7(3);
        let t = wl::fig7_topology();
        // Run many times: Theorem 1 holds regardless of interleaving, on
        // latches as on buffers.
        for capacity in [1, 0] {
            let config = ThreadedConfig {
                queues_per_interval: 1,
                capacity,
            };
            for _ in 0..RUNS {
                let policy = compatible(&p, &t, 1);
                let out = run_threaded(&p, &t, policy, config).unwrap();
                assert!(out.is_completed(), "{out:?}");
            }
        }
    }

    #[test]
    fn fifo_fig7_completes_or_sticks_in_one_shape() {
        // FIFO gives interval c3-c4 to B when B asks before C's header
        // reaches c3; then c4 waits for C, and C waits for the queue B
        // holds. Cells and messages print by their names in the program.
        let p = wl::fig7(3);
        let t = wl::fig7_topology();
        let stuck = [
            "c3 blocked at op 5 (W(B)): pushing (queue full or latch held)",
            "c4 blocked at op 0 (R(C)): waiting for queue assignment",
            "forwarder C@c2->c3: pushing",
            "forwarder C@c3->c4: acquiring next-hop queue",
        ];
        for _ in 0..RUNS {
            let out = run_threaded(
                &p,
                &t,
                Box::new(FifoPolicy::new()),
                ThreadedConfig::default(),
            );
            match out.unwrap() {
                ThreadedOutcome::Completed {
                    words_delivered, ..
                } => assert_eq!(words_delivered, 10),
                ThreadedOutcome::Deadlocked { blocked } => assert_eq!(blocked, stuck),
            }
        }
    }

    #[test]
    fn fig8_one_queue_deadlocks_on_threads() {
        // Structural queue-induced deadlock: c3 needs A and B interleaved,
        // but one queue between c2 and c3 can serve only one of them.
        let p = wl::fig8();
        let t = wl::fig8_topology();
        for _ in 0..RUNS {
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
        }

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
        for _ in 0..RUNS {
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
    }

    #[test]
    fn fig5_p2_latches_deadlock_buffering_completes() {
        let p = wl::fig5_p2();
        let t = Topology::linear(2);
        let latch = ThreadedConfig {
            queues_per_interval: 2,
            capacity: 0,
        };
        for _ in 0..RUNS {
            let out = run_threaded(&p, &t, Box::new(GreedyPolicy::new()), latch).unwrap();
            assert!(out.is_deadlocked(), "latch queues deadlock P2: {out:?}");
        }

        let buffered = ThreadedConfig {
            queues_per_interval: 2,
            capacity: 1,
        };
        let out = run_threaded(&p, &t, Box::new(GreedyPolicy::new()), buffered).unwrap();
        assert!(out.is_completed(), "{out:?}");
    }

    #[test]
    fn latch_writer_waits_for_its_own_word_on_a_reused_queue() {
        // A and D are released before B and C are written, so B or C gets
        // a queue that already carried a word. Each latch writer must still
        // wait for its own word, and then c0 and c1 wait for each other.
        let p = systolic_model::parse_program(
            "cells 2\n\
             message A: c0 -> c1\nmessage B: c0 -> c1\n\
             message C: c1 -> c0\nmessage D: c1 -> c0\n\
             program c0 { W(A) R(D) W(B) R(C) }\n\
             program c1 { R(A) W(D) W(C) R(B) }\n",
        )
        .unwrap();
        let t = Topology::linear(2);
        let outcome = Analyzer::for_topology(&t, &AnalysisConfig::default()).diagnose(&p);
        assert_eq!(
            outcome.diagnostics().as_slice()[0].code(),
            DiagnosticCode::Deadlock
        );
        let sim = SimConfig {
            queues_per_interval: 2,
            queue: QueueConfig {
                capacity: 0,
                extension: false,
            },
            ..Default::default()
        };
        let out = run_simulation(&p, &t, Box::new(GreedyPolicy::new()), sim).unwrap();
        assert!(out.is_deadlocked(), "{out:?}");

        let latch = ThreadedConfig {
            queues_per_interval: 2,
            capacity: 0,
        };
        for _ in 0..RUNS {
            let out = run_threaded(&p, &t, Box::new(GreedyPolicy::new()), latch).unwrap();
            assert!(out.is_deadlocked(), "{out:?}");
        }
    }

    /// Grants every request queue 99, which no interval has.
    #[derive(Debug)]
    struct MissingQueue;

    impl AssignmentPolicy for MissingQueue {
        fn grant(&mut self, _: &QueuePools, requests: &[Request]) -> Vec<Grant> {
            let grant = |r: &Request| Grant {
                message: r.message,
                hop: r.hop,
                queue: 99,
            };
            requests.iter().map(grant).collect()
        }

        fn name(&self) -> &'static str {
            "missing-queue"
        }
    }

    #[test]
    fn a_worker_panic_fails_the_run() {
        // The writers panic in the grant; the readers and forwarders they
        // leave behind are decided deadlocked instead of waiting forever.
        let p = wl::fig7(3);
        let t = wl::fig7_topology();
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_threaded(&p, &t, Box::new(MissingQueue), ThreadedConfig::default())
        }));
        assert!(run.is_err(), "{run:?}");
    }

    #[test]
    fn multi_hop_forwarding_works_on_threads() {
        let p = wl::matvec(3).unwrap();
        let t = wl::matvec_topology(3);
        let config = ThreadedConfig {
            queues_per_interval: 3,
            ..Default::default()
        };
        for _ in 0..RUNS {
            let policy = compatible(&p, &t, 3);
            let out = run_threaded(&p, &t, policy, config).unwrap();
            assert!(out.is_completed(), "{out:?}");
        }
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
        // No workers: the run takes no time.
        let ThreadedOutcome::Completed { elapsed, .. } = out else {
            unreachable!()
        };
        assert!(elapsed < Duration::from_millis(10), "{elapsed:?}");
    }
}
