//! Plan verification: replay an analyzed program through the simulator.
//!
//! The compile-time analysis certifies (Theorem 1) that a deadlock-free
//! program completes under compatible assignment. [`SimArena::verify`]
//! checks that claim for one [`CommPlan`] by replaying it under the
//! [`CompatiblePolicy`] over the plan's own routes; the serving layer
//! (`systolic-service`) chases cached analyses with it through
//! [`ArenaLru::replay`](crate::ArenaLru::replay). [`verify_plan`] is the
//! one-shot form: it routes over a topology and replays on a fresh arena.

use std::sync::Arc;

use systolic_core::CommPlan;
use systolic_model::{CellId, ModelError, Program, Topology};

use crate::{run_simulation, CompatiblePolicy, DeadlockReport, RunOutcome, SimArena, SimConfig};

/// Where and when a replay deadlocked — the actionable core of a
/// [`DeadlockReport`], small enough to travel with every [`VerifyReport`]
/// (mirroring the analyzer's structured diagnostics).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplayDeadlock {
    /// Cycle at which the run quiesced without completing.
    pub cycle: u64,
    /// The first blocked cell (lowest cell id with remaining work).
    pub first_blocked: CellId,
    /// Why that cell cannot proceed, human-readable (e.g. `queue c1-c2#0
    /// is empty`).
    pub reason: String,
    /// How many cells in total were blocked.
    pub blocked_cells: usize,
}

impl ReplayDeadlock {
    /// Condenses a full [`DeadlockReport`] into the per-replay summary.
    /// Returns `None` for the degenerate case of a report with no blocked
    /// cells.
    #[must_use]
    pub fn from_report(report: &DeadlockReport) -> Option<Self> {
        let first = report.blocked.first()?;
        Some(ReplayDeadlock {
            cycle: report.cycle,
            first_blocked: first.cell,
            reason: format!(
                "{} at op {} ({}): {}",
                first.cell, first.pc, first.op, first.reason
            ),
            blocked_cells: report.blocked.len(),
        })
    }
}

impl std::fmt::Display for ReplayDeadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deadlocked at cycle {}: {} ({} cells blocked)",
            self.cycle, self.reason, self.blocked_cells
        )
    }
}

/// The result of replaying one plan through the simulator.
///
/// Implements `PartialEq`/`Eq` so replay paths can be checked for
/// byte-identical results ([`crate::ArenaLru::replay`] must match a
/// fresh arena's [`SimArena::verify`] report-for-report).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyReport {
    /// `true` if every cell completed its program — what Theorem 1
    /// guarantees for a certified plan given enough hardware queues.
    pub completed: bool,
    /// Cycles the simulated run took (up to the configured limit).
    pub cycles: u64,
    /// Words delivered to their final receivers.
    pub words_delivered: u64,
    /// When the replay deadlocked: the first blocked cell and the stall
    /// cycle, so a failed verification chase is actionable. `None` for
    /// completed runs and cycle-limit stops.
    pub deadlock: Option<ReplayDeadlock>,
}

impl VerifyReport {
    fn from_outcome(outcome: RunOutcome) -> Self {
        let deadlock = match &outcome {
            RunOutcome::Deadlocked { report, .. } => ReplayDeadlock::from_report(report),
            _ => None,
        };
        let stats = outcome.stats();
        VerifyReport {
            completed: outcome.is_completed(),
            cycles: stats.cycles,
            words_delivered: stats.words_delivered,
            deadlock,
        }
    }
}

impl SimArena {
    /// Replays `program` under `plan`'s compatible assignment through this
    /// arena. Routes come from the plan itself (certified over this
    /// arena's topology), the queue pool is raised to the plan's
    /// requirement ([`ensure_queues`](SimArena::ensure_queues)), and all
    /// run state is reset in place.
    ///
    /// # Errors
    ///
    /// [`ModelError::CellCountMismatch`] if the program does not fit the
    /// arena's topology.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was certified over a *different* topology (its
    /// routes cross intervals this arena does not have) or for another
    /// program (its routes do not cover the program's messages).
    pub fn verify(
        &mut self,
        program: &Program,
        plan: &Arc<CommPlan>,
    ) -> Result<VerifyReport, ModelError> {
        self.ensure_queues(plan.requirements().max_per_interval().max(1));
        let mut policy = CompatiblePolicy::new(Arc::clone(plan));
        self.run(program, plan.routes(), &mut policy)
            .map(VerifyReport::from_outcome)
    }
}

/// Replays `program` under `plan`'s compatible assignment once, on a
/// fresh arena over `topology` with every message routed over it
/// ([`run_simulation`]), and reports whether the run completed. The
/// arena has the plan's queue requirement (at least 1) unless `config`
/// asks for more queues.
///
/// # Errors
///
/// Cell-count mismatches and routing failures; the verification
/// *outcome* (completed or not) is in the report, not the error channel.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use systolic_core::{AnalysisConfig, Analyzer};
/// use systolic_sim::{verify_plan, SimConfig};
/// use systolic_workloads::{fig7, fig7_topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = fig7(3);
/// let topology = fig7_topology();
/// let analyzer = Analyzer::for_topology(&topology, &AnalysisConfig::default());
/// let plan = Arc::new(analyzer.analyze(&program)?.into_plan());
/// let report = verify_plan(&program, &topology, &plan, SimConfig::default())?;
/// assert!(report.completed);
/// # Ok(())
/// # }
/// ```
pub fn verify_plan(
    program: &Program,
    topology: &Topology,
    plan: &Arc<CommPlan>,
    config: SimConfig,
) -> Result<VerifyReport, ModelError> {
    let required = plan.requirements().max_per_interval().max(1);
    let config = SimConfig {
        queues_per_interval: config.queues_per_interval.max(required),
        ..config
    };
    let policy = Box::new(CompatiblePolicy::new(Arc::clone(plan)));
    run_simulation(program, topology, policy, config).map(VerifyReport::from_outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::{AnalysisConfig, Analyzer, CompiledTopology};
    use systolic_workloads::{fig7, fig7_topology, fig9, fig9_topology};

    fn plan_for(program: &Program, topology: &Topology, config: &AnalysisConfig) -> Arc<CommPlan> {
        Arc::new(
            Analyzer::for_topology(topology, config)
                .analyze(program)
                .unwrap()
                .into_plan(),
        )
    }

    #[test]
    fn certified_plan_completes() {
        let program = fig7(3);
        let topology = fig7_topology();
        let plan = plan_for(&program, &topology, &AnalysisConfig::default());
        let report = verify_plan(&program, &topology, &plan, SimConfig::default()).unwrap();
        assert!(report.completed);
        assert_eq!(report.words_delivered, program.total_words() as u64);
        assert!(report.cycles > 0);
        assert!(
            report.deadlock.is_none(),
            "completed runs carry no deadlock detail"
        );
    }

    #[test]
    fn compiled_verification_matches_direct() {
        // Plan routes through one reused arena, topology routes through a
        // fresh one: the same report.
        let program = fig7(3);
        let topology = fig7_topology();
        let compiled =
            CompiledTopology::compile(&topology, &AnalysisConfig::default()).into_shared();
        let analyzer = Analyzer::new(Arc::clone(&compiled));
        let plan = Arc::new(analyzer.analyze(&program).unwrap().into_plan());
        let direct = verify_plan(&program, &topology, &plan, SimConfig::default()).unwrap();
        let mut arena = SimArena::new(compiled.topology(), SimConfig::default());
        let reports = [(); 2].map(|()| arena.verify(&program, &plan).unwrap());
        assert!(direct.completed);
        assert_eq!(reports, [direct.clone(), direct]);
    }

    #[test]
    fn verify_raises_queue_count_to_plan_requirement() {
        // Fig. 9 needs 2 queues on one interval; a default SimConfig (1
        // queue) must be bumped automatically rather than fail Theorem 1's
        // assumption (ii), on both replay paths.
        let program = fig9();
        let topology = fig9_topology();
        let config = AnalysisConfig {
            queues_per_interval: 2,
            ..Default::default()
        };
        let plan = plan_for(&program, &topology, &config);
        assert_eq!(plan.requirements().max_per_interval(), 2);
        let report = verify_plan(&program, &topology, &plan, SimConfig::default()).unwrap();
        assert!(report.completed);
        let mut arena = SimArena::new(&topology, SimConfig::default());
        assert_eq!(arena.verify(&program, &plan).unwrap(), report);
    }

    #[test]
    fn arena_grows_queues_across_mixed_requirements() {
        // One arena replays a 1-queue plan, then Fig. 9's 2-queue plan,
        // then the 1-queue plan again: the pool grows mid-sequence, and
        // the larger pool leaves the 1-queue plan's report unchanged.
        let topology = fig9_topology();
        let transfer = systolic_model::parse_program(
            "cells 3\nmessage A: c0 -> c2\nprogram c0 { W(A)*3 }\nprogram c2 { R(A)*3 }\n",
        )
        .unwrap();
        let one = plan_for(&transfer, &topology, &AnalysisConfig::default());
        let two_queues = AnalysisConfig {
            queues_per_interval: 2,
            ..Default::default()
        };
        let two = plan_for(&fig9(), &topology, &two_queues);
        assert_eq!(one.requirements().max_per_interval(), 1);
        assert_eq!(two.requirements().max_per_interval(), 2);
        let mut arena = SimArena::new(&topology, SimConfig::default());
        let first = arena.verify(&transfer, &one).unwrap();
        assert!(first.completed);
        assert!(arena.verify(&fig9(), &two).unwrap().completed);
        assert_eq!(arena.verify(&transfer, &one).unwrap(), first);
    }

    #[test]
    fn deadlocked_replay_names_first_blocked_cell_and_cycle() {
        // A genuinely deadlocking replay: P2 needs buffering, so verify it
        // under capacity-0 latch queues (Section 3.2).
        let program = systolic_workloads::fig5_p2();
        let topology = Topology::linear(2);
        // P2 certifies only under lookahead (both cells write first).
        let config = AnalysisConfig {
            queues_per_interval: 2,
            lookahead: systolic_core::Lookahead::Unbounded,
        };
        let plan = plan_for(&program, &topology, &config);
        let sim = SimConfig {
            queues_per_interval: 2,
            queue: crate::QueueConfig {
                capacity: 0,
                extension: false,
            },
            ..Default::default()
        };
        let report = verify_plan(&program, &topology, &plan, sim).unwrap();
        assert!(!report.completed, "latch queues deadlock P2");
        let deadlock = report.deadlock.expect("deadlock detail is attached");
        assert_eq!(
            deadlock.first_blocked,
            CellId::new(0),
            "c0 is the first blocked cell"
        );
        assert!(deadlock.cycle > 0);
        assert_eq!(deadlock.blocked_cells, 2, "both cells are stuck");
        let text = deadlock.to_string();
        assert!(text.contains("c0"), "{text}");
        assert!(text.contains("cycle"), "{text}");
    }

    #[test]
    fn verify_rejects_mismatched_program() {
        let program = fig9(); // 3 cells
        let t7 = fig7_topology(); // 4 cells
        let c9 = AnalysisConfig {
            queues_per_interval: 2,
            ..Default::default()
        };
        let plan = plan_for(&program, &fig9_topology(), &c9);
        let mut arena = SimArena::new(&t7, SimConfig::default());
        assert!(matches!(
            arena.verify(&program, &plan),
            Err(ModelError::CellCountMismatch { .. })
        ));
    }
}
