//! Plan verification: replay an analyzed program through the simulator.
//!
//! The compile-time analysis certifies (Theorem 1) that a deadlock-free
//! program completes under compatible assignment. [`verify_plan`] checks
//! that claim empirically for one [`CommPlan`] by running the cycle-stepped
//! simulator with the [`CompatiblePolicy`]; the serving layer
//! (`systolic-service`) uses it to chase cached analyses with an end-to-end
//! run.
//!
//! # Verifying at scale
//!
//! A service verifies *batches*: many certified plans over one topology.
//! [`verify_batch_compiled`] replays them all through **one**
//! [`SimArena`]: queue pools, per-cell state and per-hop tables are reset
//! in place between replays instead of rebuilt, routes come straight from
//! each plan (no per-replay routing), and plans travel as
//! [`Arc<CommPlan>`] so the [`CompatiblePolicy`] borrows instead of
//! deep-cloning. The one-shot [`verify_plan`] by contrast pays full setup
//! per call — routing each message over the topology and allocating fresh
//! pools — which is exactly the gap the `verify` criterion bench measures
//! (shared arena ≥ 1.5× faster over a 64-plan batch).

use std::sync::Arc;

use systolic_core::{CommPlan, CompiledTopology};
use systolic_model::{CellId, ModelError, Program, Topology};

use crate::{CompatiblePolicy, DeadlockReport, RunOutcome, SimArena, SimConfig, SimWorld};

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
/// byte-identical results ([`crate::ArenaLru::replay`] must match the
/// sequential [`verify_batch_compiled`] report-for-report).
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
    /// arena — the batch verification primitive. Routes come from the
    /// plan itself (certified over this world's topology), the queue pool
    /// is raised to the plan's requirement
    /// ([`ensure_queues`](SimArena::ensure_queues)), and all run state is
    /// reset in place.
    ///
    /// # Errors
    ///
    /// [`ModelError::CellCountMismatch`] if the program does not fit the
    /// world's topology.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was certified over a *different* topology (its
    /// routes cross intervals this world does not have).
    pub fn verify(
        &mut self,
        program: &Program,
        plan: &Arc<CommPlan>,
    ) -> Result<VerifyReport, ModelError> {
        let topology_cells = self.world().topology().num_cells();
        if program.num_cells() != topology_cells {
            return Err(ModelError::CellCountMismatch {
                program: program.num_cells(),
                topology: topology_cells,
            });
        }
        self.ensure_queues(plan.requirements().max_per_interval().max(1));
        let mut policy = CompatiblePolicy::new(Arc::clone(plan));
        let outcome = self.run_with_routes(program, plan.routes(), &mut policy);
        Ok(VerifyReport::from_outcome(outcome))
    }
}

/// Replays `program` under `plan`'s compatible assignment and reports
/// whether the run completed.
///
/// The simulator is configured with exactly the plan's queue requirement
/// (`plan.requirements().max_per_interval()`, but at least 1) unless
/// `config` asks for more queues.
///
/// This is the **one-shot** path: it builds a fresh [`SimWorld`] and
/// [`SimArena`] and routes every message over `topology`, per call. Batch
/// callers share one arena via [`verify_batch_compiled`] instead.
///
/// # Errors
///
/// Returns routing/validation errors from the simulator's setup; the
/// verification *outcome* (completed or not) is in the report, not the
/// error channel.
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
    let world = SimWorld::new(topology, config);
    // The per-call setup shape: route every message over the topology and
    // build fresh pools, exactly what a batch arena amortizes away.
    let routes = world.routes_for(program)?;
    let mut arena = SimArena::new(world);
    let mut policy = CompatiblePolicy::new(Arc::clone(plan));
    Ok(VerifyReport::from_outcome(arena.run_with_routes(
        program,
        &routes,
        &mut policy,
    )))
}

/// Replays a batch of `(program, plan)` pairs that all share one
/// precompiled topology — the common shape of a service batch — through
/// **one** [`SimArena`]. Queue pools and run-state vectors are built
/// once and reset in place per replay; the pool grows to the batch's
/// largest queue requirement and never shrinks.
///
/// # Errors
///
/// Fails fast on the first setup error (cell-count mismatch); per-run
/// outcomes are in the reports.
pub fn verify_batch_compiled<'a>(
    batch: impl IntoIterator<Item = (&'a Program, &'a Arc<CommPlan>)>,
    compiled: &Arc<CompiledTopology>,
    config: SimConfig,
) -> Result<Vec<VerifyReport>, ModelError> {
    let mut arena = SimArena::from_compiled(Arc::clone(compiled), config);
    batch
        .into_iter()
        .map(|(program, plan)| arena.verify(program, plan))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::{AnalysisConfig, Analyzer};
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
        let program = fig7(3);
        let topology = fig7_topology();
        let compiled =
            CompiledTopology::compile(&topology, &AnalysisConfig::default()).into_shared();
        let analyzer = Analyzer::new(Arc::clone(&compiled));
        let plan = Arc::new(analyzer.analyze(&program).unwrap().into_plan());
        let direct = verify_plan(&program, &topology, &plan, SimConfig::default()).unwrap();
        let reports = verify_batch_compiled(
            [(&program, &plan), (&program, &plan)],
            &compiled,
            SimConfig::default(),
        )
        .unwrap();
        assert!(direct.completed);
        assert_eq!(reports, [direct.clone(), direct]);
    }

    #[test]
    fn verify_raises_queue_count_to_plan_requirement() {
        // Fig. 9 needs 2 queues on one interval; a default SimConfig (1
        // queue) must be bumped automatically rather than fail Theorem 1's
        // assumption (ii).
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
    }

    #[test]
    fn batch_arena_grows_queues_across_mixed_requirements() {
        // A batch whose first plan needs 1 queue and second needs 2: the
        // shared arena must raise its pool mid-batch, and the first plan's
        // replay must not be affected by replay order.
        let p7 = fig7(3);
        let t7 = fig7_topology();
        let plan7 = plan_for(&p7, &t7, &AnalysisConfig::default());
        let p9 = fig9();
        let c9 = AnalysisConfig {
            queues_per_interval: 2,
            ..Default::default()
        };
        let plan9 = plan_for(&p9, &fig9_topology(), &c9);
        // fig7_topology and fig9_topology are both linear:4? fig9 is
        // linear(3); use per-topology arenas where they differ.
        let compiled7 = CompiledTopology::compile(&t7, &AnalysisConfig::default()).into_shared();
        let mut arena = SimArena::from_compiled(Arc::clone(&compiled7), SimConfig::default());
        let first = arena.verify(&p7, &plan7).unwrap();
        assert!(first.completed);

        let compiled9 = CompiledTopology::compile(&fig9_topology(), &c9).into_shared();
        let mut arena9 = SimArena::from_compiled(compiled9, SimConfig::default());
        let a = arena9.verify(&p9, &plan9).unwrap();
        assert!(a.completed);
        // Re-verify the 1-queue plan in the grown arena: identical result.
        let again = arena.verify(&p7, &plan7).unwrap();
        assert_eq!(again.cycles, first.cycles);
        assert_eq!(again.words_delivered, first.words_delivered);
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
        let compiled = CompiledTopology::compile(&t7, &AnalysisConfig::default()).into_shared();
        let mut arena = SimArena::from_compiled(compiled, SimConfig::default());
        assert!(matches!(
            arena.verify(&program, &plan),
            Err(ModelError::CellCountMismatch { .. })
        ));
    }
}
