//! Cross-topology verify scheduling: one fan-out for a heterogeneous
//! batch of certified plans.
//!
//! [`VerifyScheduler`] is the one engine that replays certified plans
//! outside the one-arena [`verify_batch_compiled`] path. Each worker owns
//! an [`ArenaLru`] over *multiple* worlds keyed by compiled-topology
//! fingerprint, so a single batch may interleave mesh, torus and line
//! plans and still fan out over every worker at once:
//!
//! * **scoped threads, work stealing** — a shared atomic cursor hands out
//!   batch indices, workers borrow their LRU for the duration of one
//!   call, and reports are merged back into **input order**; a
//!   one-worker scheduler skips the threads and replays on the caller;
//! * **warm arenas across batches and topologies** — a worker that drew
//!   a mesh plan after a torus plan switches worlds by LRU lookup, not by
//!   rebuild; each LRU keeps at most the scheduler's arena count and
//!   evicts the least recently used arena past it;
//! * **per-topology pre-growth** — every topology group's arenas grow to
//!   that group's largest queue requirement before replay, so outcomes
//!   are independent of stealing order and **byte-identical** to the
//!   sequential [`verify_batch_compiled`] path per topology
//!   (`tests/verify_parity.rs` asserts this by property,
//!   `ReplayDeadlock` details included);
//! * **panic isolation** — [`VerifyScheduler::verify_batch_outcomes`]
//!   reports a replay panic as one item's
//!   [`VerifyTaskError::Panicked`] and drops exactly the poisoned arena;
//!   the rest of the batch, and the other residents of that worker's
//!   LRU, are untouched;
//! * **counted in the registry only** — the scheduler keeps no counters
//!   of its own: with [`VerifyScheduler::set_obs`], fan-outs, replays and
//!   arena lookups land in the shared metrics registry (per-topology
//!   series labeled by spec), and a serving layer's summary reads them
//!   there.
//!
//! [`verify_batch_compiled`]: crate::verify_batch_compiled

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use systolic_core::{CommPlan, CompiledTopology};
use systolic_model::{ModelError, Program};
use systolic_obs::{names, Histogram, Obs};

use crate::{ArenaLru, SimConfig, VerifyReport};

/// Why one scheduled replay produced no [`VerifyReport`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerifyTaskError {
    /// Replay setup was rejected (cell-count mismatch between the program
    /// and the plan's topology).
    Model(ModelError),
    /// The replay panicked; the scheduler dropped the possibly-poisoned
    /// arena (the rest of that worker's LRU stays warm) and carries the
    /// panic message here instead of unwinding.
    Panicked(String),
}

impl std::fmt::Display for VerifyTaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyTaskError::Model(e) => write!(f, "{e}"),
            VerifyTaskError::Panicked(msg) => write!(f, "replay panicked: {msg}"),
        }
    }
}

impl std::error::Error for VerifyTaskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifyTaskError::Model(e) => Some(e),
            VerifyTaskError::Panicked(_) => None,
        }
    }
}

/// One unit of scheduled work: a `(program, plan)` pair, the compiled
/// topology its arena is built over (keyed by that topology's
/// fingerprint), and the queue count its topology group was sized to.
struct Task<'a> {
    program: &'a Program,
    plan: &'a Arc<CommPlan>,
    compiled: &'a Arc<CompiledTopology>,
    key: u128,
    group_max: usize,
}

/// The cross-topology verify scheduler: N workers, each owning an
/// [`ArenaLru`] over the worlds it has replayed, verifying heterogeneous
/// plan batches in one fan-out.
///
/// Build one per node and feed it every batch — mixed mesh/torus/line
/// traffic included. Reports come back in input order, byte-identical to
/// running [`verify_batch_compiled`](crate::verify_batch_compiled) per
/// topology group sequentially.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use systolic_core::{AnalysisConfig, Analyzer, CompiledTopology};
/// use systolic_model::{ProgramBuilder, Topology};
/// use systolic_obs::{names, Obs};
/// use systolic_sim::{SimConfig, VerifyScheduler};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = AnalysisConfig::default();
/// let mut batch = Vec::new();
/// // An interleaved mesh + torus batch: one scheduler, one fan-out.
/// for topology in [Topology::mesh(2, 2), Topology::torus(2, 2)] {
///     let compiled = CompiledTopology::compile(&topology, &config).into_shared();
///     let analyzer = Analyzer::new(Arc::clone(&compiled));
///     for reps in 1..=2 {
///         let mut builder = ProgramBuilder::new(topology.num_cells());
///         builder.message("A", 0u32, 1u32)?;
///         builder.write_n(0u32, "A", reps)?;
///         builder.read_n(1u32, "A", reps)?;
///         let program = builder.build()?;
///         let plan = Arc::new(analyzer.analyze(&program)?.into_plan());
///         batch.push((program, compiled.clone(), plan));
///     }
/// }
/// // Two arenas per worker: one per topology in the batch.
/// let mut scheduler = VerifyScheduler::new(SimConfig::default(), 2, 2);
/// let obs = Arc::new(Obs::new());
/// scheduler.set_obs(Arc::clone(&obs));
/// let reports =
///     scheduler.verify_batch(batch.iter().map(|(p, c, plan)| (p, c, plan)))?;
/// assert!(reports.iter().all(|r| r.completed));
/// let metrics = obs.registry().snapshot();
/// assert_eq!(metrics.counter_value(names::SCHED_FANOUTS, &[]), 1);
/// assert_eq!(metrics.counter_value(names::SCHED_ITEMS, &[]), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct VerifyScheduler {
    sim: SimConfig,
    /// One arena LRU per worker thread; persistent across batches so
    /// arenas stay warm between fan-outs.
    workers: Vec<ArenaLru>,
    obs: Option<Arc<Obs>>,
}

impl VerifyScheduler {
    /// A scheduler of `threads` workers (clamped to ≥ 1), each holding an
    /// [`ArenaLru`] of at most `arenas` arenas (clamped to ≥ 1), replaying
    /// under `sim`.
    #[must_use]
    pub fn new(sim: SimConfig, threads: usize, arenas: usize) -> Self {
        let workers = (0..threads.max(1))
            .map(|_| ArenaLru::with_budget(arenas))
            .collect();
        VerifyScheduler {
            sim,
            workers,
            obs: None,
        }
    }

    /// Attaches a shared observability bundle: fan-outs count into
    /// `systolic_scheduler_{fanouts,items}_total` with a
    /// `systolic_scheduler_fanout_size` histogram, each replay records its
    /// wall time (in-place arena reset + cycle-stepped run) into
    /// `systolic_verify_replay_duration_micros` and its simulated cycle
    /// count into `systolic_verify_replay_cycles{topology=...}`, and every
    /// worker's [`ArenaLru`] starts writing the shared arena-cache
    /// counters and build-duration histogram.
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        for lru in &mut self.workers {
            lru.set_obs(&obs);
        }
        self.obs = Some(obs);
    }

    /// Number of worker threads (= arena LRUs) this scheduler fans out
    /// over.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Arenas currently resident across all workers.
    #[must_use]
    pub fn resident_arenas(&self) -> usize {
        self.workers.iter().map(ArenaLru::len).sum()
    }

    /// Replays every `(program, compiled topology, plan)` triple of a
    /// heterogeneous batch in one fan-out and returns the reports **in
    /// input order** — byte-identical to the sequential
    /// [`verify_batch_compiled`](crate::verify_batch_compiled) path run
    /// per topology group.
    ///
    /// # Errors
    ///
    /// As the sequential path: a setup error is reported for the earliest
    /// offending batch index; per-run outcomes (completed / deadlocked,
    /// with details) are in the reports.
    ///
    /// # Panics
    ///
    /// Resumes a replay panic on the calling thread (after the fan-out
    /// completes and the poisoned arena is dropped). Serving layers that
    /// must isolate panics per item use
    /// [`verify_batch_outcomes`](VerifyScheduler::verify_batch_outcomes).
    pub fn verify_batch<'a>(
        &mut self,
        batch: impl IntoIterator<Item = (&'a Program, &'a Arc<CompiledTopology>, &'a Arc<CommPlan>)>,
    ) -> Result<Vec<VerifyReport>, ModelError> {
        strict(self.verify_batch_outcomes(batch))
    }

    /// As [`verify_batch`](VerifyScheduler::verify_batch), but with
    /// per-item outcomes: one item's setup error or replay panic is
    /// *that item's* [`VerifyTaskError`], and every other item still gets
    /// its report — the contract a serving layer needs to answer each
    /// client independently.
    pub fn verify_batch_outcomes<'a>(
        &mut self,
        batch: impl IntoIterator<Item = (&'a Program, &'a Arc<CompiledTopology>, &'a Arc<CommPlan>)>,
    ) -> Vec<Result<VerifyReport, VerifyTaskError>> {
        let tasks: Vec<Task<'_>> = batch
            .into_iter()
            .map(|(program, compiled, plan)| Task {
                program,
                plan,
                compiled,
                key: compiled.fingerprint(),
                group_max: 1,
            })
            .collect();
        self.run(tasks)
    }

    fn run(&mut self, mut tasks: Vec<Task<'_>>) -> Vec<Result<VerifyReport, VerifyTaskError>> {
        if tasks.is_empty() {
            return Vec::new();
        }
        // Pre-size each topology group to its largest queue requirement:
        // a group's replays then see one pool shape no matter which worker
        // stole them or in what order, keeping the fan-out structurally
        // identical to a sequential per-group batch.
        let mut group_max: BTreeMap<u128, usize> = BTreeMap::new();
        for task in &tasks {
            let need = task.plan.requirements().max_per_interval().max(1);
            let entry = group_max.entry(task.key).or_insert(1);
            *entry = (*entry).max(need);
        }
        for task in &mut tasks {
            task.group_max = group_max[&task.key];
        }

        // One per-topology replay-cycle histogram per distinct key in this
        // fan-out, resolved before dispatch so the merge loop below does
        // not take the registry lock (or render a spec string, which lists
        // every edge of a graph topology) per task.
        let mut cycle_hists: BTreeMap<u128, Arc<Histogram>> = BTreeMap::new();
        let mut replay_hist = None;
        if let Some(obs) = &self.obs {
            let registry = obs.registry();
            for task in &tasks {
                cycle_hists.entry(task.key).or_insert_with(|| {
                    let spec = task.compiled.topology().spec();
                    registry.histogram_with(names::VERIFY_REPLAY_CYCLES, &[("topology", &spec)])
                });
            }
            replay_hist = Some(registry.histogram(names::VERIFY_REPLAY_DURATION));
            registry.counter(names::SCHED_FANOUTS).inc();
            registry.counter(names::SCHED_ITEMS).add(tasks.len() as u64);
            registry
                .histogram(names::SCHED_FANOUT_SIZE)
                .record(tasks.len() as u64);
        }

        let sim = self.sim;
        let workers = self.workers.len().min(tasks.len());
        // One worker (or one item): skip the thread machinery entirely.
        let outcomes: Vec<Result<VerifyReport, VerifyTaskError>> = if workers <= 1 {
            let lru = &mut self.workers[0];
            tasks
                .iter()
                .map(|task| verify_one(lru, sim, task, replay_hist.as_deref()))
                .collect()
        } else {
            // Work-stealing cursor: each worker draws the next unclaimed
            // index until the batch is exhausted; outcomes carry their
            // index so the merge restores input order.
            let cursor = AtomicUsize::new(0);
            let replay_hist = replay_hist.as_deref();
            let per_worker: Vec<Vec<_>> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .workers
                    .iter_mut()
                    .take(workers)
                    .map(|lru| {
                        let cursor = &cursor;
                        let tasks = &tasks;
                        scope.spawn(move || {
                            let mut local = Vec::new();
                            loop {
                                // lint: relaxed-ok(work-stealing cursor; fetch_add atomicity alone yields unique indices)
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(task) = tasks.get(i) else {
                                    break;
                                };
                                local.push((i, verify_one(lru, sim, task, replay_hist)));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| {
                        handle
                            .join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                    })
                    .collect()
            });

            let mut outcomes: Vec<Option<Result<VerifyReport, VerifyTaskError>>> =
                (0..tasks.len()).map(|_| None).collect();
            for (i, outcome) in per_worker.into_iter().flatten() {
                outcomes[i] = Some(outcome);
            }
            outcomes
                .into_iter()
                // lint: panic-ok(the scatter loop above wrote every index exactly once)
                .map(|outcome| outcome.expect("every batch index was verified"))
                .collect()
        };
        // Per-topology replay-cycle histograms, recorded once the merge
        // restored input order (outcome i belongs to task i).
        if !cycle_hists.is_empty() {
            for (task, outcome) in tasks.iter().zip(&outcomes) {
                if let (Ok(report), Some(hist)) = (outcome, cycle_hists.get(&task.key)) {
                    hist.record(report.cycles);
                }
            }
        }
        outcomes
    }
}

/// One scheduled replay: LRU lookup (building the arena on a miss),
/// per-group queue growth, then the verify run — all inside
/// `catch_unwind`, so a panic poisons at most the one arena involved,
/// which is dropped from the LRU before the outcome is reported.
fn verify_one(
    lru: &mut ArenaLru,
    sim: SimConfig,
    task: &Task<'_>,
    replay_hist: Option<&Histogram>,
) -> Result<VerifyReport, VerifyTaskError> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let lookup = lru.get_or_build(task.compiled, sim);
        lookup.arena.ensure_queues(task.group_max);
        // Replay wall time: the in-place state reset plus the
        // cycle-stepped run (arena *builds* are timed separately by the
        // LRU's own histogram).
        let replay_start = Instant::now();
        let outcome = lookup.arena.verify(task.program, task.plan);
        let replay_micros = replay_start.elapsed().as_micros() as u64;
        (outcome, replay_micros)
    }));
    match result {
        Ok((outcome, replay_micros)) => {
            if let Some(hist) = replay_hist {
                hist.record(replay_micros);
            }
            outcome.map_err(VerifyTaskError::Model)
        }
        Err(panic) => {
            lru.remove(task.key);
            Err(VerifyTaskError::Panicked(panic_message(&*panic)))
        }
    }
}

/// Collapses per-item outcomes to the strict contract of the sequential
/// path: any panic resumes on the caller, otherwise the earliest setup
/// error (by batch index) wins, otherwise all reports in input order.
fn strict(
    outcomes: Vec<Result<VerifyReport, VerifyTaskError>>,
) -> Result<Vec<VerifyReport>, ModelError> {
    if let Some(msg) = outcomes.iter().find_map(|o| match o {
        Err(VerifyTaskError::Panicked(msg)) => Some(msg.clone()),
        _ => None,
    }) {
        std::panic::resume_unwind(Box::new(msg));
    }
    let mut reports = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome {
            Ok(report) => reports.push(report),
            Err(VerifyTaskError::Model(error)) => return Err(error),
            Err(VerifyTaskError::Panicked(_)) => unreachable!("panics resumed above"),
        }
    }
    Ok(reports)
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_batch_compiled;
    use systolic_core::{AnalysisConfig, Analyzer};
    use systolic_model::{ProgramBuilder, Topology};
    use systolic_workloads::{fig9, fig9_topology};

    /// A short neighbor transfer: `reps` words from cell 0 to cell 1 on a
    /// `cells`-cell fabric.
    fn chain(cells: usize, reps: usize) -> Program {
        let mut builder = ProgramBuilder::new(cells);
        builder.message("A", 0u32, 1u32).unwrap();
        builder.write_n(0u32, "A", reps).unwrap();
        builder.read_n(1u32, "A", reps).unwrap();
        builder.build().unwrap()
    }

    /// A mixed batch: `per_topology` certified transfer-chain plans on
    /// each of the given topologies, interleaved round-robin.
    fn mixed_batch(
        topologies: &[Topology],
        per_topology: usize,
    ) -> Vec<(Program, Arc<CompiledTopology>, Arc<CommPlan>)> {
        let config = AnalysisConfig::default();
        let per: Vec<Vec<_>> = topologies
            .iter()
            .map(|topology| {
                let compiled = CompiledTopology::compile(topology, &config).into_shared();
                let analyzer = Analyzer::new(Arc::clone(&compiled));
                (0..per_topology)
                    .map(|i| {
                        let program = chain(topology.num_cells(), 1 + i % 3);
                        let plan = Arc::new(analyzer.analyze(&program).unwrap().into_plan());
                        (program, Arc::clone(&compiled), plan)
                    })
                    .collect()
            })
            .collect();
        let mut interleaved = Vec::new();
        for i in 0..per_topology {
            for group in &per {
                interleaved.push(group[i].clone());
            }
        }
        interleaved
    }

    /// A scheduler recording into a fresh registry of its own.
    fn observed(threads: usize, arenas: usize) -> (VerifyScheduler, Arc<Obs>) {
        let mut scheduler = VerifyScheduler::new(SimConfig::default(), threads, arenas);
        let obs = Arc::new(Obs::new());
        scheduler.set_obs(Arc::clone(&obs));
        (scheduler, obs)
    }

    /// The sequential reference: per-topology `verify_batch_compiled`,
    /// reassembled into the batch's original order.
    fn sequential_reference(
        batch: &[(Program, Arc<CompiledTopology>, Arc<CommPlan>)],
        sim: SimConfig,
    ) -> Vec<VerifyReport> {
        let mut keys: Vec<u128> = Vec::new();
        for (_, compiled, _) in batch {
            if !keys.contains(&compiled.fingerprint()) {
                keys.push(compiled.fingerprint());
            }
        }
        let mut reports: Vec<Option<VerifyReport>> = vec![None; batch.len()];
        for key in keys {
            let indices: Vec<usize> = (0..batch.len())
                .filter(|&i| batch[i].1.fingerprint() == key)
                .collect();
            let group = verify_batch_compiled(
                indices.iter().map(|&i| (&batch[i].0, &batch[i].2)),
                &batch[indices[0]].1,
                sim,
            )
            .unwrap();
            for (&i, report) in indices.iter().zip(group) {
                reports[i] = Some(report);
            }
        }
        reports.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn mixed_batch_matches_sequential_per_topology() {
        let batch = mixed_batch(
            &[
                Topology::mesh(2, 2),
                Topology::torus(2, 2),
                Topology::linear(3),
            ],
            5,
        );
        let sim = SimConfig::default();
        let sequential = sequential_reference(&batch, sim);
        for threads in [1, 2, 4] {
            let mut scheduler = VerifyScheduler::new(sim, threads, 3);
            let reports = scheduler
                .verify_batch(batch.iter().map(|(p, c, plan)| (p, c, plan)))
                .unwrap();
            assert_eq!(reports, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn one_fanout_covers_a_mixed_mesh_torus_batch() {
        // The acceptance shape: a 256-plan interleaved mesh+torus batch
        // through one scheduler fan-out — no per-topology pool rebuilds,
        // so arena builds stay bounded by workers × topologies.
        let topologies = [Topology::mesh(4, 4), Topology::torus(4, 4)];
        let batch = mixed_batch(&topologies, 128);
        let (mut scheduler, obs) = observed(4, topologies.len());
        let reports = scheduler
            .verify_batch(batch.iter().map(|(p, c, plan)| (p, c, plan)))
            .unwrap();
        assert_eq!(reports.len(), 256);
        assert!(reports.iter().all(|r| r.completed));

        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter_value(names::SCHED_FANOUTS, &[]), 1);
        assert_eq!(snap.counter_value(names::SCHED_ITEMS, &[]), 256);
        let fanout = snap.histogram_value(names::SCHED_FANOUT_SIZE, &[]);
        assert_eq!((fanout.count, fanout.max), (1, 256));
        // The worker LRUs are the single writers of the arena series:
        // one lookup per replay, one timed build per miss.
        let misses = snap.counter_value(names::ARENA_CACHE_MISSES, &[]);
        assert!(misses <= 8, "at most workers × topologies builds: {misses}");
        let hits = snap.counter_value(names::ARENA_CACHE_HITS, &[]);
        assert_eq!(hits + misses, 256);
        let builds = snap.histogram_value(names::ARENA_BUILD_DURATION, &[]);
        assert_eq!(builds.count, misses);
        let replays = snap.histogram_value(names::VERIFY_REPLAY_DURATION, &[]);
        assert_eq!(replays.count, 256);
        // One replay-cycle histogram per topology, each with one sample
        // per replay of that fabric, and cycles conserved exactly.
        for topology in &topologies {
            let spec = topology.spec();
            let cycles = snap.histogram_value(names::VERIFY_REPLAY_CYCLES, &[("topology", &spec)]);
            assert_eq!(cycles.count, 128, "topology {spec}");
        }
        let total_cycles: u64 = reports.iter().map(|r| r.cycles).sum();
        let cycles = snap.histogram_total(names::VERIFY_REPLAY_CYCLES);
        assert_eq!(cycles.sum, total_cycles);
    }

    #[test]
    fn arenas_stay_warm_across_batches() {
        // Work stealing decides which worker draws which topology, so a
        // worker may first meet a topology in the second batch. What the
        // scheduler promises is that no worker ever builds an arena twice:
        // every build is still resident at the end.
        let batch = mixed_batch(&[Topology::mesh(2, 2), Topology::torus(2, 2)], 4);
        let (mut scheduler, obs) = observed(2, 2);
        let first = scheduler
            .verify_batch(batch.iter().map(|(p, c, plan)| (p, c, plan)))
            .unwrap();
        let second = scheduler
            .verify_batch(batch.iter().map(|(p, c, plan)| (p, c, plan)))
            .unwrap();
        assert_eq!(first, second, "reuse across batches must not drift");
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter_value(names::SCHED_FANOUTS, &[]), 2);
        assert_eq!(
            snap.counter_value(names::ARENA_CACHE_MISSES, &[]),
            scheduler.resident_arenas() as u64,
            "every arena build is still resident"
        );
        assert_eq!(snap.counter_value(names::ARENA_CACHE_EVICTIONS, &[]), 0);
    }

    #[test]
    fn setup_error_reports_earliest_offending_index() {
        let mut batch = mixed_batch(&[Topology::mesh(2, 2)], 6);
        // A 3-cell plan from another topology group: indices 1 and 4
        // mismatch the 4-cell programs... swap programs instead so the
        // plan's topology stays but the program's cell count differs.
        let odd = mixed_batch(&[Topology::linear(3)], 1);
        batch[1].0 = odd[0].0.clone();
        batch[4].0 = odd[0].0.clone();
        let mut scheduler = VerifyScheduler::new(SimConfig::default(), 3, 1);
        let error = scheduler
            .verify_batch(batch.iter().map(|(p, c, plan)| (p, c, plan)))
            .unwrap_err();
        assert!(
            matches!(
                error,
                ModelError::CellCountMismatch {
                    program: 3,
                    topology: 4
                }
            ),
            "{error:?}"
        );
        // The outcome API isolates the same failures per item.
        let outcomes =
            scheduler.verify_batch_outcomes(batch.iter().map(|(p, c, plan)| (p, c, plan)));
        assert!(matches!(outcomes[1], Err(VerifyTaskError::Model(_))));
        assert!(matches!(outcomes[4], Err(VerifyTaskError::Model(_))));
        assert_eq!(
            outcomes.iter().filter(|o| o.is_ok()).count(),
            4,
            "healthy items still report"
        );
    }

    #[test]
    fn replay_panics_report_their_message() {
        // A one-message plan replayed against a two-message program trips
        // the engine's route-coverage assertion inside the replay.
        let batch = mixed_batch(&[Topology::linear(3)], 1);
        let (_, compiled, plan) = &batch[0];
        let mut builder = ProgramBuilder::new(3);
        builder.message("A", 0u32, 1u32).unwrap();
        builder.message("B", 1u32, 2u32).unwrap();
        builder.write(0u32, "A").unwrap();
        builder.read(1u32, "A").unwrap();
        builder.write(1u32, "B").unwrap();
        builder.read(2u32, "B").unwrap();
        let program = builder.build().unwrap();
        let mut scheduler = VerifyScheduler::new(SimConfig::default(), 1, 1);
        let outcomes = scheduler.verify_batch_outcomes([(&program, compiled, plan)]);
        let Err(VerifyTaskError::Panicked(message)) = &outcomes[0] else {
            panic!("the replay must panic: {:?}", outcomes[0]);
        };
        assert!(
            message.contains("routes must cover exactly the program's messages"),
            "{message}"
        );
    }

    #[test]
    fn threads_clamp_to_one() {
        let batch = mixed_batch(&[Topology::linear(3)], 3);
        let mut scheduler = VerifyScheduler::new(SimConfig::default(), 0, 1);
        assert_eq!(scheduler.threads(), 1);
        let reports = scheduler
            .verify_batch(batch.iter().map(|(p, c, plan)| (p, c, plan)))
            .unwrap();
        assert!(reports.iter().all(|r| r.completed));
    }

    #[test]
    fn mixed_queue_requirements_pre_grow_every_arena() {
        // fig9 needs 2 queues per interval against the simulator's floor
        // of 1: every worker's arena grows to the group max before
        // fan-out, so results are independent of stealing order.
        let config = AnalysisConfig {
            queues_per_interval: 2,
            ..Default::default()
        };
        let compiled = CompiledTopology::compile(&fig9_topology(), &config).into_shared();
        let plan = Arc::new(
            Analyzer::new(Arc::clone(&compiled))
                .analyze(&fig9())
                .unwrap()
                .into_plan(),
        );
        let batch: Vec<_> = (0..6)
            .map(|_| (fig9(), Arc::clone(&compiled), Arc::clone(&plan)))
            .collect();
        let sim = SimConfig::default();
        let sequential = sequential_reference(&batch, sim);
        let mut scheduler = VerifyScheduler::new(sim, 2, 1);
        let parallel = scheduler
            .verify_batch(batch.iter().map(|(p, c, plan)| (p, c, plan)))
            .unwrap();
        assert_eq!(parallel, sequential);
        assert!(parallel.iter().all(|r| r.completed));
    }

    #[test]
    fn empty_batch_is_free() {
        let (mut scheduler, obs) = observed(2, 1);
        let reports = scheduler.verify_batch(std::iter::empty()).unwrap();
        assert!(reports.is_empty());
        assert_eq!(scheduler.resident_arenas(), 0);
        let snap = obs.registry().snapshot();
        assert!(
            snap.counters.iter().all(|(_, v)| *v == 0)
                && snap.histograms.iter().all(|(_, h)| h.count == 0),
            "no fan-out recorded: {snap:?}"
        );
    }

    #[test]
    fn fixed_budget_bounds_residency_per_worker() {
        let topologies: Vec<Topology> = (2..6).map(Topology::linear).collect();
        let batch = mixed_batch(&topologies, 2);
        let mut scheduler = VerifyScheduler::new(SimConfig::default(), 2, 2);
        let reports = scheduler
            .verify_batch(batch.iter().map(|(p, c, plan)| (p, c, plan)))
            .unwrap();
        assert!(reports.iter().all(|r| r.completed));
        for lru in &scheduler.workers {
            assert!(lru.len() <= 2, "two-arena workers hold at most 2 arenas");
        }
    }
}
