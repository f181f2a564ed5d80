//! A small LRU of verification arenas over multiple topologies, keyed by
//! compiled-topology fingerprint, and the one replay path through it.
//!
//! The verification chase replays a certified plan through a
//! [`SimArena`]. Arenas are cheap to *reuse* (state resets in place) but
//! expensive to *build* (queue pools for every interval of the fabric),
//! and an arena is only valid for the topology it was built over. A
//! holder of just the **last** topology's arena thrashes as soon as
//! traffic interleaves two topologies — A, B, A, B rebuilds on every
//! request. [`ArenaLru`] keeps the last few topologies' arenas warm
//! instead, with no locking: whoever replays holds the LRU outright (a
//! serving layer lends its LRUs out of a pool, one borrower at a time).
//!
//! Residency is one rule: an LRU holds at most the count it was built
//! with (at least 1) and, to admit a new topology past that count, evicts
//! the least recently used arena. The count is a hard bound on the arenas
//! each owner keeps, whatever mix of topologies it sees.
//!
//! [`ArenaLru::replay`] is the one replay path: it looks up (or builds)
//! the plan's arena, replays the plan through it, and contains a replay
//! panic to that one arena, which it drops as possibly poisoned while
//! the LRU's other residents stay warm. With [`ArenaLru::set_obs`] the
//! LRU is the single writer of every arena and replay series.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use systolic_core::{CommPlan, CompiledTopology};
use systolic_model::{ModelError, Program, Topology};
use systolic_obs::{names, Counter, Histogram, Obs, Registry};

use crate::{SimArena, SimConfig, VerifyReport};

/// Why one [`ArenaLru::replay`] produced no [`VerifyReport`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerifyTaskError {
    /// Replay setup was rejected (cell-count mismatch between the program
    /// and the plan's topology).
    Model(ModelError),
    /// The replay panicked; the LRU dropped the possibly-poisoned arena
    /// (its other residents stay warm) and carries the panic message here
    /// instead of unwinding.
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

/// One resident arena: its topology's key (compiled-topology fingerprint)
/// and the [`SimConfig`] it was built under (both must match for reuse —
/// an arena's queue shapes and cycle limits are baked in at
/// construction), a recency tick, the arena itself, and its topology's
/// replay series when the LRU is observed.
#[derive(Debug)]
struct Entry {
    key: u128,
    sim: SimConfig,
    last_used: u64,
    arena: SimArena,
    series: Option<TopologySeries>,
}

/// The result of an [`ArenaLru::get_or_build`] lookup: the arena to
/// replay through, plus what the lookup did (for cache counters).
#[derive(Debug)]
pub struct ArenaLookup<'a> {
    /// The arena for the requested topology, reset-ready.
    pub arena: &'a mut SimArena,
    /// `true` when the arena was already resident (no rebuild).
    pub hit: bool,
    /// `true` when admitting this arena displaced the least recently used
    /// resident one.
    pub evicted: bool,
}

/// A tiny, lock-free-by-ownership LRU of [`SimArena`]s keyed by
/// [`CompiledTopology::fingerprint`], holding at most a fixed number of
/// arenas, so topology-interleaved traffic keeps the warm fabrics' arenas
/// resident instead of rebuilding per request.
///
/// # Examples
///
/// ```
/// use systolic_core::{AnalysisConfig, CompiledTopology};
/// use systolic_model::Topology;
/// use systolic_sim::{ArenaLru, SimConfig};
///
/// let mut lru = ArenaLru::with_budget(2);
/// let config = AnalysisConfig::default();
/// let a = CompiledTopology::compile(&Topology::linear(2), &config).into_shared();
/// let b = CompiledTopology::compile(&Topology::ring(4), &config).into_shared();
///
/// assert!(!lru.get_or_build(&a, SimConfig::default()).hit);
/// assert!(!lru.get_or_build(&b, SimConfig::default()).hit);
/// // Interleaved reuse: both stay warm within the capacity.
/// assert!(lru.get_or_build(&a, SimConfig::default()).hit);
/// assert!(lru.get_or_build(&b, SimConfig::default()).hit);
/// ```
#[derive(Debug)]
pub struct ArenaLru {
    capacity: usize,
    tick: u64,
    entries: Vec<Entry>,
    instruments: Option<LruInstruments>,
}

/// Registry instruments resolved at [`ArenaLru::set_obs`] time, so the
/// lookup hot path touches only atomics.
#[derive(Debug)]
struct LruInstruments {
    obs: Arc<Obs>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    build_micros: Arc<Histogram>,
    /// `systolic_verify_replay_duration_micros`, resolved at the first
    /// replay, so an LRU that never replays adds no series.
    replay_micros: Option<Arc<Histogram>>,
}

/// One arena's per-topology replay series: the replay-cycle histogram,
/// resolved when the arena is built, and the `[ok, blocked]` outcome
/// counters, each resolved at the first replay with that outcome (so the
/// exposition carries only outcomes that happened). The spec is rendered
/// once per build, never per replay.
#[derive(Debug)]
struct TopologySeries {
    spec: String,
    cycles: Arc<Histogram>,
    outcomes: [Option<Arc<Counter>>; 2],
}

impl TopologySeries {
    fn resolve(registry: &Registry, topology: &Topology) -> Self {
        let spec = topology.spec();
        let cycles = registry.histogram_with(names::VERIFY_REPLAY_CYCLES, &[("topology", &spec)]);
        TopologySeries {
            spec,
            cycles,
            outcomes: [None, None],
        }
    }

    fn record(&mut self, registry: &Registry, report: &VerifyReport) {
        self.cycles.record(report.cycles);
        let outcome = if report.completed { "ok" } else { "blocked" };
        let labels = [("topology", self.spec.as_str()), ("outcome", outcome)];
        self.outcomes[usize::from(!report.completed)]
            .get_or_insert_with(|| registry.counter_with(names::VERIFY_OUTCOMES, &labels))
            .inc();
    }
}

impl ArenaLru {
    /// An empty LRU holding at most `arenas` arenas (clamped to ≥ 1).
    #[must_use]
    pub fn with_budget(arenas: usize) -> Self {
        ArenaLru {
            capacity: arenas.max(1),
            tick: 0,
            entries: Vec::new(),
            instruments: None,
        }
    }

    /// Attaches a shared observability bundle. From now on every lookup
    /// counts into `systolic_arena_cache_{hits,misses,evictions}_total`,
    /// fresh builds record their wall time into
    /// `systolic_arena_build_duration_micros`, and every
    /// [`replay`](ArenaLru::replay) records its wall time into
    /// `systolic_verify_replay_duration_micros`, its simulated cycles into
    /// `systolic_verify_replay_cycles{topology}` and its outcome into
    /// `systolic_verify_outcomes_total{topology,outcome}`. The LRU is the
    /// **single writer** of these series: every LRU of a serving layer
    /// attaches the same bundle, and their traffic sums. An arena resolves
    /// its topology's series when it is built, so attach the bundle before
    /// the first lookup.
    pub fn set_obs(&mut self, obs: &Arc<Obs>) {
        let registry = obs.registry();
        self.instruments = Some(LruInstruments {
            obs: Arc::clone(obs),
            hits: registry.counter(names::ARENA_CACHE_HITS),
            misses: registry.counter(names::ARENA_CACHE_MISSES),
            evictions: registry.counter(names::ARENA_CACHE_EVICTIONS),
            build_micros: registry.histogram(names::ARENA_BUILD_DURATION),
            replay_micros: None,
        });
    }

    /// Arenas currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no arena is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The most arenas this LRU keeps resident (at least 1).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` if an arena for `key` is resident.
    #[must_use]
    pub fn contains(&self, key: u128) -> bool {
        self.entries.iter().any(|e| e.key == key)
    }

    /// The arena for `compiled` under `sim`: resident (a *hit*, recency
    /// bumped) or freshly built (a *miss*, evicting the least recently
    /// used entry when the LRU is full). A resident arena is reused only
    /// when **both** the compiled topology and the [`SimConfig`] match — a
    /// same-topology entry built under a different `SimConfig` (say,
    /// latch instead of buffered queues) is discarded and rebuilt, never
    /// silently reused to replay under the wrong queue shapes.
    pub fn get_or_build(
        &mut self,
        compiled: &Arc<CompiledTopology>,
        sim: SimConfig,
    ) -> ArenaLookup<'_> {
        let (idx, hit, evicted) = self.lookup(compiled, sim);
        ArenaLookup {
            arena: &mut self.entries[idx].arena,
            hit,
            evicted,
        }
    }

    /// Replays `program` under `plan`'s compatible assignment through the
    /// arena for `compiled` under `sim` (see
    /// [`get_or_build`](ArenaLru::get_or_build)). The arena's queue pool
    /// grows to the plan's requirement and never shrinks, which leaves
    /// the report unchanged: it equals what [`SimArena::verify`] on a
    /// fresh arena reports for the same plan, `ReplayDeadlock` details
    /// included.
    ///
    /// # Errors
    ///
    /// [`VerifyTaskError::Model`] if the program does not fit the
    /// topology; [`VerifyTaskError::Panicked`] if the replay panicked —
    /// the panic is caught here, and that one arena is dropped, so the
    /// next replay on its topology rebuilds it.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use systolic_core::{AnalysisConfig, Analyzer, CompiledTopology};
    /// use systolic_model::Topology;
    /// use systolic_obs::{names, Obs};
    /// use systolic_sim::{ArenaLru, SimConfig};
    /// use systolic_workloads::{fig7, fig7_topology};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let config = AnalysisConfig::default();
    /// let obs = Arc::new(Obs::new());
    /// let mut lru = ArenaLru::with_budget(2);
    /// lru.set_obs(&obs);
    /// // Interleaved topologies: each replay switches arenas by lookup.
    /// for reps in 2..4 {
    ///     for topology in [fig7_topology(), Topology::ring(4)] {
    ///         let compiled = CompiledTopology::compile(&topology, &config).into_shared();
    ///         let analyzer = Analyzer::new(Arc::clone(&compiled));
    ///         let program = fig7(reps);
    ///         let plan = Arc::new(analyzer.analyze(&program)?.into_plan());
    ///         let report = lru.replay(&compiled, SimConfig::default(), &program, &plan)?;
    ///         assert!(report.completed);
    ///     }
    /// }
    /// // One build per topology; every replay timed.
    /// let metrics = obs.registry().snapshot();
    /// assert_eq!(metrics.counter_value(names::ARENA_CACHE_MISSES, &[]), 2);
    /// let replays = metrics.histogram_value(names::VERIFY_REPLAY_DURATION, &[]);
    /// assert_eq!(replays.count, 4);
    /// # Ok(())
    /// # }
    /// ```
    pub fn replay(
        &mut self,
        compiled: &Arc<CompiledTopology>,
        sim: SimConfig,
        program: &Program,
        plan: &Arc<CommPlan>,
    ) -> Result<VerifyReport, VerifyTaskError> {
        let replayed = catch_unwind(AssertUnwindSafe(|| {
            let idx = self.lookup(compiled, sim).0;
            // Replay wall time: the in-place state reset plus the
            // cycle-stepped run (builds are timed by their own histogram).
            let start = Instant::now();
            let outcome = self.entries[idx].arena.verify(program, plan);
            (idx, outcome, start.elapsed().as_micros() as u64)
        }));
        let (idx, outcome, micros) = match replayed {
            Ok(replayed) => replayed,
            Err(panic) => {
                self.remove(compiled.fingerprint());
                return Err(VerifyTaskError::Panicked(panic_message(&*panic)));
            }
        };
        if let Some(m) = &mut self.instruments {
            let registry = m.obs.registry();
            m.replay_micros
                .get_or_insert_with(|| registry.histogram(names::VERIFY_REPLAY_DURATION))
                .record(micros);
            if let (Ok(report), Some(series)) = (&outcome, &mut self.entries[idx].series) {
                series.record(registry, report);
            }
        }
        outcome.map_err(VerifyTaskError::Model)
    }

    /// The entry index for `compiled` under `sim`, with whether the lookup
    /// hit and whether it evicted: the body of
    /// [`get_or_build`](ArenaLru::get_or_build).
    fn lookup(&mut self, compiled: &Arc<CompiledTopology>, sim: SimConfig) -> (usize, bool, bool) {
        let key = compiled.fingerprint();
        self.tick += 1;
        if let Some(idx) = self.entries.iter().position(|e| e.key == key) {
            if self.entries[idx].sim == sim {
                self.entries[idx].last_used = self.tick;
                if let Some(m) = &self.instruments {
                    m.hits.inc();
                }
                return (idx, true, false);
            }
            // Same topology, different simulation parameters: the stale
            // arena is useless (and dangerous to reuse) — drop it and
            // fall through to the rebuild path below.
            self.entries.swap_remove(idx);
        }
        let evicted = self.entries.len() >= self.capacity;
        if evicted {
            self.evict_lru();
        }
        let build_start = Instant::now();
        let arena = SimArena::new(compiled.topology(), sim);
        let series = self.instruments.as_ref().map(|m| {
            m.misses.inc();
            m.build_micros
                .record(build_start.elapsed().as_micros() as u64);
            TopologySeries::resolve(m.obs.registry(), compiled.topology())
        });
        self.entries.push(Entry {
            key,
            sim,
            last_used: self.tick,
            arena,
            series,
        });
        (self.entries.len() - 1, false, evicted)
    }

    /// Drops the least recently used entry and counts the eviction.
    fn evict_lru(&mut self) {
        if let Some(idx) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)
        {
            self.entries.swap_remove(idx);
            if let Some(m) = &self.instruments {
                m.evictions.inc();
            }
        }
    }

    /// Drops the arena for `key`, if resident. Used when a replay
    /// panicked mid-run: the arena's queue state may be poisoned, so the
    /// next request for that topology rebuilds instead of reusing it —
    /// the poisoned arena drops alone, the rest of the LRU stays warm.
    /// Returns whether an entry was dropped.
    pub fn remove(&mut self, key: u128) -> bool {
        match self.entries.iter().position(|e| e.key == key) {
            Some(idx) => {
                self.entries.swap_remove(idx);
                true
            }
            None => false,
        }
    }
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
    use crate::QueueConfig;
    use systolic_core::{AnalysisConfig, Analyzer, Lookahead};
    use systolic_model::ProgramBuilder;
    use systolic_workloads::fig5_p2;

    fn compiled(cells: u32) -> Arc<CompiledTopology> {
        CompiledTopology::compile(
            &Topology::linear(cells as usize),
            &AnalysisConfig::default(),
        )
        .into_shared()
    }

    /// `reps` words from cell 0 to cell 1 on `topology`, certified.
    fn certified(
        topology: &Topology,
        config: &AnalysisConfig,
        reps: usize,
    ) -> (Program, Arc<CompiledTopology>, Arc<CommPlan>) {
        let mut builder = ProgramBuilder::new(topology.num_cells());
        builder.message("A", 0u32, 1u32).unwrap();
        builder.write_n(0u32, "A", reps).unwrap();
        builder.read_n(1u32, "A", reps).unwrap();
        let program = builder.build().unwrap();
        let compiled = CompiledTopology::compile(topology, config).into_shared();
        let plan = Analyzer::new(Arc::clone(&compiled))
            .analyze(&program)
            .unwrap()
            .into_plan();
        (program, compiled, Arc::new(plan))
    }

    #[test]
    fn miss_builds_then_hit_reuses() {
        let mut lru = ArenaLru::with_budget(2);
        let a = compiled(2);
        let first = lru.get_or_build(&a, SimConfig::default());
        assert!(!first.hit && !first.evicted);
        let second = lru.get_or_build(&a, SimConfig::default());
        assert!(second.hit && !second.evicted);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = ArenaLru::with_budget(2);
        let (a, b, c) = (compiled(2), compiled(3), compiled(4));
        lru.get_or_build(&a, SimConfig::default());
        lru.get_or_build(&b, SimConfig::default());
        // Touch `a` so `b` becomes the LRU entry.
        assert!(lru.get_or_build(&a, SimConfig::default()).hit);
        let admitted = lru.get_or_build(&c, SimConfig::default());
        assert!(!admitted.hit && admitted.evicted);
        assert_eq!(lru.len(), 2);
        assert!(
            lru.contains(a.fingerprint()),
            "recently used entry survives"
        );
        assert!(!lru.contains(b.fingerprint()), "LRU entry was evicted");
        assert!(lru.contains(c.fingerprint()));
    }

    #[test]
    fn interleaved_topologies_stay_warm_within_capacity() {
        // A single-arena cache rebuilds on every request of an A,B,A,B
        // stream; the LRU hits from the second round on.
        let mut lru = ArenaLru::with_budget(4);
        let (a, b) = (compiled(2), compiled(3));
        let mut hits = 0;
        for _ in 0..8 {
            hits += usize::from(lru.get_or_build(&a, SimConfig::default()).hit);
            hits += usize::from(lru.get_or_build(&b, SimConfig::default()).hit);
        }
        assert_eq!(hits, 14, "everything after the two cold builds hits");
    }

    #[test]
    fn remove_forces_rebuild_after_poisoning() {
        // The reuse-after-panic contract: a panicked replay drops its
        // arena; the next request rebuilds (a miss), later ones hit again.
        let mut lru = ArenaLru::with_budget(2);
        let a = compiled(2);
        lru.get_or_build(&a, SimConfig::default());
        assert!(lru.remove(a.fingerprint()));
        assert!(lru.is_empty());
        assert!(!lru.remove(a.fingerprint()), "double remove is a no-op");
        let rebuilt = lru.get_or_build(&a, SimConfig::default());
        assert!(!rebuilt.hit, "poisoned arena must not be reused");
        assert!(lru.get_or_build(&a, SimConfig::default()).hit);
    }

    #[test]
    fn different_sim_config_rebuilds_instead_of_reusing() {
        // Same topology, different queue shapes: reusing the buffered
        // arena for a latch-queue replay would report wrong
        // verified/blocked outcomes, so the lookup must miss and rebuild.
        let mut lru = ArenaLru::with_budget(2);
        let a = compiled(2);
        let buffered = SimConfig::default();
        let latch = SimConfig {
            queue: QueueConfig {
                capacity: 0,
                extension: false,
            },
            ..Default::default()
        };
        assert!(!lru.get_or_build(&a, buffered).hit);
        let swapped = lru.get_or_build(&a, latch);
        assert!(
            !swapped.hit,
            "a config change must not reuse the stale arena"
        );
        assert!(
            !swapped.evicted,
            "the stale entry is replaced, not LRU-evicted"
        );
        assert_eq!(lru.len(), 1, "one arena per (topology, config) pair");
        assert!(lru.get_or_build(&a, latch).hit);
        assert!(
            !lru.get_or_build(&a, buffered).hit,
            "and back again rebuilds"
        );
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut lru = ArenaLru::with_budget(0);
        assert_eq!(lru.capacity(), 1);
        let (a, b) = (compiled(2), compiled(3));
        lru.get_or_build(&a, SimConfig::default());
        let swapped = lru.get_or_build(&b, SimConfig::default());
        assert!(!swapped.hit && swapped.evicted);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn observed_lru_counts_hits_misses_evictions_and_build_time() {
        let obs = Arc::new(Obs::new());
        let mut lru = ArenaLru::with_budget(1);
        lru.set_obs(&obs);
        let (a, b) = (compiled(2), compiled(3));
        lru.get_or_build(&a, SimConfig::default()); // miss
        lru.get_or_build(&a, SimConfig::default()); // hit
        lru.get_or_build(&b, SimConfig::default()); // miss + eviction
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter_value(names::ARENA_CACHE_HITS, &[]), 1);
        assert_eq!(snap.counter_value(names::ARENA_CACHE_MISSES, &[]), 2);
        assert_eq!(snap.counter_value(names::ARENA_CACHE_EVICTIONS, &[]), 1);
        assert_eq!(
            snap.histogram_value(names::ARENA_BUILD_DURATION, &[]).count,
            2
        );
    }

    #[test]
    fn observed_replays_record_duration_cycles_and_outcomes() {
        // An interleaved mesh + torus stream through one two-arena LRU:
        // one replay-duration sample per replay, per-topology cycle
        // histograms that conserve each topology's cycles, and `ok`
        // outcomes per topology — with no `blocked` series until a replay
        // blocks.
        let config = AnalysisConfig::default();
        let topologies = [Topology::mesh(4, 4), Topology::torus(4, 4)];
        let obs = Arc::new(Obs::new());
        let mut lru = ArenaLru::with_budget(topologies.len());
        lru.set_obs(&obs);
        let mut cycles = [0u64; 2];
        for reps in 1..=8 {
            for (i, topology) in topologies.iter().enumerate() {
                let (program, compiled, plan) = certified(topology, &config, reps);
                let report = lru
                    .replay(&compiled, SimConfig::default(), &program, &plan)
                    .unwrap();
                assert!(report.completed);
                cycles[i] += report.cycles;
            }
        }
        let blocked = |snap: &systolic_obs::RegistrySnapshot| {
            snap.counters.iter().any(|(key, _)| {
                key.name == names::VERIFY_OUTCOMES
                    && key
                        .labels
                        .iter()
                        .any(|(k, v)| k == "outcome" && v == "blocked")
            })
        };
        let snap = obs.registry().snapshot();
        assert_eq!(
            snap.histogram_value(names::VERIFY_REPLAY_DURATION, &[])
                .count,
            16
        );
        assert_eq!(snap.counter_value(names::ARENA_CACHE_MISSES, &[]), 2);
        assert_eq!(snap.counter_value(names::ARENA_CACHE_HITS, &[]), 14);
        for (topology, sum) in topologies.iter().zip(cycles) {
            let spec = topology.spec();
            let hist = snap.histogram_value(names::VERIFY_REPLAY_CYCLES, &[("topology", &spec)]);
            assert_eq!((hist.count, hist.sum), (8, sum), "topology {spec}");
            let ok = [("topology", spec.as_str()), ("outcome", "ok")];
            assert_eq!(snap.counter_value(names::VERIFY_OUTCOMES, &ok), 8);
        }
        assert!(!blocked(&snap), "no blocked series before a blocked replay");

        // P2 certifies under unbounded lookahead and blocks on latches.
        let config = AnalysisConfig {
            queues_per_interval: 2,
            lookahead: Lookahead::Unbounded,
        };
        let topology = Topology::linear(2);
        let compiled = CompiledTopology::compile(&topology, &config).into_shared();
        let plan = Arc::new(
            Analyzer::new(Arc::clone(&compiled))
                .analyze(&fig5_p2())
                .unwrap()
                .into_plan(),
        );
        let latch = SimConfig {
            queues_per_interval: 2,
            queue: QueueConfig {
                capacity: 0,
                extension: false,
            },
            ..Default::default()
        };
        let report = lru.replay(&compiled, latch, &fig5_p2(), &plan).unwrap();
        assert!(!report.completed);
        let snap = obs.registry().snapshot();
        let labels = [("topology", "linear:2"), ("outcome", "blocked")];
        assert_eq!(snap.counter_value(names::VERIFY_OUTCOMES, &labels), 1);
        assert!(blocked(&snap));
    }

    #[test]
    fn replay_panics_report_their_message() {
        // A one-message plan replayed against a two-message program trips
        // the engine's route-coverage assertion inside the replay: that
        // one arena drops, the LRU's other resident stays warm.
        let config = AnalysisConfig::default();
        let (_, compiled, plan) = certified(&Topology::linear(3), &config, 1);
        let (other_program, other, other_plan) = certified(&Topology::ring(4), &config, 1);
        let mut builder = ProgramBuilder::new(3);
        builder.message("A", 0u32, 1u32).unwrap();
        builder.message("B", 1u32, 2u32).unwrap();
        builder.write(0u32, "A").unwrap();
        builder.read(1u32, "A").unwrap();
        builder.write(1u32, "B").unwrap();
        builder.read(2u32, "B").unwrap();
        let program = builder.build().unwrap();
        let sim = SimConfig::default();
        let mut lru = ArenaLru::with_budget(2);
        lru.replay(&other, sim, &other_program, &other_plan)
            .unwrap();
        let outcome = lru.replay(&compiled, sim, &program, &plan);
        let Err(VerifyTaskError::Panicked(message)) = &outcome else {
            panic!("the replay must panic: {outcome:?}");
        };
        assert!(
            message.contains("routes must cover exactly the program's messages"),
            "{message}"
        );
        assert!(
            !lru.contains(compiled.fingerprint()),
            "poisoned arena dropped"
        );
        assert!(
            lru.get_or_build(&other, sim).hit,
            "the other arena stays warm"
        );
    }

    #[test]
    fn cell_count_mismatch_is_that_replays_model_error() {
        // A 3-cell program against a 4-cell plan's topology: this one
        // replay reports the mismatch, and the next replay is unaffected.
        let config = AnalysisConfig::default();
        let (program, compiled, plan) = certified(&Topology::mesh(2, 2), &config, 2);
        let (odd, _, _) = certified(&Topology::linear(3), &config, 1);
        let sim = SimConfig::default();
        let mut lru = ArenaLru::with_budget(1);
        let error = lru.replay(&compiled, sim, &odd, &plan).unwrap_err();
        assert_eq!(
            error,
            VerifyTaskError::Model(ModelError::CellCountMismatch {
                program: 3,
                topology: 4
            })
        );
        assert!(
            lru.replay(&compiled, sim, &program, &plan)
                .unwrap()
                .completed
        );
    }
}
