//! A small LRU of verification arenas over multiple worlds, keyed by
//! compiled-topology fingerprint.
//!
//! The verification chase replays a certified plan through a
//! [`SimArena`]. Arenas are cheap to *reuse* (state resets in place) but
//! expensive to *build* (queue pools for every interval of the fabric),
//! and an arena is only valid for the topology it was built over. A
//! holder of just the **last** topology's arena thrashes as soon as
//! traffic interleaves two topologies — A, B, A, B rebuilds on every
//! request. [`ArenaLru`] keeps the last few topologies' arenas warm
//! instead, with no locking: each owner (a [`VerifyScheduler`] worker)
//! holds its LRU outright.
//!
//! Residency is governed by an [`ArenaBudget`]: a fixed entry count, an
//! **auto** mode that tracks the distinct-topology cardinality the owner
//! has actually observed, or a **memory budget** in bytes enforced
//! against each arena's [`approx_bytes`](SimArena::approx_bytes)
//! estimate.
//!
//! [`VerifyScheduler`]: crate::VerifyScheduler

use std::sync::Arc;
use std::time::Instant;

use systolic_core::CompiledTopology;
use systolic_obs::{names, Counter, Histogram, Obs};

use crate::{SimArena, SimConfig};

/// Auto-sized LRUs never grow past this many resident arenas, so a
/// hostile stream naming thousands of distinct topologies cannot turn
/// "observed cardinality" into unbounded memory.
pub const MAX_AUTO_ARENAS: usize = 16;

/// How an [`ArenaLru`] decides how many arenas to keep resident.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArenaBudget {
    /// At most this many arenas (clamped to ≥ 1) — the classic LRU shape.
    Fixed(usize),
    /// Capacity follows the distinct-topology cardinality this LRU has
    /// observed (clamped to `1..=`[`MAX_AUTO_ARENAS`]): a stream touching
    /// two fabrics keeps two arenas warm, a stream touching ten keeps
    /// ten, without tuning a constant.
    Auto,
    /// Keep arenas while their combined
    /// [`approx_bytes`](SimArena::approx_bytes) estimate fits the budget;
    /// evict least-recently-used past it (the most recently touched arena
    /// always stays, even alone over budget).
    MemBytes(usize),
}

impl ArenaBudget {
    fn entry_cap(self, observed_distinct: usize) -> usize {
        match self {
            ArenaBudget::Fixed(n) => n.max(1),
            ArenaBudget::Auto => observed_distinct.clamp(1, MAX_AUTO_ARENAS),
            ArenaBudget::MemBytes(_) => usize::MAX,
        }
    }
}

/// One resident arena: the world's key (compiled-topology fingerprint)
/// and the [`SimConfig`] it was built under (both must match for reuse —
/// an arena's queue shapes and cycle limits are baked in at
/// construction), a recency tick, and the arena itself.
#[derive(Debug)]
struct Entry {
    key: u128,
    sim: SimConfig,
    last_used: u64,
    arena: SimArena,
}

/// The result of an [`ArenaLru::get_or_build`] lookup: the arena to
/// replay through, plus what the lookup did (for cache counters).
#[derive(Debug)]
pub struct ArenaLookup<'a> {
    /// The arena for the requested topology, reset-ready.
    pub arena: &'a mut SimArena,
    /// `true` when the arena was already resident (no rebuild).
    pub hit: bool,
    /// `true` when admitting this arena displaced at least one resident
    /// one (LRU or memory-budget pressure).
    pub evicted: bool,
}

/// A tiny, lock-free-by-ownership LRU of [`SimArena`]s keyed by
/// [`CompiledTopology::fingerprint`], sized by an [`ArenaBudget`]. Each
/// scheduler worker owns one, so topology-interleaved traffic keeps the
/// warm fabrics' arenas resident instead of rebuilding per request.
///
/// # Examples
///
/// ```
/// use systolic_core::{AnalysisConfig, CompiledTopology};
/// use systolic_model::Topology;
/// use systolic_sim::{ArenaLru, SimConfig};
///
/// let mut lru = ArenaLru::new(2);
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
    budget: ArenaBudget,
    /// Distinct keys ever requested (auto sizing input), capped so the
    /// tracking itself stays bounded.
    observed: Vec<u128>,
    tick: u64,
    entries: Vec<Entry>,
    instruments: Option<LruInstruments>,
}

/// Registry instruments resolved once at [`ArenaLru::set_obs`] time, so
/// the lookup hot path touches only atomics.
#[derive(Debug)]
struct LruInstruments {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    build_micros: Arc<Histogram>,
}

impl ArenaLru {
    /// An empty LRU holding at most `capacity` arenas (clamped to ≥ 1) —
    /// [`ArenaBudget::Fixed`].
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ArenaLru::with_budget(ArenaBudget::Fixed(capacity))
    }

    /// An empty LRU governed by `budget`.
    #[must_use]
    pub fn with_budget(budget: ArenaBudget) -> Self {
        ArenaLru {
            budget,
            observed: Vec::new(),
            tick: 0,
            entries: Vec::new(),
            instruments: None,
        }
    }

    /// Attaches a metrics registry: every lookup from now on counts into
    /// the shared `systolic_arena_cache_{hits,misses,evictions}_total`
    /// counters and fresh builds record their wall time into the
    /// `systolic_arena_build_duration_micros` histogram. The LRU is the
    /// **single writer** of these series — holders (every scheduler's
    /// workers) attach the same bundle and their traffic sums.
    pub fn set_obs(&mut self, obs: &Obs) {
        let registry = obs.registry();
        self.instruments = Some(LruInstruments {
            hits: registry.counter(names::ARENA_CACHE_HITS),
            misses: registry.counter(names::ARENA_CACHE_MISSES),
            evictions: registry.counter(names::ARENA_CACHE_EVICTIONS),
            build_micros: registry.histogram(names::ARENA_BUILD_DURATION),
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

    /// The residency policy this LRU enforces.
    #[must_use]
    pub fn budget(&self) -> ArenaBudget {
        self.budget
    }

    /// The entry capacity currently in effect: the fixed capacity, the
    /// observed distinct-topology cardinality (auto), or — for a memory
    /// budget, which bounds bytes rather than entries — the current
    /// resident count (at least 1).
    #[must_use]
    pub fn capacity(&self) -> usize {
        match self.budget {
            ArenaBudget::MemBytes(_) => self.entries.len().max(1),
            budget => budget.entry_cap(self.observed.len()),
        }
    }

    /// Combined [`approx_bytes`](SimArena::approx_bytes) estimate of the
    /// resident arenas.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.arena.approx_bytes()).sum()
    }

    /// `true` if an arena for `key` is resident.
    #[must_use]
    pub fn contains(&self, key: u128) -> bool {
        self.entries.iter().any(|e| e.key == key)
    }

    /// The arena for `compiled` under `sim`: resident (a *hit*, recency
    /// bumped) or freshly built (a *miss*, evicting least-recently-used
    /// entries past the budget). A resident arena is reused only when
    /// **both** the compiled topology and the [`SimConfig`] match — a
    /// same-topology entry built under a different `SimConfig` (say,
    /// latch instead of buffered queues) is discarded and rebuilt, never
    /// silently reused to replay under the wrong queue shapes.
    pub fn get_or_build(
        &mut self,
        compiled: &Arc<CompiledTopology>,
        sim: SimConfig,
    ) -> ArenaLookup<'_> {
        let key = compiled.fingerprint();
        self.tick += 1;
        if !self.observed.contains(&key) && self.observed.len() < 4 * MAX_AUTO_ARENAS {
            self.observed.push(key);
        }
        if let Some(idx) = self.entries.iter().position(|e| e.key == key) {
            if self.entries[idx].sim == sim {
                self.entries[idx].last_used = self.tick;
                if let Some(m) = &self.instruments {
                    m.hits.inc();
                }
                return ArenaLookup {
                    arena: &mut self.entries[idx].arena,
                    hit: true,
                    evicted: false,
                };
            }
            // Same topology, different simulation parameters: the stale
            // arena is useless (and dangerous to reuse) — drop it and
            // fall through to the rebuild path below.
            self.entries.swap_remove(idx);
        }
        let build_start = Instant::now();
        let arena = SimArena::from_compiled(Arc::clone(compiled), sim);
        if let Some(m) = &self.instruments {
            m.misses.inc();
            m.build_micros
                .record(build_start.elapsed().as_micros() as u64);
        }
        self.entries.push(Entry {
            key,
            sim,
            last_used: self.tick,
            arena,
        });
        let evicted = self.enforce_budget();
        let arena = &mut self
            .entries
            .iter_mut()
            .max_by_key(|e| e.last_used)
            .expect("just pushed") // lint: panic-ok(back() of a vec pushed one line up)
            .arena;
        ArenaLookup {
            arena,
            hit: false,
            evicted,
        }
    }

    /// Evicts least-recently-used entries until the budget holds,
    /// protecting the most recently touched entry. Returns whether
    /// anything was evicted.
    fn enforce_budget(&mut self) -> bool {
        let mut evicted = 0u64;
        let cap = self.budget.entry_cap(self.observed.len());
        while self.entries.len() > cap.max(1) {
            self.evict_lru();
            evicted += 1;
        }
        if let ArenaBudget::MemBytes(budget) = self.budget {
            while self.entries.len() > 1 && self.approx_bytes() > budget {
                self.evict_lru();
                evicted += 1;
            }
        }
        if evicted > 0 {
            if let Some(m) = &self.instruments {
                m.evictions.add(evicted);
            }
        }
        evicted > 0
    }

    fn evict_lru(&mut self) {
        if let Some(idx) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)
        {
            self.entries.swap_remove(idx);
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

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::AnalysisConfig;
    use systolic_model::Topology;

    fn compiled(cells: u32) -> Arc<CompiledTopology> {
        CompiledTopology::compile(
            &Topology::linear(cells as usize),
            &AnalysisConfig::default(),
        )
        .into_shared()
    }

    #[test]
    fn miss_builds_then_hit_reuses() {
        let mut lru = ArenaLru::new(2);
        let a = compiled(2);
        let first = lru.get_or_build(&a, SimConfig::default());
        assert!(!first.hit && !first.evicted);
        let second = lru.get_or_build(&a, SimConfig::default());
        assert!(second.hit && !second.evicted);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = ArenaLru::new(2);
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
        let mut lru = ArenaLru::new(4);
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
        let mut lru = ArenaLru::new(2);
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
        let mut lru = ArenaLru::new(2);
        let a = compiled(2);
        let buffered = SimConfig::default();
        let latch = SimConfig {
            queue: crate::QueueConfig {
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
        let mut lru = ArenaLru::new(0);
        assert_eq!(lru.capacity(), 1);
        let (a, b) = (compiled(2), compiled(3));
        lru.get_or_build(&a, SimConfig::default());
        let swapped = lru.get_or_build(&b, SimConfig::default());
        assert!(!swapped.hit && swapped.evicted);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn auto_budget_tracks_observed_cardinality() {
        // Capacity follows the distinct topologies this LRU has actually
        // seen: three fabrics interleaved all stay warm with no fixed
        // constant, where Fixed(1) would have thrashed.
        let mut lru = ArenaLru::with_budget(ArenaBudget::Auto);
        assert_eq!(lru.capacity(), 1, "nothing observed yet");
        let (a, b, c) = (compiled(2), compiled(3), compiled(4));
        for _ in 0..3 {
            lru.get_or_build(&a, SimConfig::default());
            lru.get_or_build(&b, SimConfig::default());
            lru.get_or_build(&c, SimConfig::default());
        }
        assert_eq!(lru.capacity(), 3, "capacity grew to observed distinct");
        assert_eq!(lru.len(), 3, "all observed fabrics resident");
        assert!(lru.get_or_build(&a, SimConfig::default()).hit);
        assert!(lru.get_or_build(&b, SimConfig::default()).hit);
        assert!(lru.get_or_build(&c, SimConfig::default()).hit);
    }

    #[test]
    fn auto_budget_is_clamped() {
        let mut lru = ArenaLru::with_budget(ArenaBudget::Auto);
        for cells in 2..2 + 2 * MAX_AUTO_ARENAS as u32 {
            lru.get_or_build(&compiled(cells), SimConfig::default());
        }
        assert!(lru.len() <= MAX_AUTO_ARENAS, "auto residency is bounded");
        assert_eq!(lru.capacity(), MAX_AUTO_ARENAS);
    }

    #[test]
    fn mem_budget_evicts_by_estimated_bytes() {
        // A budget big enough for roughly one small arena: admitting a
        // second fabric evicts the first, but the newest arena always
        // stays (even alone over budget).
        let a = compiled(2);
        let probe = SimArena::from_compiled(Arc::clone(&a), SimConfig::default());
        let one_arena = probe.approx_bytes();
        let mut lru = ArenaLru::with_budget(ArenaBudget::MemBytes(one_arena + one_arena / 2));
        lru.get_or_build(&a, SimConfig::default());
        let b = compiled(3);
        let admitted = lru.get_or_build(&b, SimConfig::default());
        assert!(!admitted.hit && admitted.evicted, "bytes budget evicts LRU");
        assert_eq!(lru.len(), 1);
        assert!(lru.contains(b.fingerprint()), "newest arena is protected");

        // A generous budget keeps both.
        let mut roomy = ArenaLru::with_budget(ArenaBudget::MemBytes(64 * 1024 * 1024));
        roomy.get_or_build(&a, SimConfig::default());
        assert!(!roomy.get_or_build(&b, SimConfig::default()).evicted);
        assert_eq!(roomy.len(), 2);
        assert!(roomy.approx_bytes() > 0);
    }

    #[test]
    fn observed_lru_counts_hits_misses_evictions_and_build_time() {
        let obs = Obs::new();
        let mut lru = ArenaLru::new(1);
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
    fn footprint_estimate_grows_with_the_fabric() {
        let small = SimArena::from_compiled(compiled(2), SimConfig::default());
        let large = SimArena::from_compiled(compiled(64), SimConfig::default());
        assert!(
            large.approx_bytes() > small.approx_bytes(),
            "a 64-cell fabric's arena must estimate larger than a 2-cell one"
        );
    }
}
