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
//! Residency is one rule: an LRU holds at most the count it was built
//! with (at least 1) and, to admit a new topology past that count, evicts
//! the least recently used arena. The count is a hard bound on the arenas
//! each owner keeps, whatever mix of topologies it sees.
//!
//! [`VerifyScheduler`]: crate::VerifyScheduler

use std::sync::Arc;
use std::time::Instant;

use systolic_core::CompiledTopology;
use systolic_obs::{names, Counter, Histogram, Obs};

use crate::{SimArena, SimConfig};

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
    /// `true` when admitting this arena displaced the least recently used
    /// resident one.
    pub evicted: bool,
}

/// A tiny, lock-free-by-ownership LRU of [`SimArena`]s keyed by
/// [`CompiledTopology::fingerprint`], holding at most a fixed number of
/// arenas. Each scheduler worker owns one, so topology-interleaved traffic
/// keeps the warm fabrics' arenas resident instead of rebuilding per
/// request.
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
        let key = compiled.fingerprint();
        self.tick += 1;
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
        let evicted = self.entries.len() >= self.capacity;
        if evicted {
            self.evict_lru();
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
        let arena = &mut self
            .entries
            .last_mut()
            .expect("just pushed") // lint: panic-ok(back() of a vec pushed one line up)
            .arena;
        ArenaLookup {
            arena,
            hit: false,
            evicted,
        }
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
        let obs = Obs::new();
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
}
