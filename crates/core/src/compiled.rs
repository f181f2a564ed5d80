//! Precompiled topologies: compile once, analyze many programs.
//!
//! Analyzing a program against a bare topology re-derives per-topology
//! state on every call — routes (a BFS per message on graph topologies),
//! lookahead budgets, the request fingerprint's topology component. A
//! [`CompiledTopology`] hoists that work out of the per-program loop:
//!
//! * the **route closure** — for search-routed (graph) topologies up to
//!   [`MAX_CLOSURE_CELLS`] cells, the minimum-length path between every
//!   cell pair, computed with one BFS per *source* (`n` traversals total,
//!   against one BFS per *message* per request);
//! * the [`AnalysisConfig`] it was compiled against, so lookahead budgets
//!   come from table lookups;
//! * a process-independent content [`fingerprint`](CompiledTopology::fingerprint)
//!   of `(topology, config)`, the key the serving layer shares
//!   compilations under.
//!
//! The type is immutable and cheap to share: wrap it in an [`Arc`] (or use
//! [`CompiledTopology::into_shared`]) and hand clones to as many
//! [`Analyzer`](crate::Analyzer)s, worker threads or batches as needed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use systolic_model::{
    CanonicalHash, CellId, ContentHasher, MessageRoutes, ModelError, Program, Route, Topology,
};

use crate::{AnalysisConfig, Lookahead, LookaheadLimits};

/// Largest cell count for which [`CompiledTopology::compile`] materializes
/// the all-pairs route closure (the closure is `O(n² · path length)`
/// memory). Larger topologies still compile — routing is served from a
/// bounded per-pair LRU ([`ROUTE_CACHE_CAPACITY`]) over
/// [`Topology::route_cells`] searches.
pub const MAX_CLOSURE_CELLS: usize = 256;

/// Entry bound of the per-pair route LRU used by search-routed topologies
/// beyond [`MAX_CLOSURE_CELLS`] cells.
pub const ROUTE_CACHE_CAPACITY: usize = 4096;

/// Hit/miss/occupancy counters of the per-pair route LRU — all zero for
/// topologies served by the closure or by closed-form routing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RouteCacheStats {
    /// Routes served from the cache.
    pub hits: u64,
    /// Routes computed by a BFS (and then cached).
    pub misses: u64,
    /// Pairs currently resident.
    pub entries: usize,
}

/// The per-pair LRU: `(from, to) → (last-use tick, path)`.
#[derive(Debug, Default)]
struct RouteCache {
    entries: HashMap<(u32, u32), (u64, Vec<CellId>)>,
    tick: u64,
}

/// An immutable, `Arc`-shareable precompilation of one
/// `(Topology, AnalysisConfig)` pair.
///
/// # Examples
///
/// ```
/// use systolic_core::{Analyzer, AnalysisConfig, CompiledTopology};
/// use systolic_model::{parse_program, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topology = Topology::linear(2);
/// let config = AnalysisConfig::default();
/// let compiled = CompiledTopology::compile(&topology, &config).into_shared();
/// assert_eq!(compiled.num_cells(), 2);
///
/// // Many programs, one compilation:
/// let analyzer = Analyzer::new(compiled);
/// for reps in 1..4 {
///     let program = parse_program(&format!(
///         "cells 2\nmessage A: c0 -> c1\nprogram c0 {{ W(A)*{reps} }}\nprogram c1 {{ R(A)*{reps} }}\n",
///     ))?;
///     assert!(analyzer.analyze(&program).is_ok());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CompiledTopology {
    topology: Topology,
    config: AnalysisConfig,
    fingerprint: u128,
    /// `paths[from * n + to]`: the route closure, when materialized.
    closure: Option<Vec<Option<Vec<CellId>>>>,
    /// Per-pair route LRU for search-routed topologies beyond the closure
    /// limit. A leaf lock: nothing else is acquired while it is held.
    route_cache: Mutex<RouteCache>,
    route_cache_hits: AtomicU64,
    route_cache_misses: AtomicU64,
}

impl Clone for CompiledTopology {
    /// Clones the compilation; the route LRU starts empty (it is a pure
    /// cache — cloning shares no routing state and resets the counters).
    fn clone(&self) -> Self {
        CompiledTopology {
            topology: self.topology.clone(),
            config: self.config.clone(),
            fingerprint: self.fingerprint,
            closure: self.closure.clone(),
            route_cache: Mutex::new(RouteCache::default()),
            route_cache_hits: AtomicU64::new(0),
            route_cache_misses: AtomicU64::new(0),
        }
    }
}

impl CompiledTopology {
    /// Compiles a topology against an analysis configuration.
    ///
    /// For graph topologies with at most [`MAX_CLOSURE_CELLS`] cells this
    /// precomputes the all-pairs route closure (one BFS per source cell);
    /// closed-form topologies (linear, ring, mesh) route in `O(path)`
    /// anyway and skip it.
    #[must_use]
    pub fn compile(topology: &Topology, config: &AnalysisConfig) -> Self {
        let fingerprint = Self::fingerprint_of(topology, config);
        let n = topology.num_cells();
        let closure = if topology.uses_search_routing() && n <= MAX_CLOSURE_CELLS {
            let mut paths = Vec::with_capacity(n * n);
            for i in 0..n {
                let from = CellId::new(i as u32);
                paths.extend(topology.routes_from(from).expect("source cell is in range"));
            }
            Some(paths)
        } else {
            None
        };
        CompiledTopology {
            topology: topology.clone(),
            config: config.clone(),
            fingerprint,
            closure,
            route_cache: Mutex::new(RouteCache::default()),
            route_cache_hits: AtomicU64::new(0),
            route_cache_misses: AtomicU64::new(0),
        }
    }

    /// Wraps this compilation in an [`Arc`] for sharing.
    #[must_use]
    pub fn into_shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// The process-independent content fingerprint of a
    /// `(topology, config)` pair — what [`CompiledTopology::fingerprint`]
    /// returns after compiling, computable without compiling. The serving
    /// layer uses it as the compilation-cache key.
    #[must_use]
    pub fn fingerprint_of(topology: &Topology, config: &AnalysisConfig) -> u128 {
        let mut hasher = ContentHasher::new();
        hasher.write_u8(b'K');
        topology.canonical_hash(&mut hasher);
        config.canonical_hash(&mut hasher);
        hasher.finish()
    }

    /// The topology this compilation captured.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The analysis configuration this compilation captured.
    #[must_use]
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The content fingerprint of `(topology, config)`.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        self.fingerprint
    }

    /// Number of cells in the topology.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.topology.num_cells()
    }

    /// `true` when the all-pairs route closure was materialized.
    #[must_use]
    pub fn has_route_closure(&self) -> bool {
        self.closure.is_some()
    }

    /// The minimum-length route from `from` to `to` — identical to
    /// [`Topology::route_cells`], served from the closure when available.
    ///
    /// # Errors
    ///
    /// * [`ModelError::CellOutOfRange`] if an endpoint does not exist;
    /// * [`ModelError::NoRoute`] if the cells are disconnected (or equal).
    pub fn route(&self, from: CellId, to: CellId) -> Result<Route, ModelError> {
        let n = self.topology.num_cells();
        match &self.closure {
            Some(paths) => {
                for cell in [from, to] {
                    if cell.index() >= n {
                        return Err(ModelError::CellOutOfRange { cell, num_cells: n });
                    }
                }
                match &paths[from.index() * n + to.index()] {
                    Some(path) => Ok(Route::new(path.clone())),
                    None => Err(ModelError::NoRoute { from, to }),
                }
            }
            None if self.topology.uses_search_routing() => self.route_via_cache(from, to),
            None => self.topology.route_cells(from, to).map(Route::new),
        }
    }

    /// Serves one pair through the route LRU: a hit clones the cached
    /// path; a miss runs the BFS outside the lock, then inserts (evicting
    /// the least-recently-used pair at capacity). Errors are never
    /// cached — they are cheap (the BFS exhausts the component) and a
    /// later topology may be swapped in via recompilation anyway.
    fn route_via_cache(&self, from: CellId, to: CellId) -> Result<Route, ModelError> {
        let key = (from.index() as u32, to.index() as u32);
        {
            // lint: panic-ok(a poisoned route cache means a panic mid-insert; unrecoverable)
            let mut cache = self.route_cache.lock().expect("route cache poisoned");
            cache.tick += 1;
            let tick = cache.tick;
            if let Some(entry) = cache.entries.get_mut(&key) {
                entry.0 = tick;
                let path = entry.1.clone();
                drop(cache);
                // lint: relaxed-ok(pure statistic; fetch_add atomicity alone keeps the count exact)
                self.route_cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Route::new(path));
            }
        }
        let path = self.topology.route_cells(from, to)?;
        // lint: relaxed-ok(pure statistic; fetch_add atomicity alone keeps the count exact)
        self.route_cache_misses.fetch_add(1, Ordering::Relaxed);
        // lint: panic-ok(a poisoned route cache means a panic mid-insert; unrecoverable)
        let mut cache = self.route_cache.lock().expect("route cache poisoned");
        if cache.entries.len() >= ROUTE_CACHE_CAPACITY {
            let victim = cache
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.0)
                .map(|(&k, _)| k);
            if let Some(victim) = victim {
                cache.entries.remove(&victim);
            }
        }
        let tick = cache.tick;
        cache.entries.insert(key, (tick, path.clone()));
        Ok(Route::new(path))
    }

    /// Counters of the per-pair route LRU (zeros when the closure or
    /// closed-form routing serves this topology).
    #[must_use]
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        // lint: panic-ok(a poisoned route cache means a panic mid-insert; unrecoverable)
        let entries = self
            .route_cache
            .lock()
            .expect("route cache poisoned")
            .entries
            .len();
        RouteCacheStats {
            // lint: relaxed-ok(pure statistic; independent reads need no ordering)
            hits: self.route_cache_hits.load(Ordering::Relaxed),
            // lint: relaxed-ok(pure statistic; independent reads need no ordering)
            misses: self.route_cache_misses.load(Ordering::Relaxed),
            entries,
        }
    }

    /// The lookahead budgets the compiled configuration implies for
    /// `program` (whose routes must come from this compilation).
    #[must_use]
    pub fn limits_for(&self, program: &Program, routes: &MessageRoutes) -> LookaheadLimits {
        match &self.config.lookahead {
            Lookahead::Disabled => LookaheadLimits::disabled(program),
            Lookahead::PerQueueCapacity(c) => LookaheadLimits::from_routes(routes, *c),
            Lookahead::Explicit(limits) => limits.clone(),
            Lookahead::Unbounded => LookaheadLimits::unbounded(program),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_model::parse_program;

    fn c(i: u32) -> CellId {
        CellId::new(i)
    }

    fn diamond() -> Topology {
        Topology::graph(4, [(c(0), c(1)), (c(0), c(2)), (c(1), c(3)), (c(2), c(3))]).unwrap()
    }

    #[test]
    fn compiled_routes_match_direct_routing() {
        for topology in [
            Topology::linear(5),
            Topology::ring(6),
            Topology::mesh(2, 3),
            diamond(),
        ] {
            let compiled = CompiledTopology::compile(&topology, &AnalysisConfig::default());
            assert_eq!(compiled.has_route_closure(), topology.uses_search_routing());
            for i in 0..topology.num_cells() as u32 {
                for j in 0..topology.num_cells() as u32 {
                    let direct = topology.route_cells(c(i), c(j)).map(Route::new);
                    assert_eq!(
                        compiled.route(c(i), c(j)),
                        direct,
                        "route {i}->{j} diverged on {}",
                        topology.spec()
                    );
                }
            }
        }
    }

    #[test]
    fn route_errors_match_direct_routing() {
        let disconnected = Topology::graph(4, [(c(0), c(1)), (c(2), c(3))]).unwrap();
        let compiled = CompiledTopology::compile(&disconnected, &AnalysisConfig::default());
        assert!(matches!(
            compiled.route(c(0), c(3)),
            Err(ModelError::NoRoute { .. })
        ));
        assert!(matches!(
            compiled.route(c(1), c(1)),
            Err(ModelError::NoRoute { .. })
        ));
        assert!(matches!(
            compiled.route(c(0), c(9)),
            Err(ModelError::CellOutOfRange { .. })
        ));
    }

    /// A line expressed as a free-form graph with `n` cells, so routing
    /// must search (and, beyond the closure limit, go through the LRU).
    fn line_graph(n: usize) -> Topology {
        Topology::graph(n, (0..n - 1).map(|i| (c(i as u32), c(i as u32 + 1)))).unwrap()
    }

    #[test]
    fn oversized_graphs_route_through_the_lru() {
        let n = MAX_CLOSURE_CELLS + 4;
        let compiled = CompiledTopology::compile(&line_graph(n), &AnalysisConfig::default());
        assert!(!compiled.has_route_closure());

        let route = compiled.route(c(0), c(n as u32 - 1)).unwrap();
        assert_eq!(route.num_hops(), n - 1);
        let stats = compiled.route_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));

        // Same pair again: a hit, byte-identical route.
        assert_eq!(compiled.route(c(0), c(n as u32 - 1)).unwrap(), route);
        let stats = compiled.route_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

        // Errors are served but never cached.
        assert!(matches!(
            compiled.route(c(3), c(3)),
            Err(ModelError::NoRoute { .. })
        ));
        assert!(matches!(
            compiled.route(c(0), c(n as u32)),
            Err(ModelError::CellOutOfRange { .. })
        ));
        assert_eq!(compiled.route_cache_stats().entries, 1);

        // A clone starts with a cold, empty cache.
        let cloned = compiled.clone();
        assert_eq!(cloned.route_cache_stats(), RouteCacheStats::default());
        assert_eq!(cloned.route(c(0), c(n as u32 - 1)).unwrap(), route);
    }

    #[test]
    fn route_lru_evicts_at_capacity() {
        let n = MAX_CLOSURE_CELLS + 4;
        let compiled = CompiledTopology::compile(&line_graph(n), &AnalysisConfig::default());
        let mut inserted = 0usize;
        'outer: for i in 0..n as u32 {
            for j in 0..n as u32 {
                if i == j {
                    continue;
                }
                compiled.route(c(i), c(j)).unwrap();
                inserted += 1;
                if inserted > ROUTE_CACHE_CAPACITY + 16 {
                    break 'outer;
                }
            }
        }
        let stats = compiled.route_cache_stats();
        assert!(stats.entries <= ROUTE_CACHE_CAPACITY);
        assert_eq!(stats.misses, inserted as u64, "distinct pairs all miss");
        // A freshly inserted pair is immediately servable from the cache.
        compiled.route(c(200), c(201)).unwrap();
        let before = compiled.route_cache_stats().hits;
        compiled.route(c(200), c(201)).unwrap();
        assert_eq!(compiled.route_cache_stats().hits, before + 1);
    }

    #[test]
    fn fingerprint_covers_topology_and_config() {
        let base = CompiledTopology::compile(&Topology::linear(4), &AnalysisConfig::default());
        assert_eq!(
            base.fingerprint(),
            CompiledTopology::fingerprint_of(&Topology::linear(4), &AnalysisConfig::default())
        );
        let other_topology =
            CompiledTopology::compile(&Topology::ring(4), &AnalysisConfig::default());
        assert_ne!(base.fingerprint(), other_topology.fingerprint());
        let other_config = CompiledTopology::compile(
            &Topology::linear(4),
            &AnalysisConfig {
                queues_per_interval: 2,
                ..Default::default()
            },
        );
        assert_ne!(base.fingerprint(), other_config.fingerprint());
    }

    #[test]
    fn limits_follow_the_compiled_config() {
        let program = parse_program(
            "cells 3\nmessage A: c0 -> c2\nprogram c0 { W(A) }\nprogram c2 { R(A) }\n",
        )
        .unwrap();
        let topology = Topology::linear(3);
        let capacity = AnalysisConfig {
            lookahead: Lookahead::PerQueueCapacity(2),
            queues_per_interval: 1,
        };
        let compiled = CompiledTopology::compile(&topology, &capacity);
        let routes = MessageRoutes::compute(&program, &topology).unwrap();
        let limits = compiled.limits_for(&program, &routes);
        // A crosses two intervals at capacity 2 => budget 4.
        assert_eq!(limits.limit(systolic_model::MessageId::new(0)), Some(4));
    }
}
