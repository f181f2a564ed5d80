//! A sharded, mutex-per-shard LRU cache for analysis results.
//!
//! The cache is keyed by the 128-bit content fingerprint of a request
//! ([`systolic_core::request_fingerprint`]) and holds cheaply clonable
//! values (the service stores `Arc`ed analysis outcomes). Sharding bounds
//! lock contention: a request locks only the shard its key hashes to, so
//! N shards admit N concurrent cache operations. Each shard keeps an exact
//! LRU order (recency tick per entry) and hit/miss/eviction/insertion
//! counters.

use std::collections::{BTreeMap, HashMap};

use parking_lot::Mutex;

/// Configuration of a [`ShardedCache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Number of independent shards (each its own lock + LRU). Clamped to
    /// at least 1.
    pub shards: usize,
    /// Entries per shard before LRU eviction kicks in. Clamped to at
    /// least 1.
    pub capacity_per_shard: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 8,
            capacity_per_shard: 256,
        }
    }
}

/// Counter snapshot of one shard (or, summed, of the whole cache).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by LRU pressure.
    pub evictions: u64,
    /// Entries successfully inserted.
    pub insertions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    fn add(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.insertions += other.insertions;
        self.entries += other.entries;
    }

    /// Hit rate in `0.0..=1.0` (0.0 before any lookups).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Shard<V> {
    /// key → (recency tick, value).
    entries: HashMap<u128, (u64, V)>,
    /// recency tick → key; the smallest tick is the LRU entry.
    by_tick: BTreeMap<u64, u128>,
    tick: u64,
    stats: CacheStats,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Shard {
            entries: HashMap::new(),
            by_tick: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// A concurrent LRU cache split into independently locked shards.
///
/// # Examples
///
/// ```
/// use systolic_service::{CacheConfig, ShardedCache};
///
/// let cache: ShardedCache<&'static str> = ShardedCache::new(CacheConfig::default());
/// assert_eq!(cache.get(1), None);
/// let (value, inserted) = cache.insert(1, "plan");
/// assert!(inserted);
/// assert_eq!(value, "plan");
/// assert_eq!(cache.get(1), Some("plan"));
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    capacity_per_shard: usize,
}

impl<V: Clone> ShardedCache<V> {
    /// Creates an empty cache with `config.shards` shards.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            capacity_per_shard: config.capacity_per_shard.max(1),
        }
    }

    fn shard_of(&self, key: u128) -> &Mutex<Shard<V>> {
        // Fold the 128-bit fingerprint before reducing mod shard count so
        // both halves contribute to shard selection.
        let folded = (key >> 64) as u64 ^ key as u64;
        &self.shards[(folded % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, bumping its recency and the hit/miss counters.
    #[must_use]
    pub fn get(&self, key: u128) -> Option<V> {
        let mut shard = self.shard_of(key).lock();
        let tick = shard.next_tick();
        if let Some((old_tick, value)) = shard.entries.get_mut(&key) {
            let prev = std::mem::replace(old_tick, tick);
            let value = value.clone();
            shard.by_tick.remove(&prev);
            shard.by_tick.insert(tick, key);
            shard.stats.hits += 1;
            Some(value)
        } else {
            shard.stats.misses += 1;
            None
        }
    }

    /// Looks up `key` without touching its recency or the hit/miss
    /// counters.
    #[must_use]
    pub fn peek(&self, key: u128) -> Option<V> {
        let shard = self.shard_of(key).lock();
        shard.entries.get(&key).map(|(_, value)| value.clone())
    }

    /// Inserts `value` under `key` unless the key is already resident.
    ///
    /// Returns `(winning value, inserted)`: when another writer raced this
    /// one, the resident value wins and is returned with `inserted ==
    /// false` — so concurrent submissions of the same request converge on
    /// one cache entry and one shared outcome. Does not count as a hit or
    /// miss.
    pub fn insert(&self, key: u128, value: V) -> (V, bool) {
        let mut shard = self.shard_of(key).lock();
        if let Some((_, resident)) = shard.entries.get(&key) {
            return (resident.clone(), false);
        }
        if shard.entries.len() >= self.capacity_per_shard {
            if let Some((&lru_tick, &lru_key)) = shard.by_tick.iter().next() {
                shard.by_tick.remove(&lru_tick);
                shard.entries.remove(&lru_key);
                shard.stats.evictions += 1;
            }
        }
        let tick = shard.next_tick();
        shard.entries.insert(key, (tick, value.clone()));
        shard.by_tick.insert(tick, key);
        shard.stats.insertions += 1;
        (value, true)
    }

    /// Clones every resident value, shard by shard (order unspecified).
    /// Does not touch recency or the hit/miss counters.
    #[must_use]
    pub fn values(&self) -> Vec<V> {
        self.shards
            .iter()
            .flat_map(|shard| {
                let s = shard.lock();
                s.entries
                    .values()
                    .map(|(_, v)| v.clone())
                    .collect::<Vec<V>>()
            })
            .collect()
    }

    /// Clones every resident `(key, value)` pair, shard by shard (order
    /// unspecified). Does not touch recency or the hit/miss counters —
    /// the snapshot exporter walks the cache without perturbing LRU order.
    #[must_use]
    pub fn entries(&self) -> Vec<(u128, V)> {
        self.shards
            .iter()
            .flat_map(|shard| {
                let s = shard.lock();
                s.entries
                    .iter()
                    .map(|(k, (_, v))| (*k, v.clone()))
                    .collect::<Vec<(u128, V)>>()
            })
            .collect()
    }

    /// Total entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// `true` if no shard holds any entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters summed across shards.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock();
            let mut snapshot = s.stats;
            snapshot.entries = s.entries.len();
            total.add(&snapshot);
        }
        total
    }

    /// Per-shard counter snapshots, in shard order.
    #[must_use]
    pub fn per_shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|shard| {
                let s = shard.lock();
                let mut snapshot = s.stats;
                snapshot.entries = s.entries.len();
                snapshot
            })
            .collect()
    }
}

impl<V> std::fmt::Debug for ShardedCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(shards: usize, cap: usize) -> ShardedCache<u32> {
        ShardedCache::new(CacheConfig {
            shards,
            capacity_per_shard: cap,
        })
    }

    #[test]
    fn get_then_insert_then_hit() {
        let c = small(4, 8);
        assert_eq!(c.get(10), None);
        assert_eq!(c.insert(10, 1), (1, true));
        assert_eq!(c.get(10), Some(1));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.entries), (1, 1, 1, 1));
    }

    #[test]
    fn insert_is_first_writer_wins() {
        let c = small(1, 8);
        assert_eq!(c.insert(5, 100), (100, true));
        assert_eq!(c.insert(5, 200), (100, false));
        assert_eq!(c.get(5), Some(100));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().insertions, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = small(1, 2);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.get(1), Some(1)); // 2 is now LRU
        assert_eq!(c.peek(2), Some(2)); // a peek leaves it LRU
        c.insert(3, 3);
        assert_eq!(c.peek(2), None, "LRU entry should have been evicted");
        assert_eq!(c.get(2), None);
        assert_eq!(c.get(1), Some(1));
        assert_eq!(c.get(3), Some(3));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn shards_isolate_keys() {
        let c = small(4, 1);
        // With per-shard capacity 1, four keys in distinct shards coexist.
        let keys: Vec<u128> = (0..4u128).collect();
        for &k in &keys {
            c.insert(k, k as u32);
        }
        let resident = keys.iter().filter(|&&k| c.get(k).is_some()).count();
        // Keys 0..4 fold to shard indices 0..4 distinctly.
        assert_eq!(resident, 4);
        assert_eq!(c.per_shard_stats().len(), 4);
    }

    #[test]
    fn both_key_halves_select_shards() {
        let c = small(8, 8);
        let low = 3u128;
        let high = 3u128 << 64;
        c.insert(low, 1);
        c.insert(high, 2);
        assert_eq!(c.get(low), Some(1));
        assert_eq!(c.get(high), Some(2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_config_is_clamped() {
        let c: ShardedCache<u32> = ShardedCache::new(CacheConfig {
            shards: 0,
            capacity_per_shard: 0,
        });
        assert_eq!(c.per_shard_stats().len(), 1);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.len(), 1, "capacity clamps to 1");
    }

    #[test]
    fn entries_exports_keys_without_touching_counters() {
        let c = small(4, 8);
        c.insert(1, 10);
        c.insert(2, 20);
        let mut entries = c.entries();
        entries.sort_unstable();
        assert_eq!(entries, vec![(1, 10), (2, 20)]);
        assert_eq!((c.peek(1), c.peek(3)), (Some(10), None));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "export must not perturb stats");
    }

    #[test]
    fn hit_rate_reflects_counters() {
        let c = small(2, 4);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.insert(1, 1);
        let _ = c.get(1);
        let _ = c.get(1);
        let _ = c.get(9);
        let rate = c.stats().hit_rate();
        assert!((rate - 2.0 / 3.0).abs() < 1e-9, "rate = {rate}");
    }

    #[test]
    fn concurrent_inserts_of_one_key_leave_one_entry() {
        use std::sync::Arc;
        let c = Arc::new(small(8, 64));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || c.insert(42, i).0)
            })
            .collect();
        let winners: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(c.len(), 1);
        // Every thread observed the same winning value.
        assert!(winners.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(c.stats().insertions, 1);
    }
}
