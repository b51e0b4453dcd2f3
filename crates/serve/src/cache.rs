//! A small LRU cache for repeated query objects.
//!
//! Query optimizers re-ask the same `(x, threshold-grid)` pairs — plan
//! alternatives, prepared statements, dashboard refreshes — so the engine
//! keeps a per-shard cache of fully-computed responses. Keys carry the
//! model **generation**: a hot swap implicitly invalidates every entry
//! computed by the old model, so a cached response is always bit-identical
//! to what the currently-bound generation would compute fresh.
//!
//! The cache is deliberately simple (the paper's estimator answers in
//! microseconds; this is about skipping work, not about milliseconds of
//! cache cleverness): a `HashMap` plus a monotonic touch counter, with an
//! `O(capacity)` eviction scan on insert. Capacities are small (hundreds),
//! so the scan is noise next to a single network forward.

use std::collections::HashMap;

/// Cache key: tenant id, model generation, plus the exact bit patterns of
/// the query object and its threshold grid. Generations are per-tenant
/// counters (every tenant starts at 0), so the tenant id is a
/// load-bearing key component — without it two tenants' generation-0
/// entries would alias. Bit-exact keying means NaN payloads and `-0.0`
/// never alias, and a float that differs in the last ulp is a miss —
/// correctness over hit rate. The split between `x` and `ts` is encoded
/// as an explicit length prefix (a float-valued separator would itself be
/// a valid NaN bit pattern and could alias).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct QueryKey {
    tenant: u64,
    generation: u64,
    /// `x.len()`, then `x` bits, then threshold bits.
    bits: Vec<u32>,
}

impl QueryKey {
    /// Builds the key for query object `x` under threshold grid `ts`,
    /// served by generation `generation` of tenant `tenant`.
    pub fn new(tenant: u64, generation: u64, x: &[f32], ts: &[f32]) -> Self {
        let mut bits = Vec::with_capacity(x.len() + ts.len() + 1);
        bits.push(u32::try_from(x.len()).expect("query dimension fits u32"));
        bits.extend(x.iter().map(|v| v.to_bits()));
        bits.extend(ts.iter().map(|v| v.to_bits()));
        QueryKey {
            tenant,
            generation,
            bits,
        }
    }
}

struct Entry {
    value: Vec<f64>,
    touched: u64,
}

/// Point-in-time counters of one cache shard, for the serving telemetry
/// (`StatsSnapshot::cache_shards`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheShardStats {
    /// Lookups answered from the shard.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room (capacity pressure, not hot swaps —
    /// generation turnover leaves old-generation entries to age out).
    pub evictions: u64,
    /// Entries currently held.
    pub entries: u64,
}

/// Least-recently-used map from [`QueryKey`] to a computed response.
pub struct LruCache {
    capacity: usize,
    tick: u64,
    map: HashMap<QueryKey, Entry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` responses
    /// (`capacity == 0` disables caching: every lookup misses).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::with_capacity(capacity.min(1 << 12)),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a response, refreshing its recency on hit.
    pub fn get(&mut self, key: &QueryKey) -> Option<Vec<f64>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.touched = tick;
                self.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a response, evicting the least-recently-touched entry when
    /// at capacity.
    pub fn insert(&mut self, key: QueryKey, value: Vec<f64>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                touched: self.tick,
            },
        );
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses)` since construction.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Full counters of this shard, for the stats snapshot.
    pub fn counters(&self) -> CacheShardStats {
        CacheShardStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_exact_value_and_miss_on_different_bits() {
        let mut c = LruCache::new(4);
        let k = QueryKey::new(0, 0, &[1.0, 2.0], &[0.5]);
        assert!(c.get(&k).is_none());
        c.insert(k.clone(), vec![42.0]);
        assert_eq!(c.get(&k), Some(vec![42.0]));
        // same floats, different generation: miss
        assert!(c.get(&QueryKey::new(0, 1, &[1.0, 2.0], &[0.5])).is_none());
        // last-ulp difference: miss
        let near = f32::from_bits(0.5f32.to_bits() + 1);
        assert!(c.get(&QueryKey::new(0, 0, &[1.0, 2.0], &[near])).is_none());
        // -0.0 vs 0.0 never alias
        let kz = QueryKey::new(0, 0, &[0.0], &[0.5]);
        c.insert(kz.clone(), vec![1.0]);
        assert!(c.get(&QueryKey::new(0, 0, &[-0.0], &[0.5])).is_none());
    }

    #[test]
    fn tenants_never_alias() {
        // same generation number, same query bits, different tenant:
        // distinct keys (generations are per-tenant counters)
        let mut c = LruCache::new(4);
        let alpha = QueryKey::new(1, 0, &[1.0], &[0.5]);
        let beta = QueryKey::new(2, 0, &[1.0], &[0.5]);
        assert_ne!(alpha, beta);
        c.insert(alpha.clone(), vec![1.0]);
        assert!(c.get(&beta).is_none());
        assert_eq!(c.get(&alpha), Some(vec![1.0]));
    }

    #[test]
    fn x_and_threshold_bits_never_alias() {
        // [a] | [b, c]  vs  [a, b] | [c] must be different keys
        let k1 = QueryKey::new(0, 0, &[1.0], &[2.0, 3.0]);
        let k2 = QueryKey::new(0, 0, &[1.0, 2.0], &[3.0]);
        assert_ne!(k1, k2);
        // and a NaN whose bits spell out a would-be separator cannot fake
        // the x/ts boundary (regression: the key once used a u32::MAX
        // sentinel, which is exactly this NaN's bit pattern)
        let evil = f32::from_bits(u32::MAX);
        let k3 = QueryKey::new(0, 0, &[evil], &[1.0]);
        let k4 = QueryKey::new(0, 0, &[evil, evil], &[1.0]);
        let k5 = QueryKey::new(0, 0, &[evil], &[evil, 1.0]);
        assert_ne!(k3, k4);
        assert_ne!(k3, k5);
        assert_ne!(k4, k5);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        let a = QueryKey::new(0, 0, &[1.0], &[0.1]);
        let b = QueryKey::new(0, 0, &[2.0], &[0.1]);
        let d = QueryKey::new(0, 0, &[3.0], &[0.1]);
        c.insert(a.clone(), vec![1.0]);
        c.insert(b.clone(), vec![2.0]);
        assert!(c.get(&a).is_some()); // refresh a; b is now LRU
        c.insert(d.clone(), vec![3.0]);
        assert_eq!(c.len(), 2);
        assert!(c.get(&b).is_none(), "b should have been evicted");
        assert!(c.get(&a).is_some());
        assert!(c.get(&d).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        let k = QueryKey::new(0, 0, &[1.0], &[0.1]);
        c.insert(k.clone(), vec![1.0]);
        assert!(c.get(&k).is_none());
        assert!(c.is_empty());
    }
}
