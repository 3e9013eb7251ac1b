//! Versioned LRU embedding/feature cache.
//!
//! Entries are keyed by `(model version, vertex, layer)`. Binding the
//! model version into the key is what makes hot checkpoint swap safe
//! without a stop-the-world flush: the instant the server publishes a
//! new version, every lookup misses by construction — stale rows can
//! never be served — and [`EmbeddingCache::invalidate_below`] reclaims
//! their bytes at leisure.
//!
//! Eviction is least-recently-used over a deterministic tick counter
//! (recency = last touch tick, ties impossible because ticks are
//! unique), so cache contents after any fixed operation sequence are
//! identical across runs and thread counts — the serve trace's cache
//! hit/miss counters stay byte-reproducible.

use std::collections::{BTreeMap, HashMap};

/// Cache key: an entry is only visible to the model version that wrote
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Model version the row was computed under.
    pub version: u64,
    /// Input-graph vertex.
    pub vertex: u32,
    /// Pipeline layer. The server caches final outputs only, as layer
    /// 1; the ledger's cache probe keys its rows as layer 0.
    pub layer: u8,
}

/// A byte-budgeted, versioned LRU cache of per-vertex feature rows.
#[derive(Debug, Default)]
pub struct EmbeddingCache {
    capacity_bytes: usize,
    used_bytes: usize,
    entries: HashMap<CacheKey, (Vec<f32>, u64)>,
    /// Recency index: touch tick → key. Ticks are unique, so the
    /// smallest tick is always the exact LRU victim.
    lru: BTreeMap<u64, CacheKey>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl EmbeddingCache {
    /// An empty cache holding at most `capacity_bytes` of row data.
    /// A zero capacity disables caching (every insert is dropped).
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            ..Self::default()
        }
    }

    /// Rows currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Looks up a row, counting a hit or miss and refreshing recency on
    /// hit.
    pub fn get(&mut self, key: CacheKey) -> Option<Vec<f32>> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some((row, touched)) => {
                self.lru.remove(touched);
                *touched = self.tick;
                self.lru.insert(self.tick, key);
                self.hits += 1;
                Some(row.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peeks without touching recency or counters (tests, sizing).
    pub fn contains(&self, key: CacheKey) -> bool {
        self.entries.contains_key(&key)
    }

    /// Inserts a row, evicting least-recently-used entries until it
    /// fits. Rows wider than the whole capacity are silently dropped —
    /// caching is an optimization, never an obligation.
    pub fn insert(&mut self, key: CacheKey, row: Vec<f32>) {
        let bytes = row_bytes(&row);
        if bytes > self.capacity_bytes {
            return;
        }
        self.tick += 1;
        if let Some((old, touched)) = self.entries.remove(&key) {
            self.used_bytes -= row_bytes(&old);
            self.lru.remove(&touched);
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            let (&t, &victim) = self.lru.iter().next().expect("used > 0 implies entries");
            self.lru.remove(&t);
            let (row, _) = self.entries.remove(&victim).expect("lru and map agree");
            self.used_bytes -= row_bytes(&row);
        }
        self.entries.insert(key, (row, self.tick));
        self.lru.insert(self.tick, key);
        self.used_bytes += bytes;
    }

    /// Drops every entry written under a version older than `version` —
    /// the reclamation half of hot swap. (Correctness never needs this;
    /// version-keyed lookups already miss on stale rows.)
    pub fn invalidate_below(&mut self, version: u64) {
        let stale: Vec<CacheKey> = self
            .entries
            .keys()
            .filter(|k| k.version < version)
            .copied()
            .collect();
        for key in stale {
            let (row, touched) = self.entries.remove(&key).expect("key just listed");
            self.used_bytes -= row_bytes(&row);
            self.lru.remove(&touched);
        }
    }
}

fn row_bytes(row: &[f32]) -> usize {
    std::mem::size_of_val(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(version: u64, vertex: u32, layer: u8) -> CacheKey {
        CacheKey {
            version,
            vertex,
            layer,
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let mut c = EmbeddingCache::new(1024);
        assert!(c.get(key(1, 0, 0)).is_none());
        c.insert(key(1, 0, 0), vec![1.0, 2.0]);
        assert_eq!(c.get(key(1, 0, 0)).unwrap(), vec![1.0, 2.0]);
        assert!(c.get(key(1, 0, 1)).is_none(), "layer is part of the key");
        assert!(c.get(key(2, 0, 0)).is_none(), "version is part of the key");
        assert_eq!(c.stats(), (1, 3));
    }

    #[test]
    fn lru_evicts_oldest_touch_first() {
        // Capacity for exactly two 4-float rows.
        let mut c = EmbeddingCache::new(32);
        c.insert(key(1, 0, 0), vec![0.0; 4]);
        c.insert(key(1, 1, 0), vec![1.0; 4]);
        // Touch vertex 0 so vertex 1 becomes LRU.
        c.get(key(1, 0, 0)).unwrap();
        c.insert(key(1, 2, 0), vec![2.0; 4]);
        assert!(c.contains(key(1, 0, 0)), "recently touched survives");
        assert!(!c.contains(key(1, 1, 0)), "LRU evicted");
        assert!(c.contains(key(1, 2, 0)));
        assert_eq!(c.used_bytes, 32);
    }

    #[test]
    fn version_flip_hides_old_entries_and_invalidate_reclaims() {
        let mut c = EmbeddingCache::new(1024);
        c.insert(key(1, 7, 0), vec![1.0; 8]);
        c.insert(key(1, 8, 1), vec![2.0; 8]);
        c.insert(key(2, 7, 0), vec![3.0; 8]);
        // New-version lookups never see version-1 rows.
        assert!(c.get(key(2, 8, 1)).is_none());
        assert_eq!(c.get(key(2, 7, 0)).unwrap(), vec![3.0; 8]);
        let before = c.used_bytes;
        c.invalidate_below(2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes, before - 2 * 32);
        assert!(c.contains(key(2, 7, 0)));
    }

    #[test]
    fn oversized_rows_and_zero_capacity_are_dropped() {
        let mut c = EmbeddingCache::new(8);
        c.insert(key(1, 0, 0), vec![0.0; 4]); // 16 bytes > 8
        assert!(c.is_empty());
        let mut z = EmbeddingCache::new(0);
        z.insert(key(1, 0, 0), vec![1.0]);
        assert!(z.is_empty());
    }

    #[test]
    fn reinsert_updates_in_place_without_double_counting() {
        let mut c = EmbeddingCache::new(64);
        c.insert(key(1, 0, 0), vec![1.0; 4]);
        c.insert(key(1, 0, 0), vec![2.0; 8]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes, 32);
        assert_eq!(c.get(key(1, 0, 0)).unwrap(), vec![2.0; 8]);
    }
}
