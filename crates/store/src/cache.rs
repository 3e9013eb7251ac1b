//! The page cache: decoded segments under an explicit byte budget.
//!
//! Residency is priced by [`Segment::residency_bytes`] — the engine's
//! `segment_residency_bytes` arithmetic — and checked against the same
//! [`MemoryBudget`] type the execution strategies use, so graph
//! residency and transient tensors share one accounting scheme.
//! Eviction is LRU over unpinned segments; a segment stays pinned while
//! a [`PinnedSegment`] guard is alive, and pinned segments are never
//! evicted (their bytes count against the budget as unevictable).
//!
//! Determinism note (DESIGN §15): the cache changes *when* a segment is
//! re-read, never *what* it decodes to — a CRC-checked segment is
//! bitwise equal however many times it is fetched, so cache state
//! (budget, eviction order, hit pattern) can never reach the computed
//! bits. The counters below feed the `pgc` trace record.

use crate::err::StoreError;
use crate::format::Segment;
use flexgraph_engine::MemoryBudget;
use flexgraph_obs::PageCacheRecord;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

struct Entry {
    seg: Arc<Segment>,
    bytes: usize,
    last_used: u64,
    pins: u32,
}

struct CacheInner {
    map: HashMap<u32, Entry>,
    tick: u64,
    resident: usize,
    stats: PageCacheRecord,
}

/// A bounded cache of decoded segments, keyed by segment id.
pub struct PageCache {
    inner: Mutex<CacheInner>,
    budget: MemoryBudget,
}

impl PageCache {
    /// A cache admitting at most `budget.bytes` of decoded segments.
    pub fn new(budget: MemoryBudget) -> PageCache {
        PageCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
                resident: 0,
                stats: PageCacheRecord::default(),
            }),
            budget,
        }
    }

    /// Fetches segment `sid`, consulting the cache first. On a miss,
    /// `fetch` supplies `(segment, compressed_bytes_read)`; the decoded
    /// segment is admitted under the budget, evicting least-recently-
    /// used unpinned segments as needed. The returned guard pins the
    /// segment until dropped.
    pub fn get<'a>(
        &'a self,
        sid: u32,
        fetch: impl FnOnce() -> Result<(Segment, u64), StoreError>,
    ) -> Result<PinnedSegment<'a>, StoreError> {
        let mut inner = self.inner.lock().unwrap();
        inner.stats.fetches += 1;
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.contains_key(&sid) {
            inner.stats.hits += 1;
            let e = inner.map.get_mut(&sid).unwrap();
            e.last_used = tick;
            e.pins += 1;
            let seg = e.seg.clone();
            return Ok(PinnedSegment {
                cache: self,
                sid,
                seg,
            });
        }
        inner.stats.misses += 1;
        let (seg, bytes_read) = fetch()?;
        inner.stats.bytes_read += bytes_read;
        let need = seg.residency_bytes();
        // Evict LRU unpinned segments until the new one fits.
        while inner.resident + need > self.budget.bytes {
            let victim = inner
                .map
                .iter()
                .filter(|(_, e)| e.pins == 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            let Some(victim) = victim else {
                // Everything resident is pinned: the access cannot be
                // admitted at this budget.
                let pinned: usize = inner.map.values().map(|e| e.bytes).sum();
                return Err(StoreError::Budget {
                    needed: pinned + need,
                    budget: self.budget.bytes,
                });
            };
            let e = inner.map.remove(&victim).unwrap();
            inner.resident -= e.bytes;
            inner.stats.evictions += 1;
        }
        let seg = Arc::new(seg);
        inner.resident += need;
        inner.map.insert(
            sid,
            Entry {
                seg: seg.clone(),
                bytes: need,
                last_used: tick,
                pins: 1,
            },
        );
        Ok(PinnedSegment {
            cache: self,
            sid,
            seg,
        })
    }

    fn unpin(&self, sid: u32) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.map.get_mut(&sid) {
            debug_assert!(e.pins > 0, "unpin without pin");
            e.pins -= 1;
        }
    }

    /// Counter snapshot, with the residency fields filled in.
    pub fn stats(&self) -> PageCacheRecord {
        let inner = self.inner.lock().unwrap();
        let mut s = inner.stats;
        s.resident_bytes = inner.resident as u64;
        s.budget_bytes = if self.budget.bytes == usize::MAX {
            0 // "unlimited" — 0 keeps the trace line readable
        } else {
            self.budget.bytes as u64
        };
        s
    }

    /// Drops every unpinned segment (keeps counters).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        let dead: Vec<u32> = inner
            .map
            .iter()
            .filter(|(_, e)| e.pins == 0)
            .map(|(&k, _)| k)
            .collect();
        for k in dead {
            let e = inner.map.remove(&k).unwrap();
            inner.resident -= e.bytes;
        }
    }
}

/// A pinned, decoded segment. The pin is released on drop; the data
/// itself is `Arc`-shared, so the slice references stay valid for the
/// guard's lifetime regardless of cache churn.
pub struct PinnedSegment<'a> {
    cache: &'a PageCache,
    sid: u32,
    seg: Arc<Segment>,
}

impl std::ops::Deref for PinnedSegment<'_> {
    type Target = Segment;
    fn deref(&self) -> &Segment {
        &self.seg
    }
}

impl Drop for PinnedSegment<'_> {
    fn drop(&mut self) {
        self.cache.unpin(self.sid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexgraph_graph::csr::sample_graph;

    /// The 9-vertex sample graph cut into three 3-vertex segments.
    fn seg(first: u32) -> Segment {
        Segment::from_graph(&sample_graph(), first, 3)
    }

    #[test]
    fn hits_misses_and_lru_eviction() {
        let (r0, r3, r6) = (
            seg(0).residency_bytes(),
            seg(3).residency_bytes(),
            seg(6).residency_bytes(),
        );
        // Room for segments 0 and 3, but not all three at once.
        let cache = PageCache::new(MemoryBudget {
            bytes: r0 + r3 + r6 - 1,
        });
        drop(cache.get(0, || Ok((seg(0), 10))).unwrap());
        drop(cache.get(3, || Ok((seg(3), 10))).unwrap());
        drop(cache.get(0, || panic!("must hit")).unwrap());
        // Admitting a third evicts the LRU (segment 3, since 0 was
        // touched more recently).
        drop(cache.get(6, || Ok((seg(6), 10))).unwrap());
        let s = cache.stats();
        assert_eq!(s.fetches, 4);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes_read, 30);
        drop(cache.get(0, || panic!("0 must still be resident")).unwrap());
        cache
            .get(3, || Ok((seg(3), 10)))
            .expect("3 was the eviction victim");
        assert!(cache.stats().resident_bytes <= cache.budget.bytes as u64);
    }

    #[test]
    fn pinned_segments_survive_eviction_pressure() {
        let r0 = seg(0).residency_bytes();
        let widest = seg(3).residency_bytes().max(seg(6).residency_bytes());
        // Segment 0 plus exactly one of {3, 6} fits.
        let cache = PageCache::new(MemoryBudget { bytes: r0 + widest });
        let pinned = cache.get(0, || Ok((seg(0), 1))).unwrap();
        // Churn the remaining budget; segment 0 must never go.
        for sid in [3u32, 6, 3, 6] {
            drop(cache.get(sid, || Ok((seg(sid), 1))).unwrap());
        }
        assert_eq!(pinned.first_vertex, 0);
        drop(cache.get(0, || panic!("pinned segment evicted")).unwrap());
        drop(pinned);
        // Unpinned now: pressure may evict it.
        drop(cache.get(3, || Ok((seg(3), 1))).unwrap());
        drop(cache.get(6, || Ok((seg(6), 1))).unwrap());
    }

    #[test]
    fn budget_too_small_for_pins_is_an_error() {
        let r0 = seg(0).residency_bytes();
        let cache = PageCache::new(MemoryBudget { bytes: r0 });
        let _pin = cache.get(0, || Ok((seg(0), 1))).unwrap();
        match cache.get(3, || Ok((seg(3), 1))) {
            Err(StoreError::Budget { needed, budget }) => {
                assert!(needed > budget);
                assert_eq!(budget, r0);
            }
            other => panic!("expected Budget error, got {:?}", other.map(|p| p.sid)),
        }
        // A single segment larger than the whole budget also fails.
        let tiny = PageCache::new(MemoryBudget { bytes: r0 - 1 });
        assert!(matches!(
            tiny.get(0, || Ok((seg(0), 1))),
            Err(StoreError::Budget { .. })
        ));
    }

    #[test]
    fn clear_drops_only_unpinned() {
        let cache = PageCache::new(MemoryBudget::unlimited());
        let pin = cache.get(0, || Ok((seg(0), 1))).unwrap();
        drop(cache.get(3, || Ok((seg(3), 1))).unwrap());
        cache.clear();
        assert_eq!(
            cache.stats().resident_bytes,
            seg(0).residency_bytes() as u64
        );
        drop(pin);
        cache.clear();
        assert_eq!(cache.stats().resident_bytes, 0);
        // Unlimited budgets render as 0 in the trace snapshot.
        assert_eq!(cache.stats().budget_bytes, 0);
    }
}
