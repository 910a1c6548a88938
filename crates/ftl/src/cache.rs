//! Byte-budgeted LRU cache for flash-resident index pages.
//!
//! The paper's Fig. 5 experiment caps the FTL's DRAM cache at 10 MB and
//! measures the cache miss ratio of each index scheme. This cache is that
//! DRAM: entries are whole index pages keyed by a *logical* id (tables move
//! on flash when rewritten, so physical addresses make poor keys), the
//! budget is in bytes, and hit/miss counters are first-class.
//!
//! Write-back: dirty pages are only persisted when evicted (the caller gets
//! the evicted entry back and is responsible for programming it) or when
//! explicitly drained — matching RHIK's "periodically updated persistent
//! copy" of metadata.
//!
//! Implemented from scratch as a slab-backed doubly-linked list + HashMap,
//! O(1) for get/insert/remove.
//!
//! Each FTL keeps its cache behind a short lock ([`SharedPageCache`]) so
//! the shard's lock-free readers can probe cached record pages in place.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use bytes::Bytes;

use crate::sync::{Mutex, MutexGuard};

const NIL: usize = usize::MAX;

/// Multiplicative hashing of the map's `u64` page keys (generation bits
/// high, slot bits low), folded so both halves reach every output bit.
#[derive(Clone, Copy, Default)]
struct PageKeyHasher(u64);

impl Hasher for PageKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 << 8 | u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (key ^ key >> 32).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

struct Node {
    key: u64,
    data: Bytes,
    dirty: bool,
    prev: usize,
    next: usize,
}

/// An entry evicted (or drained) from the cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evicted {
    pub key: u64,
    pub data: Bytes,
    pub dirty: bool,
}

/// Cache hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1]; 0 when no accesses happened.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Byte-budget LRU of index pages.
pub struct IndexPageCache {
    budget: usize,
    used: usize,
    map: HashMap<u64, usize, BuildHasherDefault<PageKeyHasher>>,
    slab: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    stats: CacheStats,
}

impl IndexPageCache {
    /// Create a cache holding at most `budget_bytes` of page payload.
    pub fn new(budget_bytes: usize) -> Self {
        IndexPageCache {
            budget: budget_bytes,
            used: 0,
            // bounded-by: eviction keeps `used <= budget`, capping the
            // resident pages the byte budget admits.
            map: HashMap::default(),
            slab: Vec::new(), // bounded-by: one node per resident page (see map)
            free: Vec::new(), // bounded-by: recycled slab slots; never exceeds slab len
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    pub fn used_bytes(&self) -> usize {
        self.used
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset the hit/miss counters (used between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Look up `key`, refreshing recency. Counts a hit or miss.
    pub fn get(&mut self, key: u64) -> Option<Bytes> {
        match self.map.get(&key).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                self.detach(idx);
                self.push_front(idx);
                Some(self.slab[idx].data.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// [`get`](Self::get) for a probe or an in-place update, in one map
    /// visit: refreshes recency, counts a hit or miss exactly as `get`
    /// does, and lends the buffer with its dirty flag. The caller must
    /// keep the buffer's length (the budget is charged by length) and set
    /// the flag once it changed the buffer.
    pub fn get_mut(&mut self, key: u64) -> Option<(&mut Bytes, &mut bool)> {
        match self.map.get(&key).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                self.detach(idx);
                self.push_front(idx);
                let node = &mut self.slab[idx];
                Some((&mut node.data, &mut node.dirty))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Look up without touching recency or stats (introspection).
    pub fn peek(&self, key: u64) -> Option<&Bytes> {
        self.map.get(&key).map(|&idx| &self.slab[idx].data)
    }

    /// Whether `key` is cached and dirty.
    pub fn is_dirty(&self, key: u64) -> bool {
        self.map.get(&key).is_some_and(|&idx| self.slab[idx].dirty)
    }

    /// Insert or replace `key`, evicting LRU entries as needed to fit the
    /// budget. Evicted entries (and a replaced entry's old bytes, never) are
    /// returned so the caller can write back dirty pages.
    ///
    /// An entry larger than the whole budget is *not* cached (it would evict
    /// everything and still not fit); it is returned immediately as if
    /// evicted, preserving write-back semantics.
    pub fn insert(&mut self, key: u64, data: Bytes, dirty: bool) -> Vec<Evicted> {
        self.stats.insertions += 1;
        let mut evicted = Vec::new();

        if let Some(&idx) = self.map.get(&key) {
            if data.len() > self.budget {
                // The replacement itself cannot fit: evict the old entry and
                // bounce the new bytes back to the caller. `evict_at` has
                // already counted the eviction (and the old entry's
                // dirtiness); only dirtiness introduced by the replacement
                // bytes still needs accounting.
                let old = self.evict_at(idx);
                let dirty = dirty || old.dirty;
                if dirty && !old.dirty {
                    self.stats.dirty_evictions += 1;
                }
                evicted.push(Evicted { key, data, dirty });
                return evicted;
            }
            // Replace in place: adjust usage, merge dirty flags.
            self.used -= self.slab[idx].data.len();
            self.used += data.len();
            self.slab[idx].data = data;
            self.slab[idx].dirty = self.slab[idx].dirty || dirty;
            self.detach(idx);
            self.push_front(idx);
        } else {
            if data.len() > self.budget {
                evicted.push(Evicted { key, data, dirty });
                if dirty {
                    self.stats.dirty_evictions += 1;
                }
                self.stats.evictions += 1;
                return evicted;
            }
            self.used += data.len();
            let idx = match self.free.pop() {
                Some(i) => {
                    self.slab[i] = Node { key, data, dirty, prev: NIL, next: NIL };
                    i
                }
                None => {
                    self.slab.push(Node { key, data, dirty, prev: NIL, next: NIL });
                    self.slab.len() - 1
                }
            };
            self.map.insert(key, idx);
            self.push_front(idx);
        }

        while self.used > self.budget {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "over budget with empty list");
            if victim == self.head {
                // Single over-budget entry is the one just inserted; it fits
                // the budget by the early-return above, so this cannot
                // happen — guard anyway.
                break;
            }
            evicted.push(self.evict_at(victim));
        }
        evicted
    }

    fn evict_at(&mut self, idx: usize) -> Evicted {
        self.detach(idx);
        let node = std::mem::replace(
            &mut self.slab[idx],
            Node { key: 0, data: Bytes::new(), dirty: false, prev: NIL, next: NIL },
        );
        self.map.remove(&node.key);
        self.free.push(idx);
        self.used -= node.data.len();
        self.stats.evictions += 1;
        if node.dirty {
            self.stats.dirty_evictions += 1;
        }
        Evicted { key: node.key, data: node.data, dirty: node.dirty }
    }

    /// Remove `key` outright (e.g. table retired by a resize).
    pub fn remove(&mut self, key: u64) -> Option<Evicted> {
        let idx = self.map.get(&key).copied()?;
        self.detach(idx);
        let node = std::mem::replace(
            &mut self.slab[idx],
            Node { key: 0, data: Bytes::new(), dirty: false, prev: NIL, next: NIL },
        );
        self.map.remove(&key);
        self.free.push(idx);
        self.used -= node.data.len();
        Some(Evicted { key: node.key, data: node.data, dirty: node.dirty })
    }

    /// Drain every dirty entry (marking it clean in place) for a checkpoint.
    pub fn drain_dirty(&mut self) -> Vec<Evicted> {
        let mut out = Vec::new();
        for idx in 0..self.slab.len() {
            if self.map.get(&self.slab[idx].key) == Some(&idx) && self.slab[idx].dirty {
                self.slab[idx].dirty = false;
                out.push(Evicted {
                    key: self.slab[idx].key,
                    data: self.slab[idx].data.clone(),
                    dirty: true,
                });
            }
        }
        out
    }

    /// Keys currently resident, MRU first (diagnostics).
    pub fn keys_mru(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.slab[cur].key);
            cur = self.slab[cur].next;
        }
        out
    }
}

/// One FTL's page cache behind its own short lock, shared by the FTL
/// (which the shard lock serializes) and the shard's lock-free readers.
/// Readers hold the lock for the probe of one page; writers hold it for
/// an in-place update or an insert, never across a flash operation.
#[derive(Clone, Debug)]
pub struct SharedPageCache {
    pages: Arc<Mutex<IndexPageCache>>,
}

impl SharedPageCache {
    pub fn new(cache: IndexPageCache) -> Self {
        SharedPageCache { pages: Arc::new(Mutex::new(cache)) }
    }

    pub fn lock(&self) -> MutexGuard<'_, IndexPageCache> {
        // Every cache method leaves the LRU consistent before it can
        // panic, so a poisoned cache is still a valid cache.
        self.pages.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Run `probe` on the page under `key` where it lies, refreshing
    /// recency and counting a hit or miss exactly as
    /// [`IndexPageCache::get`] does. The buffer is not cloned, so a later
    /// in-place update of the page never has to copy it.
    pub fn probe<T>(&self, key: u64, probe: impl FnOnce(&[u8]) -> T) -> Option<T> {
        self.lock().get_mut(key).map(|(page, _)| probe(&page[..]))
    }
}

impl std::fmt::Debug for IndexPageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexPageCache")
            .field("budget", &self.budget)
            .field("used", &self.used)
            .field("entries", &self.map.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(fill: u8, len: usize) -> Bytes {
        Bytes::from(vec![fill; len])
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = IndexPageCache::new(1000);
        assert!(c.get(1).is_none());
        c.insert(1, page(1, 100), false);
        assert_eq!(c.get(1).unwrap(), page(1, 100));
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn get_mut_counts_and_refreshes_like_get() {
        let mut c = IndexPageCache::new(200);
        assert!(c.get_mut(1).is_none());
        c.insert(1, page(1, 100), false);
        c.insert(2, page(2, 100), false);
        let (data, dirty) = c.get_mut(1).unwrap();
        assert!(!*dirty);
        *data = page(7, 100);
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
        assert!(!c.is_dirty(1), "get_mut leaves marking dirty to the caller");
        *c.get_mut(1).unwrap().1 = true;
        assert!(c.is_dirty(1), "the lent flag is the entry's");
        assert_eq!((c.stats().hits, c.stats().misses), (2, 1));
        // 1 is now MRU, so inserting 3 evicts 2.
        assert_eq!(c.insert(3, page(3, 100), false)[0].key, 2);
        assert_eq!(c.peek(1).unwrap(), &page(7, 100));
    }

    #[test]
    fn probe_reads_in_place_and_counts_like_get() {
        let c = SharedPageCache::new(IndexPageCache::new(300));
        assert_eq!(c.probe(1, |p| p.len()), None);
        c.lock().insert(1, page(4, 100), false);
        c.lock().insert(2, page(5, 100), false);
        assert_eq!(c.probe(1, |p| p[0]), Some(4));
        let stats = c.lock().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // 1 is now MRU, so inserting two more evicts 2 first.
        let evicted = c.lock().insert(3, page(6, 100), false);
        assert!(evicted.is_empty());
        assert_eq!(c.lock().insert(4, page(7, 100), false)[0].key, 2);
    }

    #[test]
    fn evicts_lru_order() {
        let mut c = IndexPageCache::new(300);
        c.insert(1, page(1, 100), false);
        c.insert(2, page(2, 100), false);
        c.insert(3, page(3, 100), false);
        // Touch 1 so 2 becomes LRU.
        c.get(1);
        let ev = c.insert(4, page(4, 100), false);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].key, 2);
        assert_eq!(c.keys_mru(), vec![4, 1, 3]);
        assert_eq!(c.used_bytes(), 300);
    }

    #[test]
    fn dirty_pages_return_on_eviction() {
        let mut c = IndexPageCache::new(200);
        c.insert(1, page(1, 100), true);
        c.insert(2, page(2, 100), false);
        let ev = c.insert(3, page(3, 100), false);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].dirty);
        assert_eq!(ev[0].key, 1);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn replace_merges_dirty_and_adjusts_usage() {
        let mut c = IndexPageCache::new(500);
        c.insert(1, page(1, 100), true);
        assert_eq!(c.used_bytes(), 100);
        let ev = c.insert(1, page(9, 300), false);
        assert!(ev.is_empty());
        assert_eq!(c.used_bytes(), 300);
        assert!(c.is_dirty(1), "dirty must survive a clean overwrite");
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(1).unwrap(), &page(9, 300));
    }

    #[test]
    fn oversized_entry_bounces() {
        let mut c = IndexPageCache::new(100);
        let ev = c.insert(1, page(1, 101), true);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].key, 1);
        assert!(ev[0].dirty);
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn oversized_replacement_counts_one_eviction() {
        // Regression: replacing a resident entry with oversized bytes used
        // to count the eviction twice (once in evict_at, once manually).
        let mut c = IndexPageCache::new(100);
        c.insert(1, page(1, 50), true);
        let ev = c.insert(1, page(9, 200), false);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].dirty, "old dirtiness must survive the bounce");
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 1);
        assert!(c.is_empty());

        // Clean resident + dirty oversized replacement: still one eviction,
        // and the replacement's dirtiness is counted exactly once.
        let mut c = IndexPageCache::new(100);
        c.insert(2, page(2, 50), false);
        let ev = c.insert(2, page(8, 200), true);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].dirty);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 1);

        // Clean on both sides: one eviction, no dirty eviction.
        let mut c = IndexPageCache::new(100);
        c.insert(3, page(3, 50), false);
        let ev = c.insert(3, page(7, 200), false);
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].dirty);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 0);
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut c = IndexPageCache::new(1000);
        for k in 0..5 {
            c.insert(k, page(k as u8, 50), false);
        }
        assert_eq!(c.remove(2).unwrap().key, 2);
        assert!(c.get(2).is_none());
        assert_eq!(c.len(), 4);
        // Slot reuse: inserting again must not grow the slab unboundedly.
        let slab_len = c.slab.len();
        c.insert(9, page(9, 50), false);
        assert_eq!(c.slab.len(), slab_len);
        assert_eq!(c.remove(42), None);
    }

    #[test]
    fn drain_dirty_cleans_in_place() {
        let mut c = IndexPageCache::new(1000);
        c.insert(1, page(1, 10), true);
        c.insert(2, page(2, 10), false);
        c.insert(3, page(3, 10), true);
        let mut drained: Vec<u64> = c.drain_dirty().into_iter().map(|e| e.key).collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 3]);
        assert!(c.drain_dirty().is_empty());
        assert!(!c.is_dirty(1));
        // Entries are still resident after a drain.
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let mut c = IndexPageCache::new(0);
        let ev = c.insert(1, page(1, 1), false);
        assert_eq!(ev.len(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn heavy_churn_preserves_invariants() {
        let mut c = IndexPageCache::new(512);
        for i in 0..10_000u64 {
            c.insert(i % 37, page((i % 251) as u8, 16 + (i % 7) as usize * 16), i % 3 == 0);
            if i % 5 == 0 {
                c.get(i % 23);
            }
            if i % 11 == 0 {
                c.remove(i % 13);
            }
            assert!(c.used_bytes() <= 512);
            let mru = c.keys_mru();
            assert_eq!(mru.len(), c.len());
        }
    }
}
