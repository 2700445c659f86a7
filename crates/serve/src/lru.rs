//! A sharded, capacity-bounded LRU map — the in-memory tier of the tuning
//! cache.
//!
//! There are [`SHARDS`] shards — twice the server's default executor count,
//! so that with every executor in the cache at once the expected lock
//! contention per shard stays under one thread. Each shard is a `Mutex` around a
//! `HashMap` plus a slab-backed intrusive doubly-linked recency list, giving
//! O(1) get/insert/evict without per-access allocation.

use std::collections::HashMap;
use std::sync::Mutex;

/// Shards of a [`ShardedLru::new`] map. A constant, not a reading of the
/// host: per-shard capacity — hence eviction order — must not change with
/// the machine a cache runs on.
pub const SHARDS: usize = 8;

/// Slab sentinel for "no link".
const NIL: usize = usize::MAX;

/// A sharded LRU map with per-shard capacity bounds.
///
/// Total capacity is split evenly across shards (rounded up), so the map
/// holds at most `capacity_per_shard × shards` entries and each shard
/// evicts independently — no global lock anywhere on the hot path.
#[derive(Debug)]
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// `shards.len() - 1`; shard count is a power of two so selection is a
    /// mask, keeping the full 64-bit key entropy in play.
    mask: u64,
    capacity_per_shard: usize,
}

#[derive(Debug)]
struct Shard<V> {
    map: HashMap<u64, usize>,
    slab: Vec<Node<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

#[derive(Debug)]
struct Node<V> {
    key: u64,
    value: V,
    prev: usize,
    next: usize,
}

impl<V: Clone> ShardedLru<V> {
    /// Creates a map with `capacity` total entries spread over [`SHARDS`]
    /// shards.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, SHARDS)
    }

    /// Creates a map with an explicit shard hint (rounded up to a power of
    /// two, at least 1). Exposed for tests; servers use [`ShardedLru::new`].
    pub fn with_shards(capacity: usize, shard_hint: usize) -> Self {
        let shards = shard_hint.max(1).next_power_of_two();
        let capacity_per_shard = capacity.div_ceil(shards).max(1);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        slab: Vec::new(),
                        free: Vec::new(),
                        head: NIL,
                        tail: NIL,
                    })
                })
                .collect(),
            mask: (shards - 1) as u64,
            capacity_per_shard,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Maximum number of entries the map can hold.
    pub fn capacity(&self) -> usize {
        self.capacity_per_shard * self.shards.len()
    }

    /// Current number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("lru shard poisoned").map.len())
            .sum()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut shard = self.shard(key);
        let idx = *shard.map.get(&key)?;
        shard.touch(idx);
        Some(shard.slab[idx].value.clone())
    }

    /// Inserts or replaces `key`, marking it most-recently-used. Evicts the
    /// shard's least-recently-used entry when the shard is at capacity.
    /// Returns the evicted `(key, value)` pair, if any.
    pub fn insert(&self, key: u64, value: V) -> Option<(u64, V)> {
        let mut shard = self.shard(key);
        if let Some(&idx) = shard.map.get(&key) {
            shard.slab[idx].value = value;
            shard.touch(idx);
            return None;
        }
        let evicted = if shard.map.len() >= self.capacity_per_shard {
            shard.evict_lru()
        } else {
            None
        };
        shard.push_front(key, value);
        evicted
    }

    /// Visits every entry (recency order within a shard, most recent first).
    /// Holds one shard lock at a time.
    pub fn for_each(&self, mut f: impl FnMut(u64, &V)) {
        for s in &self.shards {
            let shard = s.lock().expect("lru shard poisoned");
            let mut idx = shard.head;
            while idx != NIL {
                let node = &shard.slab[idx];
                f(node.key, &node.value);
                idx = node.next;
            }
        }
    }

    fn shard(&self, key: u64) -> std::sync::MutexGuard<'_, Shard<V>> {
        // Shard on the high half so the low bits stay available to HashMap.
        let i = ((key >> 32 ^ key) & self.mask) as usize;
        self.shards[i].lock().expect("lru shard poisoned")
    }
}

impl<V> Shard<V> {
    /// Unlinks node `idx` and reinserts it at the head (most recent).
    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.link_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
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

    fn link_front(&mut self, idx: usize) {
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

    fn push_front(&mut self, key: u64, value: V) {
        let node = Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = node;
                i
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        };
        self.link_front(idx);
        self.map.insert(key, idx);
    }

    fn evict_lru(&mut self) -> Option<(u64, V)>
    where
        V: Clone,
    {
        let idx = self.tail;
        if idx == NIL {
            return None;
        }
        self.unlink(idx);
        let key = self.slab[idx].key;
        self.map.remove(&key);
        self.free.push(idx);
        Some((key, self.slab[idx].value.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_get_insert() {
        let lru = ShardedLru::with_shards(8, 1);
        assert!(lru.is_empty());
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert_eq!(lru.get(1), Some("a"));
        assert_eq!(lru.get(3), None);
        lru.insert(1, "a2");
        assert_eq!(lru.get(1), Some("a2"));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let lru = ShardedLru::with_shards(2, 1);
        lru.insert(1, 1);
        lru.insert(2, 2);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(lru.get(1), Some(1));
        let evicted = lru.insert(3, 3);
        assert_eq!(evicted, Some((2, 2)));
        assert_eq!(lru.get(2), None);
        assert_eq!(lru.get(1), Some(1));
        assert_eq!(lru.get(3), Some(3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn capacity_never_exceeded_single_thread() {
        let lru = ShardedLru::with_shards(16, 4);
        for k in 0..1000u64 {
            lru.insert(k, k);
            assert!(lru.len() <= lru.capacity());
        }
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedLru::<u8>::with_shards(10, 5).shard_count(), 8);
        assert_eq!(ShardedLru::<u8>::with_shards(10, 1).shard_count(), 1);
        assert_eq!(ShardedLru::<u8>::with_shards(10, 0).shard_count(), 1);
    }

    #[test]
    fn for_each_sees_all_entries() {
        let lru = ShardedLru::with_shards(64, 4);
        for k in 0..32u64 {
            lru.insert(k, k * 10);
        }
        let mut seen = Vec::new();
        lru.for_each(|k, &v| seen.push((k, v)));
        seen.sort_unstable();
        assert_eq!(seen.len(), 32);
        for (i, (k, v)) in seen.iter().enumerate() {
            assert_eq!(*k, i as u64);
            assert_eq!(*v, i as u64 * 10);
        }
    }

    #[test]
    fn slab_slots_are_reused() {
        let lru = ShardedLru::with_shards(1, 1);
        for k in 0..100u64 {
            lru.insert(k, k);
        }
        let shard = lru.shards[0].lock().unwrap();
        assert!(
            shard.slab.len() <= 2,
            "evicted slots must be recycled, slab grew to {}",
            shard.slab.len()
        );
    }
}
