//! A capacity-bounded LRU map — the one recency structure of the serving
//! tier: the tuning cache's in-memory tier, the plan cache, and the request
//! memo's frame buckets and first sights.
//!
//! A `HashMap` from key to slab slot plus a slab-backed intrusive
//! doubly-linked recency list: O(1) get/insert/evict without per-access
//! allocation. The slab stays dense — popping an entry moves the slab's
//! last node into the freed slot — so it never holds more nodes than
//! entries. There is no lock inside: the memo's maps live on one reactor
//! thread, and callers that share a map hold it in one `Mutex`.

use std::collections::HashMap;
use std::hash::Hash;

/// Slab sentinel for "no link".
const NIL: usize = usize::MAX;

/// An LRU map holding at most `capacity` entries; inserting past it evicts
/// the least recently used one.
#[derive(Debug)]
pub struct Lru<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    capacity: usize,
}

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of entries the map holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        Some(&mut self.slab[idx].value)
    }

    /// Inserts or replaces `key`, marking it most recently used. At
    /// capacity, a new key first evicts the least recently used entry.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.touch(idx);
            return;
        }
        if self.len() >= self.capacity {
            self.pop_lru();
        }
        let idx = self.slab.len();
        self.map.insert(key.clone(), idx);
        self.slab.push(Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        });
        self.link_front(idx);
    }

    /// Removes and returns the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let idx = self.tail;
        if idx == NIL {
            return None;
        }
        self.unlink(idx);
        let last = self.slab.len() - 1;
        if idx != last {
            // The last node moves into the freed slot: repoint its links.
            let (prev, next) = (self.slab[last].prev, self.slab[last].next);
            if prev == NIL {
                self.head = idx;
            } else {
                self.slab[prev].next = idx;
            }
            if next == NIL {
                self.tail = idx;
            } else {
                self.slab[next].prev = idx;
            }
            self.map.insert(self.slab[last].key.clone(), idx);
        }
        let node = self.slab.swap_remove(idx);
        self.map.remove(&node.key);
        Some((node.key, node.value))
    }

    /// Unlinks slot `idx` and relinks it at the head (most recent).
    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.link_front(idx);
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    fn link_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head == NIL {
            self.tail = idx;
        } else {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops every entry, least recently used first.
    fn drain<V>(lru: &mut Lru<u64, V>) -> Vec<u64> {
        std::iter::from_fn(|| lru.pop_lru().map(|(k, _)| k)).collect()
    }

    #[test]
    fn get_and_insert_replace() {
        let mut lru = Lru::new(8);
        assert!(lru.is_empty());
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert_eq!(lru.get(&1).copied(), Some("a"));
        assert_eq!(lru.get(&3), None);
        lru.insert(1, "a2");
        assert_eq!(lru.get(&1).copied(), Some("a2"));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        lru.insert(1, 1);
        lru.insert(2, 2);
        // Touch 1 so 2 becomes least recent.
        assert_eq!(lru.get(&1).copied(), Some(1));
        lru.insert(3, 3);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1).copied(), Some(1));
        assert_eq!(lru.get(&3).copied(), Some(3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn gets_and_replaces_set_the_pop_order() {
        let mut lru = Lru::new(8);
        for k in 0..5 {
            lru.insert(k, ());
        }
        lru.get(&0);
        lru.insert(2, ());
        lru.get(&9);
        assert_eq!(drain(&mut lru), [1, 3, 4, 0, 2]);
        assert!(lru.is_empty() && lru.pop_lru().is_none());
        // An emptied map links again from scratch.
        lru.insert(7, ());
        lru.insert(8, ());
        assert_eq!(drain(&mut lru), [7, 8]);
    }

    #[test]
    fn capacity_is_exact() {
        for capacity in [1, 3, 16] {
            let mut lru = Lru::new(capacity);
            for k in 0..1000u64 {
                lru.insert(k, k);
                assert_eq!(lru.len(), (k as usize + 1).min(capacity));
            }
            assert_eq!(lru.capacity(), capacity);
            let kept: Vec<u64> = (1000 - capacity as u64..1000).collect();
            assert_eq!(drain(&mut lru), kept, "the newest {capacity} stay");
        }
        assert_eq!(Lru::<u64, ()>::new(0).capacity(), 1);
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut lru = Lru::new(4);
        for k in 0..100u64 {
            lru.insert(k, k);
            if k % 3 == 0 {
                lru.pop_lru();
            }
            assert!(lru.slab.len() <= 4, "slab grew to {}", lru.slab.len());
        }
        // Every resident key still maps to the slot that holds it.
        for (&k, &idx) in &lru.map {
            assert_eq!(lru.slab[idx].key, k);
        }
    }
}
