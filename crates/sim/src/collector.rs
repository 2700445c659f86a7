//! What a simulated walk counts: traversal events ([`EventCounts`], the
//! `Instrument` the lowered plan reports to) and gather-operand cache reuse
//! ([`ReuseTracker`], one per gathered dense operand, keyed by the operand
//! unit a visited nonzero touches). Both are pure tallies; every cost is
//! charged from their totals afterwards.

use waco_exec::nest::{Instrument, UnitEvents};
use waco_schedule::LoopVar;

/// Raw traversal event counts of one walk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventCounts {
    /// Children yielded by concordant level iterations.
    pub concordant_steps: u64,
    /// Iterations of discordant dense loops (including wasted ones).
    pub dense_steps: u64,
    /// Binary-search / arithmetic probes of locates.
    pub locate_probes: u64,
    /// Locates that missed (pruned subtrees).
    pub locate_misses: u64,
    /// Innermost bodies reached (stored nonzeros visited).
    pub bodies: u64,
}

impl Instrument for EventCounts {
    const COUNTS: bool = true;

    fn bulk(&mut self, unit: UnitEvents, times: usize) {
        let times = times as u64;
        self.concordant_steps += unit.concordant * times;
        self.dense_steps += unit.dense * times;
        self.locate_probes += unit.locates * times;
    }

    fn concordant(&mut self, _level: usize, children: usize) {
        self.concordant_steps += children as u64;
    }
    fn dense_loop(&mut self, _var: LoopVar, extent: usize) {
        self.dense_steps += extent as u64;
    }
    fn locate(&mut self, _level: usize, probes: usize, hit: bool) {
        self.locate_probes += probes as u64;
        if !hit {
            self.locate_misses += 1;
        }
    }
    fn body(&mut self) {
        self.bodies += 1;
    }
}

/// A FIFO-set approximation of LRU cache residency for one gather operand.
///
/// Keys are operand units (a cache line of `x` for SpMV, a row of `B` for
/// SpMM, ...). Capacity is `cache_bytes / unit_bytes`. On access, a resident
/// key is a hit; a miss inserts the key, evicting in insertion order — a
/// cheap deterministic stand-in for LRU that preserves the
/// working-set-vs-capacity behavior the "sparse block" format exploits.
///
/// Keys come from a bounded domain (an operand has `dim / granularity`
/// units), so residency is one flag per key and the insertion order a ring
/// over at most `capacity` of them: what a tracker allocates follows the
/// keys the walk can emit, not the cache size.
#[derive(Debug)]
pub struct ReuseTracker {
    capacity: usize,
    resident: Vec<bool>,
    /// Resident keys, oldest at `oldest` once the ring is full.
    ring: Vec<usize>,
    oldest: usize,
    hits: u64,
    misses: u64,
}

impl ReuseTracker {
    /// A tracker holding up to `capacity` units (at least 1) of the keys
    /// `0..domain`.
    pub fn new(capacity: usize, domain: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            resident: vec![false; domain],
            ring: Vec::new(),
            oldest: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Records an access to `key`; returns `true` on a hit.
    ///
    /// # Panics
    ///
    /// Panics on a key outside the tracker's domain.
    #[inline]
    pub fn access(&mut self, key: usize) -> bool {
        if self.resident[key] {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.resident[key] = true;
        if self.ring.len() < self.capacity {
            self.ring.push(key);
        } else {
            let evicted = std::mem::replace(&mut self.ring[self.oldest], key);
            self.resident[evicted] = false;
            self.oldest = (self.oldest + 1) % self.capacity;
        }
        false
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_counts_accumulate() {
        let mut a = EventCounts::default();
        a.concordant(0, 5);
        a.dense_loop(LoopVar::outer(0), 3);
        a.locate(1, 4, false);
        a.body();
        assert_eq!(a.concordant_steps, 5);
        assert_eq!(a.dense_steps, 3);
        assert_eq!(a.locate_probes, 4);
        assert_eq!(a.locate_misses, 1);
        assert_eq!(a.bodies, 1);
        a.concordant(1, 2);
        a.locate(0, 1, true);
        a.body();
        assert_eq!(a.concordant_steps, 7);
        assert_eq!((a.locate_probes, a.locate_misses), (5, 1));
        assert_eq!(a.bodies, 2);
    }

    #[test]
    fn reuse_tracker_hits_within_capacity() {
        let mut t = ReuseTracker::new(4, 4);
        for k in 0..4 {
            assert!(!t.access(k));
        }
        for k in 0..4 {
            assert!(t.access(k), "resident key must hit");
        }
        assert_eq!(t.misses(), 4);
        assert_eq!(t.hits(), 4);
    }

    #[test]
    fn reuse_tracker_evicts_beyond_capacity() {
        let mut t = ReuseTracker::new(2, 4);
        t.access(1);
        t.access(2);
        t.access(3); // evicts 1
        assert!(!t.access(1), "evicted key must miss");
        assert_eq!((t.hits(), t.misses()), (0, 4));
    }

    #[test]
    fn streaming_pattern_all_misses() {
        let mut t = ReuseTracker::new(8, 1000);
        for k in 0..1000 {
            t.access(k);
        }
        assert_eq!(t.misses(), 1000);
    }

    #[test]
    fn blocked_pattern_mostly_hits() {
        // Touch keys in blocks of 4, revisiting each block 16 times: with
        // capacity 8, within-block reuse hits.
        let mut t = ReuseTracker::new(8, 40);
        for block in 0..10 {
            for _ in 0..16 {
                for k in 0..4 {
                    t.access(block * 4 + k);
                }
            }
        }
        // One miss per key, on its block's first pass.
        assert_eq!((t.hits(), t.misses()), (600, 40));
    }
}
