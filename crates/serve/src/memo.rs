//! The request memo: a repeated `tune`/`lookup` frame's exact bytes → what
//! ingest derived from them the last time (the verb, the kernel, the dense
//! extent and the sparsity fingerprint), so neither serve tier decodes the
//! JSON, parses the Matrix Market text or fingerprints the same bytes
//! twice.
//!
//! It lives on a reactor thread and is only ever touched there, probed once
//! per frame on its raw bytes before any decode: the server answers a hit's
//! decision from the loop, the router routes it by the remembered
//! fingerprint. The rules:
//!
//! * **Equality is bytes.** Frames are bucketed by their length and one
//!   FNV-1a pass over at most [`SAMPLE`] bytes of their head and of their
//!   tail; within a bucket, `==` on the whole frame decides. A digest never
//!   stands in for the bytes, so the server trusts only a fingerprint it
//!   computed itself from identical bytes. Frames built to share a bucket
//!   cost a lookup at most one comparison of the resident bytes.
//! * **Admission on the second arrival.** A frame is admitted only after
//!   it parsed and fingerprinted, and only when its bucket digest was
//!   already among the last [`FIRST_SIGHTS`] first sights: traffic that
//!   never repeats stores digests, never bodies.
//! * **A byte budget.** Resident frame bytes never exceed
//!   [`MEMO_BUDGET`]; the least recently used frames go first, and a frame
//!   larger than the whole budget is never admitted.

use std::collections::{BTreeMap, HashMap, VecDeque};

use waco_schedule::Kernel;

use crate::fingerprint::{Fingerprint, Fnv64};
use crate::json::Json;
use crate::protocol::MEMO_BUDGET;

/// Bytes of a frame's head, and of its tail, that its bucket digest reads.
const SAMPLE: usize = 256;

/// First-sight digests remembered; the oldest is forgotten first.
const FIRST_SIGHTS: usize = 1024;

/// What ingest derived from one `tune`/`lookup` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ingest {
    /// `lookup` (never tunes) rather than `tune`.
    pub lookup_only: bool,
    /// The cache key's kernel.
    pub kernel: Kernel,
    /// The cache key's dense extent (0 for SpMV).
    pub dense_extent: usize,
    /// The fingerprint of the frame's matrix.
    pub fingerprint: Fingerprint,
}

#[derive(Debug)]
struct Entry {
    frame: Box<[u8]>,
    ingest: Ingest,
    /// Clock reading of the last use: this entry's key in `recency`.
    used: u64,
}

/// The memo of one reactor thread; see the module docs.
#[derive(Debug)]
pub(crate) struct RequestMemo {
    budget: usize,
    /// Bucket digest → the memoized frames with that digest.
    buckets: HashMap<u64, Vec<Entry>>,
    /// Last use → bucket digest, least recent first: the eviction order.
    recency: BTreeMap<u64, u64>,
    clock: u64,
    bytes: usize,
    /// Bucket digests of the last [`FIRST_SIGHTS`] first sights, oldest
    /// first.
    sights: VecDeque<u64>,
    hits: u64,
    admitted: u64,
}

impl RequestMemo {
    /// An empty memo holding at most [`MEMO_BUDGET`] frame bytes.
    pub fn new() -> Self {
        Self::with_budget(MEMO_BUDGET)
    }

    fn with_budget(budget: usize) -> Self {
        RequestMemo {
            budget,
            buckets: HashMap::new(),
            recency: BTreeMap::new(),
            clock: 0,
            bytes: 0,
            sights: VecDeque::new(),
            hits: 0,
            admitted: 0,
        }
    }

    /// What `frame` was found to mean, when these exact bytes are
    /// memoized; marks them most recently used.
    pub fn get(&mut self, frame: &[u8]) -> Option<Ingest> {
        let digest = digest(frame);
        let entry = self
            .buckets
            .get_mut(&digest)?
            .iter_mut()
            .find(|e| *e.frame == *frame)?;
        self.recency.remove(&entry.used);
        self.clock += 1;
        entry.used = self.clock;
        self.recency.insert(self.clock, digest);
        self.hits += 1;
        waco_obs::counter("serve.memo.hits", 1);
        Some(entry.ingest)
    }

    /// Records a sight of `frame`: `true` when its digest was seen before,
    /// which makes the frame a candidate for [`Self::admit`] once it parses.
    pub fn sighted(&mut self, frame: &[u8]) -> bool {
        let digest = digest(frame);
        if self.sights.contains(&digest) {
            return true;
        }
        if self.sights.len() == FIRST_SIGHTS {
            self.sights.pop_front();
        }
        self.sights.push_back(digest);
        false
    }

    /// Memoizes what a frame that parsed and fingerprinted means, evicting
    /// least recently used frames until it fits the budget. A frame already
    /// memoized, or larger than the budget, is left as it is.
    pub fn admit(&mut self, frame: Vec<u8>, ingest: Ingest) {
        if frame.len() > self.budget {
            return;
        }
        let digest = digest(&frame);
        if self
            .buckets
            .get(&digest)
            .is_some_and(|b| b.iter().any(|e| *e.frame == *frame))
        {
            return;
        }
        while self.bytes + frame.len() > self.budget {
            self.evict_lru();
        }
        self.clock += 1;
        self.bytes += frame.len();
        self.admitted += 1;
        self.recency.insert(self.clock, digest);
        self.buckets.entry(digest).or_default().push(Entry {
            frame: frame.into_boxed_slice(),
            ingest,
            used: self.clock,
        });
    }

    fn evict_lru(&mut self) {
        let Some((used, digest)) = self.recency.pop_first() else {
            return;
        };
        let bucket = self.buckets.get_mut(&digest).expect("a listed bucket");
        let at = bucket
            .iter()
            .position(|e| e.used == used)
            .expect("a listed entry");
        self.bytes -= bucket.swap_remove(at).frame.len();
        if bucket.is_empty() {
            self.buckets.remove(&digest);
        }
    }

    /// The `memo` section of a tier's `stats` frame.
    pub fn stats_json(&self) -> Json {
        Json::obj([
            ("hits", Json::num(self.hits as f64)),
            ("admitted", Json::num(self.admitted as f64)),
            ("entries", Json::num(self.recency.len() as f64)),
            ("bytes", Json::num(self.bytes as f64)),
            ("budget", Json::num(self.budget as f64)),
        ])
    }
}

/// A frame's bucket: its length and one FNV-1a pass over its first and its
/// last [`SAMPLE`] bytes (the whole frame when it is shorter than both).
fn digest(frame: &[u8]) -> u64 {
    let head = frame.len().min(SAMPLE);
    let tail = frame.len().saturating_sub(SAMPLE).max(head);
    let mut h = Fnv64::new();
    h.write_u64(frame.len() as u64);
    h.write(&frame[..head]);
    h.write(&frame[tail..]);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ingest(n: u64) -> Ingest {
        Ingest {
            lookup_only: false,
            kernel: Kernel::SpMV,
            dense_extent: 0,
            fingerprint: Fingerprint { hi: n, lo: !n },
        }
    }

    /// A frame of `len` bytes whose middle byte is `mid`: past
    /// `2 * SAMPLE` bytes, every such frame of one length shares a bucket.
    fn frame(len: usize, mid: u8) -> Vec<u8> {
        let mut f = vec![b'x'; len];
        f[len / 2] = mid;
        f
    }

    #[test]
    fn bytes_decide_within_a_bucket() {
        let mut memo = RequestMemo::new();
        let (a, b) = (frame(4096, b'a'), frame(4096, b'b'));
        assert_eq!(digest(&a), digest(&b), "the sample skips the middle");
        memo.admit(a.clone(), ingest(1));
        assert_eq!(memo.get(&b), None);
        memo.admit(b.clone(), ingest(2));
        assert_eq!(memo.get(&a), Some(ingest(1)));
        assert_eq!(memo.get(&b), Some(ingest(2)));
        assert_eq!(memo.get(&a[..4095]), None);
        assert_eq!((memo.hits, memo.admitted, memo.bytes), (2, 2, 8192));
    }

    #[test]
    fn eviction_is_least_recently_used_within_the_budget() {
        let mut memo = RequestMemo::with_budget(300);
        for k in 0..3 {
            memo.admit(frame(100, k), ingest(u64::from(k)));
        }
        assert!(memo.get(&frame(100, 0)).is_some()); // 1 is now the oldest
        memo.admit(frame(150, 9), ingest(9));
        assert_eq!(memo.get(&frame(100, 1)), None);
        assert_eq!(memo.get(&frame(100, 2)), None, "150 bytes need two");
        assert!(memo.get(&frame(100, 0)).is_some());
        assert!(memo.get(&frame(150, 9)).is_some());
        assert_eq!(memo.bytes, 250);
        memo.admit(frame(301, 0), ingest(0));
        assert_eq!(memo.bytes, 250, "a frame over the budget is not admitted");
        memo.admit(frame(300, 1), ingest(1));
        assert_eq!((memo.bytes, memo.recency.len()), (300, 1));
    }

    #[test]
    fn admission_is_idempotent() {
        let mut memo = RequestMemo::new();
        memo.admit(frame(64, 0), ingest(0));
        memo.admit(frame(64, 0), ingest(7));
        assert_eq!(memo.get(&frame(64, 0)), Some(ingest(0)));
        assert_eq!((memo.admitted, memo.bytes), (1, 64));
    }

    #[test]
    fn first_sights_are_bounded() {
        let mut memo = RequestMemo::new();
        assert!(!memo.sighted(b"one"));
        assert!(memo.sighted(b"one"));
        for k in 0..FIRST_SIGHTS as u64 {
            memo.sighted(&k.to_le_bytes());
        }
        assert_eq!(memo.sights.len(), FIRST_SIGHTS);
        assert!(!memo.sighted(b"one"), "the oldest sight is forgotten");
    }
}
