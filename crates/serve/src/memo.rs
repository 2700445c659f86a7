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
//!   it parsed and fingerprinted, and only when its bucket digest is among
//!   the last [`FIRST_SIGHTS`] digests seen, least recently seen forgotten
//!   first: traffic that never repeats stores digests, never bodies.
//! * **A byte budget.** Resident frame bytes never exceed
//!   [`MEMO_BUDGET`]; an admit evicts the least recently used buckets
//!   until the frame fits, and a frame larger than the whole budget is
//!   never admitted.
//! * **Recency is per bucket.** Frames that share a bucket share a length
//!   and their first and last [`SAMPLE`] bytes; a probe that finds their
//!   bucket marks them all used, and they are evicted together.
//!
//! Both recency orders are [`Lru`]s; the memo is owned by its reactor
//! thread, so neither takes a lock.

use waco_schedule::Kernel;

use crate::fingerprint::{Fingerprint, Fnv64};
use crate::json::Json;
use crate::lru::Lru;
use crate::protocol::MEMO_BUDGET;

/// Bytes of a frame's head, and of its tail, that its bucket digest reads.
const SAMPLE: usize = 256;

/// First-sight digests remembered; the least recently seen is forgotten
/// first.
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
}

/// The memo of one reactor thread; see the module docs.
#[derive(Debug)]
pub(crate) struct RequestMemo {
    budget: usize,
    /// Bucket digest → the memoized frames with that digest; the byte
    /// budget, not the entry count, bounds it.
    buckets: Lru<u64, Vec<Entry>>,
    /// Resident frames, over every bucket.
    entries: usize,
    bytes: usize,
    /// Bucket digests of the last [`FIRST_SIGHTS`] frames seen.
    sights: Lru<u64, ()>,
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
            buckets: Lru::new(usize::MAX),
            entries: 0,
            bytes: 0,
            sights: Lru::new(FIRST_SIGHTS),
            hits: 0,
            admitted: 0,
        }
    }

    /// What `frame` was found to mean, when these exact bytes are
    /// memoized; marks their bucket most recently used.
    pub fn get(&mut self, frame: &[u8]) -> Option<Ingest> {
        let bucket = self.buckets.get(&digest(frame))?;
        let ingest = bucket.iter().find(|e| *e.frame == *frame)?.ingest;
        self.hits += 1;
        waco_obs::counter("serve.memo.hits", 1);
        Some(ingest)
    }

    /// Records a sight of `frame`: `true` when its digest was seen before,
    /// which makes the frame a candidate for [`Self::admit`] once it parses.
    pub fn sighted(&mut self, frame: &[u8]) -> bool {
        let digest = digest(frame);
        let seen = self.sights.get(&digest).is_some();
        self.sights.insert(digest, ());
        seen
    }

    /// Memoizes what a frame that parsed and fingerprinted means, evicting
    /// least recently used buckets until it fits the budget. A frame
    /// already memoized, or larger than the budget, is left as it is.
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
            let Some((_, evicted)) = self.buckets.pop_lru() else {
                break;
            };
            self.entries -= evicted.len();
            self.bytes -= evicted.iter().map(|e| e.frame.len()).sum::<usize>();
        }
        self.entries += 1;
        self.bytes += frame.len();
        self.admitted += 1;
        let entry = Entry {
            frame: frame.into_boxed_slice(),
            ingest,
        };
        match self.buckets.get(&digest) {
            Some(bucket) => bucket.push(entry),
            None => self.buckets.insert(digest, vec![entry]),
        }
    }

    /// The `memo` section of a tier's `stats` frame.
    pub fn stats_json(&self) -> Json {
        Json::obj([
            ("hits", Json::num(self.hits as f64)),
            ("admitted", Json::num(self.admitted as f64)),
            ("entries", Json::num(self.entries as f64)),
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
        assert_eq!((memo.bytes, memo.entries), (300, 1));
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
    fn a_bucket_is_used_and_evicted_whole() {
        let mut memo = RequestMemo::with_budget(3 * 1024);
        let (a, b) = (frame(1024, b'a'), frame(1024, b'b'));
        let (y, z) = (vec![b'y'; 1024], vec![b'z'; 1024]);
        for (k, f) in [&a, &b, &y].into_iter().enumerate() {
            memo.admit(f.clone(), ingest(k as u64));
        }
        assert!(memo.get(&y).is_some()); // the bucket of a and b is now the oldest
        memo.admit(z.clone(), ingest(3));
        assert_eq!((memo.get(&a), memo.get(&b)), (None, None));
        assert!(memo.get(&y).is_some() && memo.get(&z).is_some());
        assert_eq!((memo.entries, memo.bytes), (2, 2048));
    }

    #[test]
    fn first_sights_are_bounded() {
        let mut memo = RequestMemo::new();
        assert!(!memo.sighted(b"one"));
        assert!(!memo.sighted(b"two"));
        assert!(memo.sighted(b"one"));
        for k in 0..FIRST_SIGHTS as u64 - 1 {
            memo.sighted(&k.to_le_bytes());
        }
        assert_eq!(memo.sights.len(), FIRST_SIGHTS);
        assert!(memo.sighted(b"one"), "a sight seen again is kept");
        assert!(
            !memo.sighted(b"two"),
            "the least recently seen is forgotten"
        );
    }
}
