//! The dense-temporary reuse pool behind [`crate::plan::PlanOp::Workspace`].
//!
//! The workspace kernels (SpGEMM, fused SDDMM+SpMM) scatter-accumulate each
//! output row into a dense buffer and gather-reset the touched entries on
//! the way out. SpGEMM marks what it touched in a two-level bitmap
//! ([`Workspace::add`]) and gathers in ascending coordinate order by
//! sweeping it ([`Workspace::drain`]) — Kjolstad et al.'s coordinate-order
//! workspace iteration, O(touched + extent / 4096) a row with no sort; the
//! fused kernel's coordinates already arrive ascending, so it keeps an
//! insertion-ordered `touched` list. The buffer's extent is pre-resolved at
//! plan-build time ([`crate::plan::ExecutionPlan::workspace_extent`]), and
//! this module keeps released buffers in a process-wide pool keyed by
//! extent so hot serve paths — the same `PlannedKernel` run many times —
//! never re-allocate:
//!
//! * [`acquire`] pops a zeroed workspace from the pool (counter
//!   `exec.workspace.reuse`) or allocates a fresh one (counter
//!   `exec.workspace.alloc`);
//! * [`release`] returns it to the pool. The kernel must have gather-reset
//!   every touched entry first — the pool's invariant is that every pooled
//!   buffer and both bitmaps are all-zero, which is what makes `acquire`
//!   O(1) instead of O(extent).
//!
//! The pool is bounded per extent so a burst of parallel workers cannot
//! pin unbounded memory; overflow buffers are simply dropped.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use waco_tensor::Value;

/// Buffers kept per distinct extent: enough for every worker of the
/// largest thread menu to hold one, without letting the pool grow without
/// bound under churn.
const MAX_POOLED_PER_EXTENT: usize = 64;

/// A dense temporary plus what marks its touched coordinates. The kernel
/// owns the scatter/gather discipline: scatter through [`Workspace::add`]
/// and gather through [`Workspace::drain`], or write `buf` while pushing
/// onto `touched` and gather every touched entry, writing `0.0` back —
/// either way before [`release`].
pub(crate) struct Workspace {
    /// The dense accumulator row; all-zero between rows.
    pub(crate) buf: Vec<Value>,
    /// Coordinates written since the last gather-reset, in insertion order
    /// (the fused leaf's; its coordinates arrive ascending and unique).
    pub(crate) touched: Vec<usize>,
    /// Bit `j` set: `buf[j]` was added to since the last [`Workspace::drain`].
    bits: Vec<u64>,
    /// Bit `w` set: word `w` of `bits` may be nonzero.
    summary: Vec<u64>,
}

impl Workspace {
    /// `buf[j] += x`, marking `j` for the next [`Workspace::drain`].
    #[inline]
    pub(crate) fn add(&mut self, j: usize, x: Value) {
        self.buf[j] += x;
        self.bits[j >> 6] |= 1 << (j & 63);
        self.summary[j >> 12] |= 1 << ((j >> 6) & 63);
    }

    /// Calls `each(j, buf[j])` for every `j` marked since the last drain,
    /// `j` ascending, and leaves those entries and every bitmap word it
    /// visits zero: the summary words are all read, the others only where
    /// the summary points.
    #[inline]
    pub(crate) fn drain(&mut self, mut each: impl FnMut(usize, Value)) {
        for s in 0..self.summary.len() {
            let mut live = std::mem::take(&mut self.summary[s]);
            while live != 0 {
                let w = s << 6 | live.trailing_zeros() as usize;
                live &= live - 1;
                let mut word = std::mem::take(&mut self.bits[w]);
                while word != 0 {
                    let j = w << 6 | word.trailing_zeros() as usize;
                    word &= word - 1;
                    each(j, std::mem::take(&mut self.buf[j]));
                }
            }
        }
    }

    fn is_zero(&self) -> bool {
        let zero = |words: &[u64]| words.iter().all(|&w| w == 0);
        self.buf.iter().all(|&v| v == 0.0) && zero(&self.bits) && zero(&self.summary)
    }
}

fn pool() -> &'static Mutex<HashMap<usize, Vec<Workspace>>> {
    static POOL: OnceLock<Mutex<HashMap<usize, Vec<Workspace>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A zeroed workspace of exactly `extent` values: pooled if one is
/// available, freshly allocated otherwise.
pub(crate) fn acquire(extent: usize) -> Workspace {
    let reused = pool()
        .lock()
        .ok()
        .and_then(|mut p| p.get_mut(&extent).and_then(Vec::pop));
    match reused {
        Some(ws) => {
            debug_assert!(ws.is_zero(), "pooled workspaces are all-zero");
            if waco_obs::enabled() {
                waco_obs::counter("exec.workspace.reuse", 1);
            }
            ws
        }
        None => {
            if waco_obs::enabled() {
                waco_obs::counter("exec.workspace.alloc", 1);
            }
            let words = extent.div_ceil(64);
            Workspace {
                buf: vec![0.0; extent],
                touched: Vec::new(),
                bits: vec![0; words],
                summary: vec![0; words.div_ceil(64)],
            }
        }
    }
}

/// Returns a gather-reset workspace to the pool (or drops it when the
/// pool for its extent is full).
pub(crate) fn release(mut ws: Workspace) {
    debug_assert!(ws.is_zero(), "workspace released without a gather-reset");
    ws.touched.clear();
    if let Ok(mut p) = pool().lock() {
        let bucket = p.entry(ws.buf.len()).or_default();
        if bucket.len() < MAX_POOLED_PER_EXTENT {
            bucket.push(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_roundtrip_reuses_the_buffer() {
        // A deliberately odd extent so concurrent tests using the pool
        // cannot collide with this bucket.
        const EXTENT: usize = 12_347;
        let ws = acquire(EXTENT);
        assert_eq!(ws.buf.len(), EXTENT);
        assert!(ws.touched.is_empty());
        let ptr = ws.buf.as_ptr();
        release(ws);
        let ws = acquire(EXTENT);
        assert_eq!(ws.buf.as_ptr(), ptr, "same allocation came back");
        assert!(ws.buf.iter().all(|&v| v == 0.0));
        release(ws);
    }

    #[test]
    fn distinct_extents_use_distinct_buckets() {
        let a = acquire(12_553);
        let b = acquire(12_959);
        release(a);
        release(b);
        assert_eq!(acquire(12_553).buf.len(), 12_553);
        assert_eq!(acquire(12_959).buf.len(), 12_959);
    }
}
