//! One output buffer, written in place by every participant of a parallel
//! region — the only `unsafe` of the pool besides its lifetime erasure
//! (`poll`'s is FFI).
//!
//! All threads of a `parallelize`d loop share one output and each iteration
//! writes the elements it owns, as in OpenMP's generated code. Rust cannot
//! see that ownership (one iteration's elements may be scattered — a split
//! row index, a storage position), so [`DisjointMut`] takes it as a promise
//! at construction and hands out `&mut` access through per-range [`Claim`]s.
//! Debug builds check the promise: every element remembers the first claim
//! that reached it and a second claim panics *before* it gets a reference,
//! so every test that runs a parallel region doubles as a race detector.

use std::marker::PhantomData;
use std::ops::Range;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicUsize, Ordering};

/// Owner tag of an element no claim has reached yet.
#[cfg(debug_assertions)]
const UNOWNED: usize = usize::MAX;

/// A `&mut [T]` shared by the participants of one parallel region, each
/// writing its own elements through a [`Claim`].
pub struct DisjointMut<'a, T> {
    ptr: *mut T,
    len: usize,
    /// Per element, the tag of the claim that owns it.
    #[cfg(debug_assertions)]
    owners: Box<[AtomicUsize]>,
    _out: PhantomData<&'a mut [T]>,
}

// SAFETY: sharing the handle lets several threads hold `&mut T` to *different*
// elements (the contract of `new`), which moves `T`s across threads but never
// shares one: `T: Send`, as for `&mut [T]` split into per-thread chunks.
// `owners` is atomics; `ptr` and `len` are never written after `new`.
unsafe impl<T: Send> Sync for DisjointMut<'_, T> {}

impl<'a, T> DisjointMut<'a, T> {
    /// Wraps `out` for in-place writes by many claims.
    ///
    /// # Safety
    ///
    /// For as long as the handle lives, no element may be reached through
    /// two different [`Claim`]s. (Within one claim the borrow checker does
    /// the rest: its accessors take `&mut self`.) Debug builds check this
    /// as far as distinct claims carry distinct tags.
    pub unsafe fn new(out: &'a mut [T]) -> Self {
        DisjointMut {
            ptr: out.as_mut_ptr(),
            len: out.len(),
            #[cfg(debug_assertions)]
            owners: out.iter().map(|_| AtomicUsize::new(UNOWNED)).collect(),
            _out: PhantomData,
        }
    }

    /// The view one claimed range of the region writes through. `tag` names
    /// the claim to the owner check — a region passes the range's start.
    pub fn claim(&self, tag: usize) -> Claim<'_, T> {
        debug_assert_ne!(tag, usize::MAX, "the unowned tag is reserved");
        Claim {
            out: self,
            #[cfg(debug_assertions)]
            tag,
        }
    }
}

/// One claim's access to a [`DisjointMut`]: whole sub-slices for bodies that
/// know their rows, single elements for bodies that compute an index.
pub struct Claim<'a, T> {
    out: &'a DisjointMut<'a, T>,
    #[cfg(debug_assertions)]
    tag: usize,
}

impl<T> Claim<'_, T> {
    /// The elements `range` of the output.
    ///
    /// # Panics
    ///
    /// When `range` is out of bounds; in debug builds, when another claim
    /// already owns one of its elements.
    pub fn slice(&mut self, range: Range<usize>) -> &mut [T] {
        assert!(
            range.start <= range.end && range.end <= self.out.len,
            "{range:?} outside an output of {} elements",
            self.out.len
        );
        #[cfg(debug_assertions)]
        for (idx, owner) in range.clone().zip(&self.out.owners[range.clone()]) {
            // Relaxed: the tag publishes nothing — it only has to be one
            // value per element, which the compare-exchange decides.
            let seen = owner
                .compare_exchange(UNOWNED, self.tag, Ordering::Relaxed, Ordering::Relaxed)
                .unwrap_or_else(|owned| owned);
            assert!(
                seen == UNOWNED || seen == self.tag,
                "output element {idx} has two owners: claims {seen} and {}",
                self.tag
            );
        }
        // SAFETY: in bounds (asserted above); exclusive among claims by the
        // contract of `DisjointMut::new` and within this claim by `&mut
        // self`; valid for the returned lifetime because the handle borrows
        // the buffer mutably for longer.
        unsafe { std::slice::from_raw_parts_mut(self.out.ptr.add(range.start), range.len()) }
    }

    /// The element `idx` of the output. Panics as [`Claim::slice`] does.
    #[inline]
    pub fn at(&mut self, idx: usize) -> &mut T {
        &mut self.slice(idx..idx.saturating_add(1))[0]
    }
}
