//! Building hierarchical storage from coordinate lists.
//!
//! TACO's assembly (Chou et al.): sort the nonzeros into level order, then
//! emit the levels top-down — uncompressed levels by arithmetic, compressed
//! ones as `pos`/`crd` over the distinct coordinate prefixes — allocating
//! nothing per nonzero. A nonzero's axis-coordinate tuple is one packed
//! integer key: level `l` owns `ceil(log2(extent_l))` bits, the outermost
//! level the highest, so integer order *is* storage order (a `u64` while the
//! fields fit — no matrix the serve wire admits needs more than 46 bits —
//! else a `u128`; same algorithm). One stable sort of `(key, value)` keeps
//! duplicates in input order, the order they are summed in: least
//! significant field first, a counting pass per field digit, none for
//! entries already in order and none for a digit they are already sorted
//! in (a CSR build over row-major nonzeros makes no pass; a CSC build one
//! per column digit). One pass over adjacent keys finds where each entry
//! parts from the one before (the highest differing bit names the level),
//! and counting those gives every level's distinct prefixes: the exact size
//! the budget is checked against *before* any level is allocated. One more
//! pass emits every level by shift and mask from the same partings.

use crate::level::{LevelFormat, LevelStorage};
use crate::spec::{AxisPart, FormatSpec};
use crate::{FormatError, Result};
use waco_tensor::Value;

/// Default storage budget in words (indices + values). Building a format
/// whose materialization would exceed this fails with
/// [`FormatError::StorageTooLarge`] — the analog of the paper excluding
/// configurations that take over a minute.
pub const DEFAULT_BUDGET_WORDS: u64 = 1 << 24;

/// `(levels, vals, parent_counts)`: `parent_counts[l]` positions *enter*
/// level `l` (so `parent_counts[0] == 1`).
pub(crate) type Built = (Vec<LevelStorage>, Vec<Value>, Vec<usize>);

/// A packed axis-coordinate tuple.
trait Key: Copy + Ord + Default {
    /// The key with `coord` placed at bit offset `shift`.
    fn with(self, coord: usize, shift: u32) -> Self;
    /// The coordinate at bit offset `shift` under `mask`.
    fn field(self, shift: u32, mask: usize) -> usize;
    /// The highest bit in which two keys differ, if they do.
    fn top_diff(self, other: Self) -> Option<u32>;
}

macro_rules! impl_key {
    ($t:ty) => {
        impl Key for $t {
            fn with(self, coord: usize, shift: u32) -> Self {
                self | (coord as $t) << shift
            }
            fn field(self, shift: u32, mask: usize) -> usize {
                (self >> shift) as usize & mask
            }
            fn top_diff(self, other: Self) -> Option<u32> {
                (self ^ other).checked_ilog2()
            }
        }
    };
}
impl_key!(u64);
impl_key!(u128);

/// Where each level's coordinate sits in a key: `(shift, mask)` per level —
/// `ceil(log2(extent))` bits, `shift[l]` above the key's low end (the summed
/// widths of the levels below `l`).
fn fields(spec: &FormatSpec) -> (Vec<u32>, Vec<usize>) {
    let mask: Vec<usize> = (spec.order().iter())
        .map(|&axis| (spec.axis_extent(axis) - 1).leading_zeros())
        .map(|unused| usize::MAX.checked_shr(unused).unwrap_or(0))
        .collect();
    let mut shift = vec![0u32; mask.len()];
    for l in (1..mask.len()).rev() {
        shift[l - 1] = shift[l] + mask[l].count_ones();
    }
    (shift, mask)
}

/// Assembles `spec` over `nonzeros`; errors and panics are those documented
/// on [`crate::SparseStorage::from_nonzeros`], its one caller.
pub(crate) fn assemble<C: AsRef<[usize]>>(
    spec: &FormatSpec,
    nonzeros: impl IntoIterator<Item = (C, Value)>,
    budget_words: u64,
) -> Result<Built> {
    let (shift, mask) = fields(spec);
    // Strictly below the key width, so no field's offset can reach it.
    match shift[0] + mask[0].count_ones() {
        0..=63 => assemble_keyed::<u64, C>(spec, &shift, &mask, nonzeros, budget_words),
        64..=127 => assemble_keyed::<u128, C>(spec, &shift, &mask, nonzeros, budget_words),
        bits => Err(FormatError::InvalidSpec(format!(
            "axis coordinates need {bits} key bits, fewer than 128 are supported"
        ))),
    }
}

/// Bits of a key one counting pass orders by: 2 048 buckets.
const DIGIT_BITS: u32 = 11;

/// Sorts `entries` by key, stably, so duplicates keep their input order:
/// least significant field first, one counting pass per digit of at most
/// [`DIGIT_BITS`] bits of a field (`shift`/`mask` as [`fields`] gives
/// them). Entries already in key order take no pass, and a digit in which
/// they are already non-decreasing is skipped: a stable pass would leave
/// them as they are.
fn radix_sort<K: Key>(entries: &mut Vec<(K, Value)>, shift: &[u32], mask: &[usize]) {
    if entries.windows(2).all(|w| w[0].0 <= w[1].0) {
        return;
    }
    let mut sorted = Vec::with_capacity(entries.len());
    let mut starts = vec![0usize; 1 << DIGIT_BITS];
    for (&shift, &mask) in shift.iter().zip(mask).rev() {
        let bits = mask.count_ones();
        for low in (0..bits).step_by(DIGIT_BITS as usize) {
            let digit_mask = (1usize << (bits - low).min(DIGIT_BITS)) - 1;
            let digit = |k: K| k.field(shift + low, digit_mask);
            if entries.windows(2).all(|w| digit(w[0].0) <= digit(w[1].0)) {
                continue;
            }
            let starts = &mut starts[..=digit_mask];
            starts.fill(0);
            entries.iter().for_each(|e| starts[digit(e.0)] += 1);
            let mut at = 0;
            for s in starts.iter_mut() {
                (*s, at) = (at, at + *s);
            }
            sorted.clear();
            sorted.resize(entries.len(), (K::default(), 0.0));
            for &e in entries.iter() {
                let d = digit(e.0);
                sorted[starts[d]] = e;
                starts[d] += 1;
            }
            std::mem::swap(entries, &mut sorted);
        }
    }
}

fn assemble_keyed<K: Key, C: AsRef<[usize]>>(
    spec: &FormatSpec,
    shift: &[u32],
    mask: &[usize],
    nonzeros: impl IntoIterator<Item = (C, Value)>,
    budget_words: u64,
) -> Result<Built> {
    let nlev = spec.num_levels();
    // Per dimension: its split, and the offsets of its outer and inner fields.
    let mut dims: Vec<(usize, u32, u32)> = spec.splits().iter().map(|&s| (s, 0, 0)).collect();
    for (axis, &shift) in spec.order().iter().zip(shift) {
        match axis.part {
            AxisPart::Outer => dims[axis.dim].1 = shift,
            AxisPart::Inner => dims[axis.dim].2 = shift,
        }
    }
    let nonzeros = nonzeros.into_iter();
    let mut entries: Vec<(K, Value)> = Vec::with_capacity(nonzeros.size_hint().0);
    for (coord, val) in nonzeros {
        let coord = coord.as_ref();
        if coord.len() != spec.ndims() {
            return Err(FormatError::DimMismatch {
                spec_dims: spec.dims().to_vec(),
                tensor_dims: vec![coord.len()],
            });
        }
        let in_range = coord.iter().zip(spec.dims()).all(|(c, n)| c < n);
        assert!(in_range, "coordinate {coord:?} outside {:?}", spec.dims());
        let mut key = K::default();
        for (&c, &(split, outer, inner)) in coord.iter().zip(&dims) {
            key = key.with(c / split, outer).with(c % split, inner);
        }
        entries.push((key, val));
    }
    radix_sort(&mut entries, shift, mask);

    // The first level at which entry `i` parts from entry `i - 1` (`nlev`
    // for a duplicate coordinate, 0 for the first entry): the one whose
    // field holds the highest differing key bit. Partings at or above level
    // `l` are the distinct prefixes of length `l + 1`: the exact size,
    // before anything is built.
    let mut partings = Vec::with_capacity(entries.len());
    let mut distinct = vec![0usize; nlev + 1];
    let mut prev = None;
    for &(key, _) in &entries {
        let parting = match prev.map(|p: K| p.top_diff(key)) {
            None => 0,
            Some(Some(bit)) => shift.iter().take_while(|&&s| s > bit).count(),
            Some(None) => nlev,
        };
        distinct[parting] += 1;
        partings.push(parting as u8);
        prev = Some(key);
    }
    for l in 1..nlev {
        distinct[l] += distinct[l - 1];
    }
    let words = spec.storage_words(&distinct[..nlev]);
    if words > budget_words {
        return Err(FormatError::StorageTooLarge {
            estimated: words,
            budget: budget_words,
        });
    }

    let mut levels = Vec::with_capacity(nlev);
    let mut parent_counts = Vec::with_capacity(nlev);
    let mut parents = 1usize;
    for (l, &distinct) in distinct[..nlev].iter().enumerate() {
        parent_counts.push(parents);
        levels.push(match spec.formats()[l] {
            LevelFormat::Uncompressed => {
                let extent = spec.axis_extent(spec.order()[l]);
                parents *= extent;
                LevelStorage::Uncompressed { extent }
            }
            LevelFormat::Compressed => {
                let pos = vec![0usize; parents + 1];
                parents = distinct;
                LevelStorage::Compressed {
                    pos,
                    crd: Vec::with_capacity(distinct),
                }
            }
        });
    }

    // `at[l]`: the current entry's position entering level `l`. Entries come
    // in storage order, so positions change only from the entry's first
    // differing level down, and a compressed level only ever appends.
    let mut vals = vec![0.0 as Value; parents];
    let mut at = vec![0usize; nlev + 1];
    for (&(key, val), &first) in entries.iter().zip(&partings) {
        for l in usize::from(first)..nlev {
            let c = key.field(shift[l], mask[l]);
            at[l + 1] = match &mut levels[l] {
                LevelStorage::Uncompressed { extent } => at[l] * *extent + c,
                LevelStorage::Compressed { pos, crd } => {
                    pos[at[l] + 1] += 1;
                    crd.push(c);
                    crd.len() - 1
                }
            };
        }
        vals[at[nlev]] += val;
    }
    for level in &mut levels {
        if let LevelStorage::Compressed { pos, .. } = level {
            for p in 1..pos.len() {
                pos[p] += pos[p - 1];
            }
        }
    }
    Ok((levels, vals, parent_counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FormatSpec;

    fn build(spec: &FormatSpec, coords: &[(usize, usize)], budget: u64) -> Result<Built> {
        let nonzeros = coords
            .iter()
            .enumerate()
            .map(|(i, &(r, c))| ([r, c], (i + 1) as Value));
        assemble(spec, nonzeros, budget)
    }

    #[test]
    fn csr_materialization_matches_classic() {
        let spec = FormatSpec::csr(4, 4);
        let (levels, vals, parents) =
            build(&spec, &[(0, 1), (0, 3), (2, 2)], DEFAULT_BUDGET_WORDS).unwrap();
        assert_eq!(parents, vec![1, 4, 3, 3]);
        match &levels[1] {
            LevelStorage::Compressed { pos, crd } => {
                assert_eq!(pos, &vec![0, 2, 2, 3, 3]);
                assert_eq!(crd, &vec![1, 3, 2]);
            }
            _ => panic!("level 1 of CSR must be compressed"),
        }
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn bcsr_pads_blocks() {
        let spec = FormatSpec::bcsr(4, 4, 2, 2);
        let (levels, vals, _) = build(&spec, &[(0, 0), (1, 1)], DEFAULT_BUDGET_WORDS).unwrap();
        // One stored block of 2x2 = 4 value slots, two nonzero.
        assert_eq!(vals.len(), 4);
        assert_eq!(vals.iter().filter(|v| **v != 0.0).count(), 2);
        match &levels[1] {
            LevelStorage::Compressed { crd, .. } => assert_eq!(crd, &vec![0]),
            _ => panic!("BCSR level 1 compressed"),
        }
    }

    #[test]
    fn budget_is_enforced_with_the_exact_size() {
        let spec = FormatSpec::dense(1024, 1024);
        let r = build(&spec, &[(0, 0)], 1000);
        assert!(matches!(
            r,
            Err(FormatError::StorageTooLarge {
                estimated: 1_048_576,
                budget: 1000
            })
        ));
    }

    #[test]
    fn column_major_orders_by_column() {
        let spec = FormatSpec::csc(4, 4);
        let (levels, vals, _) = build(&spec, &[(0, 3), (3, 0)], DEFAULT_BUDGET_WORDS).unwrap();
        // Sorted by (k1, i1, ...): the column 0 entry is stored first.
        match &levels[1] {
            LevelStorage::Compressed { crd, .. } => assert_eq!(crd, &vec![3, 0]),
            _ => panic!("CSC level 1 compressed"),
        }
        assert_eq!(vals, vec![2.0, 1.0]);
    }

    #[test]
    fn duplicate_coords_are_summed() {
        let spec = FormatSpec::csr(2, 2);
        let (_, vals, _) =
            assemble(&spec, [([0, 0], 1.0), ([0, 0], 2.0)], DEFAULT_BUDGET_WORDS).unwrap();
        assert_eq!(vals, vec![3.0]);
    }

    #[test]
    fn key_fields_are_sized_by_extent() {
        // 10 rows in blocks of 4 (extents 3, 4), 20 columns unsplit (20, 1):
        // widths 2 + 5 + 2 + 0, the unit-extent level holding no bits.
        let (shift, mask) = fields(&FormatSpec::bcsr(10, 20, 4, 1));
        assert_eq!(shift, vec![7, 2, 0, 0]);
        assert_eq!(mask, vec![3, 31, 3, 0]);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let spec = FormatSpec::csr(4, 4);
        let r = assemble(&spec, [(vec![0, 0, 0], 1.0)], DEFAULT_BUDGET_WORDS);
        assert!(matches!(
            r,
            Err(FormatError::DimMismatch { tensor_dims, .. }) if tensor_dims == vec![3]
        ));
    }
}
