//! Coordinate-list (COO) sparse matrices and 3-D tensors.
//!
//! COO is the canonical interchange representation in this workspace: the
//! format builder in `waco-format` consumes it, the generators in [`crate::gen`]
//! produce it, and Matrix Market I/O round-trips through it.
//!
//! Invariants maintained by [`CooMatrix`] and [`CooTensor3`]:
//! * entries are sorted lexicographically by coordinate (row-major),
//! * coordinates are unique (duplicates are summed on construction),
//! * every coordinate is within the declared dimensions.

use crate::{Result, TensorError, Value};

/// A single nonzero entry of a sparse matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Row coordinate.
    pub row: usize,
    /// Column coordinate.
    pub col: usize,
    /// Stored value.
    pub val: Value,
}

/// A sparse matrix in coordinate-list form.
///
/// Entries are always sorted row-major and deduplicated; see module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    entries: Vec<Entry>,
}

impl CooMatrix {
    /// Creates a matrix from raw triplets, summing duplicate coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::CoordOutOfBounds`] if any coordinate exceeds the
    /// dimensions, or [`TensorError::InvalidDims`] if `nrows == 0 || ncols == 0`.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, Value)>,
    ) -> Result<Self> {
        let mut entries: Vec<Entry> = triplets
            .into_iter()
            .map(|(row, col, val)| Entry { row, col, val })
            .collect();
        entries.sort_by_key(|a| (a.row, a.col));
        entries.dedup_by(|later, earlier| {
            if later.row == earlier.row && later.col == earlier.col {
                earlier.val += later.val;
                true
            } else {
                false
            }
        });
        Self::from_sorted(nrows, ncols, entries)
    }

    /// Creates a matrix from entries that are already sorted row-major and
    /// unique — the one validating constructor, which [`Self::from_triplets`]
    /// ends in. One pass, no sort.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidDims`] if `nrows == 0 || ncols == 0` or an entry
    /// does not follow its predecessor strictly in row-major order (unsorted
    /// or duplicate), [`TensorError::CoordOutOfBounds`] if a coordinate
    /// exceeds the dimensions.
    pub fn from_sorted(nrows: usize, ncols: usize, entries: Vec<Entry>) -> Result<Self> {
        if nrows == 0 || ncols == 0 {
            return Err(TensorError::InvalidDims(format!(
                "matrix dimensions must be positive, got {nrows}x{ncols}"
            )));
        }
        for (idx, e) in entries.iter().enumerate() {
            if e.row >= nrows || e.col >= ncols {
                return Err(TensorError::CoordOutOfBounds {
                    coord: vec![e.row, e.col],
                    dims: vec![nrows, ncols],
                });
            }
            if idx > 0 && (entries[idx - 1].row, entries[idx - 1].col) >= (e.row, e.col) {
                return Err(TensorError::InvalidDims(format!(
                    "entry {idx} at ({}, {}) does not follow its predecessor in row-major order",
                    e.row, e.col
                )));
            }
        }
        Ok(Self {
            nrows,
            ncols,
            entries,
        })
    }

    /// Creates an empty matrix (no nonzeros) of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self::from_triplets(nrows, ncols, std::iter::empty()).expect("positive dims")
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Fraction of positions that are nonzero.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// The sorted, deduplicated entries.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Iterates over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Value)> + '_ {
        self.entries.iter().map(|e| (e.row, e.col, e.val))
    }

    /// Returns the stored value at `(row, col)`, or `None` when structurally zero.
    pub fn get(&self, row: usize, col: usize) -> Option<Value> {
        self.entries
            .binary_search_by(|e| (e.row, e.col).cmp(&(row, col)))
            .ok()
            .map(|idx| self.entries[idx].val)
    }

    /// The transpose (entries re-sorted column-major becomes row-major of Aᵀ).
    pub fn transpose(&self) -> CooMatrix {
        CooMatrix::from_triplets(
            self.ncols,
            self.nrows,
            self.iter().map(|(r, c, v)| (c, r, v)),
        )
        .expect("transpose of a valid matrix is valid")
    }

    /// Number of nonzeros in each row.
    pub fn row_nnz(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nrows];
        for e in &self.entries {
            counts[e.row] += 1;
        }
        counts
    }

    /// Number of nonzeros in each column.
    pub fn col_nnz(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.ncols];
        for e in &self.entries {
            counts[e.col] += 1;
        }
        counts
    }

    /// Converts to a dense row-major buffer (rows × cols). Intended for small
    /// matrices in tests and reference computations.
    pub fn to_dense(&self) -> crate::DenseMatrix {
        let mut d = crate::DenseMatrix::zeros(self.nrows, self.ncols);
        for e in &self.entries {
            *d.get_mut(e.row, e.col) += e.val;
        }
        d
    }

    /// Replaces every stored value with `v`, keeping the pattern.
    pub fn with_uniform_values(&self, v: Value) -> CooMatrix {
        CooMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            entries: self
                .entries
                .iter()
                .map(|e| Entry {
                    row: e.row,
                    col: e.col,
                    val: v,
                })
                .collect(),
        }
    }

    /// The sparsity pattern as `(row, col)` pairs, row-major.
    pub fn pattern(&self) -> Vec<(usize, usize)> {
        self.entries.iter().map(|e| (e.row, e.col)).collect()
    }
}

/// A single nonzero entry of a 3-D sparse tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry3 {
    /// First-mode coordinate.
    pub i: usize,
    /// Second-mode coordinate.
    pub k: usize,
    /// Third-mode coordinate.
    pub l: usize,
    /// Stored value.
    pub val: Value,
}

/// A 3-D sparse tensor in coordinate-list form (used by MTTKRP).
///
/// Same invariants as [`CooMatrix`]: sorted lexicographically, unique, in-bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor3 {
    dims: [usize; 3],
    entries: Vec<Entry3>,
}

impl CooTensor3 {
    /// Creates a tensor from raw quadruplets, summing duplicate coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::CoordOutOfBounds`] for out-of-range coordinates or
    /// [`TensorError::InvalidDims`] when any dimension is zero.
    pub fn from_quads(
        dims: [usize; 3],
        quads: impl IntoIterator<Item = (usize, usize, usize, Value)>,
    ) -> Result<Self> {
        if dims.contains(&0) {
            return Err(TensorError::InvalidDims(format!(
                "tensor dimensions must be positive, got {dims:?}"
            )));
        }
        let mut entries: Vec<Entry3> = Vec::new();
        for (i, k, l, val) in quads {
            if i >= dims[0] || k >= dims[1] || l >= dims[2] {
                return Err(TensorError::CoordOutOfBounds {
                    coord: vec![i, k, l],
                    dims: dims.to_vec(),
                });
            }
            entries.push(Entry3 { i, k, l, val });
        }
        entries.sort_by_key(|a| (a.i, a.k, a.l));
        entries.dedup_by(|later, earlier| {
            if later.i == earlier.i && later.k == earlier.k && later.l == earlier.l {
                earlier.val += later.val;
                true
            } else {
                false
            }
        });
        Ok(Self { dims, entries })
    }

    /// The tensor dimensions `[|i|, |k|, |l|]`.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The sorted, deduplicated entries.
    pub fn entries(&self) -> &[Entry3] {
        &self.entries
    }

    /// Iterates over `(i, k, l, value)` quadruplets in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize, Value)> + '_ {
        self.entries.iter().map(|e| (e.i, e.k, e.l, e.val))
    }
}

/// The sparse operand of a kernel, borrowed, of either order: what every
/// layer above storage takes, so that tensor order is data rather than a
/// second entry point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand<'a> {
    /// The operand of the 2-D kernels.
    Matrix(&'a CooMatrix),
    /// MTTKRP's order-3 operand.
    Tensor3(&'a CooTensor3),
}

impl Operand<'_> {
    /// Mode extents; their count is the operand's order.
    pub fn dims(&self) -> Vec<usize> {
        match self {
            Operand::Matrix(m) => vec![m.nrows, m.ncols],
            Operand::Tensor3(t) => t.dims.to_vec(),
        }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        match self {
            Operand::Matrix(m) => m.nnz(),
            Operand::Tensor3(t) => t.nnz(),
        }
    }
}

impl<'a> From<&'a CooMatrix> for Operand<'a> {
    fn from(m: &'a CooMatrix) -> Self {
        Operand::Matrix(m)
    }
}

impl<'a> From<&'a CooTensor3> for Operand<'a> {
    fn from(t: &'a CooTensor3) -> Self {
        Operand::Tensor3(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_sorts_and_dedups() {
        let m = CooMatrix::from_triplets(
            3,
            3,
            vec![(2, 1, 1.0), (0, 0, 2.0), (2, 1, 3.0), (0, 2, 1.0)],
        )
        .unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.pattern(), vec![(0, 0), (0, 2), (2, 1)]);
        assert_eq!(m.get(2, 1), Some(4.0));
        assert_eq!(m.get(1, 1), None);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let r = CooMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]);
        assert!(matches!(r, Err(TensorError::CoordOutOfBounds { .. })));
    }

    #[test]
    fn from_sorted_rejects_each_broken_invariant() {
        let e = |row, col| Entry { row, col, val: 1.0 };
        let ok = CooMatrix::from_sorted(2, 3, vec![e(0, 2), e(1, 0), e(1, 2)]).unwrap();
        assert_eq!(ok.pattern(), vec![(0, 2), (1, 0), (1, 2)]);
        for (entries, why) in [
            (vec![e(0, 1), e(0, 0)], "unsorted within a row"),
            (vec![e(1, 0), e(0, 2)], "unsorted across rows"),
            (vec![e(1, 1), e(1, 1)], "duplicate"),
        ] {
            let r = CooMatrix::from_sorted(2, 3, entries);
            assert!(matches!(r, Err(TensorError::InvalidDims(_))), "{why}");
        }
        for (entries, why) in [
            (vec![e(2, 0)], "row past the end"),
            (vec![e(0, 1), e(1, 3)], "column past the end"),
        ] {
            let r = CooMatrix::from_sorted(2, 3, entries);
            assert!(
                matches!(r, Err(TensorError::CoordOutOfBounds { .. })),
                "{why}"
            );
        }
        let r = CooMatrix::from_sorted(0, 3, Vec::new());
        assert!(matches!(r, Err(TensorError::InvalidDims(_))), "zero dims");
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(CooMatrix::from_triplets(0, 3, vec![]).is_err());
        assert!(CooTensor3::from_quads([1, 0, 1], vec![]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = CooMatrix::from_triplets(2, 4, vec![(0, 3, 1.5), (1, 0, -2.0)]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(3, 0), Some(1.5));
    }

    #[test]
    fn row_col_counts() {
        let m =
            CooMatrix::from_triplets(3, 2, vec![(0, 0, 1.0), (0, 1, 1.0), (2, 1, 1.0)]).unwrap();
        assert_eq!(m.row_nnz(), vec![2, 0, 1]);
        assert_eq!(m.col_nnz(), vec![1, 2]);
        assert!((m.density() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tensor3_from_quads_sorts_and_sums_duplicates() {
        let t = CooTensor3::from_quads(
            [2, 3, 4],
            vec![(1, 2, 3, 1.0), (0, 0, 0, 2.0), (1, 2, 3, 0.5)],
        )
        .unwrap();
        let entries: Vec<_> = t.iter().collect();
        assert_eq!(entries, vec![(0, 0, 0, 2.0), (1, 2, 3, 1.5)]);
    }

    #[test]
    fn with_uniform_values_keeps_pattern() {
        let m = CooMatrix::from_triplets(2, 2, vec![(0, 1, 3.0), (1, 0, 4.0)]).unwrap();
        let u = m.with_uniform_values(1.0);
        assert_eq!(u.pattern(), m.pattern());
        assert_eq!(u.get(0, 1), Some(1.0));
    }
}
