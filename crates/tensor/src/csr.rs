//! Compressed Sparse Rows, with reference kernels.
//!
//! The CSR kernels here are the *reference semantics* for the whole workspace:
//! the scheduled interpreter in `waco-exec` is validated against them, and the
//! `FixedCSR` baseline wraps them.

use crate::{CooMatrix, DenseMatrix, DenseVector, Value};

/// A sparse matrix in CSR form.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` is the range of row `r` in `col_idx`/`vals`.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<Value>,
}

impl CsrMatrix {
    /// Converts a COO matrix (already sorted and deduplicated) to CSR.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        let mut row_ptr = vec![0usize; nrows + 1];
        for (r, _, _) in coo.iter() {
            row_ptr[r + 1] += 1;
        }
        for r in 0..nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut col_idx = Vec::with_capacity(coo.nnz());
        let mut vals = Vec::with_capacity(coo.nnz());
        for (_, c, v) in coo.iter() {
            col_idx.push(c);
            vals.push(v);
        }
        Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Assembles CSR directly from raw arrays, skipping the COO round-trip
    /// (and its O(nnz log nnz) sort) for producers that already emit rows
    /// in order — e.g. the row-wise Gustavson SpGEMM kernel.
    ///
    /// # Errors
    ///
    /// [`crate::TensorError::InvalidDims`] when the dims are zero, `row_ptr` is not
    /// a monotone cover of `col_idx`/`vals`, or a row's columns are not
    /// strictly ascending and in bounds.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<Value>,
    ) -> crate::Result<Self> {
        let bad = |msg: String| crate::TensorError::InvalidDims(msg);
        if nrows == 0 || ncols == 0 {
            return Err(bad(format!(
                "matrix dimensions must be positive, got {nrows}x{ncols}"
            )));
        }
        if row_ptr.len() != nrows + 1
            || row_ptr[0] != 0
            || row_ptr[nrows] != col_idx.len()
            || col_idx.len() != vals.len()
        {
            return Err(bad(format!(
                "row_ptr (len {}) does not cover {} columns / {} values over {nrows} rows",
                row_ptr.len(),
                col_idx.len(),
                vals.len()
            )));
        }
        for r in 0..nrows {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            if lo > hi {
                return Err(bad(format!("row_ptr decreases at row {r}")));
            }
            let row = &col_idx[lo..hi];
            if row.windows(2).any(|w| w[0] >= w[1]) || row.last().is_some_and(|&c| c >= ncols) {
                return Err(bad(format!(
                    "row {r} columns are not strictly ascending within 0..{ncols}"
                )));
            }
        }
        Ok(Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// Converts back to COO.
    pub fn to_coo(&self) -> CooMatrix {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.nrows {
            for p in self.row_ptr[r]..self.row_ptr[r + 1] {
                triplets.push((r, self.col_idx[p], self.vals[p]));
            }
        }
        CooMatrix::from_triplets(self.nrows, self.ncols, triplets)
            .expect("CSR coordinates are in bounds by construction")
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
        self.vals.len()
    }

    /// The row pointer array (`nrows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices, row-major.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Stored values, row-major.
    pub fn vals(&self) -> &[Value] {
        &self.vals
    }

    /// Column indices and values of row `r`.
    pub fn row(&self, r: usize) -> (&[usize], &[Value]) {
        let range = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[range.clone()], &self.vals[range])
    }

    /// Reference SpMV: `y = A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn spmv(&self, x: &DenseVector) -> DenseVector {
        assert_eq!(x.len(), self.ncols, "spmv dimension mismatch");
        let mut y = DenseVector::zeros(self.nrows);
        let xs = x.as_slice();
        for r in 0..self.nrows {
            let mut acc = 0.0;
            for p in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.vals[p] * xs[self.col_idx[p]];
            }
            y[r] = acc;
        }
        y
    }

    /// Reference SpMM: `C = A * B` where `B` is dense row-major.
    ///
    /// # Panics
    ///
    /// Panics if `B.nrows() != ncols`.
    pub fn spmm(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(b.nrows(), self.ncols, "spmm dimension mismatch");
        let n = b.ncols();
        let mut c = DenseMatrix::zeros(self.nrows, n);
        for r in 0..self.nrows {
            for p in self.row_ptr[r]..self.row_ptr[r + 1] {
                let a = self.vals[p];
                let brow = b.row(self.col_idx[p]);
                let crow = c.row_mut(r);
                for j in 0..n {
                    crow[j] += a * brow[j];
                }
            }
        }
        c
    }

    /// Reference SDDMM: `D = A ∘ (B * C)` — for every stored `(i, j)` of `A`,
    /// `D[i,j] = A[i,j] * Σ_k B[i,k] * C[k,j]`. Returns a matrix with `A`'s
    /// pattern.
    ///
    /// # Panics
    ///
    /// Panics if `B.nrows() != nrows` or `C.ncols() != ncols` or inner dims
    /// mismatch.
    pub fn sddmm(&self, b: &DenseMatrix, c: &DenseMatrix) -> CooMatrix {
        assert_eq!(b.nrows(), self.nrows, "sddmm row mismatch");
        assert_eq!(c.ncols(), self.ncols, "sddmm col mismatch");
        assert_eq!(b.ncols(), c.nrows(), "sddmm inner dim mismatch");
        let kdim = b.ncols();
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.nrows {
            let brow = b.row(r);
            for p in self.row_ptr[r]..self.row_ptr[r + 1] {
                let j = self.col_idx[p];
                let mut dot = 0.0;
                for (k, &bv) in brow.iter().enumerate().take(kdim) {
                    dot += bv * c.get(k, j);
                }
                triplets.push((r, j, self.vals[p] * dot));
            }
        }
        CooMatrix::from_triplets(self.nrows, self.ncols, triplets)
            .expect("SDDMM output pattern equals A's pattern")
    }
}

/// Reference MTTKRP on a 3-D COO tensor:
/// `D[i,j] = Σ_{k,l} A[i,k,l] * B[k,j] * C[l,j]`.
///
/// # Panics
///
/// Panics on dimension mismatches between `a`, `b`, and `c`.
pub fn mttkrp_reference(a: &crate::CooTensor3, b: &DenseMatrix, c: &DenseMatrix) -> DenseMatrix {
    let [di, dk, dl] = a.dims();
    assert_eq!(b.nrows(), dk, "mttkrp B row mismatch");
    assert_eq!(c.nrows(), dl, "mttkrp C row mismatch");
    assert_eq!(b.ncols(), c.ncols(), "mttkrp rank mismatch");
    let rank = b.ncols();
    let mut d = DenseMatrix::zeros(di, rank);
    for (i, k, l, v) in a.iter() {
        let brow = b.row(k);
        let crow = c.row(l);
        let drow = d.row_mut(i);
        for j in 0..rank {
            drow[j] += v * brow[j] * crow[j];
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooTensor3;

    fn sample() -> CooMatrix {
        CooMatrix::from_triplets(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn coo_csr_roundtrip() {
        let coo = sample();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.nnz(), 5);
        assert_eq!(csr.row_ptr(), &[0, 2, 3, 5]);
        assert_eq!(csr.to_coo(), coo);
    }

    #[test]
    fn from_parts_matches_from_coo() {
        let via_coo = CsrMatrix::from_coo(&sample());
        let direct = CsrMatrix::from_parts(
            3,
            4,
            vec![0, 2, 3, 5],
            vec![0, 3, 1, 0, 2],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        assert_eq!(direct, via_coo);
    }

    #[test]
    fn from_parts_rejects_malformed_arrays() {
        // row_ptr does not cover the arrays.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        // Columns out of order within a row.
        assert!(CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // Column out of bounds.
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // Zero dims.
        assert!(CsrMatrix::from_parts(0, 2, vec![0], vec![], vec![]).is_err());
    }

    #[test]
    fn spmv_matches_dense() {
        let coo = sample();
        let csr = CsrMatrix::from_coo(&coo);
        let x = DenseVector::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let y = csr.spmv(&x);
        // Dense reference.
        let d = coo.to_dense();
        for r in 0..3 {
            let expect: Value = (0..4).map(|c| d.get(r, c) * x[c]).sum();
            assert!((y[r] - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn spmm_matches_dense() {
        let coo = sample();
        let csr = CsrMatrix::from_coo(&coo);
        let b = DenseMatrix::from_fn(4, 2, |r, c| (r + c) as Value);
        let c = csr.spmm(&b);
        let d = coo.to_dense();
        for r in 0..3 {
            for j in 0..2 {
                let expect: Value = (0..4).map(|k| d.get(r, k) * b.get(k, j)).sum();
                assert!((c.get(r, j) - expect).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn sddmm_preserves_pattern() {
        let coo = sample();
        let csr = CsrMatrix::from_coo(&coo);
        let b = DenseMatrix::from_fn(3, 5, |r, c| (r * c) as Value + 1.0);
        let c = DenseMatrix::from_fn(5, 4, |r, c| (r + 2 * c) as Value);
        let d = csr.sddmm(&b, &c);
        assert_eq!(d.pattern(), coo.pattern());
        // Spot-check entry (2, 2): A=5, dot = Σ_k B[2,k]*C[k,2].
        let dot: Value = (0..5).map(|k| b.get(2, k) * c.get(k, 2)).sum();
        assert!((d.get(2, 2).unwrap() - 5.0 * dot).abs() < 1e-4);
    }

    #[test]
    fn mttkrp_reference_spot_check() {
        let a = CooTensor3::from_quads([2, 2, 2], vec![(0, 1, 1, 2.0), (1, 0, 1, 3.0)]).unwrap();
        let b = DenseMatrix::from_fn(2, 3, |r, c| (r + c + 1) as Value);
        let c = DenseMatrix::from_fn(2, 3, |r, c| (2 * r + c) as Value);
        let d = mttkrp_reference(&a, &b, &c);
        for j in 0..3 {
            let e0 = 2.0 * b.get(1, j) * c.get(1, j);
            let e1 = 3.0 * b.get(0, j) * c.get(1, j);
            assert!((d.get(0, j) - e0).abs() < 1e-5);
            assert!((d.get(1, j) - e1).abs() < 1e-5);
        }
    }

    #[test]
    fn row_access() {
        let csr = CsrMatrix::from_coo(&sample());
        let (cols, vals) = csr.row(2);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[4.0, 5.0]);
    }
}
