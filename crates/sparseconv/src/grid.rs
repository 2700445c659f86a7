//! Sparse coordinate grids: the activations of a sparse CNN, as strictly
//! increasing coordinate lists — the order is what the convolution searches.

use std::ops::Range;

use waco_nn::Mat;
use waco_tensor::{CooMatrix, CooTensor3, Operand};

/// A sparsity pattern handed to a feature extractor: raw coordinates plus
/// dimensions, 2-D or 3-D.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// A 2-D pattern (sparse matrix).
    D2 {
        /// Nonzero coordinates.
        coords: Vec<[i32; 2]>,
        /// `[nrows, ncols]`.
        dims: [usize; 2],
    },
    /// A 3-D pattern (sparse tensor).
    D3 {
        /// Nonzero coordinates.
        coords: Vec<[i32; 3]>,
        /// `[|i|, |k|, |l|]`.
        dims: [usize; 3],
    },
}

impl Pattern {
    /// The pattern of a sparse matrix.
    pub fn from_matrix(m: &CooMatrix) -> Self {
        Pattern::D2 {
            coords: m.iter().map(|(r, c, _)| [r as i32, c as i32]).collect(),
            dims: [m.nrows(), m.ncols()],
        }
    }

    /// The pattern of a 3-D sparse tensor.
    pub fn from_tensor3(t: &CooTensor3) -> Self {
        Pattern::D3 {
            coords: t
                .iter()
                .map(|(i, k, l, _)| [i as i32, k as i32, l as i32])
                .collect(),
            dims: t.dims(),
        }
    }

    /// The pattern of either order of operand.
    pub fn of(a: Operand<'_>) -> Self {
        match a {
            Operand::Matrix(m) => Self::from_matrix(m),
            Operand::Tensor3(t) => Self::from_tensor3(t),
        }
    }

    /// Number of nonzeros.
    pub fn nnz(&self) -> usize {
        match self {
            Pattern::D2 { coords, .. } => coords.len(),
            Pattern::D3 { coords, .. } => coords.len(),
        }
    }

    /// Dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        match self {
            Pattern::D2 { dims, .. } => dims,
            Pattern::D3 { dims, .. } => dims,
        }
    }
}

/// A sparse tensor of CNN activations: site coordinates in strictly
/// increasing lexicographic order and a feature row per site. The order is
/// the whole index: the convolution finds neighbours by cursors that only
/// move forward over it (see [`crate::conv`]).
#[derive(Debug, Clone)]
pub struct SparseTensorD<const D: usize> {
    /// Site coordinates, strictly increasing lexicographically.
    pub coords: Vec<[i32; D]>,
    /// Features, one row per site.
    pub feats: Mat,
}

impl<const D: usize> SparseTensorD<D> {
    /// Builds a tensor from coordinates with constant feature `1.0`
    /// (the network input: the raw pattern, no downsampling).
    /// Duplicate coordinates are merged.
    pub fn from_coords(coords: &[[i32; D]]) -> Self {
        let mut sorted: Vec<[i32; D]> = coords.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let n = sorted.len();
        Self::new(sorted, Mat::from_fn(n, 1, |_, _| 1.0))
    }

    /// Builds a tensor from sorted unique coordinates and features.
    ///
    /// # Panics
    ///
    /// Panics if `feats.rows() != coords.len()`, or if `coords` is not
    /// strictly increasing (unsorted or duplicated sites would make the
    /// convolution's forward-only cursors miss neighbours silently).
    pub fn new(coords: Vec<[i32; D]>, feats: Mat) -> Self {
        assert_eq!(coords.len(), feats.rows(), "one feature row per site");
        if let Some(w) = coords.windows(2).find(|w| w[0] >= w[1]) {
            panic!(
                "site coordinates must be strictly increasing: {:?} then {:?}",
                w[0], w[1]
            );
        }
        Self { coords, feats }
    }

    /// Number of active sites.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether the tensor has no active sites.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Feature channels.
    pub fn channels(&self) -> usize {
        self.feats.cols()
    }

    /// The index range of the sites whose leading coordinate lies in `rows`
    /// (they are contiguous: the sites are sorted).
    pub(crate) fn site_range(&self, rows: Range<i64>) -> Range<usize> {
        let at = |r: i64| (self.coords).partition_point(|c| i64::from(c[0]) < r);
        at(rows.start)..at(rows.end).max(at(rows.start))
    }

    /// The sites whose leading coordinate lies in `rows`, with their
    /// features.
    pub(crate) fn leading_rows(&self, rows: Range<i64>) -> Self {
        let sites = self.site_range(rows);
        let c = self.channels();
        let feats = self.feats.as_slice()[sites.start * c..sites.end * c].to_vec();
        Self {
            coords: self.coords[sites.clone()].to_vec(),
            feats: Mat::from_vec(sites.len(), c, feats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_tensor::gen::{self, Rng64};

    #[test]
    fn pattern_from_matrix() {
        let mut rng = Rng64::seed_from(1);
        let m = gen::uniform_random(10, 12, 0.2, &mut rng);
        let p = Pattern::from_matrix(&m);
        assert_eq!(p.nnz(), m.nnz());
        assert_eq!(p.dims(), &[10, 12]);
    }

    #[test]
    fn pattern_from_tensor() {
        let mut rng = Rng64::seed_from(2);
        let t = gen::random_tensor3([4, 5, 6], 20, &mut rng);
        let p = Pattern::from_tensor3(&t);
        assert_eq!(p.nnz(), t.nnz());
        assert_eq!(p.dims(), &[4, 5, 6]);
    }

    #[test]
    fn sparse_tensor_sorted_and_deduplicated() {
        let st = SparseTensorD::<2>::from_coords(&[[3, 1], [0, 2], [3, 1], [1, 1]]);
        assert_eq!(st.len(), 3, "duplicates merged");
        assert_eq!(st.coords, vec![[0, 2], [1, 1], [3, 1]]);
        assert_eq!(st.channels(), 1);
        assert_eq!(st.feats.get(0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing: [1, 1] then [0, 2]")]
    fn unsorted_coordinates_are_refused() {
        let _ = SparseTensorD::<2>::new(vec![[0, 0], [1, 1], [0, 2]], Mat::zeros(3, 1));
    }

    #[test]
    #[should_panic(expected = "strictly increasing: [3, 1] then [3, 1]")]
    fn duplicated_coordinates_are_refused() {
        let _ = SparseTensorD::<2>::new(vec![[3, 1], [3, 1]], Mat::zeros(2, 1));
    }

    #[test]
    fn empty_tensor() {
        let st = SparseTensorD::<2>::from_coords(&[]);
        assert!(st.is_empty());
        assert_eq!(st.len(), 0);
    }
}
