//! A sparse tensor stored in a concrete [`FormatSpec`].

use crate::build::{self, DEFAULT_BUDGET_WORDS};
use crate::level::{LevelIter, LevelStorage};
use crate::spec::{AxisPart, FormatSpec};
use crate::Result;
use waco_tensor::{CooMatrix, CooTensor3, Operand, Value};

/// A sparse tensor materialized in a hierarchical format.
///
/// Construction sorts the nonzeros into the spec's storage order and builds
/// each level (see [`crate::build`]). Access goes through
/// [`SparseStorage::iterate`] / [`SparseStorage::locate`] level by level;
/// position `p` after the last level indexes [`SparseStorage::vals`].
#[derive(Debug, Clone)]
pub struct SparseStorage {
    spec: FormatSpec,
    levels: Vec<LevelStorage>,
    vals: Vec<Value>,
    /// `parent_counts[l]` = number of positions entering level `l`.
    parent_counts: Vec<usize>,
}

impl SparseStorage {
    /// Builds storage for a 2-D matrix with the default size budget.
    ///
    /// # Errors
    ///
    /// [`crate::FormatError::DimMismatch`] when the matrix shape differs from
    /// the spec, [`crate::FormatError::StorageTooLarge`] when materialization
    /// would exceed [`DEFAULT_BUDGET_WORDS`].
    pub fn from_matrix(m: &CooMatrix, spec: &FormatSpec) -> Result<Self> {
        Self::from_operand(m, spec, DEFAULT_BUDGET_WORDS)
    }

    /// Builds storage for a 3-D tensor with the default budget.
    ///
    /// # Errors
    ///
    /// See [`SparseStorage::from_matrix`].
    pub fn from_tensor3(t: &CooTensor3, spec: &FormatSpec) -> Result<Self> {
        Self::from_operand(t, spec, DEFAULT_BUDGET_WORDS)
    }

    /// Builds storage for a sparse operand of either order with an explicit
    /// word budget.
    ///
    /// # Errors
    ///
    /// See [`SparseStorage::from_matrix`].
    pub fn from_operand<'a>(
        a: impl Into<Operand<'a>>,
        spec: &FormatSpec,
        budget_words: u64,
    ) -> Result<Self> {
        let a = a.into();
        let dims = a.dims();
        if spec.dims() != dims {
            return Err(crate::FormatError::DimMismatch {
                spec_dims: spec.dims().to_vec(),
                tensor_dims: dims,
            });
        }
        match a {
            Operand::Matrix(m) => {
                Self::from_nonzeros(spec, m.iter().map(|(r, c, v)| ([r, c], v)), budget_words)
            }
            Operand::Tensor3(t) => {
                let nonzeros = t.iter().map(|(i, k, l, v)| ([i, k, l], v));
                Self::from_nonzeros(spec, nonzeros, budget_words)
            }
        }
    }

    /// Builds storage from raw `(coordinate, value)` nonzeros; duplicate
    /// coordinates are summed in input order.
    ///
    /// # Errors
    ///
    /// See [`SparseStorage::from_matrix`].
    ///
    /// # Panics
    ///
    /// Panics on a coordinate outside the spec's dimensions.
    pub fn from_nonzeros<C: AsRef<[usize]>>(
        spec: &FormatSpec,
        nonzeros: impl IntoIterator<Item = (C, Value)>,
        budget_words: u64,
    ) -> Result<Self> {
        let (levels, vals, parent_counts) = build::assemble(spec, nonzeros, budget_words)?;
        Ok(Self {
            spec: spec.clone(),
            levels,
            vals,
            parent_counts,
        })
    }

    /// The format this tensor is stored in.
    pub fn spec(&self) -> &FormatSpec {
        &self.spec
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Physical storage of level `l`.
    pub fn level(&self, l: usize) -> &LevelStorage {
        &self.levels[l]
    }

    /// Number of positions entering level `l` (`1` for the root).
    pub fn parent_count(&self, l: usize) -> usize {
        self.parent_counts[l]
    }

    /// The values array (one slot per position after the last level;
    /// uncompressed trailing levels imply explicit padding zeros).
    pub fn vals(&self) -> &[Value] {
        &self.vals
    }

    /// Value at final position `p`.
    #[inline]
    pub fn value(&self, p: usize) -> Value {
        self.vals[p]
    }

    /// Total storage words (index arrays + values) actually materialized.
    pub fn storage_words(&self) -> usize {
        let idx: usize = self
            .levels
            .iter()
            .map(|l| match l {
                LevelStorage::Uncompressed { .. } => 0,
                LevelStorage::Compressed { pos, crd } => pos.len() + crd.len(),
            })
            .sum();
        idx + self.vals.len()
    }

    /// Iterates the stored children of `parent_pos` at level `l`
    /// (concordant access).
    pub fn iterate(&self, l: usize, parent_pos: usize) -> LevelIter<'_> {
        self.levels[l].iterate(parent_pos)
    }

    /// Locates `coord` under `parent_pos` at level `l` (discordant access).
    pub fn locate(&self, l: usize, parent_pos: usize, coord: usize) -> Option<usize> {
        self.levels[l].locate(parent_pos, coord)
    }

    /// Visits every stored slot as `(axis_coords, final_position, value)`,
    /// including padding zeros introduced by uncompressed levels.
    pub fn for_each_slot(&self, mut f: impl FnMut(&[usize], usize, Value)) {
        let mut coords = vec![0usize; self.num_levels()];
        self.walk(0, 0, &mut coords, &mut f);
    }

    fn walk(
        &self,
        l: usize,
        parent_pos: usize,
        coords: &mut Vec<usize>,
        f: &mut impl FnMut(&[usize], usize, Value),
    ) {
        if l == self.num_levels() {
            f(coords, parent_pos, self.vals[parent_pos]);
            return;
        }
        for (c, p) in self.iterate(l, parent_pos) {
            coords[l] = c;
            self.walk(l + 1, p, coords, f);
        }
    }

    /// Converts back to a COO list of `(original_coords, value)`, dropping
    /// padding zeros and out-of-range (partial block) slots.
    ///
    /// Stored values that are exactly `0.0` are indistinguishable from
    /// padding and are dropped as well.
    pub fn to_nonzeros(&self) -> Vec<(Vec<usize>, Value)> {
        let ndims = self.spec.ndims();
        let dims = self.spec.dims().to_vec();
        let order = self.spec.order().to_vec();
        let mut out = Vec::new();
        self.for_each_slot(|axis_coords, _, v| {
            if v == 0.0 {
                return;
            }
            let mut outer = vec![0usize; ndims];
            let mut inner = vec![0usize; ndims];
            for (l, axis) in order.iter().enumerate() {
                match axis.part {
                    AxisPart::Outer => outer[axis.dim] = axis_coords[l],
                    AxisPart::Inner => inner[axis.dim] = axis_coords[l],
                }
            }
            let orig: Vec<usize> = (0..ndims)
                .map(|d| self.spec.original_coord(d, outer[d], inner[d]))
                .collect();
            if orig.iter().zip(&dims).all(|(&c, &n)| c < n) {
                out.push((orig, v));
            }
        });
        out
    }

    /// Converts back to a [`CooMatrix`] (2-D specs only).
    ///
    /// # Panics
    ///
    /// Panics if the spec is not 2-D.
    pub fn to_matrix(&self) -> CooMatrix {
        assert_eq!(self.spec.ndims(), 2, "to_matrix requires a 2-D spec");
        let dims = self.spec.dims();
        CooMatrix::from_triplets(
            dims[0],
            dims[1],
            self.to_nonzeros().into_iter().map(|(c, v)| (c[0], c[1], v)),
        )
        .expect("reconstructed coords are in bounds")
    }

    /// Converts back to a [`CooTensor3`] (3-D specs only).
    ///
    /// # Panics
    ///
    /// Panics if the spec is not 3-D.
    pub fn to_tensor3(&self) -> CooTensor3 {
        assert_eq!(self.spec.ndims(), 3, "to_tensor3 requires a 3-D spec");
        let dims = self.spec.dims();
        CooTensor3::from_quads(
            [dims[0], dims[1], dims[2]],
            self.to_nonzeros()
                .into_iter()
                .map(|(c, v)| (c[0], c[1], c[2], v)),
        )
        .expect("reconstructed coords are in bounds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::LevelFormat;
    use crate::spec::Axis;
    use waco_tensor::gen::{self, Rng64};

    fn sample() -> CooMatrix {
        CooMatrix::from_triplets(
            6,
            6,
            vec![
                (0, 0, 1.0),
                (0, 5, 2.0),
                (2, 2, 3.0),
                (3, 1, 4.0),
                (5, 5, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn csr_roundtrip() {
        let m = sample();
        let s = SparseStorage::from_matrix(&m, &FormatSpec::csr(6, 6)).unwrap();
        assert_eq!(s.to_matrix(), m);
        assert_eq!(s.vals().len(), m.nnz());
    }

    #[test]
    fn bcsr_roundtrip_with_padding() {
        let m = sample();
        let s = SparseStorage::from_matrix(&m, &FormatSpec::bcsr(6, 6, 2, 3)).unwrap();
        assert!(s.vals().len() > m.nnz(), "BCSR pads blocks");
        assert_eq!(s.to_matrix(), m);
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        let s = SparseStorage::from_matrix(&m, &FormatSpec::dense(6, 6)).unwrap();
        assert_eq!(s.vals().len(), 36);
        assert_eq!(s.to_matrix(), m);
    }

    #[test]
    fn csc_roundtrip() {
        let m = sample();
        let s = SparseStorage::from_matrix(&m, &FormatSpec::csc(6, 6)).unwrap();
        assert_eq!(s.to_matrix(), m);
    }

    #[test]
    fn dcsr_roundtrip() {
        let m = sample();
        let s = SparseStorage::from_matrix(&m, &FormatSpec::dcsr(6, 6)).unwrap();
        assert_eq!(s.to_matrix(), m);
        // Root level is compressed: only 4 occupied rows stored.
        match s.level(0) {
            LevelStorage::Compressed { crd, .. } => assert_eq!(crd, &vec![0, 2, 3, 5]),
            _ => panic!("DCSR root is compressed"),
        }
    }

    #[test]
    fn sparse_block_roundtrip() {
        let m = sample();
        let s = SparseStorage::from_matrix(&m, &FormatSpec::sparse_block(6, 6, 4)).unwrap();
        assert_eq!(s.to_matrix(), m);
    }

    #[test]
    fn random_spec_roundtrip_partial_blocks() {
        // Non-divisible splits exercise partial-block clamping.
        let mut rng = Rng64::seed_from(3);
        let m = gen::uniform_random(17, 13, 0.2, &mut rng);
        let spec = FormatSpec::new(
            vec![17, 13],
            vec![4, 3],
            vec![
                Axis::outer(1),
                Axis::outer(0),
                Axis::inner(0),
                Axis::inner(1),
            ],
            vec![
                LevelFormat::Uncompressed,
                LevelFormat::Compressed,
                LevelFormat::Uncompressed,
                LevelFormat::Uncompressed,
            ],
        )
        .unwrap();
        let s = SparseStorage::from_matrix(&m, &spec).unwrap();
        assert_eq!(s.to_matrix(), m);
    }

    #[test]
    fn csf3_roundtrip() {
        let mut rng = Rng64::seed_from(4);
        let t = gen::random_tensor3([8, 9, 10], 60, &mut rng);
        let s = SparseStorage::from_tensor3(&t, &FormatSpec::csf3([8, 9, 10])).unwrap();
        assert_eq!(s.to_tensor3(), t);
        assert_eq!(s.vals().len(), t.nnz());
    }

    #[test]
    fn dim_mismatch_rejected() {
        let m = sample();
        let r = SparseStorage::from_matrix(&m, &FormatSpec::csr(5, 6));
        assert!(matches!(r, Err(crate::FormatError::DimMismatch { .. })));
    }

    #[test]
    fn locate_matches_iterate() {
        let m = sample();
        let s = SparseStorage::from_matrix(&m, &FormatSpec::csr(6, 6)).unwrap();
        // Level 1 (k1 compressed): locate each iterated coord.
        for row in 0..6 {
            let parent = s.locate(0, 0, row).unwrap();
            for (c, p) in s.iterate(1, parent) {
                assert_eq!(s.locate(1, parent, c), Some(p));
            }
        }
    }

    #[test]
    fn storage_words_counts_arrays() {
        let m = sample();
        let s = SparseStorage::from_matrix(&m, &FormatSpec::csr(6, 6)).unwrap();
        // pos (7) + crd (5) + vals (5)
        assert_eq!(s.storage_words(), 7 + 5 + 5);
    }
}
