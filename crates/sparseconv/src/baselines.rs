//! The ablation feature extractors of Figure 15.

use crate::grid::{Pattern, SparseTensorD};
use crate::waconet::{CoreConfig, SparseCnnCore};
use crate::{Bands, Extractor};
use waco_nn::layers::Mlp;
use waco_nn::{Mat, Param};
use waco_tensor::gen::Rng64;

/// `HumanFeature`: an MLP over the three hand-crafted statistics the paper's
/// ablation uses — `(#rows, #cols, #nonzeros)`, log-scaled.
#[derive(Debug, Clone)]
pub struct HumanFeature {
    mlp: Mlp,
}

impl HumanFeature {
    /// A `[3 → 32 → out_dim]` MLP.
    pub fn new(out_dim: usize, rng: &mut Rng64) -> Self {
        Self {
            mlp: Mlp::new(&[3, 32, out_dim], false, rng),
        }
    }

    fn features(p: &Pattern) -> Mat {
        let dims = p.dims();
        let rows = dims[0] as f32;
        let cols: f32 = dims[1..].iter().product::<usize>() as f32;
        Mat::row_vector(&[rows.ln_1p(), cols.ln_1p(), (p.nnz() as f32).ln_1p()])
    }
}

impl Extractor for HumanFeature {
    fn name(&self) -> &'static str {
        "HumanFeature"
    }

    fn dim(&self) -> usize {
        self.mlp.out_dim()
    }

    fn forward(&mut self, p: &Pattern) -> Vec<f32> {
        self.mlp.forward(&Self::features(p)).row(0).to_vec()
    }

    fn bands(&self, p: &Pattern) -> Bands<'_> {
        // Three inputs: nothing worth splitting, and a copy keeps `forward`'s
        // bits.
        Bands::done(self.clone().forward(p))
    }

    fn backward(&mut self, grad: &[f32]) {
        let _ = self.mlp.backward(&Mat::row_vector(grad));
    }

    fn zero_grad(&mut self) {
        self.mlp.zero_grad();
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.mlp.params_mut()
    }
}

/// `DenseConv`: a conventional CNN over the pattern **downsampled** to a
/// fixed grid (the paper uses 256×256; configurable here). Downsampling is
/// exactly the information loss of Figure 5 — local block structure of large
/// matrices disappears.
#[derive(Debug, Clone)]
pub struct DenseConvNet {
    grid: usize,
    core: SparseCnnCore<2>,
}

impl DenseConvNet {
    /// A dense CNN over a `grid × grid` downsampled image.
    ///
    /// # Panics
    ///
    /// Panics if `grid < 4` or `grid` is not a power of two.
    pub fn new(grid: usize, channels: usize, out_dim: usize, rng: &mut Rng64) -> Self {
        assert!(
            grid >= 4 && grid.is_power_of_two(),
            "grid must be a power of two ≥ 4"
        );
        let layers = grid.trailing_zeros().saturating_sub(1) as usize;
        let core = SparseCnnCore::new(
            CoreConfig {
                stem_filter: 5,
                channels,
                layer_strides: vec![2; layers.max(1)],
                pool_all: true,
                out_dim,
            },
            rng,
        );
        Self { grid, core }
    }

    /// Downsamples a pattern to a dense `grid × grid` image whose cell value
    /// is `log1p(count)` (the "number of non-zeros in the original tensor"
    /// extra channel of §3.2.1).
    fn downsample(&self, p: &Pattern) -> SparseTensorD<2> {
        let g = self.grid;
        let mut counts = vec![0u32; g * g];
        match p {
            Pattern::D2 { coords, dims } => {
                let (sr, sc) = (dims[0].max(1), dims[1].max(1));
                for c in coords {
                    let r = (c[0] as usize * g / sr).min(g - 1);
                    let col = (c[1] as usize * g / sc).min(g - 1);
                    counts[r * g + col] += 1;
                }
            }
            Pattern::D3 { coords, dims } => {
                // Image of the mode-0 unfolding.
                let (sr, sc) = (dims[0].max(1), (dims[1] * dims[2]).max(1));
                for c in coords {
                    let r = (c[0] as usize * g / sr).min(g - 1);
                    let flat = c[1] as usize * dims[2] + c[2] as usize;
                    let col = (flat * g / sc).min(g - 1);
                    counts[r * g + col] += 1;
                }
            }
        }
        // Dense image: every cell is an active site.
        let coords: Vec<[i32; 2]> = (0..g)
            .flat_map(|r| (0..g).map(move |c| [r as i32, c as i32]))
            .collect();
        let feats = Mat::from_fn(g * g, 1, |i, _| (counts[i] as f32).ln_1p());
        SparseTensorD::new(coords, feats)
    }
}

impl Extractor for DenseConvNet {
    fn name(&self) -> &'static str {
        "DenseConv"
    }

    fn dim(&self) -> usize {
        self.core.out_dim()
    }

    fn forward(&mut self, p: &Pattern) -> Vec<f32> {
        let img = self.downsample(p);
        self.core.forward_feats(&img)
    }

    fn bands(&self, p: &Pattern) -> Bands<'_> {
        Bands::d2(&self.core, self.downsample(p))
    }

    fn backward(&mut self, grad: &[f32]) {
        self.core.backward(grad);
    }

    fn zero_grad(&mut self) {
        self.core.zero_grad();
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.core.params_mut()
    }
}

/// `MinkowskiNet`-like: submanifold sparse convolutions on the raw pattern
/// but with **stride 1 everywhere** and a single final pooling — the
/// receptive field cannot bridge distant non-zeros (Figure 8a), which is
/// exactly what WACONet's strided stack fixes.
#[derive(Debug, Clone)]
pub struct MinkowskiLike {
    core: SparseCnnCore<2>,
}

impl MinkowskiLike {
    /// A stack of `layers` stride-1 3×3 submanifold convolutions.
    pub fn new(channels: usize, layers: usize, out_dim: usize, rng: &mut Rng64) -> Self {
        Self {
            core: SparseCnnCore::new(
                CoreConfig {
                    stem_filter: 3,
                    channels,
                    layer_strides: vec![1; layers.max(1)],
                    pool_all: false,
                    out_dim,
                },
                rng,
            ),
        }
    }
}

impl Extractor for MinkowskiLike {
    fn name(&self) -> &'static str {
        "MinkowskiNet"
    }

    fn dim(&self) -> usize {
        self.core.out_dim()
    }

    fn forward(&mut self, p: &Pattern) -> Vec<f32> {
        match p {
            Pattern::D2 { coords, .. } => self.core.forward_coords(coords),
            Pattern::D3 { .. } => panic!("MinkowskiLike ablation is 2-D only"),
        }
    }

    fn bands(&self, p: &Pattern) -> Bands<'_> {
        match p {
            Pattern::D2 { coords, .. } => Bands::d2(&self.core, SparseTensorD::from_coords(coords)),
            Pattern::D3 { .. } => panic!("MinkowskiLike ablation is 2-D only"),
        }
    }

    fn backward(&mut self, grad: &[f32]) {
        self.core.backward(grad);
    }

    fn zero_grad(&mut self) {
        self.core.zero_grad();
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.core.params_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_tensor::gen::{self, Rng64};

    #[test]
    fn human_feature_is_shape_only() {
        let mut rng = Rng64::seed_from(1);
        let mut h = HumanFeature::new(8, &mut rng);
        // Two different patterns with identical shape/nnz → identical
        // features (that is the point of the ablation: it cannot see the
        // pattern).
        let a = gen::banded(32, 2, 1.0, &mut rng);
        let mut perm: Vec<usize> = (0..a.nrows()).collect();
        rng.shuffle(&mut perm);
        let b = waco_tensor::CooMatrix::from_triplets(
            a.nrows(),
            a.ncols(),
            a.iter().map(|(r, c, v)| (perm[r], c, v)),
        )
        .unwrap();
        let fa = h.forward(&Pattern::from_matrix(&a));
        let fb = h.forward(&Pattern::from_matrix(&b));
        assert_eq!(fa, fb);
    }

    #[test]
    fn dense_conv_aliases_fine_structure() {
        let mut rng = Rng64::seed_from(2);
        let d = DenseConvNet::new(8, 4, 8, &mut rng);
        // Two large patterns whose difference is below one downsampled cell:
        // the dense CNN cannot tell them apart (Figure 5).
        let m1 = gen::blocked(1024, 1024, 2, 64, 1.0, &mut rng);
        let img1 = d.downsample(&Pattern::from_matrix(&m1));
        // Shift each nonzero by one within its cell: same counts per cell.
        let shifted = waco_tensor::CooMatrix::from_triplets(
            1024,
            1024,
            m1.iter().map(|(r, c, v)| (r ^ 1, c, v)),
        )
        .unwrap();
        let img2 = d.downsample(&Pattern::from_matrix(&shifted));
        assert_eq!(
            img1.feats, img2.feats,
            "downsampling aliases sub-cell structure"
        );
    }

    #[test]
    fn dense_conv_forward_backward() {
        let mut rng = Rng64::seed_from(3);
        let mut d = DenseConvNet::new(16, 4, 8, &mut rng);
        let m = gen::uniform_random(100, 80, 0.05, &mut rng);
        let f = d.forward(&Pattern::from_matrix(&m));
        assert_eq!(f.len(), 8);
        d.zero_grad();
        d.backward(&[1.0; 8]);
    }

    #[test]
    fn minkowski_like_runs() {
        let mut rng = Rng64::seed_from(4);
        let mut mk = MinkowskiLike::new(8, 3, 8, &mut rng);
        let m = gen::kronecker(5, 100, &mut rng);
        let f = mk.forward(&Pattern::from_matrix(&m));
        assert_eq!(f.len(), 8);
        mk.zero_grad();
        mk.backward(&[0.5; 8]);
        assert!(mk.params_mut().iter().any(|p| p.grad.max_abs() > 0.0));
    }

    #[test]
    fn dense_conv_handles_3d_via_unfolding() {
        let mut rng = Rng64::seed_from(5);
        let mut d = DenseConvNet::new(8, 4, 8, &mut rng);
        let t = gen::random_tensor3([8, 8, 8], 40, &mut rng);
        let f = d.forward(&Pattern::from_tensor3(&t));
        assert_eq!(f.len(), 8);
    }
}
