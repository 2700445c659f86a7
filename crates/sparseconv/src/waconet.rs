//! WACONet: the paper's sparsity-pattern feature extractor (Figure 9).

use std::ops::Range;

use crate::bands::{Band, BandOut, Bands};
use crate::conv::{AvgPool, SubmanifoldConv, ALL_ROWS};
use crate::grid::{Pattern, SparseTensorD};
use crate::Extractor;
use waco_nn::layers::{Linear, Relu};
use waco_nn::{Mat, Param};
use waco_tensor::gen::Rng64;

/// Architecture of a sparse-CNN feature extractor core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Stem filter width (paper: 5).
    pub stem_filter: usize,
    /// Channels of every conv layer (paper: 32; small here by default).
    pub channels: usize,
    /// Stride of each post-stem layer (paper: fourteen stride-2 layers).
    pub layer_strides: Vec<usize>,
    /// Pool after *every* layer and concatenate (WACONet) vs only after the
    /// last layer (MinkowskiNet-style).
    pub pool_all: bool,
    /// Output feature width (paper: 128).
    pub out_dim: usize,
}

/// A configuration value `validate` refused, with the field and constraint
/// named in the message. `waco_core::WacoError` wraps this via `From`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// WACONet hyper-parameters (a convenience facade over [`CoreConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WacoNetConfig {
    /// Conv channels.
    pub channels: usize,
    /// Number of stride-2 layers.
    pub layers: usize,
    /// Output feature width.
    pub out_dim: usize,
}

impl WacoNetConfig {
    /// The paper's architecture: 32 channels, 14 strided layers, 128-d output.
    pub fn paper() -> Self {
        Self {
            channels: 32,
            layers: 14,
            out_dim: 128,
        }
    }

    /// Laptop-scale default: 16 channels, 8 layers, 64-d output.
    pub fn small() -> Self {
        Self {
            channels: 16,
            layers: 8,
            out_dim: 64,
        }
    }

    /// Test-scale: 8 channels, 4 layers, 32-d output.
    pub fn tiny() -> Self {
        Self {
            channels: 8,
            layers: 4,
            out_dim: 32,
        }
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Channel width, layer count, and output width must all be nonzero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.channels == 0 {
            return Err(ConfigError("waconet.channels must be at least 1".into()));
        }
        if self.layers == 0 {
            return Err(ConfigError("waconet.layers must be at least 1".into()));
        }
        if self.out_dim == 0 {
            return Err(ConfigError("waconet.out_dim must be at least 1".into()));
        }
        Ok(())
    }

    fn core(self) -> CoreConfig {
        CoreConfig {
            stem_filter: 5,
            channels: self.channels,
            layer_strides: vec![2; self.layers],
            pool_all: true,
            out_dim: self.out_dim,
        }
    }
}

impl Default for WacoNetConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// The shared sparse-CNN core: stem conv → strided conv stack → global
/// average pooling(s) → linear head. Parameterized by [`CoreConfig`] it
/// instantiates WACONet, the MinkowskiNet-like ablation, and the dense-CNN
/// ablation's trunk.
#[derive(Debug, Clone)]
pub struct SparseCnnCore<const D: usize> {
    stem: SubmanifoldConv<D>,
    stem_relu: Relu,
    convs: Vec<SubmanifoldConv<D>>,
    relus: Vec<Relu>,
    pools: Vec<AvgPool>,
    head: Linear,
    cfg: CoreConfig,
}

impl<const D: usize> SparseCnnCore<D> {
    /// Builds the core.
    ///
    /// # Panics
    ///
    /// Panics if `layer_strides` is empty.
    pub fn new(cfg: CoreConfig, rng: &mut Rng64) -> Self {
        assert!(
            !cfg.layer_strides.is_empty(),
            "need at least one conv layer"
        );
        let c = cfg.channels;
        let stem = SubmanifoldConv::new(cfg.stem_filter, 1, 1, c, rng);
        let convs: Vec<SubmanifoldConv<D>> = cfg
            .layer_strides
            .iter()
            .map(|&s| SubmanifoldConv::new(3, s, c, c, rng))
            .collect();
        let n = convs.len();
        let head_in = if cfg.pool_all { n * c } else { c };
        let head = Linear::new(head_in, cfg.out_dim, rng);
        Self {
            stem,
            stem_relu: Relu::new(),
            convs,
            relus: vec![Relu::new(); n],
            pools: vec![AvgPool::new(); n],
            head,
            cfg,
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.cfg.out_dim
    }

    /// Forward over an activation tensor (features already attached),
    /// recording every layer's activations for [`SparseCnnCore::backward`].
    ///
    /// When a `waco-obs` subscriber is installed, each layer records a span
    /// (`sparseconv/stem`, `sparseconv/conv0`, ...) and the post-layer active
    /// site count accumulates into the `sparseconv.active_sites` counter, so
    /// a trace shows where sparse-convolution time goes per layer.
    pub fn forward_feats(&mut self, x: &SparseTensorD<D>) -> Vec<f32> {
        let n = self.convs.len();
        let layer = |l: usize, h: &SparseTensorD<D>| {
            let (conv, relu) = match l.checked_sub(1) {
                None => (&mut self.stem, &mut self.stem_relu),
                Some(i) => (&mut self.convs[i], &mut self.relus[i]),
            };
            let mut h = conv.forward(h);
            h.feats = relu.forward(&h.feats);
            h
        };
        let pool = |i: usize, h: &SparseTensorD<D>, _| self.pools[i].forward(&h.feats);
        let pooled = Self::stack(n, x, |_| ALL_ROWS, layer, pool);
        let cat = Self::cat(self.cfg.pool_all, pooled);
        self.head.forward(&Mat::row_vector(&cat)).row(0).to_vec()
    }

    /// [`SparseCnnCore::forward_feats`]'s output, bit for bit, recording
    /// nothing for backward: no rulebook pairs, input clones or ReLU masks,
    /// no pool or head caches. Spans and counters as `forward_feats`.
    pub fn infer_feats(&self, x: &SparseTensorD<D>) -> Vec<f32> {
        let whole = self.infer_band(x, Band::Lower, |_| ALL_ROWS, |_| ALL_ROWS);
        self.merge(&whole, &BandOut::default())
    }

    /// The layers' `(filter, stride)`, the stem first.
    pub(crate) fn layers(&self) -> Vec<(usize, usize)> {
        let convs = std::iter::once(&self.stem).chain(&self.convs);
        convs.map(|c| (c.filter(), c.stride())).collect()
    }

    /// One band of an inference pass over `x`: layer `l` (0 is the stem)
    /// computes its output sites whose leading coordinate is in `rows(l)`,
    /// and hands on, per convolution, its sites in `own(l)`: summed when
    /// they come first in site order (`Band::Lower`), their features to
    /// add after those otherwise.
    pub(crate) fn infer_band(
        &self,
        x: &SparseTensorD<D>,
        band: Band,
        rows: impl Fn(usize) -> Range<i64>,
        own: impl Fn(usize) -> Range<i64>,
    ) -> BandOut {
        let c = self.cfg.channels;
        let layer = |l: usize, h: &SparseTensorD<D>| {
            let conv = l.checked_sub(1).map_or(&self.stem, |i| &self.convs[i]);
            let mut h = conv.infer_rows(h, rows(l));
            for v in h.feats.as_mut_slice() {
                *v = if *v > 0.0 { *v } else { 0.0 }; // `Relu::forward`'s map
            }
            h
        };
        let share = |_, h: &SparseTensorD<D>, mine: Range<usize>| {
            let feats = &h.feats.as_slice()[mine.start * c..mine.end * c];
            match band {
                Band::Lower => {
                    let mut sums = vec![0.0; c];
                    AvgPool::accumulate(&mut sums, feats);
                    (sums, mine.len())
                }
                Band::Upper => (feats.to_vec(), mine.len()),
            }
        };
        BandOut(Self::stack(self.convs.len(), x, own, layer, share))
    }

    /// The feature of two bands whose owned sites partition every layer's:
    /// per convolution, the lower band's column sums, plus the upper
    /// band's rows after them — the pool's additions in site order — then
    /// the mean and the head.
    pub(crate) fn merge(&self, lower: &BandOut, upper: &BandOut) -> Vec<f32> {
        let pooled = lower.0.iter().enumerate().map(|(i, (sums, n))| {
            let (rows, m) = upper.0.get(i).map_or((&[][..], 0), |(r, m)| (&r[..], *m));
            let mut sums = sums.clone();
            AvgPool::accumulate(&mut sums, rows);
            AvgPool::mean(sums, n + m)
        });
        let cat = Self::cat(self.cfg.pool_all, pooled.collect());
        self.head.infer(&Mat::row_vector(&cat)).row(0).to_vec()
    }

    /// The stem (`layer(0, ·)`) and the `n` convolutions (`layer(1 + i,
    /// ·)`), each convolution's output handed to `pool(i, ·, sites)` with
    /// the index range of its sites in `own(1 + i)`; the spans, and the
    /// `sparseconv.active_sites` counter over the sites in `own`.
    fn stack<P>(
        n: usize,
        x: &SparseTensorD<D>,
        own: impl Fn(usize) -> Range<i64>,
        mut layer: impl FnMut(usize, &SparseTensorD<D>) -> SparseTensorD<D>,
        mut pool: impl FnMut(usize, &SparseTensorD<D>, Range<usize>) -> P,
    ) -> Vec<P> {
        let obs = waco_obs::enabled();
        let mut run = |l: usize, h: &SparseTensorD<D>| {
            // The name is only built for a subscriber.
            let _s = match l {
                _ if !obs => waco_obs::Span::disabled(),
                0 => waco_obs::span("sparseconv/stem"),
                l => waco_obs::span_owned(format!("sparseconv/conv{}", l - 1)),
            };
            let h = layer(l, h);
            let mine = h.site_range(own(l));
            if obs {
                waco_obs::counter("sparseconv.active_sites", mine.len() as u64);
            }
            (h, mine)
        };
        let (mut h, _) = run(0, x);
        let mut pooled = Vec::with_capacity(n);
        for i in 0..n {
            let (next, mine) = run(1 + i, &h);
            pooled.push(pool(i, &next, mine));
            h = next;
        }
        pooled
    }

    /// What the head reads: every pooled layer, or the last.
    fn cat(pool_all: bool, mut pooled: Vec<Vec<f32>>) -> Vec<f32> {
        match pool_all {
            true => pooled.into_iter().flatten().collect(),
            false => pooled.pop().expect("at least one layer"),
        }
    }

    /// Forward over raw coordinates (input feature = 1.0 per nonzero).
    pub fn forward_coords(&mut self, coords: &[[i32; D]]) -> Vec<f32> {
        self.forward_feats(&SparseTensorD::from_coords(coords))
    }

    /// [`SparseCnnCore::forward_coords`] by [`SparseCnnCore::infer_feats`].
    pub fn infer_coords(&self, coords: &[[i32; D]]) -> Vec<f32> {
        self.infer_feats(&SparseTensorD::from_coords(coords))
    }

    /// Backward from the output gradient down to (discarded) input grads.
    ///
    /// # Panics
    ///
    /// Panics if called before a forward pass.
    pub fn backward(&mut self, grad: &[f32]) {
        let dcat = self.head.backward(&Mat::row_vector(grad));
        let n = self.convs.len();
        let c = self.cfg.channels;
        let chunks: Vec<Vec<f32>> = if self.cfg.pool_all {
            (0..n)
                .map(|i| dcat.row(0)[i * c..(i + 1) * c].to_vec())
                .collect()
        } else {
            let mut v = vec![vec![0.0f32; c]; n];
            v[n - 1] = dcat.row(0).to_vec();
            v
        };
        let mut pending: Option<Mat> = None;
        for i in (0..n).rev() {
            let mut d = self.pools[i].backward(&chunks[i]);
            if let Some(p) = pending.take() {
                d.add_assign(&p);
            }
            let g = self.relus[i].backward(&d);
            pending = Some(self.convs[i].backward(&g));
        }
        let d_stem = pending.expect("at least one layer");
        let g = self.stem_relu.backward(&d_stem);
        self.stem.backward_pairs::<false>(&g); // input features are constants
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Mutable references to all parameters in a stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.stem.params_mut();
        for c in &mut self.convs {
            out.extend(c.params_mut());
        }
        out.extend(self.head.params_mut());
        out
    }
}

/// The WACONet feature extractor: a [`SparseCnnCore`] over raw 2-D or 3-D
/// patterns — no downsampling, strided receptive-field growth, all-layer
/// pooling concatenation.
#[derive(Debug, Clone)]
pub enum WacoNet {
    /// 2-D variant (SpMV / SpMM / SDDMM).
    D2(SparseCnnCore<2>),
    /// 3-D variant (MTTKRP).
    D3(SparseCnnCore<3>),
}

impl WacoNet {
    /// A 2-D WACONet.
    pub fn new_2d(cfg: WacoNetConfig, rng: &mut Rng64) -> Self {
        WacoNet::D2(SparseCnnCore::new(cfg.core(), rng))
    }

    /// A 3-D WACONet (3×3×3 filters, as §4.1.1 suggests for higher
    /// dimensional tensors).
    pub fn new_3d(cfg: WacoNetConfig, rng: &mut Rng64) -> Self {
        let mut core = cfg.core();
        core.stem_filter = 3; // 5³ = 125-tap stems are needlessly heavy
        WacoNet::D3(SparseCnnCore::new(core, rng))
    }
}

impl Extractor for WacoNet {
    fn name(&self) -> &'static str {
        "WACONet"
    }

    fn dim(&self) -> usize {
        match self {
            WacoNet::D2(c) => c.out_dim(),
            WacoNet::D3(c) => c.out_dim(),
        }
    }

    fn forward(&mut self, p: &Pattern) -> Vec<f32> {
        match (self, p) {
            (WacoNet::D2(core), Pattern::D2 { coords, .. }) => core.forward_coords(coords),
            (WacoNet::D3(core), Pattern::D3 { coords, .. }) => core.forward_coords(coords),
            _ => panic!("WACONet dimensionality does not match the pattern"),
        }
    }

    fn infer(&mut self, p: &Pattern) -> Vec<f32> {
        match (&*self, p) {
            (WacoNet::D2(core), Pattern::D2 { coords, .. }) => core.infer_coords(coords),
            (WacoNet::D3(core), Pattern::D3 { coords, .. }) => core.infer_coords(coords),
            _ => panic!("WACONet dimensionality does not match the pattern"),
        }
    }

    fn bands(&self, p: &Pattern) -> Bands<'_> {
        match (self, p) {
            (WacoNet::D2(core), Pattern::D2 { coords, .. }) => {
                Bands::d2(core, SparseTensorD::from_coords(coords))
            }
            (WacoNet::D3(core), Pattern::D3 { coords, .. }) => {
                Bands::d3(core, SparseTensorD::from_coords(coords))
            }
            _ => panic!("WACONet dimensionality does not match the pattern"),
        }
    }

    fn backward(&mut self, grad: &[f32]) {
        match self {
            WacoNet::D2(c) => c.backward(grad),
            WacoNet::D3(c) => c.backward(grad),
        }
    }

    fn zero_grad(&mut self) {
        match self {
            WacoNet::D2(c) => c.zero_grad(),
            WacoNet::D3(c) => c.zero_grad(),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            WacoNet::D2(c) => c.params_mut(),
            WacoNet::D3(c) => c.params_mut(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_tensor::gen::{self, Rng64};

    #[test]
    fn forward_shapes() {
        let mut rng = Rng64::seed_from(1);
        let mut net = WacoNet::new_2d(WacoNetConfig::tiny(), &mut rng);
        let m = gen::uniform_random(32, 32, 0.1, &mut rng);
        let f = net.forward(&Pattern::from_matrix(&m));
        assert_eq!(f.len(), 32);
        assert!(f.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn distinguishes_patterns() {
        let mut rng = Rng64::seed_from(2);
        let mut net = WacoNet::new_2d(WacoNetConfig::tiny(), &mut rng);
        let blocked = gen::blocked(64, 64, 8, 10, 0.9, &mut rng);
        let scattered = gen::uniform_random(64, 64, blocked.density(), &mut rng);
        let f1 = net.forward(&Pattern::from_matrix(&blocked));
        let f2 = net.forward(&Pattern::from_matrix(&scattered));
        let diff: f32 = f1.iter().zip(&f2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3, "different patterns must embed differently");
    }

    #[test]
    fn backward_fills_grads() {
        let mut rng = Rng64::seed_from(3);
        let mut net = WacoNet::new_2d(WacoNetConfig::tiny(), &mut rng);
        let m = gen::banded(48, 3, 0.6, &mut rng);
        let f = net.forward(&Pattern::from_matrix(&m));
        net.zero_grad();
        net.backward(&vec![1.0; f.len()]);
        let any = net.params_mut().iter().any(|p| p.grad.max_abs() > 0.0);
        assert!(any);
    }

    #[test]
    fn waconet_3d() {
        let mut rng = Rng64::seed_from(4);
        let mut net = WacoNet::new_3d(WacoNetConfig::tiny(), &mut rng);
        let t = gen::random_tensor3([16, 16, 16], 100, &mut rng);
        let f = net.forward(&Pattern::from_tensor3(&t));
        assert_eq!(f.len(), 32);
        net.backward(&vec![0.5; f.len()]);
    }

    #[test]
    fn empty_pattern_is_safe() {
        let mut rng = Rng64::seed_from(5);
        let mut net = WacoNet::new_2d(WacoNetConfig::tiny(), &mut rng);
        let p = Pattern::D2 {
            coords: vec![],
            dims: [8, 8],
        };
        let f = net.forward(&p);
        assert_eq!(f.len(), 32);
        assert!(f.iter().all(|v| v.is_finite()));
        net.backward(&vec![1.0; f.len()]);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn dim_mismatch_panics() {
        let mut rng = Rng64::seed_from(6);
        let mut net = WacoNet::new_2d(WacoNetConfig::tiny(), &mut rng);
        let t = gen::random_tensor3([4, 4, 4], 8, &mut rng);
        let _ = net.forward(&Pattern::from_tensor3(&t));
    }

    #[test]
    fn end_to_end_gradient_check() {
        // Perturb one head weight; check d(sum of outputs)/dw numerically.
        let mut rng = Rng64::seed_from(7);
        let m = gen::uniform_random(24, 24, 0.1, &mut rng);
        let p = Pattern::from_matrix(&m);
        let mut net = WacoNet::new_2d(WacoNetConfig::tiny(), &mut rng);
        let f0 = net.forward(&p);
        let l0: f32 = f0.iter().sum();
        net.zero_grad();
        net.backward(&vec![1.0; f0.len()]);
        let WacoNet::D2(core) = &mut net else {
            unreachable!()
        };
        let analytic = core.head.w.grad.get(3, 5);
        let eps = 1e-2;
        let old = core.head.w.value.get(3, 5);
        core.head.w.value.set(3, 5, old + eps);
        let f1 = net.forward(&p);
        let l1: f32 = f1.iter().sum();
        let numeric = (l1 - l0) / eps;
        assert!(
            (analytic - numeric).abs() < 5e-2 * numeric.abs().max(1.0),
            "analytic {analytic} vs numeric {numeric}"
        );
    }
}
