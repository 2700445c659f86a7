//! Submanifold sparse convolution and global average pooling.
//!
//! A layer is one [`rulebook`] applied directly — no coordinate map, no
//! materialised gather, no dense product — summing each output site in
//! registers with the additions of the gather + GEMM formulation in its
//! order, so features and gradients equal its bit for bit (DESIGN §4.3).

use crate::grid::SparseTensorD;
use waco_nn::{Mat, Param};
use waco_tensor::gen::Rng64;

/// The `filter^D` centered tap offsets in tap order: lexicographic, last
/// dimension fastest.
fn offsets<const D: usize>(filter: usize) -> Vec<[i32; D]> {
    let (f, half) = (filter as i32, (filter / 2) as i32);
    let tap = |t: i32| {
        let (mut off, mut rest) = ([0; D], t);
        for d in (0..D).rev() {
            off[d] = rest % f - half;
            rest /= f;
        }
        off
    };
    (0..f.pow(D as u32)).map(tap).collect()
}

/// One present neighbour, `(out_row, tap, in_row)`; `u32` halves the rulebook.
pub type Pair = (u32, u32, u32);

/// The rulebook of one convolution: for every output site `r` and every tap
/// `t`, both in order, the input row at `out[r] · stride + tap` if active.
///
/// Both lists are strictly increasing and `c ↦ c · stride + tap` preserves
/// lexicographic order, so what one tap wants is increasing in `r`: a cursor
/// per tap never moves back. The `filter` taps that differ only in the last
/// dimension want one contiguous run of `xs`, so there is one cursor per
/// *leading* offset (5 for a 5×5 stem) and the run is read off in order.
///
/// # Panics
///
/// Panics if a site count does not fit the pair index type.
pub fn rulebook<const D: usize>(
    xs: &[[i32; D]],
    out: &[[i32; D]],
    filter: usize,
    stride: usize,
) -> Vec<Pair> {
    let sites = xs.len().max(out.len());
    assert!(u32::try_from(sites).is_ok(), "site count exceeds u32");
    // One integer per site, ordered as the coordinates (33 bits each: an
    // `i32` and a window's reach), linear: `key(c·s + o) = key(c)·s + key(o)`.
    let key = |c: &[i32; D]| c.iter().fold(0, |k, &v| (k << 33) + i128::from(v));
    let mut xs: Vec<i128> = xs.iter().map(key).collect();
    xs.push(i128::MAX); // stops every cursor and window
    let leading: Vec<i128> = offsets(filter).iter().step_by(filter).map(key).collect();
    let mut cursors = vec![0usize; leading.len()];
    let mut pairs = Vec::with_capacity(out.len() * filter);
    for (r, oc) in out.iter().enumerate() {
        for (g, (off, cur)) in leading.iter().zip(&mut cursors).enumerate() {
            let lo = key(oc) * stride as i128 + off;
            *cur += usize::from(xs[*cur] < lo); // branch-free: most advances are 0–2
            *cur += usize::from(xs[*cur] < lo);
            while xs[*cur] < lo {
                *cur += 1;
            }
            let hi = lo + (filter as i128 - 1);
            for (i, &k) in xs[*cur..].iter().take_while(|&&k| k <= hi).enumerate() {
                let t = g * filter + (k - lo) as usize;
                pairs.push((r as u32, t as u32, (*cur + i) as u32));
            }
        }
    }
    pairs
}

/// A sparse convolution layer.
///
/// * `stride == 1`: **submanifold** semantics — output sites equal input
///   sites, so sparsity never dilates (Figure 7 of the paper).
/// * `stride > 1`: strided semantics — output sites are the distinct
///   `coord.div_euclid(stride)` cells of the input sites, which is what
///   grows the receptive field for distant non-zeros (Figure 8).
#[derive(Debug, Clone)]
pub struct SubmanifoldConv<const D: usize> {
    /// Weights, `(taps · in_ch) × out_ch`.
    pub w: Param,
    /// Bias, `1 × out_ch`.
    pub b: Param,
    filter: usize,
    stride: usize,
    in_ch: usize,
    out_ch: usize,
    /// From the last `forward`: its rulebook, its input features, `n_out`.
    cache: Option<(Vec<Pair>, Mat, usize)>,
}

impl<const D: usize> SubmanifoldConv<D> {
    /// A new layer with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if `filter` is even or zero, or `stride` is zero.
    pub fn new(filter: usize, stride: usize, in_ch: usize, out_ch: usize, rng: &mut Rng64) -> Self {
        assert!(filter % 2 == 1 && filter > 0, "filter must be odd");
        assert!(stride > 0, "stride must be positive");
        let taps = filter.pow(D as u32);
        Self {
            w: Param::new(Mat::xavier(taps * in_ch, out_ch, rng)),
            b: Param::new(Mat::zeros(1, out_ch)),
            filter,
            stride,
            in_ch,
            out_ch,
            cache: None,
        }
    }

    /// Input channels.
    pub fn in_ch(&self) -> usize {
        self.in_ch
    }

    /// Output channels.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// Filter width.
    pub fn filter(&self) -> usize {
        self.filter
    }

    /// Forward pass; caches the rulebook and the input features for backward.
    ///
    /// Each output element is summed in a register with the additions of the
    /// gather + `Mat::matmul`, in order; zero activations, which that product
    /// skips, are skipped only when a weight is not finite (DESIGN §4.3).
    ///
    /// # Panics
    ///
    /// Panics if the input channel count differs from `in_ch`.
    pub fn forward(&mut self, x: &SparseTensorD<D>) -> SparseTensorD<D> {
        assert_eq!(x.channels(), self.in_ch, "channel mismatch");
        // At stride 1 the output sites are the input sites. Flooring keeps
        // the leading coordinate's order: only a run sharing it is sorted.
        let mut out_coords = x.coords.clone();
        if self.stride > 1 {
            for c in &mut out_coords {
                *c = c.map(|v| v.div_euclid(self.stride as i32));
            }
            let mut start = 0;
            while let Some(lead) = out_coords.get(start).map(|c| c[0]) {
                let end = start + out_coords[start..].partition_point(|c| c[0] == lead);
                out_coords[start..end].sort_unstable();
                start = end;
            }
            out_coords.dedup();
        }
        let pairs = rulebook(&x.coords, &out_coords, self.filter, self.stride);
        let out_feats = match self.w.value.as_slice().iter().all(|w| w.is_finite()) {
            true => self.accumulate::<false>(&pairs, &x.feats, out_coords.len()),
            false => self.accumulate::<true>(&pairs, &x.feats, out_coords.len()),
        };
        self.cache = Some((pairs, x.feats.clone(), out_coords.len()));
        SparseTensorD::new(out_coords, out_feats)
    }

    /// `out[r] = Σ x[in_row][c] · W[tap·in_ch + c] + b`, `LANES` columns in registers.
    fn accumulate<const SKIP_ZEROS: bool>(&self, pairs: &[Pair], x: &Mat, n_out: usize) -> Mat {
        const LANES: usize = 8;
        let (in_ch, out_ch, rows) = (self.in_ch, self.out_ch, self.w.value.rows());
        // `W` in zero-padded blocks of `LANES` columns: a pair's are contiguous.
        let mut wp = vec![0.0f32; out_ch.div_ceil(LANES) * rows * LANES];
        for (i, &v) in self.w.value.as_slice().iter().enumerate() {
            let (p, j) = (i / out_ch, i % out_ch);
            wp[(j / LANES * rows + p) * LANES + j % LANES] = v;
        }
        let mut out = Mat::zeros(n_out, out_ch);
        let mut rest = pairs;
        for r in 0..n_out {
            let (site, tail) = rest.split_at(rest.iter().take_while(|p| p.0 as usize == r).count());
            rest = tail;
            for (k, o) in out.row_mut(r).chunks_mut(LANES).enumerate() {
                let mut acc = [0.0f32; LANES];
                for &(_, t, ir) in site {
                    let w = wp[(k * rows + t as usize * in_ch) * LANES..].chunks_exact(LANES);
                    for (&a, w) in x.row(ir as usize).iter().zip(w) {
                        if !SKIP_ZEROS || a != 0.0 {
                            acc.iter_mut().zip(w).for_each(|(s, &w)| *s += a * w);
                        }
                    }
                }
                o.copy_from_slice(&acc[..o.len()]);
            }
        }
        out.add_bias(self.b.value.row(0));
        out
    }

    /// Backward pass: accumulates weight/bias gradients and returns the
    /// gradient w.r.t. the input features (`n_in × in_ch`).
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`, or if `dout` is not `n_out × out_ch`.
    pub fn backward(&mut self, dout: &Mat) -> Mat {
        self.backward_pairs::<true>(dout)
    }

    /// The pair loop; the stem's input is constant: no `din` (`0 × in_ch`).
    pub(crate) fn backward_pairs<const INPUT_GRAD: bool>(&mut self, dout: &Mat) -> Mat {
        let (pairs, x, n_out) = self.cache.as_ref().expect("forward before backward");
        let shape = (dout.rows(), dout.cols());
        assert_eq!(shape, (*n_out, self.out_ch), "dout is not n_out × out_ch");
        self.b.grad.add_assign(&Mat::row_vector(&dout.col_sums()));
        // Pair by pair in rulebook order: how the dense `Xᵀ · dout` summed
        // `dW` and how the rows of `dout · Wᵀ` were scattered into `din`,
        // without either product running over absent taps.
        let mut dw = Mat::zeros(self.w.value.rows(), self.out_ch);
        let mut din = Mat::zeros(if INPUT_GRAD { x.rows() } else { 0 }, self.in_ch);
        for &(r, t, ir) in pairs {
            let drow = dout.row(r as usize);
            for (c, &a) in x.row(ir as usize).iter().enumerate() {
                let p = t as usize * self.in_ch + c;
                if a != 0.0 {
                    for (o, &g) in dw.row_mut(p).iter_mut().zip(drow) {
                        *o += a * g;
                    }
                }
                if INPUT_GRAD {
                    let dot = drow.iter().zip(self.w.value.row(p));
                    din.row_mut(ir as usize)[c] += dot.fold(0.0, |acc, (&g, &wv)| acc + g * wv);
                }
            }
        }
        self.w.grad.add_assign(&dw);
        din
    }

    /// Mutable references to the parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Global average pooling over active sites (one pooled vector per tensor).
#[derive(Debug, Clone, Default)]
pub struct AvgPool {
    cached_n: usize,
}

impl AvgPool {
    /// A fresh pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pools features to their per-channel mean; zero vector when empty.
    pub fn forward(&mut self, feats: &Mat) -> Vec<f32> {
        self.cached_n = feats.rows();
        if feats.rows() == 0 {
            return vec![0.0; feats.cols()];
        }
        let mut out = feats.col_sums();
        let inv = 1.0 / feats.rows() as f32;
        for v in &mut out {
            *v *= inv;
        }
        out
    }

    /// Distributes the pooled gradient back over the sites.
    pub fn backward(&self, grad: &[f32]) -> Mat {
        let n = self.cached_n;
        if n == 0 {
            return Mat::zeros(0, grad.len());
        }
        let inv = 1.0 / n as f32;
        Mat::from_fn(n, grad.len(), |_, c| grad[c] * inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_cover_filter() {
        let o2 = offsets::<2>(3);
        assert_eq!(o2.len(), 9);
        assert!(o2.contains(&[-1, 1]));
        let o3 = offsets::<3>(3);
        assert_eq!(o3.len(), 27);
        assert_eq!(offsets::<2>(5).len(), 25);
    }

    #[test]
    fn submanifold_preserves_sites() {
        let mut rng = Rng64::seed_from(1);
        let x = SparseTensorD::<2>::from_coords(&[[0, 0], [5, 5], [9, 2]]);
        let mut conv = SubmanifoldConv::<2>::new(3, 1, 1, 4, &mut rng);
        let y = conv.forward(&x);
        assert_eq!(y.coords, x.coords);
        assert_eq!(y.channels(), 4);
    }

    #[test]
    fn strided_downsamples() {
        let mut rng = Rng64::seed_from(2);
        let x = SparseTensorD::<2>::from_coords(&[[0, 0], [1, 1], [4, 4], [5, 5]]);
        let mut conv = SubmanifoldConv::<2>::new(3, 2, 1, 2, &mut rng);
        let y = conv.forward(&x);
        // (0,0),(1,1) → (0,0); (4,4),(5,5) → (2,2).
        assert_eq!(y.coords, vec![[0, 0], [2, 2]]);
    }

    #[test]
    fn isolated_points_dont_mix_at_stride_1() {
        let mut rng = Rng64::seed_from(3);
        // Two far-apart points: under submanifold conv, each output only sees
        // its own input (Figure 8a).
        let x = SparseTensorD::<2>::from_coords(&[[0, 0], [100, 100]]);
        let mut conv = SubmanifoldConv::<2>::new(3, 1, 1, 3, &mut rng);
        let y1 = conv.forward(&x);
        // Perturb the second point's feature; first output must not change.
        let mut x2 = x.clone();
        x2.feats.set(1, 0, 5.0);
        let y2 = conv.forward(&x2);
        for c in 0..3 {
            assert_eq!(y1.feats.get(0, c), y2.feats.get(0, c));
            assert_ne!(y1.feats.get(1, c), y2.feats.get(1, c));
        }
    }

    #[test]
    fn strided_stack_eventually_mixes() {
        let mut rng = Rng64::seed_from(4);
        // Distance 8 → after 3 stride-2 layers coordinates coincide.
        let x = SparseTensorD::<2>::from_coords(&[[0, 0], [8, 8]]);
        let mut convs: Vec<SubmanifoldConv<2>> = (0..4)
            .map(|i| SubmanifoldConv::new(3, 2, if i == 0 { 1 } else { 2 }, 2, &mut rng))
            .collect();
        let mut h = x;
        for c in &mut convs {
            h = c.forward(&h);
        }
        assert_eq!(h.len(), 1, "strided stack merges distant points");
    }

    #[test]
    fn conv_gradient_matches_finite_difference() {
        let mut rng = Rng64::seed_from(5);
        let x = SparseTensorD::<2>::from_coords(&[[0, 0], [0, 1], [2, 2]]);
        let mut conv = SubmanifoldConv::<2>::new(3, 1, 1, 2, &mut rng);
        let y = conv.forward(&x);
        let l0: f32 = y.feats.as_slice().iter().map(|v| 0.5 * v * v).sum();
        conv.w.zero_grad();
        conv.b.zero_grad();
        conv.backward(&y.feats.clone());

        let (wi, wj) = (4, 1); // arbitrary weight
        let analytic = conv.w.grad.get(wi, wj);
        let eps = 1e-3;
        let mut conv2 = conv.clone();
        let old = conv2.w.value.get(wi, wj);
        conv2.w.value.set(wi, wj, old + eps);
        let y2 = conv2.forward(&x);
        let l1: f32 = y2.feats.as_slice().iter().map(|v| 0.5 * v * v).sum();
        let numeric = (l1 - l0) / eps;
        assert!(
            (analytic - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn input_gradient_flows_to_contributing_sites() {
        let mut rng = Rng64::seed_from(6);
        let x = SparseTensorD::<2>::from_coords(&[[0, 0], [50, 50]]);
        let mut conv = SubmanifoldConv::<2>::new(3, 1, 1, 2, &mut rng);
        let y = conv.forward(&x);
        let din = conv.backward(&Mat::from_fn(y.len(), 2, |_, _| 1.0));
        assert_eq!(din.rows(), 2);
        // Each input only contributes to its own output; grads nonzero.
        assert!(din.get(0, 0).abs() > 0.0);
        assert!(din.get(1, 0).abs() > 0.0);
    }

    #[test]
    fn avgpool_forward_backward() {
        let mut pool = AvgPool::new();
        let feats = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let p = pool.forward(&feats);
        assert_eq!(p, vec![2.0, 3.0]);
        let g = pool.backward(&[1.0, 0.0]);
        assert_eq!(g.get(0, 0), 0.5);
        assert_eq!(g.get(1, 1), 0.0);
    }

    #[test]
    fn avgpool_empty() {
        let mut pool = AvgPool::new();
        let p = pool.forward(&Mat::zeros(0, 3));
        assert_eq!(p, vec![0.0; 3]);
        assert_eq!(pool.backward(&[1.0; 3]).rows(), 0);
    }

    #[test]
    fn conv3d_works() {
        let mut rng = Rng64::seed_from(7);
        let x = SparseTensorD::<3>::from_coords(&[[0, 0, 0], [1, 1, 1], [3, 3, 3]]);
        let mut conv = SubmanifoldConv::<3>::new(3, 2, 1, 2, &mut rng);
        let y = conv.forward(&x);
        assert_eq!(y.coords, vec![[0, 0, 0], [1, 1, 1]]);
        let din = conv.backward(&Mat::from_fn(y.len(), 2, |_, _| 1.0));
        assert_eq!(din.rows(), 3);
    }
}
