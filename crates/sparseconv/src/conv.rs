//! Submanifold sparse convolution and global average pooling.
//!
//! A layer is one kernel over two sorted site lists: per output site it
//! advances forward-only cursors to the present neighbours and adds each
//! one's products into register accumulators as it finds it — no coordinate
//! map, no neighbour list, no materialised gather, no dense product. The
//! additions are those of the gather + GEMM formulation in its order, so
//! features and gradients equal it bit for bit (DESIGN §4.3). Training's
//! [`SubmanifoldConv::forward`] also records the `(out_row, tap, in_row)`
//! pairs and the input for `backward`; [`SubmanifoldConv::infer`] records
//! nothing.

use crate::grid::SparseTensorD;
use std::ops::{Add, Mul, Range, Shl, Sub};
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

/// Every leading coordinate: the rows of a layer's whole output.
pub(crate) const ALL_ROWS: Range<i64> = i64::MIN..i64::MAX;

/// One present neighbour, `(out_row, tap, in_row)`; `u32` halves the rulebook.
pub type Pair = (u32, u32, u32);

/// Output channels one accumulator block holds.
const LANES: usize = 8;
/// Accumulator blocks live at once: a pass covers `LANES · MAX_BLOCKS`
/// output channels (all of them at every width the network runs at).
const MAX_BLOCKS: usize = 4;

/// One site as one integer, `BITS / D` bits a dimension: ordered as the
/// coordinates and linear, `key(c·s + o) = key(c)·s + key(o)`, while every
/// coordinate a layer compares stays below half a dimension's field. That
/// holds any `i32` coordinate in an `i128`, and in an `i64` 2-D coordinates
/// below 2^31 and 3-D ones below 2^20.
trait Key:
    Copy
    + Ord
    + From<i32>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Shl<u32, Output = Self>
{
    const MAX: Self;
    const BITS: u32;
    /// A small non-negative difference of two keys as an index.
    fn index(self) -> usize;
    fn pack<const D: usize>(c: &[i32; D]) -> Self {
        let shift = Self::BITS / D.max(2) as u32;
        (c.iter()).fold(Self::from(0), |k, &v| (k << shift) + Self::from(v))
    }
}

macro_rules! key {
    ($($t:ty),*) => {$(
        impl Key for $t {
            const MAX: Self = <$t>::MAX;
            const BITS: u32 = <$t>::BITS;
            fn index(self) -> usize {
                self as usize
            }
        }
    )*};
}
key!(i64, i128);

/// One layer's kernel over its input and output sites.
struct Scan<'a, K, const D: usize> {
    /// Input keys, then `K::MAX`, which stops every cursor and window.
    xs: Vec<K>,
    out: &'a [[i32; D]],
    /// The key of each *leading* offset: the `filter` taps that differ only
    /// in the last dimension want one contiguous run of `xs`.
    leading: Vec<K>,
    stride: K,
    filter: usize,
    x: &'a Mat,
    /// `(taps · in_ch) × out_ch`.
    w: &'a Mat,
    bias: &'a [f32],
}

impl<'a, K: Key, const D: usize> Scan<'a, K, D> {
    fn new(conv: &'a SubmanifoldConv<D>, x: &'a SparseTensorD<D>, out: &'a [[i32; D]]) -> Self {
        let mut xs: Vec<K> = x.coords.iter().map(K::pack).collect();
        xs.push(K::MAX);
        let offsets = offsets::<D>(conv.filter);
        Self {
            xs,
            out,
            leading: offsets.iter().step_by(conv.filter).map(K::pack).collect(),
            stride: K::from(conv.stride as i32),
            filter: conv.filter,
            x: &x.feats,
            w: &conv.w.value,
            bias: conv.b.value.row(0),
        }
    }

    /// The output features; the pairs too when `RECORD`. A layer with a
    /// non-finite weight skips zero activations, as `Mat::matmul` does.
    /// Passes past the first (over `LANES · MAX_BLOCKS` channels) re-scan
    /// and record nothing.
    fn run<const RECORD: bool>(&self) -> (Mat, Vec<Pair>) {
        let mut y = Mat::zeros(self.out.len(), self.w.cols());
        let mut pairs = Vec::with_capacity(usize::from(RECORD) * self.out.len() * self.filter);
        let finite = self.w.as_slice().iter().all(|w| w.is_finite());
        for first in (0..self.w.cols().div_ceil(LANES)).step_by(MAX_BLOCKS) {
            match (first == 0 && RECORD, finite) {
                (true, true) => self.pass::<true, false>(first, &mut y, &mut pairs),
                (true, false) => self.pass::<true, true>(first, &mut y, &mut pairs),
                (false, true) => self.pass::<false, false>(first, &mut y, &mut pairs),
                (false, false) => self.pass::<false, true>(first, &mut y, &mut pairs),
            }
        }
        (y, pairs)
    }

    fn pass<const RECORD: bool, const SKIP_ZEROS: bool>(
        &self,
        first: usize,
        y: &mut Mat,
        pairs: &mut Vec<Pair>,
    ) {
        match self.w.cols().div_ceil(LANES) - first {
            1 => self.sites::<RECORD, SKIP_ZEROS, 1>(first, y, pairs),
            2 => self.sites::<RECORD, SKIP_ZEROS, 2>(first, y, pairs),
            3 => self.sites::<RECORD, SKIP_ZEROS, 3>(first, y, pairs),
            _ => self.sites::<RECORD, SKIP_ZEROS, MAX_BLOCKS>(first, y, pairs),
        }
    }

    /// `y[r] = Σ x[in_row][c] · W[tap·in_ch + c] + b` over the `NB` blocks
    /// of output channels from block `first`, one output site at a time.
    ///
    /// Both site lists are strictly increasing and `c ↦ c · stride + tap`
    /// preserves their order, so what one leading offset wants is
    /// increasing in `r`: its cursor never moves back, and its run is read
    /// off in tap order. Each neighbour's products are added as it is found.
    fn sites<const RECORD: bool, const SKIP_ZEROS: bool, const NB: usize>(
        &self,
        first: usize,
        y: &mut Mat,
        pairs: &mut Vec<Pair>,
    ) {
        let (in_ch, filter) = (self.x.cols(), self.filter);
        // This pass's blocks of each row of `W`, zero-padded, side by side.
        let w: Vec<[[f32; LANES]; NB]> = (0..self.w.rows())
            .map(|p| {
                let row = &self.w.row(p)[first * LANES..];
                let at = |j: usize| row.get(j).copied().unwrap_or(0.0);
                std::array::from_fn(|k| std::array::from_fn(|l| at(k * LANES + l)))
            })
            .collect();
        let reach = K::from(filter as i32 - 1);
        let mut cursors = vec![0usize; self.leading.len()];
        for (r, oc) in self.out.iter().enumerate() {
            let base = K::pack(oc) * self.stride;
            let mut acc = [[0.0f32; LANES]; NB];
            for (g, (&off, cur)) in self.leading.iter().zip(&mut cursors).enumerate() {
                let (xs, lo) = (&self.xs, base + off);
                *cur += usize::from(xs[*cur] < lo); // branch-free: most advances are 0–2
                *cur += usize::from(xs[*cur] < lo);
                while xs[*cur] < lo {
                    *cur += 1;
                }
                let hi = lo + reach;
                let window = xs.iter().enumerate().skip(*cur);
                for (ir, &k) in window.take_while(|&(_, &k)| k <= hi) {
                    let t = g * filter + (k - lo).index();
                    if RECORD {
                        pairs.push((r as u32, t as u32, ir as u32));
                    }
                    for (&a, w) in self.x.row(ir).iter().zip(&w[t * in_ch..]) {
                        if !SKIP_ZEROS || a != 0.0 {
                            for (acc, w) in acc.iter_mut().zip(w) {
                                acc.iter_mut().zip(w).for_each(|(s, &w)| *s += a * w);
                            }
                        }
                    }
                }
            }
            // Indexed by constants once unrolled, so `acc` stays in registers.
            let (row, bias) = (
                &mut y.row_mut(r)[first * LANES..],
                &self.bias[first * LANES..],
            );
            for (k, acc) in acc.iter().enumerate() {
                for (l, &s) in acc.iter().enumerate() {
                    let j = k * LANES + l;
                    if let (Some(o), Some(&b)) = (row.get_mut(j), bias.get(j)) {
                        *o = s + b;
                    }
                }
            }
        }
    }
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

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The rulebook the last `forward` recorded: every `(out_row, tap,
    /// in_row)` with a present neighbour, by output row, then tap. Empty
    /// before the first `forward`; `infer` leaves it as it was.
    pub fn pairs(&self) -> &[Pair] {
        self.cache.as_ref().map_or(&[], |(pairs, ..)| pairs)
    }

    /// Forward pass; records the rulebook and the input features for
    /// backward.
    ///
    /// Each output element is summed in a register with the additions of the
    /// gather + `Mat::matmul`, in order; zero activations, which that product
    /// skips, are skipped only when a weight is not finite (DESIGN §4.3).
    ///
    /// # Panics
    ///
    /// Panics if the input channel count differs from `in_ch`, or a site
    /// count does not fit the pair index type.
    pub fn forward(&mut self, x: &SparseTensorD<D>) -> SparseTensorD<D> {
        let (y, pairs) = self.run::<true>(x, ALL_ROWS);
        self.cache = Some((pairs, x.feats.clone(), y.len()));
        y
    }

    /// The forward's output, bit for bit, recording nothing: for a caller
    /// that will not call `backward` on it.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count differs from `in_ch`.
    pub fn infer(&self, x: &SparseTensorD<D>) -> SparseTensorD<D> {
        self.infer_rows(x, ALL_ROWS)
    }

    /// The rows of [`SubmanifoldConv::infer`]'s output whose leading
    /// coordinate lies in `rows`, bit for bit: the same sites, and each the
    /// same sum, which reads only the input sites it reads in `infer`.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count differs from `in_ch`.
    pub(crate) fn infer_rows(&self, x: &SparseTensorD<D>, rows: Range<i64>) -> SparseTensorD<D> {
        self.run::<false>(x, rows).0
    }

    /// The output sites whose leading coordinate is in `rows`, then the one
    /// kernel over them; the pairs when `RECORD`.
    fn run<const RECORD: bool>(
        &self,
        x: &SparseTensorD<D>,
        rows: Range<i64>,
    ) -> (SparseTensorD<D>, Vec<Pair>) {
        assert_eq!(x.channels(), self.in_ch, "channel mismatch");
        // The input sites that floor into `rows`: `⌊c / s⌋ ≥ r ⟺ c ≥ r·s`.
        let s = self.stride as i64;
        let read = x.site_range(rows.start.saturating_mul(s)..rows.end.saturating_mul(s));
        // At stride 1 the output sites are the input sites. Flooring keeps
        // the leading coordinate's order: only a run sharing it is sorted.
        let mut out = x.coords[read].to_vec();
        if self.stride > 1 {
            for c in &mut out {
                *c = c.map(|v| v.div_euclid(self.stride as i32));
            }
            let mut start = 0;
            while let Some(lead) = out.get(start).map(|c| c[0]) {
                let end = start + out[start..].partition_point(|c| c[0] == lead);
                out[start..end].sort_unstable();
                start = end;
            }
            out.dedup();
        }
        if RECORD {
            let sites = x.len().max(out.len());
            assert!(u32::try_from(sites).is_ok(), "site count exceeds u32");
        }
        // Every coordinate compared — a site, or an output site scaled by
        // the stride and moved by a tap — is within `reach` of a site's.
        let reach = self.stride + self.filter / 2;
        let widest = x.coords.iter().flatten().map(|v| v.unsigned_abs() as usize);
        let half_field = 1 << (i64::BITS / D.max(2) as u32 - 1);
        let (y, pairs) = match widest.max().unwrap_or(0) + reach < half_field {
            true => Scan::<i64, D>::new(self, x, &out).run::<RECORD>(),
            false => Scan::<i128, D>::new(self, x, &out).run::<RECORD>(),
        };
        (SparseTensorD::new(out, y), pairs)
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
        self.infer(feats)
    }

    /// [`AvgPool::forward`] without recording the site count.
    pub fn infer(&self, feats: &Mat) -> Vec<f32> {
        let mut sums = vec![0.0; feats.cols()];
        Self::accumulate(&mut sums, feats.as_slice());
        Self::mean(sums, feats.rows())
    }

    /// Adds the rows of `rows` (row-major, `sums.len()` columns) into
    /// `sums`, one row after another: each column is the one chain of
    /// additions [`Mat::col_sums`] makes, so rows added in two calls sum
    /// to the bits of one call over both.
    pub fn accumulate(sums: &mut [f32], rows: &[f32]) {
        let cols = sums.len();
        if cols == 0 {
            return;
        }
        // Eight columns at a time, in registers: one vector add a row.
        for (block, sums) in sums.chunks_mut(LANES).enumerate() {
            let (at, w) = (block * LANES, sums.len());
            let mut acc = [0.0f32; LANES];
            acc[..w].copy_from_slice(sums);
            for row in rows.chunks_exact(cols) {
                match <&[f32; LANES]>::try_from(&row[at..at + w]) {
                    Ok(row) => (0..LANES).for_each(|l| acc[l] += row[l]),
                    Err(_) => (acc.iter_mut().zip(&row[at..at + w])).for_each(|(a, &x)| *a += x),
                }
            }
            sums.copy_from_slice(&acc[..w]);
        }
    }

    /// The mean of `n` rows from their column sums, scaled as
    /// [`AvgPool::infer`] scales them; zeros when `n` is 0.
    pub fn mean(mut sums: Vec<f32>, n: usize) -> Vec<f32> {
        if n > 0 {
            let inv = 1.0 / n as f32;
            for v in &mut sums {
                *v *= inv;
            }
        }
        sums
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
