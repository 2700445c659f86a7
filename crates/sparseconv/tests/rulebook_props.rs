//! The one per-site kernel against the hash-probe rulebook and the dense
//! gather + `Mat` products it replaced: the pairs training records as a
//! sequence, the features of `forward` (recording) and of `infer` (not) and
//! the gradients as bits, over random site sets.
//!
//! The oracles below are the pre-rulebook algorithm kept test-local: a
//! `HashMap` probe per (site, tap) and a materialised `n_out × taps·in_ch`
//! gather fed to `Mat::{matmul, matmul_tn, matmul_nt}`.

use std::collections::HashMap;

use waco_check::props;
use waco_nn::Mat;
use waco_sparseconv::conv::{Pair, SubmanifoldConv};
use waco_sparseconv::SparseTensorD;
use waco_tensor::gen::Rng64;

/// Tap offsets in the layer's order: lexicographic, last dimension fastest.
fn taps<const D: usize>(filter: usize) -> Vec<[i32; D]> {
    let (f, half) = (filter as i32, (filter / 2) as i32);
    (0..f.pow(D as u32))
        .map(|t| {
            let mut off = [0i32; D];
            let mut rest = t;
            for d in (0..D).rev() {
                off[d] = rest % f - half;
                rest /= f;
            }
            off
        })
        .collect()
}

/// `n` sites drawn from `[origin, origin + extent)^D`: a small extent gives
/// dense blocks with duplicates to merge, a large one scattered sites.
fn sites<const D: usize>(n: usize, extent: i32, origin: i32, seed: u64) -> Vec<[i32; D]> {
    let mut rng = Rng64::seed_from(seed);
    (0..n)
        .map(|_| [0; D].map(|_| origin + rng.below(extent as usize) as i32))
        .collect()
}

fn oracle_out_coords<const D: usize>(xs: &[[i32; D]], stride: usize) -> Vec<[i32; D]> {
    let mut out: Vec<[i32; D]> = xs
        .iter()
        .map(|c| c.map(|v| v.div_euclid(stride as i32)))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn oracle_rulebook<const D: usize>(
    xs: &[[i32; D]],
    out: &[[i32; D]],
    filter: usize,
    stride: usize,
) -> Vec<Pair> {
    // In `i64`: a window at the `i32` limits reaches past them.
    let index: HashMap<[i64; D], usize> = (xs.iter().enumerate())
        .map(|(i, &c)| (c.map(i64::from), i))
        .collect();
    let mut pairs = Vec::new();
    for (r, oc) in out.iter().enumerate() {
        for (t, off) in taps::<D>(filter).iter().enumerate() {
            let mut q = [0i64; D];
            for d in 0..D {
                q[d] = i64::from(oc[d]) * stride as i64 + i64::from(off[d]);
            }
            if let Some(&ir) = index.get(&q) {
                pairs.push((r as u32, t as u32, ir as u32));
            }
        }
    }
    pairs
}

fn bits(m: &Mat) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A layer with random weights and bias, its input on `coords` with signed
/// features and exact zeros (as after a ReLU), and the rng to go on with.
fn layer<const D: usize>(
    coords: &[[i32; D]],
    filter: usize,
    stride: usize,
    in_ch: usize,
    out_ch: usize,
    seed: u64,
) -> (SubmanifoldConv<D>, SparseTensorD<D>, Rng64) {
    let mut rng = Rng64::seed_from(seed ^ 0x5eed);
    let mut x = SparseTensorD::<D>::from_coords(coords);
    x.feats = Mat::from_fn(x.len(), in_ch, |_, _| match rng.below(3) {
        0 => 0.0,
        _ => rng.unit_f32() - 0.5,
    });
    let mut conv = SubmanifoldConv::<D>::new(filter, stride, in_ch, out_ch, &mut rng);
    conv.b.value = Mat::from_fn(1, out_ch, |_, _| rng.unit_f32() - 0.5);
    (conv, x, rng)
}

/// One layer on one site set: recorded pairs ≡ probe as a sequence, infer,
/// forward and backward ≡ gather + dense products as bits.
fn check_layer<const D: usize>(
    coords: &[[i32; D]],
    filter: usize,
    stride: usize,
    in_ch: usize,
    out_ch: usize,
    seed: u64,
) {
    let (mut conv, x, mut rng) = layer(coords, filter, stride, in_ch, out_ch, seed);
    check(&mut conv, &x, stride, &mut rng);
}

/// [`check_layer`] on a given layer and input.
fn check<const D: usize>(
    conv: &mut SubmanifoldConv<D>,
    x: &SparseTensorD<D>,
    stride: usize,
    rng: &mut Rng64,
) {
    let (filter, in_ch, out_ch) = (conv.filter(), conv.in_ch(), conv.out_ch());
    let inferred = conv.infer(x);
    assert!(conv.pairs().is_empty(), "infer records nothing");
    let y = conv.forward(x);
    let out = oracle_out_coords(&x.coords, stride);
    assert_eq!(y.coords, out, "output sites");
    assert_eq!(inferred.coords, out, "inferred output sites");
    let pairs = oracle_rulebook(&x.coords, &out, filter, stride);
    assert_eq!(conv.pairs(), pairs, "rulebook");

    let n_taps = filter.pow(D as u32);
    let mut gathered = Mat::zeros(out.len(), n_taps * in_ch);
    for &(r, t, ir) in &pairs {
        let (r, t, ir) = (r as usize, t as usize, ir as usize);
        gathered.row_mut(r)[t * in_ch..(t + 1) * in_ch].copy_from_slice(x.feats.row(ir));
    }
    let mut want = gathered.matmul(&conv.w.value);
    want.add_bias(conv.b.value.row(0));
    assert_eq!(bits(&y.feats), bits(&want), "forward features");
    assert_eq!(bits(&inferred.feats), bits(&want), "inferred features");

    let dout = Mat::from_fn(out.len(), out_ch, |_, _| rng.unit_f32() - 0.5);
    let din = conv.backward(&dout);
    assert_eq!(bits(&conv.w.grad), bits(&gathered.matmul_tn(&dout)), "dW");
    assert_eq!(conv.b.grad.as_slice(), &dout.col_sums()[..], "db");
    let dg = dout.matmul_nt(&conv.w.value);
    let mut want_din = Mat::zeros(x.len(), in_ch);
    for &(r, t, ir) in &pairs {
        let src = &dg.row(r as usize)[t as usize * in_ch..(t as usize + 1) * in_ch];
        for (d, &g) in want_din.row_mut(ir as usize).iter_mut().zip(src) {
            *d += g;
        }
    }
    assert_eq!(bits(&din), bits(&want_din), "din");
}

props! {
    /// 2-D: filters 3 and 5, strides 1–3, origins on both sides of zero (so
    /// `div_euclid` and plain division differ), empty and one-site inputs,
    /// dense blocks (extent 1–4) through scattered sites, narrow and wide
    /// channel counts.
    cases = 256,
    fn rulebook_2d_equals_probe(n in 0usize..80, extent in 1i32..40, origin in -30i32..10,
                                wide in 0usize..2, stride in 1usize..4,
                                in_ch in 1usize..4, out_ch in 1usize..27, seed in 0u64..1_000_000) {
        let coords = sites::<2>(n, extent, origin, seed);
        check_layer(&coords, 3 + 2 * wide, stride, in_ch, out_ch, seed);
    }

    /// 3-D: the same, one cursor per leading *pair* of offsets.
    cases = 128,
    fn rulebook_3d_equals_probe(n in 0usize..60, extent in 1i32..12, origin in -10i32..4,
                                wide in 0usize..2, stride in 1usize..4,
                                in_ch in 1usize..3, out_ch in 1usize..18, seed in 0u64..1_000_000) {
        let coords = sites::<3>(n, extent, origin, seed);
        check_layer(&coords, 3 + 2 * wide, stride, in_ch, out_ch, seed);
    }
}

props! {
    /// The channel widths the network runs at (8, 16, 32; 12 leaves a
    /// partial block of output channels, 40 takes a second pass over the
    /// sites) on the same site sets.
    cases = 64,
    fn rulebook_2d_wide_channels(n in 0usize..80, extent in 1i32..40, origin in -30i32..10,
                                 wide in 0usize..2, stride in 1usize..4,
                                 in_at in 0usize..2, out_at in 0usize..5, seed in 0u64..1_000_000) {
        let coords = sites::<2>(n, extent, origin, seed);
        check_layer(&coords, 3 + 2 * wide, stride, WIDE_IN[in_at], WIDE_OUT[out_at], seed);
    }

    cases = 32,
    fn rulebook_3d_wide_channels(n in 0usize..60, extent in 1i32..12, origin in -10i32..4,
                                 wide in 0usize..2, stride in 1usize..4,
                                 in_at in 0usize..2, out_at in 0usize..5, seed in 0u64..1_000_000) {
        let coords = sites::<3>(n, extent, origin, seed);
        check_layer(&coords, 3 + 2 * wide, stride, WIDE_IN[in_at], WIDE_OUT[out_at], seed);
    }
}

props! {
    /// At the `i32` limits: sites from `i32::MIN` up need `i128` keys (a
    /// coordinate plus the layer's reach passes 2^31); sites just below
    /// `i32::MAX − reach` are the largest an `i64` key holds in 2-D.
    cases = 64,
    fn keys_at_the_i32_limits_2d(n in 0usize..80, extent in 1i32..40, low in 0usize..2,
                                 wide in 0usize..2, stride in 1usize..4,
                                 out_ch in 1usize..27, seed in 0u64..1_000_000) {
        let origin = if low == 1 { i32::MIN } else { i32::MAX - 45 };
        let coords = sites::<2>(n, extent, origin, seed);
        check_layer(&coords, 3 + 2 * wide, stride, 2, out_ch, seed);
    }

    /// 3-D sites past 2^20 take `i128` keys.
    cases = 32,
    fn i128_keys_3d(n in 0usize..60, extent in 1i32..12, wide in 0usize..2, stride in 1usize..4,
                    out_ch in 1usize..18, seed in 0u64..1_000_000) {
        let coords = sites::<3>(n, extent, 1 << 20, seed);
        check_layer(&coords, 3 + 2 * wide, stride, 2, out_ch, seed);
    }
}

const WIDE_IN: [usize; 2] = [8, 16];
const WIDE_OUT: [usize; 5] = [8, 12, 16, 32, 40];

/// A layer whose weights include `+inf` and `NaN` must keep skipping zero
/// activations, as `Mat::matmul` does: `0 · inf` is NaN. Both weights sit on
/// the centre tap, which at stride 1 pairs every site with itself, and on
/// channels with zero activations, so an unskipped product shows.
#[test]
fn non_finite_weights_keep_the_zero_skip() {
    for stride in 1..3 {
        let coords = sites::<2>(60, 12, -6, 7);
        let (mut conv, x, mut rng) = layer(&coords, 3, stride, 3, 12, 7);
        let centre = 4 * 3;
        conv.w.value.set(centre, 5, f32::INFINITY);
        conv.w.value.set(centre + 1, 10, f32::NAN);
        for c in 0..2 {
            assert!(
                (0..x.len()).any(|r| x.feats.get(r, c) == 0.0),
                "channel {c} has a zero"
            );
            assert!(
                (0..x.len()).any(|r| x.feats.get(r, c) != 0.0),
                "channel {c} has a value"
            );
        }
        check(&mut conv, &x, stride, &mut rng);
    }
}

/// All weights finite, so the forward adds zero-activation products too:
/// signed zeros in weights, activations and bias, and sites whose every
/// activation is zero, must still give the bits of the zero-skipping
/// product. The last site is isolated, its products on column 3 are all
/// `−0.0` and that column's bias is `−0.0`: only a sum that starts at
/// `+0.0` ends at the product's `+0.0` there.
#[test]
fn finite_weights_add_zero_products_without_changing_a_bit() {
    for stride in 1..3 {
        let mut coords = sites::<2>(60, 12, -6, 11);
        coords.push([1000, 1000]);
        let (mut conv, mut x, mut rng) = layer(&coords, 3, stride, 3, 12, 11);
        let zeros = [0.0, -0.0];
        let w = conv.w.value.as_mut_slice();
        for i in (0..w.len()).step_by(5) {
            w[i] = zeros[i % 2];
        }
        conv.b.value.set(0, 3, -0.0);
        for r in 0..x.len() {
            for c in 0..3 {
                if r % 4 == 0 || x.feats.get(r, c) == 0.0 {
                    x.feats.set(r, c, zeros[(r + c) % 2]);
                }
            }
        }
        let (last, centre) = (x.len() - 1, 4 * 3);
        for c in 0..3 {
            let positive = conv.w.value.get(centre + c, 3).is_sign_positive();
            x.feats.set(last, c, if positive { -0.0 } else { 0.0 });
        }
        check(&mut conv, &x, stride, &mut rng);
    }
}
