//! One inference pass in two bands of leading coordinates, which two threads
//! can run at once (DESIGN §4.3).
//!
//! The pass is cut at the median site's leading coordinate, rounded down to
//! a multiple of the stack's total stride, so that every layer's sites part
//! at one leading coordinate of that layer. Each band computes, per layer,
//! the sites it owns plus the halo its later layers read; the halo is
//! derived from the layer list (a layer of filter `f` and stride `s` reads
//! the leading coordinates `s·o - f/2 ..= s·o + f/2` for its output `o`).
//! The bands' owned rows, lower then upper, are each layer's output in site
//! order: the lower band sums its rows into the pool's column sums, and
//! [`Bands::merge`] adds the upper band's rows after them, so the pooled
//! sums, the head and the feature are the serial pass's bits.

use std::ops::Range;

use crate::conv::ALL_ROWS;
use crate::grid::SparseTensorD;
use crate::waconet::SparseCnnCore;

/// One of the two bands of a [`Bands`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// The sites below the cut, with the halo above it that they read.
    Lower,
    /// The sites at and above the cut, with the halo below it that they read.
    Upper,
}

/// What one band hands to [`Bands::merge`], per convolution: the column
/// sums of the sites the lower band owns, or the features of those the
/// upper band owns (row-major, added after them); and their number.
#[derive(Debug, Clone, Default)]
pub struct BandOut(pub(crate) Vec<(Vec<f32>, usize)>);

/// An extractor's inference pass cut into a [`Band::Lower`] and a
/// [`Band::Upper`] half. The two [`Bands::run`] calls may run on two
/// threads in either order; [`Bands::merge`] then returns the bits of the
/// extractor's `infer`.
#[derive(Debug)]
pub struct Bands<'a>(Kind<'a>);

#[derive(Debug)]
enum Kind<'a> {
    /// An extractor with no banded form: its feature, already extracted.
    Done(Vec<f32>),
    D2(CoreBands<'a, 2>),
    D3(CoreBands<'a, 3>),
}

impl<'a> Bands<'a> {
    /// A pass with nothing left for the bands to do: `merge` returns
    /// `feature`.
    pub fn done(feature: Vec<f32>) -> Self {
        Bands(Kind::Done(feature))
    }

    /// A 2-D sparse-CNN pass over the activation tensor `x`.
    pub fn d2(core: &'a SparseCnnCore<2>, x: SparseTensorD<2>) -> Self {
        Bands(Kind::D2(CoreBands::new(core, x)))
    }

    /// A 3-D sparse-CNN pass over the activation tensor `x`.
    pub fn d3(core: &'a SparseCnnCore<3>, x: SparseTensorD<3>) -> Self {
        Bands(Kind::D3(CoreBands::new(core, x)))
    }

    /// Runs one band's share of the pass.
    pub fn run(&self, band: Band) -> BandOut {
        match &self.0 {
            Kind::Done(_) => BandOut::default(),
            Kind::D2(b) => b.run(band),
            Kind::D3(b) => b.run(band),
        }
    }

    /// The feature, from both bands' [`Bands::run`] outputs.
    pub fn merge(&self, lower: &BandOut, upper: &BandOut) -> Vec<f32> {
        match &self.0 {
            Kind::Done(feature) => feature.clone(),
            Kind::D2(b) => b.core.merge(lower, upper),
            Kind::D3(b) => b.core.merge(lower, upper),
        }
    }
}

/// A sparse-CNN pass and where it is cut.
#[derive(Debug)]
struct CoreBands<'a, const D: usize> {
    core: &'a SparseCnnCore<D>,
    x: SparseTensorD<D>,
    cut: Cut,
}

impl<'a, const D: usize> CoreBands<'a, D> {
    fn new(core: &'a SparseCnnCore<D>, x: SparseTensorD<D>) -> Self {
        let median = x.coords.get(x.len() / 2).map(|c| i64::from(c[0]));
        let cut = Cut::new(median, &core.layers());
        Self { core, x, cut }
    }

    fn run(&self, band: Band) -> BandOut {
        let (rows, own) = match band {
            Band::Lower => (&self.cut.lower, &self.cut.lower_own),
            Band::Upper => (&self.cut.upper, &self.cut.upper_own),
        };
        let x = self.x.leading_rows(rows[0].clone());
        (self.core).infer_band(&x, band, |l| rows[l + 1].clone(), |l| own[l].clone())
    }
}

/// Per band: the leading coordinates it computes, of the input (index 0)
/// and of each layer's output (index `1 + l`, the stem's at 1), and those
/// it owns of each layer's output (index `l`). All arithmetic is in `i64`,
/// so a halo past the `i32` coordinates cannot wrap.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cut {
    lower: Vec<Range<i64>>,
    upper: Vec<Range<i64>>,
    lower_own: Vec<Range<i64>>,
    upper_own: Vec<Range<i64>>,
}

/// The largest total stride a pass is cut under; past it the lower band
/// runs the whole pass.
const MAX_PERIOD: i64 = 1 << 32;

impl Cut {
    /// The cut at `median`'s leading coordinate rounded down to a multiple
    /// of the layers' total stride; `None` (no sites) or a total stride past
    /// [`MAX_PERIOD`] gives the lower band everything.
    fn new(median: Option<i64>, layers: &[(usize, usize)]) -> Self {
        // The cumulative stride after each layer.
        let strides = layers.iter().scan(1i64, |p, &(_, s)| {
            *p = i64::try_from(s).ok().and_then(|s| p.checked_mul(s))?;
            (*p <= MAX_PERIOD).then_some(*p)
        });
        let strides: Vec<i64> = strides.collect();
        let (Some(median), Some(&period)) = (median, strides.last()) else {
            return Self::whole(layers.len());
        };
        if strides.len() < layers.len() {
            return Self::whole(layers.len());
        }
        let cut = median.div_euclid(period) * period;
        // Layer `l` owns its output's rows below `owned[l]` in the lower
        // band, and from it on in the upper one.
        let owned: Vec<i64> = strides.iter().map(|&p| cut / p).collect();
        // From the last layer back: output `o` of a layer of filter `f`,
        // stride `s` reads its input's leading coordinates `s·o ± f/2`, and
        // exists iff an input site floors to it, one of `s·o ..= s·o + s-1`.
        let n = layers.len();
        let (mut end, mut start) = (owned[n - 1], owned[n - 1]);
        let (mut lower, mut upper) = (vec![end], vec![start]);
        for &(filter, stride) in layers.iter().rev() {
            let (h, s) = ((filter / 2) as i64, stride as i64);
            end = (s * (end - 1) + h + 1).max(s * end);
            start = s * start - h;
            lower.push(end);
            upper.push(start);
        }
        lower.reverse();
        upper.reverse();
        Self {
            lower: lower.into_iter().map(|e| i64::MIN..e).collect(),
            upper: upper.into_iter().map(|s| s..i64::MAX).collect(),
            lower_own: owned.iter().map(|&c| i64::MIN..c).collect(),
            upper_own: owned.iter().map(|&c| c..i64::MAX).collect(),
        }
    }

    /// The lower band computes and owns every site of `n` layers.
    fn whole(n: usize) -> Self {
        let none = i64::MAX..i64::MAX;
        Self {
            lower: vec![ALL_ROWS; n + 1],
            upper: vec![none.clone(); n + 1],
            lower_own: vec![ALL_ROWS; n],
            upper_own: vec![none; n],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The served net: a 5-wide stem, then four 3-wide stride-2 layers.
    const SERVED: [(usize, usize); 5] = [(5, 1), (3, 2), (3, 2), (3, 2), (3, 2)];

    #[test]
    fn served_halo_is_seventeen_rows_below_and_two_above() {
        let cut = Cut::new(Some(517), &SERVED);
        // 517 rounds down to 512, a multiple of 2^4.
        assert_eq!(cut.lower_own[0], i64::MIN..512);
        assert_eq!(cut.upper_own[4], 32..i64::MAX);
        assert_eq!(cut.upper[0], 512 - 17..i64::MAX);
        assert_eq!(cut.lower[0], i64::MIN..512 + 2);
        // The stride-2 layers need one row below their own, then three, ...
        let starts: Vec<i64> = cut.upper[1..].iter().map(|r| r.start).collect();
        assert_eq!(starts, [512 - 15, 256 - 7, 128 - 3, 64 - 1, 32]);
        // ... and nothing above it.
        let ends: Vec<i64> = cut.lower[1..].iter().map(|r| r.end).collect();
        assert_eq!(ends, [512, 256, 128, 64, 32]);
    }

    #[test]
    fn no_sites_or_an_overflowing_stride_gives_the_lower_band_everything() {
        assert_eq!(Cut::new(None, &SERVED), Cut::whole(5));
        let wide = [(3, 1), (3, 1 << 20), (3, 1 << 20)];
        assert_eq!(Cut::new(Some(7), &wide), Cut::whole(3));
    }

    #[test]
    fn negative_leads_round_down() {
        let cut = Cut::new(Some(-1), &SERVED);
        assert_eq!(cut.lower_own[0], i64::MIN..-16);
        assert_eq!(cut.upper_own[4], -1..i64::MAX);
    }
}
