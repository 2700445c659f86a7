//! Summary statistics of a sparsity pattern.
//!
//! These are the "human-crafted features" of §3.2.1: `waco-cli inspect`
//! prints them and the serve fingerprint hashes them; the fingerprint and
//! the tuner's asymptotic profile also fold [`log2_histogram`]s of per-line
//! counts.

use crate::CooMatrix;

/// Statistical summary of a sparse matrix pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Number of stored nonzeros.
    pub nnz: usize,
    /// `nnz / (nrows * ncols)`.
    pub density: f64,
    /// Mean nonzeros per row.
    pub row_nnz_mean: f64,
    /// Variance of nonzeros per row.
    pub row_nnz_var: f64,
    /// Maximum nonzeros in any row.
    pub row_nnz_max: usize,
    /// Coefficient of variation of row populations (std / mean); the skew
    /// signal that decides fine- vs coarse-grained load balancing.
    pub row_cv: f64,
    /// Mean |row − col| over nonzeros, normalized by the dimension — the DIA
    /// style "average distance from the diagonal" feature.
    pub diag_distance_mean: f64,
    /// Fraction of nonzeros whose mirror position is also a nonzero.
    pub symmetry: f64,
    /// Fraction of occupied `b×b` blocks that are at least half full, for
    /// `b = 8` — a cheap dense-block detector.
    pub block8_fill_mean: f64,
    /// Number of distinct occupied 8×8 blocks.
    pub block8_count: usize,
}

impl MatrixStats {
    /// Computes all statistics: one pass over the rows and one over the
    /// entries, `O(nnz + nrows + ncols)`.
    pub fn compute(m: &CooMatrix) -> Self {
        Self::compute_with_row_nnz(m, &m.row_nnz())
    }

    /// [`MatrixStats::compute`] for a caller that already holds
    /// `m.row_nnz()` and would rather not pay for it twice.
    pub fn compute_with_row_nnz(m: &CooMatrix, row_counts: &[usize]) -> Self {
        let nrows = m.nrows();
        let ncols = m.ncols();
        let nnz = m.nnz();
        debug_assert_eq!(row_counts.len(), nrows);
        let mean = nnz as f64 / nrows as f64;
        let var = row_counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / nrows as f64;
        let max = row_counts.iter().copied().max().unwrap_or(0);
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };

        // The entries are sorted row-major, and every per-entry question
        // below leans on that order instead of a hash or a search.
        let entries = m.entries();
        // `mirror[r]`: where in row `r` the search for a mirror entry
        // `(r, ·)` resumes. Entry `(r, c)` looks for `(c, r)` in row `c`,
        // and the sweep reaches the askers of one row in increasing `r`,
        // so each cursor only moves forward: `O(nnz)` over the sweep.
        let mut mirror = Vec::with_capacity(nrows);
        let mut start = 0usize;
        for &c in row_counts {
            mirror.push(start);
            start += c;
        }
        // `last_band[bc]`: the latest 8-row band in which block column `bc`
        // was seen occupied. Bands only increase over the sweep, so a block
        // is new exactly when its column's mark is not the current band.
        let mut last_band = vec![usize::MAX; ncols.div_ceil(8)];
        let mut block8_count = 0usize;
        let mut diag_distance_sum = 0.0f64;
        let mut sym_hits = 0usize;
        let mut off_diag = 0usize;
        for e in entries {
            diag_distance_sum += e.row.abs_diff(e.col) as f64;
            if e.row != e.col {
                off_diag += 1;
                if let Some(at) = mirror.get_mut(e.col) {
                    while entries
                        .get(*at)
                        .is_some_and(|x| x.row == e.col && x.col < e.row)
                    {
                        *at += 1;
                    }
                    if entries
                        .get(*at)
                        .is_some_and(|x| x.row == e.col && x.col == e.row)
                    {
                        sym_hits += 1;
                    }
                }
            }
            let mark = &mut last_band[e.col / 8];
            if *mark != e.row / 8 {
                *mark = e.row / 8;
                block8_count += 1;
            }
        }

        let dim = nrows.max(ncols) as f64;
        let diag_distance_mean = if nnz == 0 {
            0.0
        } else {
            diag_distance_sum / nnz as f64 / dim
        };
        // Symmetry: fraction of off-diagonal entries with a stored mirror.
        let symmetry = if off_diag == 0 {
            1.0
        } else {
            sym_hits as f64 / off_diag as f64
        };
        // Mean fill of the occupied 8×8 blocks. Every block's fill is a
        // multiple of 1/64, so their sum is `nnz / 64` exactly.
        let block8_fill_mean = if block8_count == 0 {
            0.0
        } else {
            nnz as f64 / 64.0 / block8_count as f64
        };

        Self {
            nrows,
            ncols,
            nnz,
            density: nnz as f64 / (nrows as f64 * ncols as f64),
            row_nnz_mean: mean,
            row_nnz_var: var,
            row_nnz_max: max,
            row_cv: cv,
            diag_distance_mean,
            symmetry,
            block8_fill_mean,
            block8_count,
        }
    }
}

/// Number of log₂ buckets in a per-line population histogram.
pub const HIST_BUCKETS: usize = 16;

/// Histogram of per-line (row, column, slice) nonzero counts over log₂
/// buckets: bucket `i` counts lines whose nnz `c` has `floor(log2(c)) == i`
/// (empty lines share bucket 0 with `c = 1`); counts of `2^15` and above
/// saturate into the last bucket. The serve fingerprint hashes these counts
/// and the tuner's asymptotic profile folds them, so the bucketing is part
/// of the cache key.
pub fn log2_histogram(counts: &[usize]) -> [u64; HIST_BUCKETS] {
    let mut hist = [0u64; HIST_BUCKETS];
    for &c in counts {
        let bucket = if c <= 1 {
            0
        } else {
            (usize::BITS - 1 - c.leading_zeros()) as usize
        };
        hist[bucket.min(HIST_BUCKETS - 1)] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Rng64};
    use crate::CooMatrix;

    #[test]
    fn mesh_stats() {
        let m = gen::mesh2d(8, 8);
        let s = MatrixStats::compute(&m);
        assert_eq!(s.nrows, 64);
        assert_eq!(s.nnz, m.nnz());
        assert!(s.symmetry > 0.99, "mesh is symmetric");
        assert!(s.diag_distance_mean < 0.2, "mesh is near-diagonal");
        assert_eq!(s.row_nnz_max, 5);
    }

    #[test]
    fn skew_shows_in_cv() {
        let mut rng = Rng64::seed_from(2);
        let uniform = gen::uniform_random(256, 256, 0.03, &mut rng);
        let skewed = gen::powerlaw_rows(256, 256, 8.0, 1.2, &mut rng);
        let su = MatrixStats::compute(&uniform);
        let ss = MatrixStats::compute(&skewed);
        assert!(
            ss.row_cv > 2.0 * su.row_cv,
            "power-law rows must have higher CV"
        );
    }

    #[test]
    fn blocks_show_in_fill() {
        let mut rng = Rng64::seed_from(3);
        let blocked = gen::blocked(128, 128, 8, 40, 0.95, &mut rng);
        let uniform = gen::uniform_random(128, 128, blocked.density(), &mut rng);
        let sb = MatrixStats::compute(&blocked);
        let su = MatrixStats::compute(&uniform);
        assert!(sb.block8_fill_mean > 2.0 * su.block8_fill_mean);
    }

    /// The three pattern statistics the sweeps replaced, computed the way
    /// they used to be: a hash map of blocks with fills summed in whatever
    /// order it iterates, and a binary search per mirror.
    fn by_hash_and_search(m: &CooMatrix) -> (f64, f64, usize) {
        let off_diag = m.iter().filter(|&(r, c, _)| r != c).count();
        let hits = m
            .iter()
            .filter(|&(r, c, _)| r != c && m.get(c, r).is_some())
            .count();
        let symmetry = if off_diag == 0 {
            1.0
        } else {
            hits as f64 / off_diag as f64
        };
        let mut blocks = std::collections::HashMap::new();
        for (r, c, _) in m.iter() {
            *blocks.entry((r / 8, c / 8)).or_insert(0usize) += 1;
        }
        let fill = if blocks.is_empty() {
            0.0
        } else {
            blocks.values().map(|&c| c as f64 / 64.0).sum::<f64>() / blocks.len() as f64
        };
        (symmetry, fill, blocks.len())
    }

    #[test]
    fn sweeps_match_hash_and_search_bit_for_bit() {
        let mut rng = Rng64::seed_from(5);
        let mut corpus: Vec<CooMatrix> = Vec::new();
        for n in [16, 64, 200, 1024] {
            for family in gen::Family::ALL {
                corpus.push(family.generate(n, &mut rng));
            }
        }
        // Shapes the generators do not make: wide, tall, symmetric with
        // holes, empty, and a single entry outside the square part.
        corpus.push(gen::uniform_random(9, 70, 0.2, &mut rng));
        corpus.push(gen::uniform_random(70, 9, 0.2, &mut rng));
        let half = gen::uniform_random(40, 40, 0.1, &mut rng);
        let mirrored = half.iter().chain(half.iter().map(|(r, c, v)| (c, r, v)));
        corpus.push(CooMatrix::from_triplets(40, 40, mirrored.step_by(3)).unwrap());
        corpus.push(CooMatrix::zeros(5, 3));
        corpus.push(CooMatrix::from_triplets(2, 30, vec![(1, 29, 1.0)]).unwrap());

        for m in &corpus {
            let s = MatrixStats::compute(m);
            let (symmetry, fill, blocks) = by_hash_and_search(m);
            let what = format!("{}x{} nnz {}", m.nrows(), m.ncols(), m.nnz());
            assert_eq!(s.symmetry.to_bits(), symmetry.to_bits(), "{what}");
            assert_eq!(s.block8_fill_mean.to_bits(), fill.to_bits(), "{what}");
            assert_eq!(s.block8_count, blocks, "{what}");
            if m.nnz() > 0 {
                let dist = m.iter().map(|(r, c, _)| r.abs_diff(c) as f64).sum::<f64>();
                let dist = dist / m.nnz() as f64 / m.nrows().max(m.ncols()) as f64;
                assert_eq!(s.diag_distance_mean.to_bits(), dist.to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn log2_histogram_buckets() {
        let hist = log2_histogram(&[0, 1, 2, 3, 4, 1000, usize::MAX]);
        assert_eq!(hist[0], 2, "0 and 1 share bucket 0");
        assert_eq!(hist[1], 2, "2 and 3");
        assert_eq!(hist[2], 1, "4");
        assert_eq!(hist[9], 1, "1000");
        assert_eq!(hist[HIST_BUCKETS - 1], 1, "saturates");
    }
}
