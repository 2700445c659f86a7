//! Shared infrastructure of the experiment harness.
//!
//! Every table and figure of the WACO paper has a binary in `src/bin/`
//! (`table1` … `table8`, `fig13` … `fig17`); this library provides the
//! common pieces: scale configuration (overridable from the command line),
//! corpus construction, WACO training wrappers, per-matrix evaluation
//! against all baselines, the Table 6 speedup-factor classifier, and text
//! table/plot rendering.
//!
//! All experiments run against the deterministic simulator, so their output
//! is exactly reproducible; `EXPERIMENTS.md` records one run of each next
//! to the paper's numbers.

pub mod eval;
pub mod factors;
pub mod micro;
pub mod render;
pub mod scale;

pub use eval::{evaluate, BaselineTimes};
pub use micro::{Harness, MicroStat};
pub use scale::Scale;

/// Geometric mean of positive values (1.0 when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }
}
