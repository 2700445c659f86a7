//! Submanifold sparse convolutional networks — WACONet and its ablations.
//!
//! This crate is the MinkowskiEngine substitute: it implements **submanifold
//! sparse convolution** (Graham & van der Maaten, 2017) from scratch on CPU,
//! with strides, for 2-D and 3-D coordinate sets. Activations are sorted
//! coordinate lists with no index beside them: each layer walks its output
//! sites once, cursors that only move forward over the input list finding
//! each site's neighbours, and adds their products as it finds them;
//! training also records the `(out_row, tap, in_row)` pairs (see [`conv`]).
//! On top sit the four sparsity pattern feature extractors compared in
//! Figure 15 of the WACO paper:
//!
//! * [`waconet::WacoNet`] — the paper's extractor: one 5×5 stride-1
//!   submanifold layer, then a stack of 3×3 stride-2 layers whose global
//!   average poolings are all concatenated (receptive field doubles per
//!   layer, which is what lets distant non-zeros communicate — Figure 8);
//! * [`baselines::MinkowskiLike`] — stride-1 submanifold stack (limited
//!   receptive-field growth);
//! * [`baselines::DenseConvNet`] — a conventional CNN over a downsampled
//!   pattern (information loss by construction — Figure 5);
//! * [`baselines::HumanFeature`] — an MLP over `(#rows, #cols, #nnz)`.
//!
//! All extractors implement [`Extractor`] so the cost model in `waco-model`
//! can swap them (the Figure 15 ablation harness does exactly that).
//!
//! # Example
//!
//! ```
//! use waco_sparseconv::{waconet::{WacoNet, WacoNetConfig}, Extractor, Pattern};
//! use waco_tensor::gen::{self, Rng64};
//!
//! let mut rng = Rng64::seed_from(1);
//! let m = gen::uniform_random(64, 64, 0.05, &mut rng);
//! let mut net = WacoNet::new_2d(WacoNetConfig::tiny(), &mut rng);
//! let feat = net.forward(&Pattern::from_matrix(&m));
//! assert_eq!(feat.len(), net.dim());
//! ```

pub mod bands;
pub mod baselines;
pub mod conv;
pub mod grid;
pub mod waconet;

pub use bands::{Band, BandOut, Bands};
pub use grid::{Pattern, SparseTensorD};
pub use waco_nn::Param;
pub use waconet::ConfigError;

/// A sparsity-pattern feature extractor with a trainable backward pass.
///
/// `forward` caches activations; `backward` must be called with the gradient
/// of the most recent `forward`'s output. Batch size is one pattern (the
/// cost model reuses one extracted feature across a whole batch of
/// SuperSchedules, like the paper's search-time breakdown assumes).
///
/// `Send + Sync` so a trained model can be shared across the `waco-runtime`
/// pool during batched candidate evaluation (inference is `&self`-only).
pub trait Extractor: Send + Sync {
    /// Extractor name (appears in the Figure 15 ablation output).
    fn name(&self) -> &'static str;

    /// Output feature width.
    fn dim(&self) -> usize;

    /// Extracts the feature vector of a pattern, caching for backward.
    fn forward(&mut self, p: &Pattern) -> Vec<f32>;

    /// The feature `forward` extracts, bit for bit, recording nothing for
    /// `backward` (which pairs with the last `forward`, not with this): the
    /// cost model's query path. The default runs `forward`; the sparse-CNN
    /// extractors run an inference pass that keeps no activations.
    fn infer(&mut self, p: &Pattern) -> Vec<f32> {
        self.forward(p)
    }

    /// `infer`'s pass cut into two bands that two threads can run at once
    /// (see [`bands`]); extractors with no banded form extract here and
    /// leave the bands nothing to do.
    fn bands(&self, p: &Pattern) -> Bands<'_>;

    /// Backpropagates the feature gradient into parameter gradients.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`.
    fn backward(&mut self, grad: &[f32]);

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self);

    /// Mutable access to all parameters (for the optimizer).
    fn params_mut(&mut self) -> Vec<&mut Param>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_tensor::gen::{self, Rng64};

    /// Every extractor must produce finite features and accept gradients.
    #[test]
    fn all_extractors_roundtrip() {
        let mut rng = Rng64::seed_from(2);
        let m = gen::blocked(48, 48, 4, 12, 0.9, &mut rng);
        let p = Pattern::from_matrix(&m);
        let mut extractors: Vec<Box<dyn Extractor>> = vec![
            Box::new(waconet::WacoNet::new_2d(
                waconet::WacoNetConfig::tiny(),
                &mut rng,
            )),
            Box::new(baselines::MinkowskiLike::new(8, 3, 16, &mut rng)),
            Box::new(baselines::DenseConvNet::new(16, 8, 16, &mut rng)),
            Box::new(baselines::HumanFeature::new(16, &mut rng)),
        ];
        for e in &mut extractors {
            let inferred = e.infer(&p);
            let f = e.forward(&p);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&inferred), bits(&f), "{}: infer is forward", e.name());
            let bands = e.bands(&p);
            let (upper, lower) = (bands.run(Band::Upper), bands.run(Band::Lower));
            let banded = bands.merge(&lower, &upper);
            assert_eq!(
                bits(&banded),
                bits(&f),
                "{}: the bands are forward",
                e.name()
            );
            assert_eq!(f.len(), e.dim(), "{}", e.name());
            assert!(f.iter().all(|v| v.is_finite()), "{}", e.name());
            e.zero_grad();
            let g = vec![0.1f32; f.len()];
            e.backward(&g);
            let has_grad = e.params_mut().iter().any(|pr| pr.grad.max_abs() > 0.0);
            assert!(has_grad, "{} produced no gradient", e.name());
        }
    }
}
