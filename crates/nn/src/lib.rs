//! A minimal from-scratch neural-network framework — the PyTorch substitute.
//!
//! WACO's cost model is a PyTorch network trained with Adam and a pairwise
//! hinge ranking loss. This crate provides exactly the pieces that model
//! needs, implemented from first principles on the CPU:
//!
//! * [`Mat`] — a row-major `f32` matrix with the BLAS-ish kernels backprop
//!   needs (`A·B`, `Aᵀ·B`, `A·Bᵀ`).
//! * [`layers`] — [`layers::Linear`], [`layers::Relu`], [`layers::Mlp`], and
//!   [`layers::Embedding`] (the learnable lookup tables of the program
//!   embedder), each with a hand-written backward pass.
//! * [`adam::Adam`] — the optimizer of the paper (§4.1.3, lr `1e-4`).
//! * [`loss`] — the pairwise hinge ranking loss of §4.1.3 (the model learns
//!   the *ranking* of SuperSchedules, not absolute runtimes).
//!
//! Every backward pass is validated against finite differences in the test
//! suite.
//!
//! # Example
//!
//! ```
//! use waco_nn::layers::Mlp;
//! use waco_nn::{adam::Adam, Mat};
//! use waco_tensor::gen::Rng64;
//!
//! let mut rng = Rng64::seed_from(0);
//! let mut net = Mlp::new(&[4, 16, 1], false, &mut rng);
//! let mut opt = Adam::new(1e-2);
//! let x = Mat::from_fn(8, 4, |r, c| (r * c) as f32 / 8.0);
//! // Teach the net to output the sum of inputs.
//! for _ in 0..200 {
//!     let y = net.forward(&x);
//!     let target: Vec<f32> = (0..8).map(|r| x.row(r).iter().sum()).collect();
//!     let grad = Mat::from_fn(8, 1, |r, _| 2.0 * (y.get(r, 0) - target[r]) / 8.0);
//!     net.zero_grad();
//!     net.backward(&grad);
//!     opt.step(&mut net.params_mut());
//! }
//! ```

pub mod adam;
pub mod layers;
pub mod loss;
pub mod mat;

pub use adam::Adam;
pub use layers::Param;
pub use mat::Mat;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_surface_is_usable() {
        // The crate-level doctest exercises training; this anchors the
        // re-exports.
        let m = Mat::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
    }
}
