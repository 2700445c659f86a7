//! Errors raised below `waco-core` by dataset generation, training
//! configuration, the model-layer config checks, and checkpoint loading.
//! `waco_core::WacoError` wraps this via `From`, so `?` composes across the
//! crate boundary.

use waco_schedule::Kernel;

/// A model-layer failure: bad corpus, wrong kernel for the entry point, a
/// configuration value `validate` refused, or a checkpoint `load` refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The training corpus contained no workloads.
    EmptyCorpus,
    /// The entry point does not handle this kernel (e.g. MTTKRP through
    /// the 2-D path).
    WrongKernel {
        /// The kernel that was passed.
        kernel: Kernel,
        /// What to call instead.
        expected: &'static str,
    },
    /// `validate` rejected a configuration value; the message names the
    /// field and the constraint.
    InvalidConfig(String),
    /// A checkpoint is not a cost-model document, or not one of this
    /// model's tensor count.
    Checkpoint(String),
    /// A checkpoint tensor's shape is not this model's.
    ShapeMismatch(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyCorpus => write!(f, "empty training corpus"),
            Self::WrongKernel { kernel, expected } => {
                write!(f, "kernel {kernel} is not supported here; use {expected}")
            }
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Self::Checkpoint(msg) => write!(f, "bad checkpoint: {msg}"),
            Self::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}
