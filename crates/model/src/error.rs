//! Errors raised below `waco-core` by dataset generation, training
//! configuration, and the model-layer config checks. `waco_core::WacoError`
//! wraps this via `From`, so `?` composes across the crate boundary.

use waco_schedule::Kernel;

/// A model-layer failure: bad corpus, wrong kernel for the entry point, or
/// a configuration value `validate` refused.
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
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyCorpus => write!(f, "empty training corpus"),
            Self::WrongKernel { kernel, expected } => {
                write!(f, "kernel {kernel} is not supported here; use {expected}")
            }
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}
