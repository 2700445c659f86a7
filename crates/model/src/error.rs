//! Errors raised below `waco-core` by dataset generation, training
//! configuration, the model-layer config checks, and checkpoint loading.
//! `waco_core::WacoError` wraps this via `From`, so `?` composes across the
//! crate boundary.

use waco_schedule::Kernel;

/// A model-layer failure: bad corpus, a workspace kernel, an operand of the
/// wrong order for the kernel, a configuration value `validate` refused, or a
/// checkpoint `load` refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The training corpus contained no workloads.
    EmptyCorpus,
    /// The kernel does not take a sparse operand of this order (e.g. MTTKRP
    /// over a matrix).
    WrongOrder {
        /// The kernel that was passed.
        kernel: Kernel,
        /// The order of the operand that was passed.
        order: usize,
    },
    /// A workspace kernel: executor-only, neither priced nor tuned.
    ExecutorOnly(Kernel),
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
            Self::WrongOrder { kernel, order } => write!(
                f,
                "kernel {kernel} takes an order-{} sparse operand, not order {order}",
                kernel.sparse_ndims()
            ),
            Self::ExecutorOnly(k) => write!(f, "{k} is executor-only: neither priced nor tuned"),
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Self::Checkpoint(msg) => write!(f, "bad checkpoint: {msg}"),
            Self::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}
