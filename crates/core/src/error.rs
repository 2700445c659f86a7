//! The unified error type of the public WACO API.
//!
//! Every fallible entry point in `waco-core` returns
//! `Result<_, WacoError>`. Lower crates keep their own lightweight error
//! types (`waco_model::ModelError`, `waco_sparseconv::ConfigError`,
//! `waco_sim::SimError`); the `From` impls here let `?` lift all of them,
//! so callers match on one enum and `waco-cli` can map any failure to a
//! one-line message and exit code 2.

use waco_model::ModelError;
use waco_schedule::Kernel;
use waco_sim::SimError;

/// An error from the WACO tuning pipeline.
#[derive(Debug)]
pub enum WacoError {
    /// An I/O operation failed; `context` names what was being done
    /// (e.g. the checkpoint path).
    Io {
        /// What was being read or written.
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A checkpoint did not parse as a WACO model.
    Checkpoint(String),
    /// A checkpoint parsed but its tensor shapes do not match this model's
    /// architecture.
    ShapeMismatch(String),
    /// A schedule is invalid for its space.
    InvalidSchedule(String),
    /// A configuration value was rejected: by a config's `validate`, which
    /// `Waco::train` runs first, or by a serving builder.
    InvalidConfig(String),
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
    /// Tuning found no feasible candidate: not even the fallback default
    /// format could be simulated for this workload.
    Infeasible(String),
    /// The machine simulator rejected a measurement.
    Sim(SimError),
    /// A `waco-verify` run completed and found failures.
    VerificationFailed {
        /// How many checks failed.
        failures: usize,
        /// Where the full report was written.
        report: String,
    },
}

impl std::fmt::Display for WacoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { context, source } => write!(f, "{context}: {source}"),
            Self::Checkpoint(msg) => write!(f, "bad checkpoint: {msg}"),
            Self::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            Self::InvalidSchedule(msg) => write!(f, "invalid schedule: {msg}"),
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Self::EmptyCorpus => write!(f, "empty training corpus"),
            Self::WrongOrder { kernel, order } => write!(
                f,
                "kernel {kernel} takes an order-{} sparse operand, not order {order}",
                kernel.sparse_ndims()
            ),
            Self::Infeasible(msg) => write!(f, "no feasible schedule: {msg}"),
            Self::Sim(e) => write!(f, "simulation failed: {e}"),
            Self::VerificationFailed { failures, report } => write!(
                f,
                "verification found {failures} failure(s); full detail in {report}"
            ),
        }
    }
}

impl std::error::Error for WacoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl WacoError {
    /// Wraps an I/O error with what was being attempted.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Self::Io {
            context: context.into(),
            source,
        }
    }
}

impl From<SimError> for WacoError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

impl From<ModelError> for WacoError {
    fn from(e: ModelError) -> Self {
        match e {
            ModelError::EmptyCorpus => Self::EmptyCorpus,
            ModelError::WrongOrder { kernel, order } => Self::WrongOrder { kernel, order },
            ModelError::InvalidConfig(msg) => Self::InvalidConfig(msg),
            ModelError::Checkpoint(msg) => Self::Checkpoint(msg),
            ModelError::ShapeMismatch(msg) => Self::ShapeMismatch(msg),
        }
    }
}

impl From<waco_sparseconv::ConfigError> for WacoError {
    fn from(e: waco_sparseconv::ConfigError) -> Self {
        Self::InvalidConfig(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_line() {
        let cases: Vec<WacoError> = vec![
            WacoError::io("reading matrix foo.smtx", std::io::Error::other("boom")),
            WacoError::Checkpoint("bad header".into()),
            WacoError::ShapeMismatch("checkpoint tensor shape mismatch".into()),
            WacoError::InvalidSchedule("split size 0".into()),
            WacoError::InvalidConfig("train.epochs must be at least 1".into()),
            WacoError::EmptyCorpus,
            WacoError::WrongOrder {
                kernel: Kernel::MTTKRP,
                order: 2,
            },
            WacoError::Infeasible("work limit 0".into()),
            WacoError::Sim(SimError::TooExpensive {
                estimate: 1.0,
                limit: 0.5,
            }),
            WacoError::VerificationFailed {
                failures: 3,
                report: "results/verify_report.json".into(),
            },
        ];
        for e in cases {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.contains('\n'), "one-line messages only: {msg:?}");
        }
    }
}
