//! Sparse matrix and tensor substrate for WACO-rs.
//!
//! This crate provides the data-level foundation of the workspace:
//!
//! * [`CooMatrix`] / [`CooTensor3`] — coordinate-list sparse matrices and 3-D
//!   tensors, the canonical interchange representation every other crate
//!   consumes.
//! * [`CsrMatrix`] — compressed sparse rows, with reference kernels used to
//!   validate the scheduled interpreter in `waco-exec`.
//! * [`DenseMatrix`] / [`DenseVector`] — dense operands of the four kernels.
//! * [`io`] — Matrix Market (`.mtx`) reading and writing, so real SuiteSparse
//!   matrices can be used when available.
//! * [`gen`] — synthetic sparsity-pattern generators covering the structural
//!   families of the SuiteSparse collection (uniform, banded, blocked,
//!   power-law, Kronecker graphs, meshes).
//! * [`stats`] — summary statistics of a sparsity pattern (inspected by the
//!   CLI, hashed by the serve fingerprint).
//!
//! # Example
//!
//! ```
//! use waco_tensor::{gen, CsrMatrix, DenseVector};
//!
//! let mut rng = waco_tensor::gen::Rng64::seed_from(7);
//! let a = gen::uniform_random(64, 64, 0.05, &mut rng);
//! let csr = CsrMatrix::from_coo(&a);
//! let x = DenseVector::constant(64, 1.0);
//! let y = csr.spmv(&x);
//! assert_eq!(y.len(), 64);
//! ```

pub mod coo;
pub mod csr;
pub mod dense;
pub mod gen;
pub mod io;
pub mod stats;

pub use coo::{CooMatrix, CooTensor3};
pub use csr::CsrMatrix;
pub use dense::{DenseMatrix, DenseVector};
pub use stats::MatrixStats;

/// Floating point element type used throughout the workspace.
///
/// The paper evaluates with single precision; we follow it.
pub type Value = f32;

/// Error type for tensor construction and I/O.
#[derive(Debug)]
pub enum TensorError {
    /// A coordinate was outside the declared dimensions.
    CoordOutOfBounds {
        /// The offending coordinate.
        coord: Vec<usize>,
        /// The declared dimensions.
        dims: Vec<usize>,
    },
    /// Dimensions are invalid (e.g. zero-sized where nonzero required).
    InvalidDims(String),
    /// A Matrix Market stream failed to parse.
    Parse {
        /// 1-based line number of the failure.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// An underlying I/O error.
    Io(std::io::Error),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::CoordOutOfBounds { coord, dims } => {
                write!(f, "coordinate {coord:?} out of bounds for dims {dims:?}")
            }
            TensorError::InvalidDims(msg) => write!(f, "invalid dimensions: {msg}"),
            TensorError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            TensorError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for TensorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TensorError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TensorError {
    fn from(e: std::io::Error) -> Self {
        TensorError::Io(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let e = TensorError::InvalidDims("rows must be > 0".into());
        assert!(!format!("{e}").is_empty());
        assert!(!format!("{e:?}").is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
