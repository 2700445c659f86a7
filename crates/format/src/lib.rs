//! TACO-style format abstraction for sparse tensors.
//!
//! This crate reimplements the part of the TACO compiler stack that WACO's
//! search space is built on (Chou et al., *Format abstraction for sparse
//! tensor algebra compilers*, OOPSLA 2018):
//!
//! * A sparse tensor is viewed as a **coordinate hierarchy** — a tree whose
//!   levels each store one (possibly *split*) index variable.
//! * Each level uses a **level format**: [`LevelFormat::Uncompressed`] (`U`,
//!   a dense interval `[0, N)`) or [`LevelFormat::Compressed`] (`C`, explicit
//!   `pos`/`crd` arrays).
//! * **Level splitting** divides an original dimension `i` of extent `N` into
//!   an outer axis `i1 = i / s` (extent `⌈N/s⌉`) and an inner axis
//!   `i0 = i % s` (extent `s`).
//! * **Level reordering** stores the axes in any permutation.
//!
//! The combination reproduces all the classic formats: CSR is
//! `[i1(U), k1(C)]` with unit splits, BCSR is `[i1(U), k1(C), i0(U), k0(U)]`
//! with block-sized splits, CSF is all-compressed, row-major vs column-major
//! is the order of the row/column axes, and so on (Figure 3 of the WACO
//! paper).
//!
//! [`FormatSpec`] describes a format; [`SparseStorage`] is a tensor stored in
//! one. Storage supports the two access capabilities the scheduled
//! interpreter in `waco-exec` needs: **iterate** (walk the stored children of
//! a position — cheap, "concordant") and **locate** (find a coordinate under
//! a position — `O(1)` for `U`, binary search for `C`, the "discordant"
//! path).
//!
//! # Example: CSR and BCSR
//!
//! ```
//! use waco_format::{FormatSpec, SparseStorage};
//! use waco_tensor::CooMatrix;
//!
//! let m = CooMatrix::from_triplets(4, 4, vec![(0, 1, 2.0), (2, 3, 4.0)]).unwrap();
//! let csr = FormatSpec::csr(4, 4);
//! let stored = SparseStorage::from_matrix(&m, &csr)?;
//! assert_eq!(stored.to_matrix(), m);
//!
//! let bcsr = FormatSpec::bcsr(4, 4, 2, 2);
//! let blocked = SparseStorage::from_matrix(&m, &bcsr)?;
//! assert_eq!(blocked.to_matrix(), m); // padding zeros are dropped on readback
//! # Ok::<(), waco_format::FormatError>(())
//! ```

pub mod build;
pub mod level;
pub mod spec;
pub mod storage;

pub use level::{LevelFormat, LevelStorage};
pub use spec::{Axis, AxisPart, FormatSpec};
pub use storage::SparseStorage;

/// Errors from format validation and storage construction.
#[derive(Debug, Clone)]
pub enum FormatError {
    /// The level order is not a permutation of the tensor's axes.
    InvalidOrder(String),
    /// A split size or dimension is invalid.
    InvalidSpec(String),
    /// Building this storage would exceed the configured size budget.
    StorageTooLarge {
        /// Estimated number of storage words required.
        estimated: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The input tensor does not match the spec's dimensions.
    DimMismatch {
        /// Dimensions declared by the spec.
        spec_dims: Vec<usize>,
        /// Dimensions of the supplied tensor.
        tensor_dims: Vec<usize>,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::InvalidOrder(msg) => write!(f, "invalid level order: {msg}"),
            FormatError::InvalidSpec(msg) => write!(f, "invalid format spec: {msg}"),
            FormatError::StorageTooLarge { estimated, budget } => {
                write!(
                    f,
                    "storage would need ~{estimated} words, budget is {budget}"
                )
            }
            FormatError::DimMismatch {
                spec_dims,
                tensor_dims,
            } => {
                write!(
                    f,
                    "spec dims {spec_dims:?} do not match tensor dims {tensor_dims:?}"
                )
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, FormatError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = FormatError::StorageTooLarge {
            estimated: 10,
            budget: 5,
        };
        assert!(format!("{e}").contains("10"));
    }
}
