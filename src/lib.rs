//! **WACO-rs** — a from-scratch Rust reproduction of *WACO: Learning
//! Workload-Aware Co-optimization of the Format and Schedule of a Sparse
//! Tensor Program* (Won, Mendis, Emer, Amarasinghe — ASPLOS 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `waco-tensor` | sparse matrices/tensors, generators, Matrix Market I/O |
//! | [`format`](mod@format) | `waco-format` | TACO format abstraction (coordinate hierarchies, U/C levels) |
//! | [`schedule`] | `waco-schedule` | the SuperSchedule template and its NN encoding |
//! | [`exec`] | `waco-exec` | the co-iteration interpreter (TACO codegen stand-in) |
//! | [`sim`] | `waco-sim` | the deterministic machine-model simulator (testbed stand-in) |
//! | [`nn`] | `waco-nn` | from-scratch NN framework (Adam, ranking loss) |
//! | [`sparseconv`] | `waco-sparseconv` | submanifold sparse CNNs: WACONet + ablations |
//! | [`model`] | `waco-model` | the cost model, dataset generation, training |
//! | [`anns`] | `waco-anns` | HNSW ANNS + black-box tuner baselines |
//! | [`baselines`] | `waco-baselines` | MKL-like, BestFormat, FixedCSR, ASpT-like |
//! | [`core`] | `waco-core` | the end-to-end WACO pipeline |
//! | [`obs`] | `waco-obs` | structured observability: spans, counters, histograms |
//!
//! # Quickstart
//!
//! ```
//! use waco::prelude::*;
//!
//! // 1. A training corpus of synthetic sparsity patterns.
//! let corpus = waco::tensor::gen::corpus(4, 24, 1);
//!
//! // 2. Train a WACO tuner for SpMV on the simulated Xeon.
//! let sim = Simulator::new(MachineConfig::xeon_like());
//! let (mut waco, _curves) =
//!     Waco::train(sim, Kernel::SpMV, &corpus, 0, WacoConfig::tiny()).unwrap();
//!
//! // 3. Tune a new matrix: co-optimized format + schedule.
//! let tuned = waco.tune(&corpus[0].1).unwrap();
//! assert!(tuned.result.kernel_seconds > 0.0);
//! ```

pub use waco_anns as anns;
pub use waco_baselines as baselines;
pub use waco_core as core;
pub use waco_exec as exec;
pub use waco_format as format;
pub use waco_model as model;
pub use waco_nn as nn;
pub use waco_obs as obs;
pub use waco_runtime as runtime;
pub use waco_schedule as schedule;
pub use waco_serve as serve;
pub use waco_sim as sim;
pub use waco_sparseconv as sparseconv;
pub use waco_tensor as tensor;
pub use waco_verify as verify;

/// The most commonly used items in one import.
pub mod prelude {
    pub use waco_core::{Waco, WacoConfig, WacoError, WacoTuned};
    pub use waco_exec::{ExecutionPlan, Executor, KernelArgs, KernelOutput, PlannedKernel};
    pub use waco_format::{FormatSpec, LevelFormat, SparseStorage};
    pub use waco_schedule::{Kernel, Space, SuperSchedule};
    pub use waco_sim::{MachineConfig, SimReport, Simulator};
    pub use waco_sparseconv::Pattern;
    pub use waco_tensor::gen::Rng64;
    pub use waco_tensor::{CooMatrix, CooTensor3, CsrMatrix, DenseMatrix, DenseVector};
}
