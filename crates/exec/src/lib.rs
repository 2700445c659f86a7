//! Scheduled execution of sparse tensor kernels — the TACO-codegen stand-in.
//!
//! The WACO paper relies on TACO to *generate C code* for any point of the
//! SuperSchedule space. This crate provides the equivalent mechanism in two
//! layers. A **lowering layer** ([`plan`]) compiles a validated
//! `(SuperSchedule, Space, FormatSpec)` triple once into a flat
//! [`plan::ExecutionPlan`] IR — pre-resolved loop ops with split strides,
//! axis bindings, and per-level locate strategies — committing at build time
//! to the decisions TACO commits to at codegen time:
//!
//! * a loop variable whose axis is the *next unresolved level* of the sparse
//!   operand's hierarchy iterates the stored level directly (**concordant**
//!   traversal — what makes CSR SpMV linear in nnz);
//! * any other sparse-axis loop iterates its full dense range and recovers
//!   the storage position later by per-level **locate** (binary search on
//!   compressed levels) — the "inefficient traversal routine" the paper
//!   ascribes to discordant loop orders (§3.1);
//! * `parallelize(var, threads, chunk)` hoists the variable outermost and
//!   distributes ranges of it dynamically over real threads, after
//!   `#pragma omp parallel for schedule(dynamic, chunk)`; the variable is
//!   never a reduction dimension, so all threads write one output in place
//!   (see [`parallel`]).
//!
//! An **execution layer** then runs the plan over any operand stored in its
//! spec ([`waco_format::SparseStorage`]), with one engine: the generic op
//! executor ([`plan::ExecutionPlan::walk`]; the SDDMM body takes each
//! innermost `k` loop from it whole) for any plan, and a
//! **specialization tier** for the hot CSR-family shapes. The tier is a
//! table ([`TIER`]): each row maps a (kernel, [`plan::FastPath`]) pair to a
//! *row source* × *leaf* — Chou et al.'s composition of per-level iterate
//! capabilities rather than a hand-written loop per format. Two row sources
//! (CSR over `pos/crd/vals`, reused over the discordant transpose
//! permutation that prepare builds and the [`PlannedKernel`] owns; BCSR
//! with its block layout and edge clamp) each deliver a
//! row's `(k, v)` in storage order with the exact-zero skip; five leaves
//! (SpMV dot, SpMV column scatter, SpMM register tile, Gustavson
//! scatter/gather over the pooled dense temporary declared by the plan's
//! `Workspace` op, fused SDDMM+SpMM) are written once, generic over the
//! source, so accumulation order is identical across rows by construction.
//! One private predicate in [`plan`], a function of the lowered shape alone,
//! picks a variant (and says why, [`plan::ExecutionPlan::fast_path_reason`]),
//! and every name a variant goes by is one row of a descriptor table
//! ([`plan::FastPath::names`]).
//!
//! The dynamic reference interpreter ([`nest::LoopNest`]), which re-derives
//! every traversal decision per walk, is not an engine a caller can select:
//! it is reachable only as the plain function [`oracle::run`], which
//! `waco-verify` and the `*_interp` microbenches call to hold every plan
//! and every tier row to bit identity.
//!
//! The public entry is the [`Executor`] API: [`Executor::prepare`] lowers
//! and converts once, and [`PlannedKernel::run`] executes the four kernels of
//! the paper (SpMV, SpMM, SDDMM, MTTKRP) plus the two workspace kernels
//! (SpGEMM, fused SDDMM+SpMM) against typed [`KernelArgs`]. Both walkers
//! power the deterministic cost simulator in `waco-sim` through the
//! [`nest::Instrument`] hook with identical event streams, so simulated and
//! executed behavior can never drift apart. The serve layer's tuner lowers
//! each winning schedule once more into a plan cache keyed by matrix
//! fingerprint + schedule; no protocol op reads that cache, and a server
//! answers with decisions, never with plans it ran.
//!
//! # Example
//!
//! ```
//! use waco_exec::{Executor, KernelArgs};
//! use waco_schedule::{named, Kernel, Space};
//! use waco_tensor::{gen, CsrMatrix, DenseVector};
//!
//! let mut rng = gen::Rng64::seed_from(1);
//! let a = gen::uniform_random(32, 32, 0.1, &mut rng);
//! let space = Space::new(Kernel::SpMV, vec![32, 32], 0);
//! let sched = named::default_csr(&space);
//! let x = DenseVector::from_fn(32, |i| i as f32);
//!
//! let planned = Executor::planned().prepare(&a, &sched, &space)?;
//! let y = planned.run(KernelArgs::Spmv { x: &x })?.into_vector()?;
//! let reference = CsrMatrix::from_coo(&a).spmv(&x);
//! assert!(y.max_abs_diff(&reference) < 1e-3);
//! # Ok::<(), waco_exec::ExecError>(())
//! ```

pub mod asym;
pub mod executor;
mod kernels;
pub mod nest;
pub mod oracle;
pub mod parallel;
pub mod plan;
pub(crate) mod workspace;

pub use asym::{AsymptoticBound, AsymptoticProfile, OpBound};
pub use executor::{Executor, KernelArgs, KernelOutput, PlannedKernel};
pub use kernels::TIER;
pub use nest::{Ctx, Instrument, LoopNest, NoInstrument, UnitEvents};
pub use plan::{ExecutionPlan, FastPath, FastPathNames, LocateKind, PlanOp};

/// Errors from scheduled execution.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// The schedule failed validation against its space.
    Schedule(waco_schedule::ScheduleError),
    /// Building the sparse operand's storage failed (e.g. over budget).
    Format(waco_format::FormatError),
    /// Operand dimensions do not match the space.
    OperandMismatch(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Schedule(e) => write!(f, "schedule error: {e}"),
            ExecError::Format(e) => write!(f, "format error: {e}"),
            ExecError::OperandMismatch(msg) => write!(f, "operand mismatch: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Schedule(e) => Some(e),
            ExecError::Format(e) => Some(e),
            ExecError::OperandMismatch(_) => None,
        }
    }
}

impl From<waco_schedule::ScheduleError> for ExecError {
    fn from(e: waco_schedule::ScheduleError) -> Self {
        ExecError::Schedule(e)
    }
}

impl From<waco_format::FormatError> for ExecError {
    fn from(e: waco_format::FormatError) -> Self {
        ExecError::Format(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ExecError>;
