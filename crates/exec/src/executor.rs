//! The unified kernel execution surface: prepare once, run many times.
//!
//! [`Executor::prepare`] lowers a `(SuperSchedule, Space)` pair into an
//! [`ExecutionPlan`] and stores the sparse operand in the plan's spec (plus
//! any layout its run derives from it) — the paper's `T_formatconvert`
//! half; [`PlannedKernel::run`] then executes it
//! against typed dense operands — the `T_tunedkernel` half — as often as
//! needed. `run` has exactly one engine: validate, count the plan's
//! [`crate::FastPath`], then the tier row for the plan's (kernel, variant)
//! pair or the generic body over the plan's flat-op walker (see
//! `kernels.rs`). The dynamic [`crate::LoopNest`] interpreter the tier is
//! differentially tested against is not selectable here; it is the plain
//! function [`crate::oracle::run`].
//!
//! ```
//! use waco_exec::{Executor, KernelArgs};
//! use waco_schedule::{named, Kernel, Space};
//! use waco_tensor::{gen, DenseVector};
//!
//! let mut rng = gen::Rng64::seed_from(1);
//! let a = gen::uniform_random(32, 32, 0.1, &mut rng);
//! let space = Space::new(Kernel::SpMV, vec![32, 32], 0);
//! let sched = named::default_csr(&space);
//!
//! let planned = Executor::planned().prepare(&a, &sched, &space).unwrap();
//! let x = DenseVector::from_fn(32, |i| i as f32);
//! let y = planned
//!     .run(KernelArgs::Spmv { x: &x })
//!     .unwrap()
//!     .into_vector()
//!     .unwrap();
//! assert_eq!(y.len(), 32);
//!
//! // The reference interpreter, for differential checks only:
//! let oracle = waco_exec::oracle::run(&planned, KernelArgs::Spmv { x: &x })
//!     .unwrap()
//!     .into_vector()
//!     .unwrap();
//! assert_eq!(y, oracle);
//! ```

use crate::kernels::{self, Walk};
use crate::nest::{Ctx, NoInstrument};
use crate::plan::{ExecutionPlan, RunBody};
use crate::{ExecError, Result};
use waco_format::SparseStorage;
use waco_schedule::{Kernel, Space, SuperSchedule};
use waco_tensor::{CooMatrix, CooTensor3, CsrMatrix, DenseMatrix, DenseVector, Value};

/// Builds [`PlannedKernel`]s: lowering, fast-path selection, and format
/// conversion, all up front (the `T_formatconvert` vs `T_tunedkernel` split
/// of §5.6: build once, run the plan many times).
#[derive(Debug, Clone, Copy, Default)]
pub struct Executor;

fn dims_mismatch(what: &str, got: &[usize], plan: &ExecutionPlan) -> ExecError {
    ExecError::OperandMismatch(format!(
        "{what} dims {got:?}, space expects {:?}",
        plan.sparse_dims()
    ))
}

impl Executor {
    /// The executor: a stateless builder with one engine behind it.
    pub const fn planned() -> Self {
        Executor
    }

    /// Lowers `sched` and stores the matrix operand `a` in the plan's spec.
    ///
    /// # Errors
    ///
    /// Schedule validation, storage budget, and operand-shape errors.
    pub fn prepare(
        &self,
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
    ) -> Result<PlannedKernel> {
        let plan = ExecutionPlan::build(sched, space)?;
        if plan.sparse_dims() != [a.nrows(), a.ncols()] {
            return Err(dims_mismatch("matrix", &[a.nrows(), a.ncols()], &plan));
        }
        let st = SparseStorage::from_matrix(a, plan.spec())?;
        Ok(PlannedKernel::new(plan, st))
    }

    /// Lowers `sched` and stores the 3-D tensor operand `a` in the plan's
    /// spec.
    ///
    /// # Errors
    ///
    /// Schedule validation, storage budget, and operand-shape errors.
    pub fn prepare_tensor3(
        &self,
        a: &CooTensor3,
        sched: &SuperSchedule,
        space: &Space,
    ) -> Result<PlannedKernel> {
        let plan = ExecutionPlan::build(sched, space)?;
        if plan.sparse_dims() != a.dims() {
            return Err(dims_mismatch("tensor", &a.dims(), &plan));
        }
        let st = SparseStorage::from_tensor3(a, plan.spec())?;
        Ok(PlannedKernel::new(plan, st))
    }

    /// Wraps a plan and storage that were built elsewhere into a runnable
    /// kernel, for a caller that lowers and converts in steps of its own:
    /// `examples/format_explorer.rs` hands the same storage to the
    /// simulator, the `kernel_exec` benchmark times the two steps apart.
    ///
    /// # Errors
    ///
    /// [`ExecError::OperandMismatch`] when `st` is not stored in `plan`'s
    /// format spec.
    pub fn prepare_stored(&self, plan: ExecutionPlan, st: SparseStorage) -> Result<PlannedKernel> {
        kernels::check_storage(&plan, &st)?;
        Ok(PlannedKernel::new(plan, st))
    }
}

/// Typed dense operands for one kernel invocation. The variant must match
/// the prepared plan's kernel.
#[derive(Debug, Clone, Copy)]
pub enum KernelArgs<'a> {
    /// SpMV: `y = A x`.
    Spmv {
        /// The dense vector, length `ncols`.
        x: &'a DenseVector,
    },
    /// SpMM: `C = A B`.
    Spmm {
        /// The dense operand, `ncols × |j|` row-major.
        b: &'a DenseMatrix,
    },
    /// SDDMM: `D = A ∘ (B C)`.
    Sddmm {
        /// `nrows × |k|`.
        b: &'a DenseMatrix,
        /// `|k| × ncols`.
        c: &'a DenseMatrix,
    },
    /// MTTKRP: `D[i,j] = Σ A[i,k,l] B[k,j] C[l,j]`.
    Mttkrp {
        /// `|k| × rank`.
        b: &'a DenseMatrix,
        /// `|l| × rank`.
        c: &'a DenseMatrix,
    },
    /// SpGEMM: `C = A B` with both operands sparse (workspace kernel).
    Spgemm {
        /// The sparse operand, `ncols × |j|` CSR.
        b: &'a CsrMatrix,
    },
    /// Fused SDDMM+SpMM: `E = (A ∘ (B C)) F` (workspace kernel).
    SddmmSpmm {
        /// `nrows × |k|`.
        b: &'a DenseMatrix,
        /// `|k| × ncols`.
        c: &'a DenseMatrix,
        /// `ncols × t` — the SpMM operand; `t` is free (taken from `F`).
        f: &'a DenseMatrix,
    },
}

impl KernelArgs<'_> {
    /// The kernel these arguments belong to.
    pub fn kernel(&self) -> Kernel {
        match self {
            KernelArgs::Spmv { .. } => Kernel::SpMV,
            KernelArgs::Spmm { .. } => Kernel::SpMM,
            KernelArgs::Sddmm { .. } => Kernel::SDDMM,
            KernelArgs::Mttkrp { .. } => Kernel::MTTKRP,
            KernelArgs::Spgemm { .. } => Kernel::SpGEMM,
            KernelArgs::SddmmSpmm { .. } => Kernel::SddmmSpmm,
        }
    }
}

/// Typed result of one kernel invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelOutput {
    /// SpMV's `y`.
    Vector(DenseVector),
    /// SpMM's `C` / MTTKRP's `D`.
    Matrix(DenseMatrix),
    /// SDDMM's `D` (the sparse operand's pattern).
    Sparse(CooMatrix),
    /// SpGEMM's `C` (compacted per-row into CSR).
    Csr(CsrMatrix),
}

impl KernelOutput {
    /// Unwraps [`KernelOutput::Vector`].
    ///
    /// # Errors
    ///
    /// [`ExecError::OperandMismatch`] for any other variant.
    pub fn into_vector(self) -> Result<DenseVector> {
        match self {
            KernelOutput::Vector(v) => Ok(v),
            other => Err(other.mismatch("a dense vector")),
        }
    }

    /// Unwraps [`KernelOutput::Matrix`].
    ///
    /// # Errors
    ///
    /// [`ExecError::OperandMismatch`] for any other variant.
    pub fn into_matrix(self) -> Result<DenseMatrix> {
        match self {
            KernelOutput::Matrix(m) => Ok(m),
            other => Err(other.mismatch("a dense matrix")),
        }
    }

    /// Unwraps [`KernelOutput::Sparse`].
    ///
    /// # Errors
    ///
    /// [`ExecError::OperandMismatch`] for any other variant.
    pub fn into_sparse(self) -> Result<CooMatrix> {
        match self {
            KernelOutput::Sparse(m) => Ok(m),
            other => Err(other.mismatch("a sparse matrix")),
        }
    }

    /// Unwraps [`KernelOutput::Csr`].
    ///
    /// # Errors
    ///
    /// [`ExecError::OperandMismatch`] for any other variant.
    pub fn into_csr(self) -> Result<CsrMatrix> {
        match self {
            KernelOutput::Csr(m) => Ok(m),
            other => Err(other.mismatch("a CSR matrix")),
        }
    }

    /// Where `self` and `other` first differ in variant, sparsity structure
    /// or value **bits**, described as `self` vs `other`; `None` when the
    /// two are bit-identical. The exact comparison two engines running one
    /// plan are held to — no tolerance, `-0.0 != 0.0`, NaN payloads count.
    pub fn bit_mismatch(&self, other: &KernelOutput) -> Option<String> {
        fn values(a: &[Value], b: &[Value]) -> Option<String> {
            if a.len() != b.len() {
                return Some(format!("output lengths differ: {} vs {}", a.len(), b.len()));
            }
            let idx = (0..a.len()).find(|&i| a[i].to_bits() != b[i].to_bits())?;
            Some(format!(
                "output values differ at flat index {idx}: {} vs {}",
                a[idx], b[idx]
            ))
        }
        match (self, other) {
            (KernelOutput::Vector(a), KernelOutput::Vector(b)) => {
                values(a.as_slice(), b.as_slice())
            }
            (KernelOutput::Matrix(a), KernelOutput::Matrix(b)) => {
                values(a.as_slice(), b.as_slice())
            }
            (KernelOutput::Sparse(a), KernelOutput::Sparse(b)) => {
                let at = a
                    .iter()
                    .zip(b.iter())
                    .position(|(x, y)| (x.0, x.1, x.2.to_bits()) != (y.0, y.1, y.2.to_bits()));
                match at {
                    Some(idx) => Some(format!(
                        "sparse outputs differ at entry {idx}: {:?} vs {:?}",
                        a.entries()[idx],
                        b.entries()[idx]
                    )),
                    None if a.nnz() != b.nnz() => {
                        Some(format!("output nnz differ: {} vs {}", a.nnz(), b.nnz()))
                    }
                    None => None,
                }
            }
            (KernelOutput::Csr(a), KernelOutput::Csr(b)) => {
                if a.row_ptr() != b.row_ptr() || a.col_idx() != b.col_idx() {
                    return Some(format!(
                        "output CSR structures differ: {} vs {} nnz",
                        a.col_idx().len(),
                        b.col_idx().len()
                    ));
                }
                values(a.vals(), b.vals())
            }
            _ => Some("outputs are different variants".to_string()),
        }
    }

    fn mismatch(&self, wanted: &str) -> ExecError {
        let got = match self {
            KernelOutput::Vector(_) => "a dense vector",
            KernelOutput::Matrix(_) => "a dense matrix",
            KernelOutput::Sparse(_) => "a sparse matrix",
            KernelOutput::Csr(_) => "a CSR matrix",
        };
        ExecError::OperandMismatch(format!("kernel output is {got}, not {wanted}"))
    }
}

/// A lowered plan plus the converted sparse operand: the reusable half of a
/// kernel. Build one with [`Executor::prepare`] (or
/// [`Executor::prepare_stored`]), then [`PlannedKernel::run`] it against
/// any number of dense operands.
#[derive(Debug, Clone)]
pub struct PlannedKernel {
    plan: ExecutionPlan,
    st: SparseStorage,
    /// What the plan's run derives from `st` once instead of per run
    /// (`DiscordantCsr`'s transpose permutation, the generic SDDMM body's
    /// row-major slot order); `None` for every other plan.
    derived: Option<kernels::Derived>,
}

impl PlannedKernel {
    /// Every constructor's last step: the plan's derived storage is built
    /// here, next to the format conversion.
    fn new(plan: ExecutionPlan, st: SparseStorage) -> Self {
        let derived = kernels::derive(&plan, &st);
        PlannedKernel { plan, st, derived }
    }

    /// The lowered plan (fast-path variant, op sequence, format spec).
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The sparse operand, stored in the plan's format spec.
    pub fn storage(&self) -> &SparseStorage {
        &self.st
    }

    /// The kernel this plan executes.
    pub fn kernel(&self) -> Kernel {
        self.plan.kernel()
    }

    /// Runs the kernel. `exec.plan.fastpath.*` counts the plan's variant
    /// once per run that passed validation — a rejected call ran nothing.
    ///
    /// # Errors
    ///
    /// [`ExecError::OperandMismatch`] when `args` names a different kernel
    /// than the plan, or the dense operand shapes disagree with the space.
    pub fn run(&self, args: KernelArgs<'_>) -> Result<KernelOutput> {
        kernels::validate(&self.plan, &self.st, &args)?;
        let fast = self.plan.fast_path();
        if waco_obs::enabled() {
            waco_obs::counter(fast.names().exec_counter, 1);
        }
        let (plan, st, derived) = (&self.plan, &self.st, self.derived.as_ref());
        Ok(kernels::run(plan, st, args, self, fast, derived))
    }
}

/// The serving engine of the generic kernel bodies: the plan's flat-op
/// walker, uninstrumented, handing a body that takes runs its runs.
impl Walk for PlannedKernel {
    fn walk(&self, outer: std::ops::Range<usize>, body: &mut impl FnMut(&Ctx<'_>, usize, Value)) {
        self.plan.walk(&self.st, outer, &mut NoInstrument, body);
    }

    fn walk_runs(&self, outer: std::ops::Range<usize>, body: &mut impl RunBody) {
        self.plan.walk_runs(&self.st, outer, body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_schedule::named;
    use waco_tensor::gen::{self, Rng64};
    use waco_tensor::CsrMatrix;

    #[test]
    fn prepare_run_matches_reference() {
        let mut rng = Rng64::seed_from(21);
        let a = gen::uniform_random(48, 48, 0.1, &mut rng);
        let space = Space::new(Kernel::SpMV, vec![48, 48], 0);
        let sched = named::default_csr(&space);
        let x = DenseVector::from_fn(48, |i| (i % 5) as f32 - 2.0);
        let planned = Executor::planned().prepare(&a, &sched, &space).unwrap();
        let y = planned
            .run(KernelArgs::Spmv { x: &x })
            .unwrap()
            .into_vector()
            .unwrap();
        let r = CsrMatrix::from_coo(&a).spmv(&x);
        assert!(y.max_abs_diff(&r) < 1e-3);
    }

    #[test]
    fn the_oracle_runs_from_the_same_preparation() {
        let mut rng = Rng64::seed_from(22);
        let a = gen::powerlaw_rows(40, 40, 4.0, 1.2, &mut rng);
        let space = Space::new(Kernel::SpMM, vec![40, 40], 8);
        let sched = named::default_csr(&space);
        let b = DenseMatrix::from_fn(40, 8, |r, c| ((r + c) % 7) as f32 * 0.3 - 1.0);
        let planned = Executor::planned().prepare(&a, &sched, &space).unwrap();
        let args = KernelArgs::Spmm { b: &b };
        let fast = planned.run(args).unwrap().into_matrix().unwrap();
        let interp = crate::oracle::run(&planned, args)
            .unwrap()
            .into_matrix()
            .unwrap();
        for (f, i) in fast.as_slice().iter().zip(interp.as_slice()) {
            assert_eq!(f.to_bits(), i.to_bits());
        }
    }

    #[test]
    fn mismatched_args_are_rejected() {
        let a = gen::mesh2d(4, 4);
        let space = Space::new(Kernel::SpMV, vec![16, 16], 0);
        let sched = named::default_csr(&space);
        let planned = Executor::planned().prepare(&a, &sched, &space).unwrap();
        let b = DenseMatrix::zeros(16, 4);
        let r = planned.run(KernelArgs::Spmm { b: &b });
        assert!(matches!(r, Err(ExecError::OperandMismatch(_))));
    }

    #[test]
    fn output_accessors_reject_wrong_variant() {
        let out = KernelOutput::Vector(DenseVector::zeros(3));
        assert!(out.clone().into_vector().is_ok());
        assert!(matches!(
            out.into_matrix(),
            Err(ExecError::OperandMismatch(_))
        ));
    }

    #[test]
    fn bit_mismatch_is_exact_on_every_variant() {
        fn coo(v: Value) -> CooMatrix {
            CooMatrix::from_triplets(2, 2, [(0, 1, 1.0), (1, 0, v)]).unwrap()
        }
        type Make = fn(Value) -> KernelOutput;
        let variants: [(Make, &str); 4] = [
            (
                |v| KernelOutput::Vector(DenseVector::from_fn(2, |_| v)),
                "flat index 0",
            ),
            (
                |v| KernelOutput::Matrix(DenseMatrix::from_fn(1, 2, |_, _| v)),
                "flat index 0",
            ),
            (|v| KernelOutput::Sparse(coo(v)), "entry 1"),
            (
                |v| KernelOutput::Csr(CsrMatrix::from_coo(&coo(v))),
                "flat index 1",
            ),
        ];
        for (make, at) in variants {
            assert_eq!(make(0.5).bit_mismatch(&make(0.5)), None);
            // Signed zeros are equal as floats and differ in bits.
            let m = make(0.0).bit_mismatch(&make(-0.0)).expect("bits differ");
            assert!(m.contains(at), "{m}");
        }
        let sparse = KernelOutput::Sparse(coo(2.0));
        let fewer = CooMatrix::from_triplets(2, 2, [(0, 1, 1.0)]).unwrap();
        let m = sparse.bit_mismatch(&KernelOutput::Sparse(fewer)).unwrap();
        assert!(m.contains("nnz"), "{m}");
        let csr = KernelOutput::Csr(CsrMatrix::from_coo(&coo(2.0)));
        assert!(sparse.bit_mismatch(&csr).unwrap().contains("variants"));
    }

    #[test]
    fn prepare_stored_checks_the_spec() {
        let mut rng = Rng64::seed_from(23);
        let a = gen::uniform_random(12, 12, 0.2, &mut rng);
        let space = Space::new(Kernel::SpMV, vec![12, 12], 0);
        let sched = named::default_csr(&space);
        let plan = ExecutionPlan::build(&sched, &space).unwrap();
        let other = SparseStorage::from_matrix(&a, &waco_format::FormatSpec::csc(12, 12)).unwrap();
        assert!(matches!(
            Executor::planned().prepare_stored(plan.clone(), other),
            Err(ExecError::OperandMismatch(_))
        ));
        let st = SparseStorage::from_matrix(&a, plan.spec()).unwrap();
        assert!(Executor::planned().prepare_stored(plan, st).is_ok());
    }
}
