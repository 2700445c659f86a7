//! The harness's one kernel-call vocabulary: a [`Problem`] is a corpus case's
//! sparse operand, the [`Space`] it is scheduled in, and the kernel's other
//! operands, owned. Every suite asks it the same five things —
//! [`Problem::args`], [`Problem::prepare`], [`Problem::oracle`],
//! [`Problem::shape`], [`Problem::over`] — and runs it through the one-method
//! [`Executor`], so no suite matches on [`Kernel`] or on the operand's order.
//!
//! Adding a kernel is one arm each in [`Problem::seeded`], [`Problem::args`],
//! [`Problem::oracle`] and [`Problem::shape`].

use waco_exec::{AsymptoticProfile, ExecError, KernelArgs, KernelOutput, PlannedKernel};
use waco_schedule::{Kernel, Space, SuperSchedule};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::{CooMatrix, CooTensor3, CsrMatrix, DenseMatrix, DenseVector, Operand, Value};

use crate::corpus::Case;
use crate::diff::Executor;
use crate::sweep::Verdict;
use crate::{mix_seed, oracle, Divergence, Tolerance};

/// One stored entry of a sparse operand: its coordinate (a matrix leaves
/// the third component 0) and value.
pub type Entry = ([usize; 3], Value);

/// The sparse operand of a kernel, of either order.
#[derive(Debug, Clone, PartialEq)]
pub enum Sparse {
    /// The operand of the five 2-D kernels.
    Matrix(CooMatrix),
    /// MTTKRP's operand.
    Tensor3(CooTensor3),
}

impl Sparse {
    /// The operand, borrowed: what the tuner, the simulator and the executor
    /// take.
    pub fn operand(&self) -> Operand<'_> {
        match self {
            Sparse::Matrix(m) => Operand::Matrix(m),
            Sparse::Tensor3(t) => Operand::Tensor3(t),
        }
    }

    /// Mode extents.
    pub fn dims(&self) -> Vec<usize> {
        self.operand().dims()
    }

    /// Stored entries, in coordinate order.
    pub fn entries(&self) -> Vec<Entry> {
        match self {
            Sparse::Matrix(m) => m.iter().map(|(r, c, v)| ([r, c, 0], v)).collect(),
            Sparse::Tensor3(t) => t.iter().map(|(i, k, l, v)| ([i, k, l], v)).collect(),
        }
    }

    /// An operand of the same order and extents holding `entries` instead.
    ///
    /// # Panics
    ///
    /// Panics when a coordinate is out of bounds.
    pub fn with_entries(&self, entries: impl IntoIterator<Item = Entry>) -> Sparse {
        let entries = entries.into_iter();
        match self {
            Sparse::Matrix(m) => Sparse::Matrix(
                CooMatrix::from_triplets(
                    m.nrows(),
                    m.ncols(),
                    entries.map(|([r, c, _], v)| (r, c, v)),
                )
                .expect("entries stay in bounds"),
            ),
            Sparse::Tensor3(t) => Sparse::Tensor3(
                CooTensor3::from_quads(t.dims(), entries.map(|([i, k, l], v)| (i, k, l, v)))
                    .expect("entries stay in bounds"),
            ),
        }
    }

    /// The structural profile Stage 1 of the tuner prunes by.
    pub fn profile(&self) -> AsymptoticProfile {
        AsymptoticProfile::of(self.operand())
    }
}

/// A kernel's operands besides the sparse one, owned; the variant names the
/// kernel like [`KernelArgs`]'s does.
#[derive(Debug, Clone)]
pub enum Operands {
    /// `y = A x`.
    Spmv { x: DenseVector },
    /// `C = A B`.
    Spmm { b: DenseMatrix },
    /// `D = A ∘ (B C)`.
    Sddmm { b: DenseMatrix, c: DenseMatrix },
    /// `M(i,j) = Σ T(i,k,l) B(k,j) C(l,j)`.
    Mttkrp { b: DenseMatrix, c: DenseMatrix },
    /// `C = A B`, `B` sparse.
    Spgemm { b: CsrMatrix },
    /// `E = (A ∘ (B C)) F`.
    SddmmSpmm {
        b: DenseMatrix,
        c: DenseMatrix,
        f: DenseMatrix,
    },
}

/// Dense-operand extents per kernel: small but not degenerate. For SpGEMM
/// this is the second sparse operand's column count; for the fused kernel
/// it is the SDDMM inner dimension `|k|`.
pub(crate) fn dense_extent_for(kernel: Kernel) -> usize {
    match kernel {
        Kernel::SpMV => 0,
        Kernel::SpMM | Kernel::SpGEMM => 5,
        Kernel::SDDMM | Kernel::MTTKRP | Kernel::SddmmSpmm => 4,
    }
}

/// Output columns of the fused kernel's trailing SpMM (`F`'s width). Not
/// part of [`Space`], so it is pinned here for the whole harness.
pub(crate) const FUSED_OUT_COLS: usize = 3;

/// Deterministic dense vector derived from a seed.
pub(crate) fn dense_vec(n: usize, seed: u64) -> DenseVector {
    let mut rng = Rng64::seed_from(seed);
    DenseVector::from_fn(n, |_| rng.value())
}

/// Deterministic dense matrix derived from a seed.
fn dense_mat(r: usize, c: usize, seed: u64) -> DenseMatrix {
    let mut rng = Rng64::seed_from(seed);
    DenseMatrix::from_fn(r, c, |_, _| rng.value())
}

/// A kernel output as its dense row-major image over [`Problem::shape`].
pub(crate) fn dense_image(out: KernelOutput) -> Vec<Value> {
    match out {
        KernelOutput::Vector(v) => v.as_slice().to_vec(),
        KernelOutput::Matrix(m) => m.as_slice().to_vec(),
        KernelOutput::Sparse(m) => m.to_dense().as_slice().to_vec(),
        KernelOutput::Csr(m) => m.to_coo().to_dense().as_slice().to_vec(),
    }
}

/// One kernel instance: everything but the schedule.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The corpus case the sparse operand came from (failure reports name
    /// it and its seed).
    pub case: Case,
    /// The schedule space; `space.kernel` is the kernel.
    pub space: Space,
    /// The other operands.
    pub operands: Operands,
}

impl Problem {
    /// The problem of `space.kernel` over `case` with every other operand
    /// drawn from `operand_seed` (`⊕"c"`, `⊕"f"` for the second and third).
    pub fn seeded(case: Case, space: Space, operand_seed: u64) -> Problem {
        let dims = case.sparse.dims();
        let (nr, nc, de) = (dims[0], dims[1], space.dense_extent);
        let second = mix_seed(operand_seed, "c");
        let operands = match space.kernel {
            Kernel::SpMV => Operands::Spmv {
                x: dense_vec(nc, operand_seed),
            },
            Kernel::SpMM => Operands::Spmm {
                b: dense_mat(nc, de, operand_seed),
            },
            Kernel::SDDMM => Operands::Sddmm {
                b: dense_mat(nr, de, operand_seed),
                c: dense_mat(de, nc, second),
            },
            Kernel::MTTKRP => Operands::Mttkrp {
                b: dense_mat(dims[1], de, operand_seed),
                c: dense_mat(dims[2], de, second),
            },
            Kernel::SpGEMM => {
                let mut rng = Rng64::seed_from(operand_seed);
                Operands::Spgemm {
                    b: CsrMatrix::from_coo(&gen::uniform_random(nc, de, 0.2, &mut rng)),
                }
            }
            Kernel::SddmmSpmm => Operands::SddmmSpmm {
                b: dense_mat(nr, de, operand_seed),
                c: dense_mat(de, nc, second),
                f: dense_mat(nc, FUSED_OUT_COLS, mix_seed(operand_seed, "f")),
            },
        };
        Problem {
            case,
            space,
            operands,
        }
    }

    /// The harness's standard problem for a corpus case: the kernel's
    /// default dense extent, operands seeded from `{salt}/operands`.
    pub(crate) fn standard(case: Case, kernel: Kernel, seed: u64, salt: &str) -> Problem {
        let space = Space::new(kernel, case.sparse.dims(), dense_extent_for(kernel));
        Problem::seeded(case, space, mix_seed(seed, &format!("{salt}/operands")))
    }

    /// The same kernel, space and operands over another sparse operand.
    pub fn over(&self, sparse: Sparse) -> Problem {
        Problem {
            case: Case {
                name: self.case.name.clone(),
                seed: self.case.seed,
                sparse,
            },
            space: self.space.clone(),
            operands: self.operands.clone(),
        }
    }

    /// The operands as [`PlannedKernel::run`] takes them.
    pub fn args(&self) -> KernelArgs<'_> {
        match &self.operands {
            Operands::Spmv { x } => KernelArgs::Spmv { x },
            Operands::Spmm { b } => KernelArgs::Spmm { b },
            Operands::Sddmm { b, c } => KernelArgs::Sddmm { b, c },
            Operands::Mttkrp { b, c } => KernelArgs::Mttkrp { b, c },
            Operands::Spgemm { b } => KernelArgs::Spgemm { b },
            Operands::SddmmSpmm { b, c, f } => KernelArgs::SddmmSpmm { b, c, f },
        }
    }

    /// Lowers `sched` and stores the sparse operand in its format.
    ///
    /// # Errors
    ///
    /// [`ExecError::Format`] for a storage the space's budget excludes;
    /// schedule-validation and shape errors otherwise.
    pub fn prepare(&self, sched: &SuperSchedule) -> waco_exec::Result<PlannedKernel> {
        waco_exec::Executor::planned().prepare(self.case.sparse.operand(), sched, &self.space)
    }

    /// The dense `f64` oracle's answer, row-major over [`Problem::shape`].
    pub fn oracle(&self) -> Vec<f64> {
        match (&self.case.sparse, &self.operands) {
            (Sparse::Matrix(a), Operands::Spmv { x }) => oracle::spmv(a, x),
            (Sparse::Matrix(a), Operands::Spmm { b }) => oracle::spmm(a, b),
            (Sparse::Matrix(a), Operands::Sddmm { b, c }) => oracle::sddmm(a, b, c),
            (Sparse::Tensor3(t), Operands::Mttkrp { b, c }) => oracle::mttkrp(t, b, c),
            (Sparse::Matrix(a), Operands::Spgemm { b }) => oracle::spgemm(a, &b.to_coo()),
            (Sparse::Matrix(a), Operands::SddmmSpmm { b, c, f }) => oracle::sddmm_spmm(a, b, c, f),
            (sparse, operands) => {
                unreachable!(
                    "{operands:?} do not go with an order-{} operand",
                    sparse.dims().len()
                )
            }
        }
    }

    /// Extents of the output's dense image.
    pub fn shape(&self) -> Vec<usize> {
        let dims = self.case.sparse.dims();
        match &self.operands {
            Operands::Spmv { .. } => vec![dims[0]],
            Operands::Sddmm { .. } => vec![dims[0], dims[1]],
            Operands::Spmm { b } | Operands::Mttkrp { b, .. } => vec![dims[0], b.ncols()],
            Operands::Spgemm { b } => vec![dims[0], b.ncols()],
            Operands::SddmmSpmm { f, .. } => vec![dims[0], f.ncols()],
        }
    }

    /// Prepares `sched` and runs it on `exec`. `None` is a schedule whose
    /// storage is over budget — a point the space legitimately excludes.
    ///
    /// # Panics
    ///
    /// Panics on any other executor error: the sampler only emits valid
    /// schedules and the operands fit by construction.
    pub fn execute(&self, exec: &dyn Executor, sched: &SuperSchedule) -> Option<KernelOutput> {
        match self
            .prepare(sched)
            .and_then(|pk| exec.run(&pk, self.args()))
        {
            Ok(out) => Some(out),
            Err(ExecError::Format(_)) => None,
            Err(e) => panic!("unexpected executor error: {e}"),
        }
    }

    /// [`Problem::execute`], the output as its dense row-major image
    /// (`dense_image`).
    pub fn run(&self, exec: &dyn Executor, sched: &SuperSchedule) -> Option<Vec<Value>> {
        Some(dense_image(self.execute(exec, sched)?))
    }

    /// Where `got` first leaves the default [`Tolerance`] of `expected`.
    pub fn divergence(&self, expected: &[f64], got: &[Value]) -> Option<Divergence> {
        Tolerance::default().first_divergence(&self.shape(), expected, got)
    }

    /// The problem beside its oracle answer — what the schedules of an
    /// oracle sweep share.
    pub(crate) fn with_oracle(self) -> (Problem, Vec<f64>) {
        let expected = self.oracle();
        (self, expected)
    }

    /// Runs `sched` on `exec` and holds the output to `expected`; `detail`
    /// describes a divergence.
    pub(crate) fn check(
        &self,
        exec: &dyn Executor,
        sched: &SuperSchedule,
        expected: &[f64],
        detail: &str,
    ) -> Verdict {
        match self.run(exec, sched) {
            None => Verdict::Skip,
            Some(got) => Verdict::from_divergence(self.divergence(expected, &got), detail),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{ExecBackend, InterpreterBackend};
    use crate::{corpus, Budget, VerifyConfig};
    use waco_schedule::named;

    #[test]
    fn args_pass_validation_and_the_oracle_covers_the_shape() {
        for kernel in VerifyConfig::new(5, Budget::Smoke).kernels {
            // A rectangular and an empty operand of the kernel's order.
            let cases: Vec<Case> = corpus::cases(5, Budget::Smoke, kernel)
                .into_iter()
                .filter(|c| c.name.starts_with("rect") || c.name.starts_with("random"))
                .collect();
            assert_eq!(cases.len(), 1, "{kernel}");
            let empty = Case {
                sparse: cases[0].sparse.with_entries([]),
                ..cases[0].clone()
            };
            for case in [cases[0].clone(), empty] {
                let p = Problem::standard(case, kernel, 5, "unit");
                assert_eq!(p.args().kernel(), kernel);
                let pk = p.prepare(&named::default_csr(&p.space)).unwrap();
                pk.run(p.args())
                    .unwrap_or_else(|e| panic!("{kernel}: args rejected: {e}"));
                let shape = p.shape();
                assert_eq!(p.oracle().len(), shape.iter().product::<usize>());
                let got = p.run(&ExecBackend, &named::default_csr(&p.space)).unwrap();
                assert_eq!(p.divergence(&p.oracle(), &got), None, "{kernel}");
                assert_eq!(
                    p.run(&InterpreterBackend, &named::default_csr(&p.space)),
                    Some(got),
                    "{kernel}: both backends run the default schedule alike"
                );
            }
        }
    }

    #[test]
    fn with_entries_of_entries_is_the_identity() {
        for kernel in [Kernel::SpMV, Kernel::MTTKRP] {
            for case in corpus::cases(9, Budget::Smoke, kernel) {
                let s = &case.sparse;
                assert_eq!(&s.with_entries(s.entries()), s, "{}", case.name);
                let half = s.entries().len() / 2;
                let kept = s.with_entries(s.entries().into_iter().take(half));
                assert_eq!(kept.entries().len(), half);
                assert_eq!(kept.dims(), s.dims());
            }
        }
    }

    #[test]
    fn over_keeps_operands_and_swaps_the_sparse_operand() {
        let case = corpus::cases(3, Budget::Smoke, Kernel::SDDMM).remove(0);
        let p = Problem::standard(case, Kernel::SDDMM, 3, "unit");
        let none = p.over(p.case.sparse.with_entries([]));
        assert_eq!(none.case.name, p.case.name);
        assert_eq!(none.shape(), p.shape());
        assert!(none.oracle().iter().all(|&v| v == 0.0));
        assert_ne!(none.oracle(), p.oracle());
    }
}
