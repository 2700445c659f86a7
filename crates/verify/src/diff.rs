//! The differential fuzzer: every schedule the shared sampler stream emits
//! is executed through `waco-exec` and compared against the dense oracle.
//!
//! Failures are shrunk before they are reported: the sparse operand's entry
//! list is bisected — both halves evaluated concurrently on the
//! `waco-runtime` pool — until neither half still fails, so the report
//! carries the smallest matrix the bisection could reach along with the
//! kernel, schedule index, matrix seed, and first diverging coordinate.
//! Replaying the same seed reproduces the identical failure list.

use waco_exec::{ExecError, Executor as KernelExecutor, KernelArgs, KernelOutput, PlannedKernel};
use waco_runtime::ThreadPool;
use waco_schedule::{Kernel, ScheduleSampler, Space, SuperSchedule};
use waco_serve::cache::schedule_to_json;
use waco_tensor::gen::{self, Rng64};
use waco_tensor::{CooMatrix, CooTensor3, CsrMatrix, DenseMatrix, DenseVector, Value};

use crate::corpus::{self, MatrixCase};
use crate::{
    kernel_wire_name, mix_seed, oracle, Divergence, Failure, SuiteReport, Tolerance, VerifyConfig,
};

/// The kernel backend under test. The production implementation is
/// [`ExecBackend`]; the harness's own tests substitute a deliberately
/// broken one to prove failures are caught and reported.
pub trait Executor: Sync {
    /// Label for reports.
    fn name(&self) -> &'static str;
    /// SpMV: `y = A x`.
    fn spmv(
        &self,
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        x: &DenseVector,
    ) -> waco_exec::Result<DenseVector>;
    /// SpMM: `C = A B`.
    fn spmm(
        &self,
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        b: &DenseMatrix,
    ) -> waco_exec::Result<DenseMatrix>;
    /// SDDMM: `D = A ∘ (B C)`.
    fn sddmm(
        &self,
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        b: &DenseMatrix,
        c: &DenseMatrix,
    ) -> waco_exec::Result<CooMatrix>;
    /// MTTKRP: `M(i,j) = Σ T(i,k,l) B(k,j) C(l,j)`.
    fn mttkrp(
        &self,
        t: &CooTensor3,
        sched: &SuperSchedule,
        space: &Space,
        b: &DenseMatrix,
        c: &DenseMatrix,
    ) -> waco_exec::Result<DenseMatrix>;

    /// SpGEMM: `C = A B`, both operands sparse. Defaults to the production
    /// plan executor so fault-injecting backends that predate the workspace
    /// kernels keep compiling; override to inject faults here too.
    fn spgemm(
        &self,
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        b: &CsrMatrix,
    ) -> waco_exec::Result<CsrMatrix> {
        KernelExecutor::planned()
            .prepare(a, sched, space)?
            .run(KernelArgs::Spgemm { b })?
            .into_csr()
    }

    /// Fused SDDMM+SpMM: `E = (A ∘ (B C)) F`. Defaults like
    /// [`Executor::spgemm`].
    fn sddmm_spmm(
        &self,
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        b: &DenseMatrix,
        c: &DenseMatrix,
        f: &DenseMatrix,
    ) -> waco_exec::Result<DenseMatrix> {
        KernelExecutor::planned()
            .prepare(a, sched, space)?
            .run(KernelArgs::SddmmSpmm { b, c, f })?
            .into_matrix()
    }
}

/// A backend that prepares through the [`KernelExecutor`] API and runs the
/// prepared kernel through one of `waco-exec`'s two entry functions.
/// [`ExecBackend`] is [`PlannedKernel::run`] — the one serving engine,
/// specialization tier included; [`InterpreterBackend`] is
/// [`waco_exec::oracle::run`], the dynamic [`waco_exec::LoopNest`] reference
/// that re-decides every traversal per walk. Running the fuzzer with both
/// checks each against the dense oracle independently (the `plan` suite then
/// checks them against *each other*, bit for bit).
pub struct ApiBackend {
    name: &'static str,
    run: fn(&PlannedKernel, KernelArgs<'_>) -> waco_exec::Result<KernelOutput>,
}

/// The production backend: `waco-exec`'s plan executor.
#[allow(non_upper_case_globals)]
pub const ExecBackend: ApiBackend = ApiBackend {
    name: "waco-exec",
    run: PlannedKernel::run,
};

/// The dynamic reference interpreter as an injectable backend.
#[allow(non_upper_case_globals)]
pub const InterpreterBackend: ApiBackend = ApiBackend {
    name: "waco-exec-interpreter",
    run: waco_exec::oracle::run,
};

impl Executor for ApiBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn spmv(
        &self,
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        x: &DenseVector,
    ) -> waco_exec::Result<DenseVector> {
        let pk = KernelExecutor::planned().prepare(a, sched, space)?;
        (self.run)(&pk, KernelArgs::Spmv { x })?.into_vector()
    }

    fn spmm(
        &self,
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        b: &DenseMatrix,
    ) -> waco_exec::Result<DenseMatrix> {
        let pk = KernelExecutor::planned().prepare(a, sched, space)?;
        (self.run)(&pk, KernelArgs::Spmm { b })?.into_matrix()
    }

    fn sddmm(
        &self,
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        b: &DenseMatrix,
        c: &DenseMatrix,
    ) -> waco_exec::Result<CooMatrix> {
        let pk = KernelExecutor::planned().prepare(a, sched, space)?;
        (self.run)(&pk, KernelArgs::Sddmm { b, c })?.into_sparse()
    }

    fn mttkrp(
        &self,
        t: &CooTensor3,
        sched: &SuperSchedule,
        space: &Space,
        b: &DenseMatrix,
        c: &DenseMatrix,
    ) -> waco_exec::Result<DenseMatrix> {
        let pk = KernelExecutor::planned().prepare_tensor3(t, sched, space)?;
        (self.run)(&pk, KernelArgs::Mttkrp { b, c })?.into_matrix()
    }

    fn spgemm(
        &self,
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        b: &CsrMatrix,
    ) -> waco_exec::Result<CsrMatrix> {
        let pk = KernelExecutor::planned().prepare(a, sched, space)?;
        (self.run)(&pk, KernelArgs::Spgemm { b })?.into_csr()
    }

    fn sddmm_spmm(
        &self,
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        b: &DenseMatrix,
        c: &DenseMatrix,
        f: &DenseMatrix,
    ) -> waco_exec::Result<DenseMatrix> {
        let pk = KernelExecutor::planned().prepare(a, sched, space)?;
        (self.run)(&pk, KernelArgs::SddmmSpmm { b, c, f })?.into_matrix()
    }
}

/// Dense-operand extents per kernel: small but not degenerate. For SpGEMM
/// this is the second sparse operand's column count; for the fused kernel
/// it is the SDDMM inner dimension `|k|`.
pub(crate) fn dense_extent_for(kernel: Kernel) -> usize {
    match kernel {
        Kernel::SpMV => 0,
        Kernel::SpMM => 5,
        Kernel::SDDMM => 4,
        Kernel::MTTKRP => 4,
        Kernel::SpGEMM => 5,
        Kernel::SddmmSpmm => 4,
    }
}

/// Output columns of the fused kernel's trailing SpMM (`F`'s width). Not
/// part of [`Space`], so it is pinned here for the whole harness.
pub(crate) const FUSED_OUT_COLS: usize = 3;

/// Deterministic second sparse operand (for SpGEMM) derived from a seed.
pub(crate) fn sparse_operand(rows: usize, cols: usize, seed: u64) -> CooMatrix {
    let mut rng = Rng64::seed_from(seed);
    gen::uniform_random(rows, cols, 0.2, &mut rng)
}

/// Deterministic dense vector derived from a seed.
pub(crate) fn dense_vec(n: usize, seed: u64) -> DenseVector {
    let mut rng = Rng64::seed_from(seed);
    DenseVector::from_fn(n, |_| rng.value())
}

/// Deterministic dense matrix derived from a seed.
pub(crate) fn dense_mat(r: usize, c: usize, seed: u64) -> DenseMatrix {
    let mut rng = Rng64::seed_from(seed);
    DenseMatrix::from_fn(r, c, |_, _| rng.value())
}

/// Executes `sched` and compares against the precomputed oracle. `Ok(None)`
/// means agreement, `Ok(Some(d))` divergence, `Err(())` an excluded
/// (over-budget) configuration.
#[allow(clippy::result_unit_err, clippy::too_many_arguments)]
pub(crate) fn check_matrix_schedule(
    exec: &dyn Executor,
    kernel: Kernel,
    m: &CooMatrix,
    sched: &SuperSchedule,
    space: &Space,
    expected: &[f64],
    operand_seed: u64,
    tol: &Tolerance,
) -> Result<Option<Divergence>, ()> {
    let to_excluded = |e: ExecError| match e {
        ExecError::Format(_) => (),
        other => panic!("unexpected executor error: {other}"),
    };
    match kernel {
        Kernel::SpMV => {
            let x = dense_vec(m.ncols(), operand_seed);
            let y = exec.spmv(m, sched, space, &x).map_err(to_excluded)?;
            Ok(tol.first_divergence(&[m.nrows()], expected, y.as_slice()))
        }
        Kernel::SpMM => {
            let b = dense_mat(m.ncols(), space.dense_extent, operand_seed);
            let c = exec.spmm(m, sched, space, &b).map_err(to_excluded)?;
            Ok(tol.first_divergence(&[m.nrows(), space.dense_extent], expected, c.as_slice()))
        }
        Kernel::SDDMM => {
            let b = dense_mat(m.nrows(), space.dense_extent, operand_seed);
            let c = dense_mat(space.dense_extent, m.ncols(), mix_seed(operand_seed, "c"));
            let d = exec.sddmm(m, sched, space, &b, &c).map_err(to_excluded)?;
            Ok(tol.first_divergence(&[m.nrows(), m.ncols()], expected, d.to_dense().as_slice()))
        }
        Kernel::SpGEMM => {
            let b =
                CsrMatrix::from_coo(&sparse_operand(m.ncols(), space.dense_extent, operand_seed));
            let c = exec.spgemm(m, sched, space, &b).map_err(to_excluded)?;
            Ok(tol.first_divergence(
                &[m.nrows(), space.dense_extent],
                expected,
                c.to_coo().to_dense().as_slice(),
            ))
        }
        Kernel::SddmmSpmm => {
            let b = dense_mat(m.nrows(), space.dense_extent, operand_seed);
            let c = dense_mat(space.dense_extent, m.ncols(), mix_seed(operand_seed, "c"));
            let f = dense_mat(m.ncols(), FUSED_OUT_COLS, mix_seed(operand_seed, "f"));
            let e = exec
                .sddmm_spmm(m, sched, space, &b, &c, &f)
                .map_err(to_excluded)?;
            Ok(tol.first_divergence(&[m.nrows(), FUSED_OUT_COLS], expected, e.as_slice()))
        }
        Kernel::MTTKRP => unreachable!("matrix path never sees MTTKRP"),
    }
}

/// Oracle output for a matrix kernel with the deterministic operands of
/// `operand_seed`.
pub(crate) fn matrix_oracle(
    kernel: Kernel,
    m: &CooMatrix,
    dense_extent: usize,
    operand_seed: u64,
) -> Vec<f64> {
    match kernel {
        Kernel::SpMV => oracle::spmv(m, &dense_vec(m.ncols(), operand_seed)),
        Kernel::SpMM => oracle::spmm(m, &dense_mat(m.ncols(), dense_extent, operand_seed)),
        Kernel::SDDMM => oracle::sddmm(
            m,
            &dense_mat(m.nrows(), dense_extent, operand_seed),
            &dense_mat(dense_extent, m.ncols(), mix_seed(operand_seed, "c")),
        ),
        Kernel::SpGEMM => oracle::spgemm(m, &sparse_operand(m.ncols(), dense_extent, operand_seed)),
        Kernel::SddmmSpmm => oracle::sddmm_spmm(
            m,
            &dense_mat(m.nrows(), dense_extent, operand_seed),
            &dense_mat(dense_extent, m.ncols(), mix_seed(operand_seed, "c")),
            &dense_mat(m.ncols(), FUSED_OUT_COLS, mix_seed(operand_seed, "f")),
        ),
        Kernel::MTTKRP => unreachable!("matrix path never sees MTTKRP"),
    }
}

/// Entry-list bisection: finds a smaller entry set that still fails.
/// Both halves of each round are evaluated concurrently on the pool.
fn shrink_entries<E: Clone + Sync + Send>(
    entries: Vec<E>,
    divergence: Divergence,
    fails: impl Fn(&[E]) -> Option<Divergence> + Sync,
) -> (usize, Divergence) {
    let pool = ThreadPool::global();
    let mut current = entries;
    let mut best = divergence;
    while current.len() > 1 {
        let mid = current.len() / 2;
        let halves = [current[..mid].to_vec(), current[mid..].to_vec()];
        let verdicts = pool.map(&halves, 2, |h| fails(h));
        let mut advanced = false;
        for (half, verdict) in halves.into_iter().zip(verdicts) {
            if let Some(d) = verdict {
                current = half;
                best = d;
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    (current.len(), best)
}

#[allow(clippy::too_many_arguments)]
fn matrix_failure(
    exec: &dyn Executor,
    kernel: Kernel,
    case: &MatrixCase,
    space: &Space,
    sched: &SuperSchedule,
    index: usize,
    divergence: Divergence,
    operand_seed: u64,
    tol: &Tolerance,
) -> Failure {
    // Shrink: bisect the entry list while the failure persists.
    let triplets: Vec<(usize, usize, Value)> = case.matrix.iter().collect();
    let (nrows, ncols) = (case.matrix.nrows(), case.matrix.ncols());
    let (shrunk_nnz, divergence) = shrink_entries(
        triplets,
        divergence,
        |subset: &[(usize, usize, Value)]| {
            let m = CooMatrix::from_triplets(nrows, ncols, subset.iter().copied())
                .expect("subset of in-bounds entries");
            let expected = matrix_oracle(kernel, &m, space.dense_extent, operand_seed);
            check_matrix_schedule(exec, kernel, &m, sched, space, &expected, operand_seed, tol)
                .ok()
                .flatten()
        },
    );
    Failure {
        suite: "differential",
        kernel: Some(kernel_wire_name(kernel).to_string()),
        case_name: case.name.clone(),
        matrix_seed: Some(case.seed),
        schedule_index: Some(index),
        schedule: Some(sched.describe(space)),
        schedule_json: Some(schedule_to_json(sched)),
        divergence: Some(divergence),
        detail: format!("shrunk to {shrunk_nnz} entries (backend {})", exec.name()),
    }
}

/// The differential suite over the whole corpus.
pub fn differential_suite(cfg: &VerifyConfig, exec: &dyn Executor) -> SuiteReport {
    let pool = ThreadPool::global();
    let threads = pool.max_participants();
    let tol = Tolerance::default();
    let per_case = cfg.budget.schedules_per_case();
    let mut executed = 0usize;
    let mut skipped = 0usize;
    let mut failures = Vec::new();

    // 2-D kernels over the matrix corpus.
    for kernel in cfg.kernels.iter().copied().filter(|&k| k != Kernel::MTTKRP) {
        for case in corpus::matrices(cfg.seed, cfg.budget) {
            let dense = dense_extent_for(kernel);
            let space = Space::new(
                kernel,
                vec![case.matrix.nrows(), case.matrix.ncols()],
                dense,
            );
            let salt = format!("diff/{}/{}", kernel_wire_name(kernel), case.name);
            let schedule_seed = mix_seed(cfg.seed, &salt);
            let operand_seed = mix_seed(cfg.seed, &format!("{salt}/operands"));
            let expected = matrix_oracle(kernel, &case.matrix, dense, operand_seed);
            let schedules = ScheduleSampler::new(&space, schedule_seed).take_schedules(per_case);

            let verdicts = pool.map(&schedules, threads, |sched| {
                check_matrix_schedule(
                    exec,
                    kernel,
                    &case.matrix,
                    sched,
                    &space,
                    &expected,
                    operand_seed,
                    &tol,
                )
            });
            for (index, (sched, verdict)) in schedules.iter().zip(verdicts).enumerate() {
                match verdict {
                    Err(()) => skipped += 1,
                    Ok(None) => executed += 1,
                    Ok(Some(d)) => {
                        executed += 1;
                        failures.push(matrix_failure(
                            exec,
                            kernel,
                            &case,
                            &space,
                            sched,
                            index,
                            d,
                            operand_seed,
                            &tol,
                        ));
                    }
                }
            }
        }
    }

    // MTTKRP over the tensor corpus.
    if cfg.kernels.contains(&Kernel::MTTKRP) {
        for case in corpus::tensors(cfg.seed, cfg.budget) {
            let rank = dense_extent_for(Kernel::MTTKRP);
            let space = Space::new(Kernel::MTTKRP, case.tensor.dims().to_vec(), rank);
            let salt = format!("diff/mttkrp/{}", case.name);
            let schedule_seed = mix_seed(cfg.seed, &salt);
            let operand_seed = mix_seed(cfg.seed, &format!("{salt}/operands"));
            let [_, d1, d2] = case.tensor.dims();
            let b = dense_mat(d1, rank, operand_seed);
            let c = dense_mat(d2, rank, mix_seed(operand_seed, "c"));
            let expected = oracle::mttkrp(&case.tensor, &b, &c);
            let schedules = ScheduleSampler::new(&space, schedule_seed).take_schedules(per_case);

            let verdicts = pool.map(&schedules, threads, |sched| {
                match exec.mttkrp(&case.tensor, sched, &space, &b, &c) {
                    Err(ExecError::Format(_)) => Err(()),
                    Err(other) => panic!("unexpected executor error: {other}"),
                    Ok(m) => Ok(tol.first_divergence(
                        &[case.tensor.dims()[0], rank],
                        &expected,
                        m.as_slice(),
                    )),
                }
            });
            for (index, (sched, verdict)) in schedules.iter().zip(verdicts).enumerate() {
                match verdict {
                    Err(()) => skipped += 1,
                    Ok(None) => executed += 1,
                    Ok(Some(divergence)) => {
                        executed += 1;
                        let quads: Vec<(usize, usize, usize, Value)> = case.tensor.iter().collect();
                        let dims = case.tensor.dims();
                        let (shrunk_nnz, divergence) = shrink_entries(
                            quads,
                            divergence,
                            |subset: &[(usize, usize, usize, Value)]| {
                                let t = CooTensor3::from_quads(dims, subset.iter().copied())
                                    .expect("subset of in-bounds entries");
                                let expected = oracle::mttkrp(&t, &b, &c);
                                match exec.mttkrp(&t, sched, &space, &b, &c) {
                                    Ok(m) => tol.first_divergence(
                                        &[dims[0], rank],
                                        &expected,
                                        m.as_slice(),
                                    ),
                                    Err(_) => None,
                                }
                            },
                        );
                        failures.push(Failure {
                            suite: "differential",
                            kernel: Some("mttkrp".to_string()),
                            case_name: case.name.clone(),
                            matrix_seed: Some(case.seed),
                            schedule_index: Some(index),
                            schedule: Some(sched.describe(&space)),
                            schedule_json: Some(schedule_to_json(sched)),
                            divergence: Some(divergence),
                            detail: format!(
                                "shrunk to {shrunk_nnz} entries (backend {})",
                                exec.name()
                            ),
                        });
                    }
                }
            }
        }
    }

    SuiteReport {
        name: "differential",
        executed,
        skipped,
        failures,
    }
}
