//! The differential fuzzer: every schedule the shared sampler stream emits
//! is executed through the backend under test and compared against the
//! dense oracle.
//!
//! Failures are shrunk before they are reported: the sparse operand's entry
//! list is bisected until neither half still fails, so the report carries
//! the smallest operand the bisection could reach along with the kernel,
//! schedule index, matrix seed, and first diverging coordinate. Replaying
//! the same seed reproduces the identical failure list.

use waco_exec::{KernelArgs, KernelOutput, PlannedKernel};
use waco_schedule::SuperSchedule;

use crate::problem::Problem;
use crate::sweep::{sweep, Tally, Verdict};
use crate::{Divergence, SuiteReport, VerifyConfig};

/// The kernel backend under test: runs one prepared kernel. Every kernel
/// execution of every suite goes through this one method, so a backend
/// injected through [`crate::run_with_executor`] — the harness's own tests
/// substitute a deliberately broken one — is reached by all six kernels.
pub trait Executor: Sync {
    /// Runs `pk` against `args`.
    ///
    /// # Errors
    ///
    /// Whatever the engine behind it reports.
    fn run(&self, pk: &PlannedKernel, args: KernelArgs<'_>) -> waco_exec::Result<KernelOutput>;
}

/// The production backend: [`PlannedKernel::run`], the one serving engine,
/// specialization tier included.
pub struct ExecBackend;

impl Executor for ExecBackend {
    fn run(&self, pk: &PlannedKernel, args: KernelArgs<'_>) -> waco_exec::Result<KernelOutput> {
        pk.run(args)
    }
}

/// The dynamic [`waco_exec::LoopNest`] reference interpreter as a backend.
/// Running the harness with both checks each against the dense oracle
/// independently (the `plan` suite checks them against *each other*).
pub struct InterpreterBackend;

impl Executor for InterpreterBackend {
    fn run(&self, pk: &PlannedKernel, args: KernelArgs<'_>) -> waco_exec::Result<KernelOutput> {
        waco_exec::oracle::run(pk, args)
    }
}

/// Entry-list bisection: the smallest entry subset the halving reaches on
/// which `sched` still diverges from the oracle, and its divergence.
fn shrink(
    problem: &Problem,
    exec: &dyn Executor,
    sched: &SuperSchedule,
    divergence: Divergence,
) -> (usize, Divergence) {
    let sparse = &problem.case.sparse;
    let mut current = sparse.entries();
    let mut best = divergence;
    while current.len() > 1 {
        let (left, right) = current.split_at(current.len() / 2);
        let failing = [left, right].into_iter().find_map(|half| {
            let sub = problem.over(sparse.with_entries(half.iter().copied()));
            let d = sub.divergence(&sub.oracle(), &sub.run(exec, sched)?)?;
            Some((half.to_vec(), d))
        });
        let Some((half, d)) = failing else { break };
        current = half;
        best = d;
    }
    (current.len(), best)
}

/// The differential suite over the whole corpus.
pub fn differential_suite(cfg: &VerifyConfig, exec: &dyn Executor) -> SuiteReport {
    let mut tally = Tally::new("differential");
    for &kernel in &cfg.kernels {
        sweep(
            cfg,
            &mut tally,
            kernel,
            cfg.budget.schedules_per_case(),
            |case| format!("diff/{}/{case}", kernel.wire_name()),
            |case, salt| Problem::standard(case, kernel, cfg.seed, salt).with_oracle(),
            |problem, expected, sched| {
                let Some(got) = problem.run(exec, sched) else {
                    return Verdict::Skip;
                };
                let Some(d) = problem.divergence(expected, &got) else {
                    return Verdict::Pass;
                };
                let (entries, d) = shrink(problem, exec, sched, d);
                Verdict::Fail {
                    divergence: Some(d),
                    detail: format!("shrunk to {entries} entries"),
                }
            },
        );
    }
    tally.finish()
}
