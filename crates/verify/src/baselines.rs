//! Cross-check of the `waco-baselines` tuners: every schedule a baseline
//! picks (FixedCSR/CSF, BestFormat, MKL-like, ASpT) must still compute the
//! right answer when executed, through the same comparator the fuzzer uses.
//! A baseline that declines a case (simulation error — e.g. over-budget
//! storage) counts as skipped, not failed: the tuners are allowed to say
//! no, they are not allowed to be wrong.

use waco_baselines::{aspt, best_format, fixed, mkl};
use waco_schedule::Kernel;
use waco_sim::{MachineConfig, Simulator};

use crate::corpus;
use crate::diff::Executor;
use crate::problem::{dense_extent_for, Problem, Sparse};
use crate::sweep::Tally;
use crate::{mix_seed, SuiteReport, VerifyConfig};

/// The baselines suite: run each tuner, execute its chosen schedule, and
/// compare against the dense oracle.
pub fn baselines_suite(cfg: &VerifyConfig, exec: &dyn Executor) -> SuiteReport {
    let sim = Simulator::new(MachineConfig::xeon_like());
    let mut tally = Tally::new("baselines");
    // Baseline tuners only model the paper's four kernels.
    for &kernel in cfg.kernels.iter().filter(|k| !k.uses_workspace()) {
        for case in corpus::cases(cfg.seed, cfg.budget, kernel) {
            let dense = dense_extent_for(kernel);
            let tuned = match &case.sparse {
                Sparse::Matrix(m) => vec![
                    Some(fixed::fixed_csr_matrix(&sim, kernel, m, dense)),
                    Some(best_format::best_format_matrix(&sim, kernel, m, dense)),
                    matches!(kernel, Kernel::SpMV | Kernel::SpMM)
                        .then(|| mkl::mkl_like_matrix(&sim, kernel, m, dense)),
                    matches!(kernel, Kernel::SpMM | Kernel::SDDMM)
                        .then(|| aspt::aspt_matrix(&sim, kernel, m, dense)),
                ],
                Sparse::Tensor3(t) => vec![
                    Some(fixed::fixed_csf_tensor(&sim, t, dense)),
                    Some(best_format::best_format_tensor(&sim, t, dense)),
                ],
            };
            let salt = format!("baseline/{}/{}", kernel.wire_name(), case.name);
            let space = sim.space_for(kernel, case.sparse.dims(), dense);
            let (problem, expected) =
                Problem::seeded(case, space, mix_seed(cfg.seed, &salt)).with_oracle();
            for t in tuned.into_iter().flatten() {
                let Ok(t) = t else {
                    tally.skipped();
                    continue;
                };
                let detail = format!("baseline {} chose an incorrect schedule", t.name);
                let verdict = problem.check(exec, &t.sched, &expected, &detail);
                tally.book(&problem.case, &problem.space, None, &t.sched, verdict);
            }
        }
    }
    tally.finish()
}
