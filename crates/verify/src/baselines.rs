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
            let a = case.sparse.operand();
            let mut tuned = vec![
                fixed::fixed_default(&sim, kernel, a, dense),
                best_format::best_format(&sim, kernel, a, dense),
            ];
            // MKL and ASpT tune matrices only.
            if let Sparse::Matrix(m) = &case.sparse {
                if matches!(kernel, Kernel::SpMV | Kernel::SpMM) {
                    tuned.push(mkl::mkl_like_matrix(&sim, kernel, m, dense));
                }
                if matches!(kernel, Kernel::SpMM | Kernel::SDDMM) {
                    tuned.push(aspt::aspt_matrix(&sim, kernel, m, dense));
                }
            }
            let salt = format!("baseline/{}/{}", kernel.wire_name(), case.name);
            let space = sim.space_for(kernel, a.dims(), dense);
            let (problem, expected) =
                Problem::seeded(case, space, mix_seed(cfg.seed, &salt)).with_oracle();
            for t in tuned {
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
