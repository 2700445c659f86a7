//! Oracle tuners over restricted spaces — the motivation experiments.
//!
//! Tables 1 and 2 of the paper compare tuning spaces: format-only (`F.`),
//! schedule-only (`S.`), and joint (`F.+S.`). These helpers implement those
//! restricted searches directly against the simulator (oracle evaluation,
//! no model), which isolates what each *space* can express from how well a
//! particular search navigates it.
//!
//! Restriction semantics in our SuperSchedule representation:
//!
//! * **Format-only** (`F.`): sample splits + level order + level formats;
//!   loops are the concordant traversal of the sampled format;
//!   parallelization stays at the baseline's — the paper's "keeping the
//!   iteration order identical to the baseline, except … concordant with
//!   how the tuned format is aligned".
//! * **Schedule-only** (`S.`): the format stays CSR/CSF (and therefore unit
//!   splits — a representational restriction documented in DESIGN.md);
//!   loop order and `parallelize(var, threads, chunk)` vary.
//! * **Joint** (`F.+S.`): a true co-optimizer. It explores both single-axis
//!   candidate sets, raw joint samples, concordant-loop variants with
//!   sampled parallelization, and finally sweeps the parallelization menu
//!   on the best format found — the coupling step that produces the
//!   out-sized wins of Table 1 (e.g. TSOPF's 2.02×). A joint tuner can
//!   always evaluate single-axis candidates, so `F.+S. ≥ max(F., S.)` holds
//!   structurally; its tuning bill is correspondingly larger.

use crate::{Result, WacoError};
use waco_baselines::{fastest, TunedResult};
use waco_runtime::ThreadPool;
use waco_schedule::{named, Kernel, Parallelize, Space, SuperSchedule};
use waco_sim::{SimReport, Simulator};
use waco_tensor::gen::Rng64;
use waco_tensor::{CooMatrix, Operand};

/// Which subspace a restricted search may explore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Restriction {
    /// The full co-optimization space (`F.+S.`).
    Joint,
    /// Format only (`F.`): concordant loops, baseline parallelization.
    FormatOnly,
    /// Schedule only (`S.`): CSR/CSF format, loops and parallelization vary.
    ScheduleOnly,
}

fn project_format_only(space: &Space, sampled: SuperSchedule) -> SuperSchedule {
    let base = named::default_csr(space);
    let p = base.parallel.expect("default is parallel");
    named::concordant(space, sampled.splits, sampled.format, p.threads, p.chunk)
}

fn project_schedule_only(space: &Space, sampled: SuperSchedule) -> SuperSchedule {
    let base = named::default_csr(space);
    SuperSchedule {
        kernel: base.kernel,
        splits: base.splits.clone(),
        loop_order: sampled.loop_order,
        parallel: sampled.parallel,
        format: base.format,
    }
}

/// Times the valid `cands` on `a` in parallel on the persistent pool, each
/// as a batch of one, and returns them with their reports, in candidate
/// order; an invalid candidate is dropped untimed.
fn measure(
    sim: &Simulator,
    a: Operand<'_>,
    space: &Space,
    mut cands: Vec<SuperSchedule>,
) -> (Vec<SuperSchedule>, Vec<waco_sim::Result<SimReport>>) {
    cands.retain(|c| c.validate(space).is_ok());
    let pool = ThreadPool::global();
    let reports = pool.map(&cands, pool.max_participants(), |c| {
        sim.time_batch(a, std::slice::from_ref(c), space).remove(0)
    });
    (cands, reports)
}

/// The oracle search: candidates in generation order — the baseline, the
/// restriction's samples, and for `Joint` the parallelization sweep — each
/// timed once, and the [`fastest`] of all of them kept. The tuning bill is
/// every run and conversion the search paid for.
fn run_search(
    sim: &Simulator,
    a: Operand<'_>,
    space: &Space,
    trials: usize,
    seed: u64,
    restriction: Restriction,
) -> Result<TunedResult> {
    let mut rng = Rng64::seed_from(seed);
    let mut cands = vec![named::default_csr(space)];
    for _ in 0..trials {
        let s = SuperSchedule::sample(space, &mut rng);
        match restriction {
            Restriction::FormatOnly => cands.push(project_format_only(space, s)),
            Restriction::ScheduleOnly => cands.push(project_schedule_only(space, s)),
            // Both single-axis candidate sets (same seed → superset of what
            // the restricted searches see)…
            Restriction::Joint => {
                cands.push(project_format_only(space, s.clone()));
                cands.push(project_schedule_only(space, s.clone()));
                cands.push(s);
            }
        }
    }
    let (mut scheds, mut reports) = measure(sim, a, space, cands);

    if restriction == Restriction::Joint {
        // …then couple: sweep parallelization on the best format found.
        let par_vars = space.parallelizable_vars();
        let best = fastest(&scheds, &reports, space);
        if let (Some(best), Some(&first), Some(&last)) = (best, par_vars.first(), par_vars.last()) {
            let mut sweep = Vec::new();
            for &threads in &space.thread_options {
                for chunk in [1usize, 8, 32, 128, 256] {
                    for var in [first, last] {
                        let mut cand = scheds[best.index].clone();
                        cand.parallel = Some(Parallelize {
                            var,
                            threads,
                            chunk,
                        });
                        sweep.push(cand);
                    }
                }
            }
            let (swept, swept_reports) = measure(sim, a, space, sweep);
            scheds.extend(swept);
            reports.extend(swept_reports);
        }
    }

    let win = fastest(&scheds, &reports, space).ok_or_else(|| {
        WacoError::Infeasible(
            "no candidate (nor the default format) simulated within budget".into(),
        )
    })?;
    Ok(TunedResult {
        name: format!("{restriction:?}"),
        sched: scheds.swap_remove(win.index),
        kernel_seconds: win.kernel_seconds,
        tuning_seconds: reports
            .iter()
            .flatten()
            .fold(0.0, |bill, r| bill + (r.seconds + r.convert_seconds)),
        convert_seconds: win.convert_seconds,
    })
}

/// Oracle random search over a (restricted) space for `kernel` on its
/// sparse operand `a`: a matrix, or MTTKRP's order-3 tensor.
///
/// # Errors
///
/// [`WacoError::WrongOrder`] if `a` is not of `kernel`'s order;
/// [`WacoError::Infeasible`] when not even the TACO default simulates.
pub fn tune<'a>(
    sim: &Simulator,
    kernel: Kernel,
    a: impl Into<Operand<'a>>,
    dense_extent: usize,
    trials: usize,
    seed: u64,
    restriction: Restriction,
) -> Result<TunedResult> {
    let a = a.into();
    crate::check_order(kernel, a)?;
    let space = sim.space_for(kernel, a.dims(), dense_extent);
    run_search(sim, a, &space, trials, seed, restriction)
}

/// Re-times a schedule tuned for one matrix on a different matrix of the
/// same shape (the Table 2 transfer experiment).
///
/// # Errors
///
/// [`WacoError::Sim`] on simulation failures.
pub fn transfer_matrix(
    sim: &Simulator,
    kernel: Kernel,
    target: &CooMatrix,
    dense_extent: usize,
    sched: &SuperSchedule,
) -> Result<f64> {
    let space = sim.space_for(kernel, vec![target.nrows(), target.ncols()], dense_extent);
    Ok(sim.time_matrix(target, sched, &space)?.seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_sim::MachineConfig;
    use waco_tensor::gen::{self};

    #[test]
    fn joint_dominates_restricted_spaces() {
        // The Table 1 shape: F.+S. ≥ max(F., S.).
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(1);
        let m = gen::blocked(128, 128, 16, 30, 0.95, &mut rng);
        let base = waco_baselines::fixed::fixed_default(&sim, Kernel::SpMM, &m, 16).unwrap();
        let f = tune(&sim, Kernel::SpMM, &m, 16, 60, 5, Restriction::FormatOnly).unwrap();
        let s = tune(&sim, Kernel::SpMM, &m, 16, 60, 5, Restriction::ScheduleOnly).unwrap();
        let fs = tune(&sim, Kernel::SpMM, &m, 16, 60, 5, Restriction::Joint).unwrap();
        assert!(f.kernel_seconds <= base.kernel_seconds * 1.0001);
        assert!(s.kernel_seconds <= base.kernel_seconds * 1.0001);
        let best_single = f.kernel_seconds.min(s.kernel_seconds);
        assert!(
            fs.kernel_seconds <= best_single * 1.0001,
            "joint {} vs best single {}",
            fs.kernel_seconds,
            best_single
        );
    }

    #[test]
    fn schedule_only_keeps_csr() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(2);
        let m = gen::powerlaw_rows(128, 128, 8.0, 1.3, &mut rng);
        let s = tune(&sim, Kernel::SpMV, &m, 0, 40, 3, Restriction::ScheduleOnly).unwrap();
        let space = sim.space_for(Kernel::SpMV, vec![128, 128], 0);
        let spec = s.sched.a_format_spec(&space).unwrap();
        assert_eq!(spec.describe(), "i1(U) k1(C) i0(U) k0(U)");
        assert_eq!(s.convert_seconds, 0.0);
    }

    #[test]
    fn format_only_is_concordant() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(3);
        let m = gen::banded(96, 4, 0.6, &mut rng);
        let f = tune(&sim, Kernel::SpMV, &m, 0, 40, 3, Restriction::FormatOnly).unwrap();
        if f.name == "FormatOnly"
            && f.sched != named::default_csr(&sim.space_for(Kernel::SpMV, vec![96, 96], 0))
        {
            let loops = &f.sched.loop_order[..f.sched.format.order.len()];
            for (lv, ax) in loops.iter().zip(&f.sched.format.order) {
                assert_eq!((lv.dim, lv.part), (ax.dim, ax.part));
            }
        }
    }

    #[test]
    fn transfer_runs() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(4);
        let a = gen::uniform_random(64, 64, 0.05, &mut rng);
        let b = gen::blocked(64, 64, 8, 10, 0.9, &mut rng);
        let tuned = tune(&sim, Kernel::SpMV, &a, 0, 30, 5, Restriction::Joint).unwrap();
        let cross = transfer_matrix(&sim, Kernel::SpMV, &b, 0, &tuned.sched).unwrap();
        assert!(cross > 0.0);
    }

    #[test]
    fn mttkrp_joint_tuning() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(5);
        let t = gen::random_tensor3([16, 16, 16], 150, &mut rng);
        let base = waco_baselines::fixed::fixed_default(&sim, Kernel::MTTKRP, &t, 8).unwrap();
        let fs = tune(&sim, Kernel::MTTKRP, &t, 8, 40, 6, Restriction::Joint).unwrap();
        assert!(fs.kernel_seconds <= base.kernel_seconds * 1.0001);
    }
}
