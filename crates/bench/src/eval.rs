//! Per-matrix evaluation of WACO against every applicable baseline.

use waco_baselines::{aspt, best_format, fastest, fixed, mkl, TunedResult};
use waco_core::Waco;
use waco_schedule::{named, Kernel, Space, SuperSchedule};
use waco_sim::Simulator;
use waco_tensor::{CooMatrix, CooTensor3};

/// Simulated kernel seconds of WACO and each baseline on one workload
/// (`None` = baseline not applicable or infeasible).
#[derive(Debug, Clone)]
pub struct BaselineTimes {
    /// Workload name.
    pub name: String,
    /// WACO's tuned result.
    pub waco: TunedResult,
    /// MKL inspector-executor (SpMV / SpMM only).
    pub mkl: Option<TunedResult>,
    /// BestFormat (all kernels).
    pub best_format: Option<TunedResult>,
    /// Fixed CSR / CSF.
    pub fixed: Option<TunedResult>,
    /// ASpT (SpMM / SDDMM only).
    pub aspt: Option<TunedResult>,
}

impl BaselineTimes {
    /// WACO's speedup over a baseline's kernel time (`None` if absent).
    pub fn speedup_over(&self, baseline: &Option<TunedResult>) -> Option<f64> {
        baseline
            .as_ref()
            .map(|b| b.kernel_seconds / self.waco.kernel_seconds)
    }
}

/// Tunes one matrix with WACO and every applicable baseline.
///
/// # Panics
///
/// Panics if WACO itself cannot tune the matrix (the fallback default must
/// simulate) or `waco.kernel` is MTTKRP.
pub fn evaluate_matrix(waco: &mut Waco, name: &str, m: &CooMatrix) -> BaselineTimes {
    let kernel = waco.kernel;
    let dense = waco.dense_extent;
    let tuned = waco.tune_matrix(m).expect("WACO tunes (falls back to CSR)");
    let sim = &waco.sim;
    let mkl = matches!(kernel, Kernel::SpMV | Kernel::SpMM)
        .then(|| mkl::mkl_like_matrix(sim, kernel, m, dense).ok())
        .flatten();
    let best_format = best_format::best_format_matrix(sim, kernel, m, dense).ok();
    let fixed = fixed::fixed_csr_matrix(sim, kernel, m, dense).ok();
    let aspt = matches!(kernel, Kernel::SpMM | Kernel::SDDMM)
        .then(|| aspt::aspt_matrix(sim, kernel, m, dense).ok())
        .flatten();
    BaselineTimes {
        name: name.to_string(),
        waco: tuned.result,
        mkl,
        best_format,
        fixed,
        aspt,
    }
}

/// Tunes one tensor (MTTKRP) with WACO, BestFormat, and Fixed CSF.
///
/// # Panics
///
/// Panics if WACO cannot tune the tensor.
pub fn evaluate_tensor(waco: &mut Waco, name: &str, t: &CooTensor3) -> BaselineTimes {
    let rank = waco.dense_extent;
    let tuned = waco
        .tune_tensor3(t)
        .expect("WACO tunes (falls back to CSF)");
    let sim = &waco.sim;
    BaselineTimes {
        name: name.to_string(),
        waco: tuned.result,
        mkl: None,
        best_format: best_format::best_format_tensor(sim, t, rank).ok(),
        fixed: fixed::fixed_csf_tensor(sim, t, rank).ok(),
        aspt: None,
    }
}

/// The deployment step of a ranked top-k on `sim`: the default schedule
/// (Fixed CSR) and `hits` measured in one batch, and the [`fastest`] kept.
/// Returns its speedup over the default; `None` when the default itself
/// fails to simulate.
pub fn measured_speedup_over_default(
    sim: &Simulator,
    m: &CooMatrix,
    space: &Space,
    hits: impl IntoIterator<Item = SuperSchedule>,
) -> Option<f64> {
    let cands: Vec<SuperSchedule> = std::iter::once(named::default_csr(space))
        .chain(hits)
        .collect();
    let reports = sim.time_matrix_batch(m, &cands, space);
    let default = reports[0].as_ref().ok()?;
    Some(default.seconds / fastest(&cands, &reports, space)?.kernel_seconds)
}

/// Collects WACO-vs-baseline speedups over a set of evaluations.
pub fn speedups(
    rows: &[BaselineTimes],
    pick: impl Fn(&BaselineTimes) -> Option<&TunedResult>,
) -> Vec<f64> {
    rows.iter()
        .filter_map(|r| pick(r).map(|b| b.kernel_seconds / r.waco.kernel_seconds))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use waco_sim::MachineConfig;

    #[test]
    fn evaluate_matrix_fills_applicable_baselines() {
        let scale = Scale::quick();
        let mut waco = scale.train_waco_2d(MachineConfig::xeon_like(), Kernel::SpMM, 8);
        let test = scale.test_corpus();
        let row = evaluate_matrix(&mut waco, &test[0].0, &test[0].1);
        assert!(row.mkl.is_some());
        assert!(row.best_format.is_some());
        assert!(row.fixed.is_some());
        assert!(row.aspt.is_some());
        let s = speedups(&[row], |r| r.fixed.as_ref());
        assert_eq!(s.len(), 1);
        assert!(s[0] > 0.0);
    }
}
