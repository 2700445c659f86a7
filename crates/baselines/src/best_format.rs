//! BestFormat: format-only selection among a candidate menu.
//!
//! The paper's BestFormat baseline (§5.1) predicts the best of "a handful"
//! of candidate formats with a CNN classifier (Zhao et al. for matrices,
//! SpTFS for tensors) and runs a concordant schedule on it. We select among
//! the same five-candidate menus with an *oracle* (simulating every
//! candidate and taking the true best) — an upper bound on any classifier's
//! quality — and charge as `T_tuning` a classifier-inference cost model
//! (downsample + small CNN: linear in nnz plus a constant).

use crate::{fastest, TunedResult};
use waco_schedule::{named, Kernel, SuperSchedule};
use waco_sim::{Result, SimError, Simulator};
use waco_tensor::Operand;

/// Simulated classifier-inference time: downsampling each nonzero plus a
/// fixed CNN forward pass.
pub fn classifier_seconds(nnz: usize) -> f64 {
    5e-4 + nnz as f64 * 2e-9
}

/// BestFormat over the five-candidate menu of the kernel's order: Zhao et
/// al.'s matrix formats ([`named::best_format_candidates`]) or the
/// SpTFS-style CSF menu ([`named::best_format_candidates_3d`]). The menu's
/// concordant schedules are timed in one batch and the [`fastest`] kept; the
/// tuning bill is the classifier's on the operand's nonzeros.
///
/// # Errors
///
/// When no candidate simulates successfully.
///
/// # Panics
///
/// Panics if `a` is not of `kernel`'s order.
pub fn best_format<'a>(
    sim: &Simulator,
    kernel: Kernel,
    a: impl Into<Operand<'a>>,
    dense_extent: usize,
) -> Result<TunedResult> {
    let a = a.into();
    let space = sim.space_for(kernel, a.dims(), dense_extent);
    let menu = if kernel == Kernel::MTTKRP {
        named::best_format_candidates_3d(&space)
    } else {
        named::best_format_candidates(&space)
    };
    let threads = *space.thread_options.iter().max().expect("non-empty menu");
    let (names, mut scheds): (Vec<String>, Vec<SuperSchedule>) = menu
        .into_iter()
        .map(|(name, splits, fmt)| (name, named::concordant(&space, splits, fmt, threads, 32)))
        .unzip();
    let reports = sim.time_batch(a, &scheds, &space);
    let win = fastest(&scheds, &reports, &space).ok_or(SimError::TooExpensive {
        estimate: f64::INFINITY,
        limit: 0.0,
    })?;
    Ok(TunedResult {
        name: format!("BestFormat({})", names[win.index]),
        sched: scheds.swap_remove(win.index),
        kernel_seconds: win.kernel_seconds,
        tuning_seconds: classifier_seconds(a.nnz()),
        convert_seconds: win.convert_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::fixed_default;
    use waco_sim::MachineConfig;
    use waco_tensor::gen::{self, Rng64};

    #[test]
    fn best_format_at_least_matches_csr_candidate() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(1);
        let m = gen::blocked(128, 128, 4, 60, 0.9, &mut rng);
        let bf = best_format(&sim, Kernel::SpMM, &m, 16).unwrap();
        assert!(bf.kernel_seconds > 0.0);
        assert!(bf.tuning_seconds > 0.0);
        assert!(bf.name.starts_with("BestFormat("));
    }

    #[test]
    fn blocked_matrix_prefers_blocked_or_better_than_fixed() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(2);
        let m = gen::blocked(256, 256, 16, 40, 1.0, &mut rng);
        let fixed = fixed_default(&sim, Kernel::SpMV, &m, 0).unwrap();
        let bf = best_format(&sim, Kernel::SpMV, &m, 0).unwrap();
        // Oracle selection can't be slower than its own CSR candidate, and
        // the concordant CSR candidate ≈ fixed CSR up to chunk defaults.
        assert!(
            bf.kernel_seconds <= fixed.kernel_seconds * 1.5,
            "bf {} vs fixed {}",
            bf.kernel_seconds,
            fixed.kernel_seconds
        );
    }

    #[test]
    fn tensor_menu_works() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(3);
        let t = gen::fibered_tensor3([16, 16, 16], 3, 0.6, &mut rng);
        let fixed = fixed_default(&sim, Kernel::MTTKRP, &t, 8).unwrap();
        let bf = best_format(&sim, Kernel::MTTKRP, &t, 8).unwrap();
        assert!(bf.kernel_seconds <= fixed.kernel_seconds * 1.5);
    }

    #[test]
    fn csf_ikl_choice_converts_nothing_other_formats_pay() {
        // CSF-ikl is MTTKRP's input format: the conversion rule of
        // `crate::fastest` charges it nothing, by format, not by menu name.
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(1);
        let t = gen::random_tensor3([16, 16, 16], 150, &mut rng);
        let bf = best_format(&sim, Kernel::MTTKRP, &t, 8).unwrap();
        assert_eq!(bf.name, "BestFormat(CSF-ikl)");
        assert_eq!(bf.convert_seconds, 0.0);
        let fibered = gen::fibered_tensor3([16, 16, 16], 3, 0.6, &mut rng);
        let bf = best_format(&sim, Kernel::MTTKRP, &fibered, 8).unwrap();
        assert_eq!(bf.name, "BestFormat(BlockedCSF)");
        assert!(bf.convert_seconds > 0.0);
    }

    #[test]
    fn csr_choice_has_no_conversion_cost() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(4);
        // Uniform scatter strongly favors plain CSR.
        let m = gen::uniform_random(128, 128, 0.01, &mut rng);
        let bf = best_format(&sim, Kernel::SpMV, &m, 0).unwrap();
        if bf.name == "BestFormat(CSR)" {
            assert_eq!(bf.convert_seconds, 0.0);
        }
    }
}
