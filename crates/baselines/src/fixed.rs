//! Fixed CSR / CSF: TACO defaults, no tuning (also the "MKL-Naive"
//! reference implementation).

use crate::TunedResult;
use waco_schedule::{named, Kernel};
use waco_sim::{Result, Simulator};
use waco_tensor::Operand;

/// Fixed CSR for a 2-D kernel, fixed CSF (CCC) for MTTKRP: the paper's
/// §5.1 defaults (UC format, chunk 128 for SpMV / 32 otherwise, max
/// threads).
///
/// # Errors
///
/// Simulation failures (over-budget storage, over-limit work).
///
/// # Panics
///
/// Panics if `a` is not of `kernel`'s order.
pub fn fixed_default<'a>(
    sim: &Simulator,
    kernel: Kernel,
    a: impl Into<Operand<'a>>,
    dense_extent: usize,
) -> Result<TunedResult> {
    let a = a.into();
    let space = sim.space_for(kernel, a.dims(), dense_extent);
    let sched = named::default_csr(&space);
    let report = sim
        .time_batch(a, std::slice::from_ref(&sched), &space)
        .remove(0)?;
    let name = if kernel == Kernel::MTTKRP {
        "FixedCSF"
    } else {
        "FixedCSR"
    };
    Ok(TunedResult {
        name: name.into(),
        sched,
        kernel_seconds: report.seconds,
        tuning_seconds: 0.0,
        convert_seconds: 0.0, // the input arrives in this format
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_schedule::Space;
    use waco_sim::MachineConfig;
    use waco_tensor::gen::{self, Rng64};

    #[test]
    fn fixed_csr_runs_all_2d_kernels() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(1);
        let m = gen::uniform_random(64, 64, 0.05, &mut rng);
        for kernel in [Kernel::SpMV, Kernel::SpMM, Kernel::SDDMM] {
            let r = fixed_default(&sim, kernel, &m, 16).unwrap();
            assert!(r.kernel_seconds > 0.0, "{kernel}");
            assert_eq!(r.tuning_seconds, 0.0);
            assert_eq!(r.convert_seconds, 0.0);
        }
    }

    #[test]
    fn fixed_csf_runs() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(2);
        let t = gen::random_tensor3([16, 16, 16], 120, &mut rng);
        let r = fixed_default(&sim, Kernel::MTTKRP, &t, 8).unwrap();
        assert!(r.kernel_seconds > 0.0);
        assert_eq!(r.name, "FixedCSF");
    }

    #[test]
    fn end_to_end_accounting() {
        let r = TunedResult {
            name: "x".into(),
            sched: named::default_csr(&Space::new(Kernel::SpMV, vec![4, 4], 0)),
            kernel_seconds: 2.0,
            tuning_seconds: 10.0,
            convert_seconds: 5.0,
        };
        assert_eq!(r.end_to_end(0), 15.0);
        assert_eq!(r.end_to_end(3), 21.0);
    }
}
