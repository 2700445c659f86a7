//! MKL-like inspector-executor: schedule-only tuning on a fixed CSR format.
//!
//! Intel MKL's inspector-executor sparse BLAS (§5.1) keeps the format fixed
//! and tunes the execution strategy by inspecting the matrix. We model the
//! inspector as actually timing a small menu of (threads × chunk)
//! candidates — its tuning cost is the sum of those trial runs, which is
//! why MKL's `T_tuning` is small but its reachable space is, too (the
//! "Absence of co-optimization" limitation of §1).

use crate::{fastest, TunedResult};
use waco_schedule::{named, Kernel, LoopVar, Parallelize};
use waco_sim::{Result, Simulator};
use waco_tensor::CooMatrix;

/// The chunk-size menu the inspector tries.
pub const CHUNK_MENU: [usize; 4] = [1, 8, 32, 128];

/// Runs the MKL-like inspector-executor.
///
/// # Errors
///
/// Simulation failures of the default configuration.
///
/// # Panics
///
/// Panics unless `kernel` is SpMV or SpMM (the routines MKL supports,
/// §5.1).
pub fn mkl_like_matrix(
    sim: &Simulator,
    kernel: Kernel,
    m: &CooMatrix,
    dense_extent: usize,
) -> Result<TunedResult> {
    assert!(
        matches!(kernel, Kernel::SpMV | Kernel::SpMM),
        "MKL inspector-executor supports SpMV and SpMM only"
    );
    let space = sim.space_for(kernel, vec![m.nrows(), m.ncols()], dense_extent);
    let base = named::default_csr(&space);
    let mut menu = Vec::with_capacity(space.thread_options.len() * CHUNK_MENU.len());
    for &threads in &space.thread_options {
        for &chunk in &CHUNK_MENU {
            let mut cand = base.clone();
            cand.parallel = Some(Parallelize {
                var: LoopVar::outer(0),
                threads,
                chunk,
            });
            menu.push(cand);
        }
    }
    let mut reports = sim.time_matrix_batch(m, &menu, &space);
    // The inspector actually runs every entry it tries.
    let tuning = reports.iter().flatten().fold(0.0, |t, r| t + r.seconds);
    let Some(win) = fastest(&menu, &reports, &space) else {
        // Nothing simulated, the default on the menu included: its error.
        let default = menu.iter().position(|c| *c == base);
        return Err(reports
            .swap_remove(default.expect("on the menu"))
            .unwrap_err());
    };
    Ok(TunedResult {
        name: "MKL".into(),
        sched: menu.swap_remove(win.index),
        kernel_seconds: win.kernel_seconds,
        tuning_seconds: tuning,
        convert_seconds: win.convert_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::fixed_csr_matrix;
    use waco_sim::MachineConfig;
    use waco_tensor::gen::{self, Rng64};

    #[test]
    fn mkl_never_loses_to_fixed_csr() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(1);
        for m in [
            gen::powerlaw_rows(256, 256, 8.0, 1.3, &mut rng),
            gen::uniform_random(256, 256, 0.02, &mut rng),
        ] {
            let fixed = fixed_csr_matrix(&sim, Kernel::SpMV, &m, 0).unwrap();
            let mkl = mkl_like_matrix(&sim, Kernel::SpMV, &m, 0).unwrap();
            assert!(
                mkl.kernel_seconds <= fixed.kernel_seconds * 1.0001,
                "inspector tries the fixed config too: {} vs {}",
                mkl.kernel_seconds,
                fixed.kernel_seconds
            );
            assert!(mkl.tuning_seconds > 0.0, "inspection costs time");
        }
    }

    #[test]
    fn skewed_matrix_gets_fine_chunks() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(2);
        let skewed = gen::powerlaw_rows(512, 512, 16.0, 1.5, &mut rng);
        let mkl = mkl_like_matrix(&sim, Kernel::SpMV, &skewed, 0).unwrap();
        let chunk = mkl.sched.parallel.unwrap().chunk;
        assert!(chunk <= 32, "skew should prefer fine chunks, got {chunk}");
    }

    #[test]
    #[should_panic(expected = "SpMV and SpMM only")]
    fn sddmm_unsupported() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let m = gen::mesh2d(4, 4);
        let _ = mkl_like_matrix(&sim, Kernel::SDDMM, &m, 4);
    }
}
