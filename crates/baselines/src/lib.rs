//! The four baselines WACO is compared against (§5.1).
//!
//! * [`fixed::fixed_default`] — **Fixed CSR**: TACO's default format and
//!   schedule (CSR for matrices, CSF for MTTKRP, OpenMP chunk 128/32). Also
//!   serves as the "MKL-Naive" reference of Figure 17 / Table 8 (a plain CSR
//!   kernel with no tuning).
//! * [`mkl::mkl_like_matrix`] — the **MKL inspector-executor**: the format
//!   is pinned to CSR and only the schedule (threads × chunk size) is
//!   tuned, by actually running a small candidate menu — the
//!   schedule-only auto-tuner. SpMV and SpMM only, like the real routines.
//! * [`best_format::best_format`] — **BestFormat**: format-only selection
//!   among five candidate formats with concordant traversal (the Zhao et
//!   al. / SpTFS-style classifier; selection here is oracle-quality, which
//!   is *generous* to this baseline).
//! * [`aspt::aspt_matrix`] — **ASpT-like**: adaptive sparse tiling — rows
//!   reordered by column-tile signature to densify tiles, executed with a
//!   tiled schedule. SpMM and SDDMM only, like the released artifact.
//!
//! All baselines produce a [`TunedResult`] with simulated kernel time plus
//! their tuning and format-conversion overheads, so the end-to-end
//! amortization analyses (Figure 17, Table 8) can be reproduced.
//!
//! Every tuner that times a candidate list and keeps the fastest — MKL's
//! inspector, BestFormat, WACO's top-k measurement, the restricted oracle
//! searches and the experiments' re-timing loops — picks through
//! [`fastest`]. It holds the one conversion rule of Table 8's accounting:
//! the input arrives in [`named::default_csr`]'s format (CSR, or CSF for
//! MTTKRP), so a winner stored that way converts nothing and any other
//! winner pays its simulated conversion.

pub mod aspt;
pub mod best_format;
pub mod fixed;
pub mod mkl;

use waco_exec::ExecError;
use waco_schedule::{named, Kernel, Space, SuperSchedule};
use waco_sim::{SimError, SimReport, Simulator};
use waco_tensor::Operand;

/// Outcome of running one baseline tuner on one workload.
#[derive(Debug, Clone)]
pub struct TunedResult {
    /// Baseline name (for experiment tables).
    pub name: String,
    /// The chosen format + schedule.
    pub sched: SuperSchedule,
    /// Simulated time of one tuned kernel invocation, seconds.
    pub kernel_seconds: f64,
    /// Simulated tuning time (`T_tuning`), seconds.
    pub tuning_seconds: f64,
    /// Simulated format conversion time (`T_formatconvert`), seconds;
    /// zero when the chosen format is the input's (see [`fastest`]).
    pub convert_seconds: f64,
}

impl TunedResult {
    /// End-to-end time for `n_runs` kernel invocations
    /// (`T_tuning + T_formatconvert + n · T_kernel`, §5.6).
    pub fn end_to_end(&self, n_runs: usize) -> f64 {
        self.tuning_seconds + self.convert_seconds + self.kernel_seconds * n_runs as f64
    }
}

/// `kernel`'s schedule space for `a` on `sim`'s machine; an
/// [`ExecError::OperandMismatch`] naming the kernel and the order when `a`
/// is not of `kernel`'s order.
fn space_for(
    sim: &Simulator,
    kernel: Kernel,
    a: Operand<'_>,
    dense_extent: usize,
) -> waco_sim::Result<Space> {
    let (order, want) = (a.dims().len(), kernel.sparse_ndims());
    if order != want {
        return Err(SimError::Exec(ExecError::OperandMismatch(format!(
            "{kernel} takes an order-{want} operand, not order {order}"
        ))));
    }
    Ok(sim.space_for(kernel, a.dims(), dense_extent))
}

/// The measured winner of a candidate list, as [`fastest`] picks it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fastest {
    /// Position of the winner in the candidate list.
    pub index: usize,
    /// Its simulated kernel time, seconds.
    pub kernel_seconds: f64,
    /// What it costs to bring the input into its format, seconds: zero when
    /// it keeps the input format.
    pub convert_seconds: f64,
    /// Whether it is stored in the input format ([`named::default_csr`]'s).
    pub kept_input_format: bool,
}

/// Keeps the fastest of `candidates` given their simulator `reports` (slot
/// for slot): the first candidate whose `Ok` time no later one beats
/// strictly, so a tie goes to the earlier candidate. `Err` reports are
/// skipped; `None` when every report is an `Err`. The winner's
/// `convert_seconds` is charged only when its format differs from
/// [`named::default_csr`]'s, the format the input arrives in.
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn fastest(
    candidates: &[SuperSchedule],
    reports: &[waco_sim::Result<SimReport>],
    space: &Space,
) -> Option<Fastest> {
    assert_eq!(candidates.len(), reports.len(), "one report per candidate");
    let mut best: Option<(usize, &SimReport)> = None;
    for (i, report) in reports.iter().enumerate() {
        let Ok(report) = report else { continue };
        if best.map_or(true, |(_, b)| report.seconds < b.seconds) {
            best = Some((i, report));
        }
    }
    let (index, report) = best?;
    let input = named::default_csr(space).a_format_spec(space).ok();
    let kept_input_format = candidates[index].a_format_spec(space).ok() == input;
    Some(Fastest {
        index,
        kernel_seconds: report.seconds,
        convert_seconds: if kept_input_format {
            0.0
        } else {
            report.convert_seconds
        },
        kept_input_format,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_format::LevelFormat::{Compressed as C, Uncompressed as U};
    use waco_schedule::{LoopVar, Parallelize};

    #[test]
    fn an_operand_of_the_wrong_order_is_a_typed_error() {
        use waco_sim::MachineConfig;
        use waco_tensor::gen::{self, Rng64};
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mesh = gen::mesh2d(4, 4);
        let tensor = gen::random_tensor3([6, 6, 6], 20, &mut Rng64::seed_from(1));
        for (kernel, a, order) in [
            (Kernel::MTTKRP, Operand::from(&mesh), 2),
            (Kernel::SpMV, Operand::from(&tensor), 3),
        ] {
            let fixed = fixed::fixed_default(&sim, kernel, a, 4).map(|r| r.name);
            let best = best_format::best_format(&sim, kernel, a, 4).map(|r| r.name);
            for outcome in [fixed, best] {
                let Err(SimError::Exec(ExecError::OperandMismatch(msg))) = outcome else {
                    panic!("{kernel} over an order-{order} operand: {outcome:?}");
                };
                assert!(msg.contains(&kernel.to_string()), "{msg}");
                assert!(msg.contains(&format!("not order {order}")), "{msg}");
            }
        }
        // The workspace kernels are executor-only: both baselines surface
        // the simulator's refusal.
        for kernel in Kernel::WORKSPACE {
            let fixed = fixed::fixed_default(&sim, kernel, &mesh, 4).map(|r| r.name);
            let best = best_format::best_format(&sim, kernel, &mesh, 4).map(|r| r.name);
            for outcome in [fixed, best] {
                assert!(
                    matches!(outcome, Err(SimError::ExecutorOnly(k)) if k == kernel),
                    "{kernel}: {outcome:?}"
                );
            }
        }
    }

    fn ok(seconds: f64, convert_seconds: f64) -> waco_sim::Result<SimReport> {
        Ok(SimReport {
            seconds,
            convert_seconds,
            traversal_ns: 0.0,
            body_ns: 0.0,
            mem_ns: 0.0,
            parallel_ns: 0.0,
            simd_run: 1,
            simd_factor: 1.0,
            chunks: 1,
            threads: 1,
            imbalance: 1.0,
            miss_ratio: 0.0,
            bodies: 0,
            events: 0,
        })
    }

    fn err() -> waco_sim::Result<SimReport> {
        Err(SimError::TooExpensive {
            estimate: 2.0,
            limit: 1.0,
        })
    }

    fn spmv() -> Space {
        Space::new(Kernel::SpMV, vec![64, 64], 0)
    }

    /// The default schedule re-parallelized: same format, new chunk.
    fn default_with_chunk(space: &Space, chunk: usize) -> SuperSchedule {
        let mut s = named::default_csr(space);
        s.parallel = Some(Parallelize {
            var: LoopVar::outer(0),
            threads: 1,
            chunk,
        });
        s
    }

    /// DCSR: a format other than the input's.
    fn dcsr(space: &Space) -> SuperSchedule {
        let fmt = named::canonical_format(space.kernel, vec![C, C, U, U]);
        named::concordant(space, vec![1; space.kernel.ndims()], fmt, 1, 32)
    }

    #[test]
    fn a_tie_goes_to_the_earlier_candidate() {
        let space = spmv();
        let cands = [dcsr(&space), default_with_chunk(&space, 8), dcsr(&space)];
        let win = fastest(&cands, &[ok(3.0, 1.0), ok(2.0, 1.0), ok(2.0, 1.0)], &space).unwrap();
        assert_eq!(win.index, 1);
        let win = fastest(&cands, &[ok(2.0, 1.0), ok(2.0, 1.0), ok(2.0, 1.0)], &space).unwrap();
        assert_eq!(win.index, 0);
    }

    #[test]
    fn err_reports_are_skipped() {
        let space = spmv();
        let cands = vec![dcsr(&space); 4];
        let win = fastest(&cands, &[err(), ok(5.0, 1.0), err(), ok(4.0, 1.0)], &space).unwrap();
        assert_eq!((win.index, win.kernel_seconds), (3, 4.0));
    }

    #[test]
    fn all_err_is_none() {
        let space = spmv();
        let cands = vec![dcsr(&space); 2];
        assert_eq!(fastest(&cands, &[err(), err()], &space), None);
        assert_eq!(fastest(&[], &[], &space), None);
    }

    #[test]
    fn the_input_format_converts_nothing() {
        // CSR for a matrix kernel, CSF for MTTKRP: whatever the schedule.
        let mttkrp = Space::new(Kernel::MTTKRP, vec![8, 8, 8], 4);
        for space in [spmv(), mttkrp] {
            let cands = [default_with_chunk(&space, 8)];
            let win = fastest(&cands, &[ok(1.0, 0.5)], &space).unwrap();
            assert!(win.kept_input_format, "{}", space.kernel);
            assert_eq!(win.convert_seconds, 0.0, "{}", space.kernel);
        }
    }

    #[test]
    fn any_other_format_pays_its_conversion() {
        let space = spmv();
        let cands = [default_with_chunk(&space, 8), dcsr(&space)];
        let win = fastest(&cands, &[ok(2.0, 0.25), ok(1.0, 0.5)], &space).unwrap();
        assert_eq!(win.index, 1);
        assert!(!win.kept_input_format);
        assert_eq!(win.convert_seconds, 0.5);
        assert_eq!(win.kernel_seconds, 1.0);
    }
}
