//! Counter-asserting properties of the execution layer.
//!
//! Workspace reuse: a Gustavson SpGEMM `PlannedKernel` run twice must
//! produce bit-identical output with zero additional workspace allocations —
//! the second run draws every dense temporary from the pool
//! (`exec.workspace.alloc` stays flat, `exec.workspace.reuse` grows) — and
//! the fused SDDMM+SpMM row draws none at all. Fast-path accounting:
//! `exec.plan.fastpath.*` counts runs that ran — once each — and never a
//! call validation rejected.
//!
//! This lives in its own integration-test binary so the process-global
//! observability counters cannot be polluted by unrelated unit tests
//! running in parallel.

use std::sync::Mutex;
use waco_exec::{ExecError, Executor, FastPath, KernelArgs};
use waco_schedule::{named, Kernel, Space};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::{CsrMatrix, DenseMatrix, DenseVector};

/// The observability sink and the workspace pool are process-global, so
/// the counter-asserting tests must not interleave.
static TEST_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn second_run_is_bit_identical_with_zero_new_allocations() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng64::seed_from(41);
    let a = gen::uniform_random(64, 56, 0.1, &mut rng);
    let b = CsrMatrix::from_coo(&gen::uniform_random(56, 48, 0.1, &mut rng));

    let space = Space::new(Kernel::SpGEMM, vec![64, 56], 48);
    let sched = named::default_csr(&space);
    let planned = Executor::planned().prepare(&a, &sched, &space).unwrap();

    waco_obs::install();
    waco_obs::reset();

    let first = planned
        .run(KernelArgs::Spgemm { b: &b })
        .unwrap()
        .into_csr()
        .unwrap();
    let after_first = waco_obs::snapshot();
    let allocs_first = after_first.counter("exec.workspace.alloc");
    assert!(
        allocs_first >= 1,
        "a cold run allocates its workspace (got {allocs_first})"
    );

    let second = planned
        .run(KernelArgs::Spgemm { b: &b })
        .unwrap()
        .into_csr()
        .unwrap();
    let after_second = waco_obs::snapshot();
    waco_obs::uninstall();

    assert_eq!(
        after_second.counter("exec.workspace.alloc"),
        allocs_first,
        "the warm run must not allocate: every workspace comes from the pool"
    );
    assert!(
        after_second.counter("exec.workspace.reuse") > after_first.counter("exec.workspace.reuse"),
        "the warm run draws from the pool"
    );

    assert_eq!(first.row_ptr(), second.row_ptr());
    assert_eq!(first.col_idx(), second.col_idx());
    for (x, y) in first.vals().iter().zip(second.vals()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// The fused row adds each sampled value into its output as it is made, so
/// it draws nothing from the pool: neither a cold nor a warm run moves a
/// workspace counter, and the two runs agree bit for bit.
#[test]
fn fused_kernel_touches_no_workspace() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng64::seed_from(42);
    let a = gen::uniform_random(48, 44, 0.12, &mut rng);
    let b = DenseMatrix::from_fn(48, 6, |r, c| ((r + c) % 5) as f32 * 0.2 - 0.4);
    let c = DenseMatrix::from_fn(6, 44, |r, c| ((2 * r + c) % 7) as f32 * 0.1 - 0.3);
    let f = DenseMatrix::from_fn(44, 8, |r, c| ((r * 3 + c) % 9) as f32 * 0.25 - 1.0);

    let space = Space::new(Kernel::SddmmSpmm, vec![48, 44], 6);
    let sched = named::default_csr(&space);
    let planned = Executor::planned().prepare(&a, &sched, &space).unwrap();
    assert_eq!(planned.plan().fast_path(), FastPath::FusedSddmmSpmm);
    let args = KernelArgs::SddmmSpmm {
        b: &b,
        c: &c,
        f: &f,
    };

    waco_obs::install();
    waco_obs::reset();
    let first = planned.run(args).unwrap().into_matrix().unwrap();
    let second = planned.run(args).unwrap().into_matrix().unwrap();
    let after = waco_obs::snapshot();
    waco_obs::uninstall();

    assert_eq!(
        after.counter("exec.kernel_runs"),
        2,
        "both runs were observed"
    );
    for counter in ["exec.workspace.alloc", "exec.workspace.reuse"] {
        assert_eq!(after.counter(counter), 0, "{counter}");
    }
    for (x, y) in first.as_slice().iter().zip(second.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn a_rejected_call_counts_no_fast_path_and_a_run_counts_one() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fastpath_total = || {
        let counters = waco_obs::snapshot().counters;
        let of_tier = counters
            .iter()
            .filter(|(name, _)| name.starts_with("exec.plan.fastpath."));
        of_tier.map(|(_, n)| n).sum::<u64>()
    };
    // Correct operands for a 12×10 (×8 ×9) instance of each kernel...
    let x = DenseVector::zeros(10);
    let b_k = DenseMatrix::zeros(10, 4);
    let b_i = DenseMatrix::zeros(12, 4);
    let b_l = DenseMatrix::zeros(8, 4);
    let c = DenseMatrix::zeros(4, 10);
    let f = DenseMatrix::zeros(10, 3);
    let b_sparse = CsrMatrix::from_coo(&gen::uniform_random(10, 4, 0.3, &mut Rng64::seed_from(45)));
    // ...and one wrong-shaped stand-in for each.
    let bad_x = DenseVector::zeros(7);
    let bad = DenseMatrix::zeros(7, 7);
    let bad_sparse = CsrMatrix::from_coo(&gen::mesh2d(3, 3));

    let a = gen::uniform_random(12, 10, 0.3, &mut Rng64::seed_from(43));
    let t = gen::random_tensor3([12, 10, 8], 60, &mut Rng64::seed_from(44));
    type Args<'a> = KernelArgs<'a>;
    let cases: [(Kernel, Args<'_>, Args<'_>); 6] = [
        (Kernel::SpMV, Args::Spmv { x: &x }, Args::Spmv { x: &bad_x }),
        (Kernel::SpMM, Args::Spmm { b: &b_k }, Args::Spmm { b: &bad }),
        (
            Kernel::SDDMM,
            Args::Sddmm { b: &b_i, c: &c },
            Args::Sddmm { b: &b_i, c: &bad },
        ),
        (
            Kernel::MTTKRP,
            Args::Mttkrp { b: &b_k, c: &b_l },
            Args::Mttkrp { b: &bad, c: &b_l },
        ),
        (
            Kernel::SpGEMM,
            Args::Spgemm { b: &b_sparse },
            Args::Spgemm { b: &bad_sparse },
        ),
        (
            Kernel::SddmmSpmm,
            Args::SddmmSpmm {
                b: &b_i,
                c: &c,
                f: &f,
            },
            Args::SddmmSpmm {
                b: &b_i,
                c: &c,
                f: &bad,
            },
        ),
    ];

    waco_obs::install();
    for (kernel, good, bad) in cases {
        let dims = if kernel == Kernel::MTTKRP {
            vec![12, 10, 8]
        } else {
            vec![12, 10]
        };
        let space = Space::new(kernel, dims, if kernel == Kernel::SpMV { 0 } else { 4 });
        let sched = named::default_csr(&space);
        let pk = if kernel == Kernel::MTTKRP {
            Executor::planned().prepare(&t, &sched, &space)
        } else {
            Executor::planned().prepare(&a, &sched, &space)
        }
        .unwrap();

        waco_obs::reset();
        let rejected = pk.run(bad);
        assert!(
            matches!(rejected, Err(ExecError::OperandMismatch(_))),
            "{kernel}: wrong-shaped operands must be rejected"
        );
        assert_eq!(fastpath_total(), 0, "{kernel}: a rejected call ran nothing");

        pk.run(good).unwrap();
        let own = pk.plan().fast_path().names().exec_counter;
        assert_eq!(waco_obs::snapshot().counter(own), 1, "{kernel}: {own}");
        assert_eq!(fastpath_total(), 1, "{kernel}: exactly one variant counted");

        waco_exec::oracle::run(&pk, good).unwrap();
        assert_eq!(
            fastpath_total(),
            1,
            "{kernel}: the oracle takes no fast path"
        );
    }
    waco_obs::uninstall();
}
