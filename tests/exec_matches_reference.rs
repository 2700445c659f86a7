//! Cross-crate property tests: the unified `Executor` surface must agree
//! with the reference kernels for *any* sampled SuperSchedule, on all four
//! kernels. This is the central correctness property of the TACO-substitute
//! stack (tensor → format → schedule → exec).

use waco::prelude::*;
use waco::tensor::csr::mttkrp_reference;
use waco::tensor::gen;
use waco_check::props;

fn matrix_from(seed: u64, nrows: usize, ncols: usize, nnz_target: usize) -> CooMatrix {
    let mut rng = Rng64::seed_from(seed);
    let density = nnz_target as f64 / (nrows * ncols) as f64;
    gen::uniform_random(nrows, ncols, density.min(0.5), &mut rng)
}

fn sched_from(space: &Space, seed: u64) -> SuperSchedule {
    let mut rng = Rng64::seed_from(seed);
    SuperSchedule::sample(space, &mut rng)
}

props! {
    cases = 48,
    fn spmv_any_schedule(seed in 0u64..1_000_000, sseed in 0u64..1_000_000,
                         nrows in 4usize..40, ncols in 4usize..40) {
        let m = matrix_from(seed, nrows, ncols, nrows * 3);
        let space = Space::new(Kernel::SpMV, vec![nrows, ncols], 0);
        let sched = sched_from(&space, sseed);
        let x = DenseVector::from_fn(ncols, |i| ((i * 13 % 7) as f32) - 3.0);
        let run = Executor::planned()
            .prepare(&m, &sched, &space)
            .and_then(|pk| pk.run(KernelArgs::Spmv { x: &x }))
            .and_then(|out| out.into_vector());
        match run {
            Ok(y) => {
                let r = CsrMatrix::from_coo(&m).spmv(&x);
                assert!(y.max_abs_diff(&r) < 1e-2,
                    "schedule {} diff {}", sched.describe(&space), y.max_abs_diff(&r));
            }
            Err(waco::exec::ExecError::Format(_)) => {} // over storage budget: excluded
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    cases = 48,
    fn spmm_any_schedule(seed in 0u64..1_000_000, sseed in 0u64..1_000_000,
                         n in 4usize..32, nj in 1usize..12) {
        let m = matrix_from(seed, n, n, n * 3);
        let space = Space::new(Kernel::SpMM, vec![n, n], nj);
        let sched = sched_from(&space, sseed);
        let b = DenseMatrix::from_fn(n, nj, |r, c| ((r * 5 + c * 3) % 11) as f32 * 0.25 - 1.0);
        let run = Executor::planned()
            .prepare(&m, &sched, &space)
            .and_then(|pk| pk.run(KernelArgs::Spmm { b: &b }))
            .and_then(|out| out.into_matrix());
        if let Ok(c) = run {
            let r = CsrMatrix::from_coo(&m).spmm(&b);
            assert!(c.max_abs_diff(&r) < 1e-2,
                "schedule {} diff {}", sched.describe(&space), c.max_abs_diff(&r));
        }
    }

    cases = 48,
    fn sddmm_any_schedule(seed in 0u64..1_000_000, sseed in 0u64..1_000_000,
                          n in 4usize..28, nk in 1usize..10) {
        let m = matrix_from(seed, n, n, n * 2);
        let space = Space::new(Kernel::SDDMM, vec![n, n], nk);
        let sched = sched_from(&space, sseed);
        let b = DenseMatrix::from_fn(n, nk, |r, c| ((r + 2 * c) % 9) as f32 * 0.3);
        let cm = DenseMatrix::from_fn(nk, n, |r, c| ((2 * r + c) % 7) as f32 * 0.4 - 1.0);
        let run = Executor::planned()
            .prepare(&m, &sched, &space)
            .and_then(|pk| pk.run(KernelArgs::Sddmm { b: &b, c: &cm }))
            .and_then(|out| out.into_sparse());
        if let Ok(d) = run {
            let r = CsrMatrix::from_coo(&m).sddmm(&b, &cm);
            assert!(d.to_dense().max_abs_diff(&r.to_dense()) < 1e-2,
                "schedule {}", sched.describe(&space));
        }
    }

    cases = 48,
    fn mttkrp_any_schedule(seed in 0u64..1_000_000, sseed in 0u64..1_000_000,
                           n in 3usize..14, rank in 1usize..8) {
        let mut rng = Rng64::seed_from(seed);
        let t = gen::random_tensor3([n, n, n], n * n, &mut rng);
        let space = Space::new(Kernel::MTTKRP, vec![n, n, n], rank);
        let sched = sched_from(&space, sseed);
        let b = DenseMatrix::from_fn(n, rank, |r, c| ((r * 3 + c) % 5) as f32 * 0.5);
        let cm = DenseMatrix::from_fn(n, rank, |r, c| ((r + c * 2) % 6) as f32 * 0.25 - 0.5);
        let run = Executor::planned()
            .prepare(&t, &sched, &space)
            .and_then(|pk| pk.run(KernelArgs::Mttkrp { b: &b, c: &cm }))
            .and_then(|out| out.into_matrix());
        if let Ok(d) = run {
            let r = mttkrp_reference(&t, &b, &cm);
            assert!(d.max_abs_diff(&r) < 1e-2,
                "schedule {}", sched.describe(&space));
        }
    }

    /// Structured patterns (not just uniform noise) through random schedules.
    cases = 48,
    fn spmv_structured_patterns(sseed in 0u64..1_000_000, pick in 0usize..4) {
        let mut rng = Rng64::seed_from(sseed);
        let m = match pick {
            0 => gen::banded(24, 3, 0.7, &mut rng),
            1 => gen::blocked(24, 24, 4, 8, 0.8, &mut rng),
            2 => gen::powerlaw_rows(24, 24, 4.0, 1.2, &mut rng),
            _ => gen::mesh2d(5, 5),
        };
        let space = Space::new(Kernel::SpMV, vec![m.nrows(), m.ncols()], 0);
        let sched = sched_from(&space, sseed ^ 0xDEAD);
        let x = DenseVector::from_fn(m.ncols(), |i| (i as f32 * 0.11).cos());
        let run = Executor::planned()
            .prepare(&m, &sched, &space)
            .and_then(|pk| pk.run(KernelArgs::Spmv { x: &x }))
            .and_then(|out| out.into_vector());
        if let Ok(y) = run {
            let r = CsrMatrix::from_coo(&m).spmv(&x);
            assert!(y.max_abs_diff(&r) < 1e-2);
        }
    }
}
