//! Deeper cross-crate properties of the simulator against the executor's
//! semantics: for *any* feasible SuperSchedule, the simulated walk must
//! visit every stored nonzero exactly once, and its derived quantities must
//! stay in their domains.

use waco::prelude::*;
use waco::tensor::gen;
use waco_check::props;

fn xeon() -> Simulator {
    Simulator::new(MachineConfig::xeon_like())
}

props! {
    /// Every complete loop-space point maps to exactly one storage slot, so
    /// any schedule's walk sees each stored nonzero exactly once.
    cases = 40,
    fn bodies_equal_nnz_for_any_schedule(seed in 0u64..1_000_000,
                                         sseed in 0u64..1_000_000,
                                         n in 8usize..48) {
        let mut rng = Rng64::seed_from(seed);
        let m = gen::uniform_random(n, n, 0.12, &mut rng);
        let sim = xeon();
        let space = sim.space_for(Kernel::SpMV, vec![n, n], 0);
        let mut srng = Rng64::seed_from(sseed);
        let sched = SuperSchedule::sample(&space, &mut srng);
        if let Ok(r) = sim.time_matrix(&m, &sched, &space) {
            assert_eq!(r.bodies, m.nnz() as u64,
                "schedule {}", sched.describe(&space));
        }
    }

    /// Report invariants: positive time, ratios in domain, imbalance ≥ ~1.
    cases = 40,
    fn report_domains(seed in 0u64..1_000_000, sseed in 0u64..1_000_000) {
        let mut rng = Rng64::seed_from(seed);
        let m = gen::powerlaw_rows(48, 48, 5.0, 1.2, &mut rng);
        let sim = xeon();
        let space = sim.space_for(Kernel::SpMM, vec![48, 48], 8);
        let mut srng = Rng64::seed_from(sseed);
        let sched = SuperSchedule::sample(&space, &mut srng);
        if let Ok(r) = sim.time_matrix(&m, &sched, &space) {
            assert!(r.seconds > 0.0);
            assert!((0.0..=1.0).contains(&r.miss_ratio));
            assert!(r.imbalance >= 0.99, "imbalance {}", r.imbalance);
            assert!(r.simd_factor >= 1.0);
            assert!(r.threads >= 1);
            assert!(r.convert_seconds > 0.0);
        }
    }

    /// The same schedule under more threads (same chunk) never increases
    /// the pure-work term and the report stays finite.
    cases = 40,
    fn thread_count_is_modeled(seed in 0u64..1_000_000) {
        let mut rng = Rng64::seed_from(seed);
        let m = gen::uniform_random(256, 256, 0.03, &mut rng);
        let sim = xeon();
        let space = sim.space_for(Kernel::SpMV, vec![256, 256], 0);
        let mut s24 = waco::schedule::named::default_csr(&space);
        s24.parallel = Some(waco::schedule::Parallelize {
            var: waco::schedule::LoopVar::outer(0),
            threads: 24,
            chunk: 8,
        });
        let mut s1 = s24.clone();
        s1.parallel = None;
        let t24 = sim.time_matrix(&m, &s24, &space).unwrap();
        let t1 = sim.time_matrix(&m, &s1, &space).unwrap();
        // 2k nnz of work across 24 threads must beat serial at these
        // machine constants.
        assert!(t24.seconds < t1.seconds,
            "24 threads {} vs serial {}", t24.seconds, t1.seconds);
    }
}

#[test]
fn sddmm_and_mttkrp_body_counts() {
    let mut rng = Rng64::seed_from(5);
    let sim = xeon();

    let m = gen::kronecker(5, 150, &mut rng);
    let space = sim.space_for(Kernel::SDDMM, vec![32, 32], 8);
    let sched = waco::schedule::named::default_csr(&space);
    let r = sim.time_matrix(&m, &sched, &space).unwrap();
    assert_eq!(r.bodies, m.nnz() as u64);

    let t = gen::random_tensor3([12, 12, 12], 120, &mut rng);
    let space3 = sim.space_for(Kernel::MTTKRP, vec![12, 12, 12], 4);
    let sched3 = waco::schedule::named::default_csr(&space3);
    let r3 = sim.time_batch(&t, &[sched3], &space3).remove(0).unwrap();
    assert_eq!(r3.bodies, t.nnz() as u64);
}

#[test]
fn in_place_parallel_preserves_written_locality() {
    // A k-outer traversal with i parallelized *inside* must keep the
    // k-blocked reuse (the §5.2.1 sparse-block story): its miss ratio must
    // beat row-major CSR's on a cache-busting matrix.
    let mut machine = MachineConfig::xeon_like();
    machine.cache_bytes = 2 << 10; // 32 x-lines: smaller than x itself
    let sim = Simulator::new(machine);
    let mut rng = Rng64::seed_from(9);
    let m = gen::uniform_random(128, 2048, 0.02, &mut rng);
    let space = sim.space_for(Kernel::SpMV, vec![128, 2048], 0);

    let csr = waco::schedule::named::default_csr(&space);
    let (name, splits, fmt) = waco::schedule::named::best_format_candidates(&space)
        .into_iter()
        .find(|(n, _, _)| n == "SparseBlock")
        .unwrap();
    let sb = waco::schedule::named::concordant(&space, splits, fmt, 24, 32);
    assert_eq!(name, "SparseBlock");
    // Parallel var of the concordant sparse-block schedule is i (inside k1).
    let r_csr = sim.time_matrix(&m, &csr, &space).unwrap();
    let r_sb = sim.time_matrix(&m, &sb, &space).unwrap();
    assert!(
        r_sb.miss_ratio < r_csr.miss_ratio,
        "sparse-block miss {} must beat CSR {}",
        r_sb.miss_ratio,
        r_csr.miss_ratio
    );
}
