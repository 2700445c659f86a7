//! Cross-crate invariants of the cost simulator: determinism, agreement
//! with the interpreter's control flow, and sensible monotonicities.

use waco::prelude::*;
use waco::schedule::named;
use waco::tensor::gen;
use waco_check::props;

fn xeon() -> Simulator {
    Simulator::new(MachineConfig::xeon_like())
}

props! {
    /// Simulation is a pure function of (matrix, schedule, machine).
    cases = 32,
    fn deterministic(seed in 0u64..1_000_000, sseed in 0u64..1_000_000) {
        let mut rng = Rng64::seed_from(seed);
        let m = gen::uniform_random(32, 32, 0.1, &mut rng);
        let sim = xeon();
        let space = sim.space_for(Kernel::SpMV, vec![32, 32], 0);
        let mut srng = Rng64::seed_from(sseed);
        let sched = SuperSchedule::sample(&space, &mut srng);
        let a = sim.time_matrix(&m, &sched, &space);
        let b = sim.time_matrix(&m, &sched, &space);
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            _ => panic!("non-deterministic feasibility"),
        }
    }

    /// The simulator's body count equals the true number of stored nonzeros
    /// visited (for padding-free formats: exactly nnz).
    cases = 32,
    fn bodies_equal_nnz_for_csr(seed in 0u64..1_000_000, n in 8usize..64) {
        let mut rng = Rng64::seed_from(seed);
        let m = gen::uniform_random(n, n, 0.1, &mut rng);
        let sim = xeon();
        let space = sim.space_for(Kernel::SpMV, vec![n, n], 0);
        let sched = named::default_csr(&space);
        let r = sim.time_matrix(&m, &sched, &space).unwrap();
        assert_eq!(r.bodies, m.nnz() as u64);
    }

    /// More nonzeros (same shape, superset pattern) never simulate faster
    /// under the default schedule.
    cases = 32,
    fn monotone_in_nnz(seed in 0u64..1_000_000) {
        let mut rng = Rng64::seed_from(seed);
        let small = gen::uniform_random(64, 64, 0.05, &mut rng);
        let extra = gen::uniform_random(64, 64, 0.05, &mut rng);
        let big = CooMatrix::from_triplets(
            64, 64,
            small.iter().chain(extra.iter()),
        ).unwrap();
        let sim = xeon();
        let space = sim.space_for(Kernel::SpMV, vec![64, 64], 0);
        let mut sched = named::default_csr(&space);
        sched.parallel = None; // isolate work from load balance
        let ts = sim.time_matrix(&small, &sched, &space).unwrap();
        let tb = sim.time_matrix(&big, &sched, &space).unwrap();
        assert!(tb.seconds >= ts.seconds * 0.999,
            "superset pattern got faster: {} vs {}", tb.seconds, ts.seconds);
    }
}

#[test]
fn machines_rank_thread_counts_differently() {
    // 48 threads help the Xeon-like machine (24 cores) on big balanced
    // work, while 48 > EPYC's 16 hardware threads would oversubscribe —
    // the menu prevents that, but speeds must reflect core counts.
    let x = MachineConfig::xeon_like();
    let e = MachineConfig::epyc_like();
    assert!(x.thread_speed(48) > e.thread_speed(48));
    assert_eq!(e.thread_speed(8), 1.0);
}

#[test]
fn simd_threshold_matches_fig14() {
    let x = MachineConfig::xeon_like();
    // Per-element cost is flat below 16 and drops by the vector width at 16.
    let c15 = x.simd_unit_cost(15);
    let c16 = x.simd_unit_cost(16);
    assert_eq!(x.simd_unit_cost(1), c15);
    assert!((c15 / c16 - x.vector_width as f64).abs() < 1e-9);
}

#[test]
fn convert_cost_zero_free_for_reused_storage() {
    // time_stored never includes conversion in `seconds`; the caller
    // accounts for it once (the §5.6 split).
    let mut rng = Rng64::seed_from(3);
    let m = gen::uniform_random(48, 48, 0.1, &mut rng);
    let sim = xeon();
    let space = sim.space_for(Kernel::SpMV, vec![48, 48], 0);
    let sched = named::default_csr(&space);
    let spec = sched.a_format_spec(&space).unwrap();
    let st = waco::format::SparseStorage::from_matrix(&m, &spec).unwrap();
    let a = sim
        .time_stored(&st, std::slice::from_ref(&sched), &space)
        .remove(0)
        .unwrap();
    let b = sim.time_matrix(&m, &sched, &space).unwrap();
    assert_eq!(a.seconds, b.seconds);
    assert!(a.convert_seconds > 0.0);
}
