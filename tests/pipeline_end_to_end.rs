//! End-to-end pipeline integration: train → index → tune → execute, plus
//! baseline contracts, across all crates through the facade.

use waco::baselines::{
    aspt::aspt_matrix, best_format::best_format, fixed::fixed_default, mkl::mkl_like_matrix,
};
use waco::core::autotune::{self, Restriction};
use waco::core::{Waco, WacoConfig};
use waco::prelude::*;
use waco::tensor::gen;

fn xeon() -> Simulator {
    Simulator::new(MachineConfig::xeon_like())
}

#[test]
fn full_spmv_pipeline_tunes_and_executes() {
    let corpus = gen::corpus(8, 32, 21);
    let (mut waco, stats) =
        Waco::train(xeon(), Kernel::SpMV, &corpus, 0, WacoConfig::tiny()).unwrap();
    assert!(!stats.train_loss.is_empty());

    let mut rng = Rng64::seed_from(77);
    let m = gen::powerlaw_rows(48, 48, 6.0, 1.3, &mut rng);
    let tuned = waco.tune(&m).unwrap();
    let space = waco.space_for(&m);
    tuned.result.sched.validate(&space).unwrap();

    // The tuned schedule runs for real and matches the reference.
    let x = DenseVector::from_fn(48, |i| (i % 5) as f32 - 2.0);
    let y = Executor::planned()
        .prepare(&m, &tuned.result.sched, &space)
        .unwrap()
        .run(KernelArgs::Spmv { x: &x })
        .unwrap()
        .into_vector()
        .unwrap();
    let r = CsrMatrix::from_coo(&m).spmv(&x);
    assert!(y.max_abs_diff(&r) < 1e-2);
}

#[test]
fn tuned_beats_or_matches_fixed_csr_on_average() {
    // With measurement of the top-k, WACO should on average be at least as
    // good as the untuned default across a small test set.
    let corpus = gen::corpus(10, 32, 31);
    let (mut waco, _) = Waco::train(xeon(), Kernel::SpMV, &corpus, 0, WacoConfig::tiny()).unwrap();
    let test = gen::corpus(6, 40, 777);
    let mut ratios = Vec::new();
    for (_, m) in &test {
        let tuned = waco.tune(m).unwrap();
        let fixed = fixed_default(&waco.sim, Kernel::SpMV, m, 0).unwrap();
        ratios.push(fixed.kernel_seconds / tuned.result.kernel_seconds);
    }
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    assert!(
        geomean > 0.95,
        "geomean speedup vs FixedCSR too low: {geomean} ({ratios:?})"
    );
}

#[test]
fn baselines_contracts_hold_together() {
    let sim = xeon();
    let mut rng = Rng64::seed_from(5);
    let m = gen::blocked(96, 96, 8, 30, 0.8, &mut rng);

    let fixed = fixed_default(&sim, Kernel::SpMM, &m, 16).unwrap();
    let mkl = mkl_like_matrix(&sim, Kernel::SpMM, &m, 16).unwrap();
    let bf = best_format(&sim, Kernel::SpMM, &m, 16).unwrap();
    let aspt = aspt_matrix(&sim, Kernel::SpMM, &m, 16).unwrap();

    // MKL's menu includes the fixed configuration.
    assert!(mkl.kernel_seconds <= fixed.kernel_seconds * 1.0001);
    // Oracle BestFormat includes a CSR candidate with comparable settings.
    assert!(bf.kernel_seconds <= fixed.kernel_seconds * 1.5);
    // Tuning overhead ordering: fixed pays nothing, tuners pay something.
    assert_eq!(fixed.tuning_seconds, 0.0);
    assert!(mkl.tuning_seconds > 0.0);
    assert!(bf.tuning_seconds > 0.0);
    assert!(aspt.tuning_seconds > 0.0);
}

#[test]
fn restricted_tuning_spaces_are_ordered() {
    // Table 1's structural claim on a blocked matrix.
    let sim = xeon();
    let mut rng = Rng64::seed_from(6);
    let m = gen::blocked(96, 96, 16, 20, 0.95, &mut rng);
    let base = fixed_default(&sim, Kernel::SpMM, &m, 16).unwrap();
    let f = autotune::tune(&sim, Kernel::SpMM, &m, 16, 40, 9, Restriction::FormatOnly).unwrap();
    let s = autotune::tune(&sim, Kernel::SpMM, &m, 16, 40, 9, Restriction::ScheduleOnly).unwrap();
    let fs = autotune::tune(&sim, Kernel::SpMM, &m, 16, 40, 9, Restriction::Joint).unwrap();
    assert!(f.kernel_seconds <= base.kernel_seconds * 1.0001);
    assert!(s.kernel_seconds <= base.kernel_seconds * 1.0001);
    assert!(fs.kernel_seconds <= f.kernel_seconds.min(s.kernel_seconds) * 1.0001);
}

#[test]
fn cross_machine_simulators_differ() {
    // The Table 7 premise: the same schedule times differently on the two
    // machines, so hardware-specific tuning matters.
    let mut rng = Rng64::seed_from(7);
    let m = gen::powerlaw_rows(128, 128, 8.0, 1.3, &mut rng);
    let xeon = Simulator::new(MachineConfig::xeon_like());
    let epyc = Simulator::new(MachineConfig::epyc_like());
    let space_x = xeon.space_for(Kernel::SpMV, vec![128, 128], 0);
    let space_e = epyc.space_for(Kernel::SpMV, vec![128, 128], 0);
    let sched_x = waco::schedule::named::default_csr(&space_x);
    let sched_e = waco::schedule::named::default_csr(&space_e);
    let tx = xeon.time_matrix(&m, &sched_x, &space_x).unwrap();
    let te = epyc.time_matrix(&m, &sched_e, &space_e).unwrap();
    assert_ne!(tx.seconds, te.seconds);
}

#[test]
fn mttkrp_pipeline_works() {
    let mut rng = Rng64::seed_from(8);
    let corpus: Vec<(String, CooTensor3)> = (0..4)
        .map(|i| {
            (
                format!("t{i}"),
                gen::random_tensor3([10, 10, 10], 80, &mut rng),
            )
        })
        .collect();
    let (mut waco, _) =
        Waco::train(xeon(), Kernel::MTTKRP, &corpus, 4, WacoConfig::tiny()).unwrap();
    let t = gen::fibered_tensor3([10, 10, 10], 2, 0.6, &mut rng);
    let tuned = waco.tune(&t).unwrap();
    assert!(tuned.result.kernel_seconds > 0.0);

    // Execute the tuned MTTKRP for real.
    let space = waco.sim.space_for(Kernel::MTTKRP, t.dims().to_vec(), 4);
    let b = DenseMatrix::from_fn(10, 4, |r, c| (r + c) as f32 * 0.1);
    let c = DenseMatrix::from_fn(10, 4, |r, c| (r * c) as f32 * 0.05 - 0.2);
    let d = Executor::planned()
        .prepare(&t, &tuned.result.sched, &space)
        .unwrap()
        .run(KernelArgs::Mttkrp { b: &b, c: &c })
        .unwrap()
        .into_matrix()
        .unwrap();
    let r = waco::tensor::csr::mttkrp_reference(&t, &b, &c);
    assert!(d.max_abs_diff(&r) < 1e-2);
}

#[test]
fn model_checkpoint_survives_pipeline() {
    let corpus = gen::corpus(4, 24, 41);
    let (mut waco, _) = Waco::train(xeon(), Kernel::SpMV, &corpus, 0, WacoConfig::tiny()).unwrap();
    let mut buf = Vec::new();
    waco.model.save(&mut buf).unwrap();
    waco.model.load(buf.as_slice()).unwrap();
    let tuned = waco.tune(&corpus[0].1).unwrap();
    assert!(tuned.result.kernel_seconds > 0.0);
}
