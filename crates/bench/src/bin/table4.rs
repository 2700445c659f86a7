//! Table 4: geomean speedup of WACO over the *auto-tuning* baselines.
//!
//! vs Format-only (BestFormat) on SpMV / SpMM / MTTKRP and vs Schedule-only
//! (MKL inspector-executor) on SpMV / SpMM — SDDMM has no auto-tuning
//! baseline ("Not Impl." in the paper).
//!
//! Shape to hold: WACO ≥ 1x geomean against both, with the larger margin
//! against the schedule-only tuner (co-optimization beats either single
//! axis).
//!
//! ```sh
//! cargo run --release -p waco-bench --bin table4 [--quick ...]
//! ```

use waco_bench::{eval, geomean, render, Scale};
use waco_schedule::Kernel;
use waco_sim::MachineConfig;

fn main() {
    let scale = Scale::from_args();
    println!("== Table 4: geomean speedup of WACO over other auto-tuners ==\n");

    let mut rows = Vec::new();
    for kernel in [Kernel::SpMV, Kernel::SpMM] {
        let dense = if kernel == Kernel::SpMV { 0 } else { 32 };
        let mut waco = scale.train_waco(MachineConfig::xeon_like(), kernel, dense);
        let test = scale.test_corpus();
        let evals: Vec<_> = test
            .iter()
            .map(|(n, m)| eval::evaluate(&mut waco, n, m))
            .collect();
        let vs_bf = geomean(&eval::speedups(&evals, |r| r.best_format.as_ref()));
        let vs_mkl = geomean(&eval::speedups(&evals, |r| r.mkl.as_ref()));
        rows.push(vec![
            kernel.to_string(),
            render::speedup(vs_bf),
            render::speedup(vs_mkl),
        ]);
    }

    // SDDMM: neither auto-tuning baseline applies (as in the paper).
    rows.push(vec!["SDDMM".into(), "Not Impl.".into(), "Not Impl.".into()]);

    // MTTKRP: BestFormat (SpTFS-style) only.
    {
        let mut waco = scale.train_waco(MachineConfig::xeon_like(), Kernel::MTTKRP, 16);
        let test = scale.tensor_corpus(scale.test_matrices.max(4), 512, 0x7E57);
        let evals: Vec<_> = test
            .iter()
            .map(|(n, t)| eval::evaluate(&mut waco, n, t))
            .collect();
        let vs_bf = geomean(&eval::speedups(&evals, |r| r.best_format.as_ref()));
        rows.push(vec![
            "MTTKRP".into(),
            render::speedup(vs_bf),
            "Not Impl.".into(),
        ]);
    }

    render::table(
        &[
            "kernel",
            "vs Format-only (BestFormat)",
            "vs Schedule-only (MKL)",
        ],
        &rows,
    );
    println!(
        "\nPaper's Table 4: SpMV 1.43x/2.32x · SpMM 1.18x/1.68x · MTTKRP 1.27x/—\n\
         Shape check: geomean ≥ 1x against both auto-tuners on every kernel."
    );
}
