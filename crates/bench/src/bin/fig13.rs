//! Figure 13: per-matrix speedups of WACO over the four baselines on SpMM.
//!
//! For every test matrix, WACO's tuned kernel time is compared against
//! Intel-MKL-like, BestFormat, Fixed CSR, and ASpT-like; the sorted speedup
//! profiles and geomeans reproduce the four panels of Figure 13.
//!
//! Shape to hold: geomean > 1 against all four; the auto-tuning baselines
//! (MKL, BestFormat) put more matrices below the y = 1 line than the fixed
//! implementations do.
//!
//! ```sh
//! cargo run --release -p waco-bench --bin fig13 [--quick|--test-matrices N ...]
//! ```

use waco_bench::{eval, geomean, render, Scale};
use waco_schedule::Kernel;
use waco_sim::MachineConfig;

fn main() {
    let scale = Scale::from_args();
    println!(
        "== Figure 13: WACO vs baselines on SpMM ({} test matrices) ==",
        scale.test_matrices
    );
    let mut waco = scale.train_waco(MachineConfig::xeon_like(), Kernel::SpMM, 32);
    let test = scale.test_corpus();

    let mut rows = Vec::new();
    for (name, m) in &test {
        rows.push(eval::evaluate(&mut waco, name, m));
    }

    let panels: [(&str, Vec<f64>); 4] = [
        ("MKL", eval::speedups(&rows, |r| r.mkl.as_ref())),
        (
            "BestFormat",
            eval::speedups(&rows, |r| r.best_format.as_ref()),
        ),
        ("Fixed CSR", eval::speedups(&rows, |r| r.fixed.as_ref())),
        ("ASpT", eval::speedups(&rows, |r| r.aspt.as_ref())),
    ];
    for (label, sp) in &panels {
        let g = geomean(sp);
        render::speedup_profile(&format!("Speedup of WACO over {label}"), sp.clone(), g);
        let below = sp.iter().filter(|&&s| s < 1.0).count();
        println!("       below 1.0x: {below}/{} matrices", sp.len());
    }

    println!("\nPer-matrix detail:");
    let detail: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let cell = |t: &Option<waco_baselines::TunedResult>| {
                t.as_ref()
                    .map(|b| render::speedup(b.kernel_seconds / r.waco.kernel_seconds))
                    .unwrap_or_else(|| "n/a".into())
            };
            vec![
                r.name.clone(),
                cell(&r.mkl),
                cell(&r.best_format),
                cell(&r.fixed),
                cell(&r.aspt),
            ]
        })
        .collect();
    render::table(
        &[
            "matrix",
            "vs MKL",
            "vs BestFormat",
            "vs FixedCSR",
            "vs ASpT",
        ],
        &detail,
    );

    println!(
        "\nPaper's Figure 13 geomeans (SpMM): 1.7x MKL, 1.2x BestFormat, 1.3x FixedCSR, 1.4x ASpT."
    );
}
