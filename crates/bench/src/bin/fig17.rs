//! Figure 17: tuning overhead vs speedup — MKL inspector-executor,
//! BestFormat, and WACO against auto-tuning-disabled MKL (MKL-Naive).
//!
//! For SpMV and SpMM, each tuner's search time (in units of one MKL-Naive
//! kernel invocation) is plotted against the speedup it ultimately
//! delivers.
//!
//! Shape to hold: a clean trade-off frontier — MKL tunes fastest for the
//! smallest speedup, BestFormat sits between, WACO pays the largest search
//! time for the largest speedup.
//!
//! ```sh
//! cargo run --release -p waco-bench --bin fig17 [--quick ...]
//! ```

use waco_bench::{eval, geomean, render, Scale};
use waco_schedule::Kernel;
use waco_sim::MachineConfig;

fn main() {
    let scale = Scale::from_args();
    println!("== Figure 17: tuning overhead vs speedup (vs MKL-Naive) ==");

    // WACO's search time is read off the live `waco-obs` trace (the
    // `tune.tuning_seconds` / `tune.convert_seconds` histograms recorded by
    // the tuner itself) instead of re-deriving it from the result struct.
    waco_obs::install();

    for kernel in [Kernel::SpMV, Kernel::SpMM] {
        let dense = if kernel == Kernel::SpMV { 0 } else { 32 };
        let mut waco = scale.train_waco(MachineConfig::xeon_like(), kernel, dense);
        let test = scale.test_corpus();

        // Per-tuner accumulators: (search time in naive invocations, speedup).
        let mut overhead = vec![Vec::new(); 3];
        let mut speedup = vec![Vec::new(); 3];
        for (name, m) in &test {
            waco_obs::reset();
            let row = eval::evaluate(&mut waco, name, m);
            let snap = waco_obs::snapshot();
            // MKL-Naive = the fixed CSR implementation without tuning.
            let Some(naive) = row.fixed.as_ref() else {
                continue;
            };
            let unit = naive.kernel_seconds;
            for (i, t) in [row.mkl.as_ref(), row.best_format.as_ref()]
                .iter()
                .enumerate()
            {
                if let Some(t) = t {
                    overhead[i].push((t.tuning_seconds + t.convert_seconds) / unit);
                    speedup[i].push(unit / t.kernel_seconds);
                }
            }
            // WACO, from the trace: one tune per evaluate_matrix call, so
            // the histogram sums are this matrix's overhead.
            let traced = snap.hist("tune.tuning_seconds").map_or(0.0, |h| h.sum)
                + snap.hist("tune.convert_seconds").map_or(0.0, |h| h.sum);
            overhead[2].push(traced / unit);
            speedup[2].push(unit / row.waco.kernel_seconds);
        }

        println!("\n-- {kernel} --");
        let names = ["MKL", "BestFormat", "WACO"];
        let mut rows = Vec::new();
        for i in 0..3 {
            rows.push(vec![
                names[i].to_string(),
                format!("{:.0}", mean(&overhead[i])),
                format!("{:.0}", median(&overhead[i])),
                render::speedup(geomean(&speedup[i])),
            ]);
        }
        render::table(
            &[
                "tuner",
                "mean search (naive calls)",
                "median search",
                "geomean speedup",
            ],
            &rows,
        );
    }

    waco_obs::uninstall();
    println!(
        "\nPaper's Figure 17: MKL search ≈ tens of invocations → ~1.2-1.1x;\n\
         BestFormat ≈ 10^2 → 2.0x/1.6x; WACO ≈ 10^2-10^3 → 2.9x/1.8x (SpMV/SpMM).\n\
         Shape check: overhead and speedup both increase MKL → BestFormat → WACO\n\
         (BestFormat's inference is cheap but its conversion is not; WACO pays\n\
         feature extraction + ANNS + top-k measurement)."
    );
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}
