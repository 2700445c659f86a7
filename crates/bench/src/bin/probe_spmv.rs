//! Focused probe of the Table 4 SpMV soft spot: does a higher-capacity
//! WACONet surface the blocked-matrix co-optimization wins that the default
//! 8-channel/6-layer model misses?
//!
//! Prints per-matrix WACO-vs-MKL speedups plus the oracle within WACO's own
//! candidate portfolio (the headroom a perfect model would reach).
//!
//! ```sh
//! cargo run --release -p waco-bench --bin probe_spmv -- --channels 16 --layers 8
//! ```

use waco_baselines::{fastest, mkl::mkl_like_matrix};
use waco_bench::{geomean, render, Scale};
use waco_schedule::{named, Kernel};
use waco_sim::MachineConfig;

fn main() {
    let scale = Scale::from_args();
    println!(
        "== SpMV probe: WACONet {}ch x {}L, {} matrices x {} schedules, {} epochs ==\n",
        scale.channels,
        scale.layers,
        scale.train_matrices,
        scale.schedules_per_matrix,
        scale.epochs
    );
    let mut waco = scale.train_waco(MachineConfig::xeon_like(), Kernel::SpMV, 0);
    let test = scale.test_corpus();

    let mut rows = Vec::new();
    let mut vs_mkl = Vec::new();
    let mut vs_oracle = Vec::new();
    for (name, m) in &test {
        let tuned = waco.tune(m).expect("tunes");
        let Ok(mkl) = mkl_like_matrix(&waco.sim, Kernel::SpMV, m, 0) else {
            continue;
        };
        // Oracle over WACO's own portfolio (Fixed CSR first): what a perfect
        // model would reach.
        let space = waco.space_for(m).expect("a matrix of the tuner's order");
        let portfolio = named::portfolio(&space);
        let reports = waco.sim.time_batch(m, &portfolio, &space);
        let oracle = fastest(&portfolio, &reports, &space)
            .expect("the portfolio simulates")
            .kernel_seconds;
        let s_mkl = mkl.kernel_seconds / tuned.result.kernel_seconds;
        let s_orc = tuned.result.kernel_seconds / oracle;
        vs_mkl.push(s_mkl);
        vs_oracle.push(s_orc);
        rows.push(vec![
            name.clone(),
            render::speedup(s_mkl),
            render::speedup(mkl.kernel_seconds / oracle),
            format!("{:.2}x", s_orc),
        ]);
    }
    render::table(
        &[
            "matrix",
            "WACO vs MKL",
            "portfolio oracle vs MKL",
            "WACO gap to oracle",
        ],
        &rows,
    );
    println!(
        "\ngeomeans: WACO vs MKL {:.2}x · WACO's gap to its own portfolio oracle {:.2}x",
        geomean(&vs_mkl),
        geomean(&vs_oracle)
    );
    println!(
        "(oracle > 1 vs MKL on a matrix means a strictly better co-optimized\n\
         configuration exists in WACO's candidate set; the gap column shows how\n\
         much of it the trained model leaves unrealized.)"
    );
}
