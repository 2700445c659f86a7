//! Table 8: real-world usage scenarios — end-to-end time vs `N_runs`.
//!
//! Applications re-run the same sparse kernel thousands of times (PageRank,
//! GMRES, mesh simulation for SpMV; GNN training and pruned-NN inference
//! for SpMM), so each auto-tuner's end-to-end time is
//! `T_tuning + T_formatconvert + N · T_kernel`, in units of one MKL-Naive
//! invocation. The winner flips from MKL (no conversion) at small `N` to
//! WACO at large `N`; the crossover points are printed too.
//!
//! ```sh
//! cargo run --release -p waco-bench --bin table8 [--quick ...]
//! ```

use waco_baselines::TunedResult;
use waco_bench::{eval, render, Scale};
use waco_schedule::Kernel;
use waco_sim::MachineConfig;
use waco_tensor::gen::{self, Rng64};

/// Crossover `N` where tuner `a` overtakes `b`
/// (`end_to_end_a(N) = end_to_end_b(N)`), or `None` if `a` never wins.
fn crossover(a: &TunedResult, b: &TunedResult) -> Option<f64> {
    let fixed_gap = (a.tuning_seconds + a.convert_seconds) - (b.tuning_seconds + b.convert_seconds);
    let per_run_gain = b.kernel_seconds - a.kernel_seconds;
    (per_run_gain > 0.0).then(|| (fixed_gap / per_run_gain).max(0.0))
}

fn scenario_table(kernel: Kernel, scenarios: &[(&str, usize)], row: &eval::BaselineTimes) {
    let naive = row.fixed.as_ref().expect("fixed baseline runs");
    let unit = naive.kernel_seconds;
    let waco = &row.waco;
    let bf = row.best_format.as_ref();
    let mkl = row.mkl.as_ref();

    let mut rows = Vec::new();
    rows.push(vec![
        "Initial cost (N=0)".to_string(),
        "0".into(),
        format!("{:.0}", waco.end_to_end(0) / unit),
        bf.map(|b| format!("{:.0}", b.end_to_end(0) / unit))
            .unwrap_or("n/a".into()),
        mkl.map(|m| format!("{:.0}", m.end_to_end(0) / unit))
            .unwrap_or("n/a".into()),
    ]);
    for (label, n) in scenarios {
        let best = [
            waco.end_to_end(*n),
            bf.map(|b| b.end_to_end(*n)).unwrap_or(f64::INFINITY),
            mkl.map(|m| m.end_to_end(*n)).unwrap_or(f64::INFINITY),
        ]
        .into_iter()
        .fold(f64::INFINITY, f64::min);
        let mark = |v: f64| {
            let cell = format!("{:.0}", v / unit);
            if (v - best).abs() / best < 1e-9 {
                format!("{cell}*")
            } else {
                cell
            }
        };
        rows.push(vec![
            format!("{label}"),
            n.to_string(),
            mark(waco.end_to_end(*n)),
            bf.map(|b| mark(b.end_to_end(*n))).unwrap_or("n/a".into()),
            mkl.map(|m| mark(m.end_to_end(*n))).unwrap_or("n/a".into()),
        ]);
    }
    render::table(&["scenario", "N_runs", "WACO", "BestFormat", "MKL"], &rows);
    println!("  (* = winner; all in units of one MKL-Naive {kernel} invocation)");
    if let Some(m) = mkl {
        match crossover(waco, m) {
            Some(n) => println!("  WACO = MKL at N ≈ {n:.0}"),
            None => println!("  WACO never overtakes MKL on this workload"),
        }
    }
    if let Some(b) = bf {
        match crossover(waco, b) {
            Some(n) => println!("  WACO = BestFormat at N ≈ {n:.0}"),
            None => println!("  WACO never overtakes BestFormat on this workload"),
        }
    }
}

fn main() {
    let scale = Scale::from_args();
    println!("== Table 8: end-to-end winners across N_runs ==\n");

    // (a) SpMV scenarios on a mesh-simulation-like matrix: physical meshes
    // carry multiple degrees of freedom per node, so the assembled system
    // has dense node-sized blocks (the structure Simit-style mesh
    // simulations exploit).
    {
        let mut waco = scale.train_waco(MachineConfig::xeon_like(), Kernel::SpMV, 0);
        let n = scale.test_size;
        let mut rng = Rng64::seed_from(scale.seed ^ 0x3E57);
        let m = gen::blocked(n, n, 16, (n / 16).max(4), 0.95, &mut rng);
        println!("(a) SpMV on a {n}x{n} 16-DOF mesh system ({} nnz)", m.nnz());
        let row = eval::evaluate(&mut waco, "mesh", &m);
        scenario_table(
            Kernel::SpMV,
            &[
                ("PageRank", 50),
                ("Lanczos-ish", 3_000),
                ("GMRES", 517_000),
                ("Mesh simulation", 1_800_000),
            ],
            &row,
        );
    }

    // (b) SpMM scenarios on a GNN-like graph.
    {
        let mut waco = scale.train_waco(MachineConfig::xeon_like(), Kernel::SpMM, 32);
        let mut rng = Rng64::seed_from(scale.seed ^ 0x6E6E);
        let scale_pow = (scale.test_size as f64).log2().ceil() as u32;
        let m = gen::kronecker(scale_pow, scale.test_size * 8, &mut rng);
        println!(
            "\n(b) SpMM on a scale-free graph (2^{scale_pow} nodes, {} nnz)",
            m.nnz()
        );
        let row = eval::evaluate(&mut waco, "graph", &m);
        scenario_table(
            Kernel::SpMM,
            &[("GNN training", 10_000), ("Pruned NN inference", 1_000_000)],
            &row,
        );
    }

    println!(
        "\nPaper's Table 8 shape: MKL wins at N = 0 (no conversion), WACO wins the\n\
         large-N scenarios (GMRES, mesh simulation, GNN, pruned NN), with the\n\
         WACO = MKL crossover in the hundreds-to-thousands of invocations."
    );
}
