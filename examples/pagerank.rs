//! PageRank on a scale-free graph: the repeated-SpMV scenario of Table 8.
//!
//! PageRank runs one SpMV per iteration over the same matrix, so an
//! auto-tuner's overhead amortizes across `N_runs` invocations. This example
//! tunes the graph with WACO and the baseline tuners, runs real PageRank
//! iterations with the tuned schedule through the interpreter, and prints
//! the end-to-end accounting (`T_tuning + T_formatconvert + N · T_kernel`).
//!
//! ```sh
//! cargo run --release --example pagerank
//! ```

use waco::baselines::{best_format::best_format, fixed::fixed_default, mkl::mkl_like_matrix};
use waco::prelude::*;

/// Power iteration: `r ← d·Aᵀr + (1−d)/n`, using the tuned SpMV. The
/// kernel is prepared once (lowering + format conversion) and run every
/// iteration — exactly the amortization Table 8 accounts for.
fn pagerank(spmv: &PlannedKernel, damping: f32, iters: usize) -> DenseVector {
    let n = spmv.plan().sparse_dims()[0];
    let mut rank = DenseVector::constant(n, 1.0 / n as f32);
    for _ in 0..iters {
        let spread = spmv
            .run(KernelArgs::Spmv { x: &rank })
            .expect("spmv runs")
            .into_vector()
            .expect("SpMV yields a vector");
        for i in 0..n {
            rank[i] = damping * spread[i] + (1.0 - damping) / n as f32;
        }
    }
    rank
}

fn main() {
    let mut rng = Rng64::seed_from(2718);
    // A scale-free web-graph-like pattern, column-normalized and transposed
    // so PageRank is a plain SpMV.
    let graph = waco::tensor::gen::kronecker(7, 1024, &mut rng); // 128 nodes
    let col_counts = graph.col_nnz();
    let a_t = CooMatrix::from_triplets(
        graph.ncols(),
        graph.nrows(),
        graph
            .iter()
            .map(|(r, c, _)| (c, r, 1.0 / col_counts[c].max(1) as f32)),
    )
    .expect("transpose in bounds");

    // Train WACO on generic patterns, then tune this graph.
    let corpus = waco::tensor::gen::corpus(8, 48, 5);
    let sim = Simulator::new(MachineConfig::xeon_like());
    let (mut waco, _) =
        Waco::train(sim, Kernel::SpMV, &corpus, 0, WacoConfig::tiny()).expect("training succeeds");
    let space = waco.space_for(&a_t);

    let tuned = waco.tune(&a_t).expect("waco tunes");
    let mkl = mkl_like_matrix(&waco.sim, Kernel::SpMV, &a_t, 0).expect("mkl runs");
    let bf = best_format(&waco.sim, Kernel::SpMV, &a_t, 0).expect("bestformat runs");
    let naive = fixed_default(&waco.sim, Kernel::SpMV, &a_t, 0).expect("naive runs");

    println!("graph: {} nodes, {} edges", a_t.nrows(), a_t.nnz());
    println!("WACO schedule: {}", tuned.result.sched.describe(&space));

    // Real PageRank with the tuned schedule: prepare once, run 20 times.
    let spmv = Executor::planned()
        .prepare(&a_t, &tuned.result.sched, &space)
        .expect("tuned schedule lowers");
    let ranks = pagerank(&spmv, 0.85, 20);
    let mut top: Vec<(usize, f32)> = (0..ranks.len()).map(|i| (i, ranks[i])).collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top-5 pages: {:?}", &top[..5.min(top.len())]);
    let total: f32 = ranks.as_slice().iter().sum();
    println!("rank mass: {total:.4} (≈1.0)");

    // Table 8-style amortization: who wins at which N_runs?
    println!("\nend-to-end time in units of one naive SpMV invocation:");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "N_runs", "WACO", "BestFormat", "MKL"
    );
    for n_runs in [0usize, 50, 1_000, 10_000, 500_000] {
        let unit = naive.kernel_seconds;
        println!(
            "{:>10} {:>12.1} {:>12.1} {:>12.1}",
            n_runs,
            tuned.result.end_to_end(n_runs) / unit,
            bf.end_to_end(n_runs) / unit,
            mkl.end_to_end(n_runs) / unit,
        );
    }
    println!(
        "\nper-invocation speedup over naive: WACO {:.2}x, BestFormat {:.2}x, MKL {:.2}x",
        naive.kernel_seconds / tuned.result.kernel_seconds,
        naive.kernel_seconds / bf.kernel_seconds,
        naive.kernel_seconds / mkl.kernel_seconds,
    );
}
