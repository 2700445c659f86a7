//! Format/schedule exploration without any learning: drive the format
//! abstraction, the interpreter, and the simulator by hand.
//!
//! This is the "mechanism" layer the WACO "policy" sits on: every named
//! format is built for one matrix, executed for real (validated against
//! reference CSR), and timed by the machine-model simulator — a mini
//! leaderboard of classic formats.
//!
//! ```sh
//! cargo run --release --example format_explorer
//! ```

use waco::prelude::*;
use waco::schedule::named;

fn main() {
    let mut rng = Rng64::seed_from(4242);
    // A matrix with mixed structure: dense blocks on a sparse background.
    let blocks = waco::tensor::gen::blocked(256, 256, 16, 32, 0.9, &mut rng);
    let noise = waco::tensor::gen::uniform_random(256, 256, 0.002, &mut rng);
    let m =
        CooMatrix::from_triplets(256, 256, blocks.iter().chain(noise.iter())).expect("in bounds");

    let sim = Simulator::new(MachineConfig::xeon_like());
    let space = sim.space_for(Kernel::SpMM, vec![256, 256], 32);
    let b = DenseMatrix::from_fn(256, 32, |r, c| ((r + c) % 7) as f32 * 0.2 - 0.5);
    let reference = CsrMatrix::from_coo(&m).spmm(&b);

    println!(
        "matrix: 256x256, {} nnz, {:.2}% dense",
        m.nnz(),
        m.density() * 100.0
    );
    println!(
        "\n{:<14} {:<34} {:>12} {:>10} {:>8}",
        "format", "levels", "sim time", "storage", "check"
    );

    let mut rows: Vec<(String, f64)> = Vec::new();
    for (name, splits, fmt) in named::best_format_candidates(&space) {
        let sched = named::concordant(&space, splits, fmt, 48, 32);
        // Lower once; the plan owns the validated format spec, and both the
        // executor and the simulator below consume the same stored operand.
        let plan = ExecutionPlan::build(&sched, &space).expect("valid schedule");
        let stored = SparseStorage::from_matrix(&m, plan.spec()).expect("fits budget");

        // Execute for real and validate.
        let c = Executor::planned()
            .prepare_stored(plan.clone(), stored.clone())
            .expect("storage matches the plan")
            .run(KernelArgs::Spmm { b: &b })
            .expect("runs")
            .into_matrix()
            .expect("SpMM yields a matrix");
        let err = c.max_abs_diff(&reference);
        // Time on the simulated machine.
        let mut reports = sim.time_stored(&stored, std::slice::from_ref(&sched), &space);
        let report = reports.pop().expect("one slot").expect("simulates");

        println!(
            "{:<14} {:<34} {:>10.3e}s {:>9}w {:>8}",
            name,
            plan.spec().describe(),
            report.seconds,
            stored.storage_words(),
            if err < 1e-2 { "ok" } else { "FAIL" }
        );
        rows.push((name, report.seconds));
    }

    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    println!(
        "\nwinner for this pattern: {} ({:.2}x over the slowest)",
        rows[0].0,
        rows.last().expect("non-empty").1 / rows[0].1
    );
    println!(
        "(WACO's job is to predict this ranking — and the schedule knobs on \
         top of it — from the sparsity pattern alone)"
    );
}
