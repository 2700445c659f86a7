//! Quickstart: train a WACO tuner, tune a matrix, and run the tuned kernel.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use waco::baselines::fixed::fixed_default;
use waco::prelude::*;

fn main() {
    // A small corpus of synthetic sparsity patterns standing in for
    // SuiteSparse (uniform, banded, blocked, power-law, Kronecker, mesh).
    let train_corpus = waco::tensor::gen::corpus(10, 48, 7);
    println!("training corpus: {} matrices", train_corpus.len());

    // Train the full pipeline on the simulated 24-core Xeon: dataset
    // generation (simulator ground truth), WACONet + program embedder +
    // predictor, ranking loss.
    let sim = Simulator::new(MachineConfig::xeon_like());
    let (mut waco, curves) = Waco::train(sim, Kernel::SpMV, &train_corpus, 0, WacoConfig::tiny())
        .expect("training succeeds");
    println!(
        "trained: final val ranking accuracy {:.2}",
        curves.val_rank_acc.last().copied().unwrap_or(0.0)
    );

    // A fresh (unseen) matrix to tune.
    let mut rng = Rng64::seed_from(99);
    let m = waco::tensor::gen::blocked(64, 64, 8, 24, 0.9, &mut rng);
    let space = waco.space_for(&m);

    let tuned = waco.tune(&m).expect("tuning succeeds");
    let fixed = fixed_default(&waco.sim, Kernel::SpMV, &m, 0).expect("baseline runs");

    println!("\ninput: 64x64, {} nonzeros (blocked pattern)", m.nnz());
    println!("WACO chose: {}", tuned.result.sched.describe(&space));
    println!(
        "simulated kernel time: WACO {:.3e}s vs FixedCSR {:.3e}s ({:.2}x)",
        tuned.result.kernel_seconds,
        fixed.kernel_seconds,
        fixed.kernel_seconds / tuned.result.kernel_seconds
    );
    println!(
        "tuning overhead: {:.3e}s ({} candidates measured)",
        tuned.result.tuning_seconds, tuned.candidates_measured
    );

    // The tuned schedule is directly executable: prepare once (lowering +
    // format conversion), run against any dense operand — and the numbers
    // match reference CSR.
    let x = DenseVector::from_fn(64, |i| (i as f32 * 0.37).sin());
    let y = Executor::planned()
        .prepare(&m, &tuned.result.sched, &space)
        .expect("lowers")
        .run(KernelArgs::Spmv { x: &x })
        .expect("executes")
        .into_vector()
        .expect("SpMV yields a vector");
    let reference = CsrMatrix::from_coo(&m).spmv(&x);
    println!(
        "\nexecuted tuned schedule for real: max |diff| vs reference = {:.2e}",
        y.max_abs_diff(&reference)
    );
}
