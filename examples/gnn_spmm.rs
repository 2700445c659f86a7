//! A graph-neural-network layer: the repeated-SpMM scenario of Table 8.
//!
//! A GNN layer computes `H' = σ(Â · H · W)`; the expensive part is the
//! SpMM `Â · H` over the (fixed) normalized adjacency, repeated every
//! epoch and every layer — ~10k invocations in the paper's accounting.
//! This example tunes `Â` once with WACO and runs real propagation steps
//! through the interpreter.
//!
//! ```sh
//! cargo run --release --example gnn_spmm
//! ```

use waco::baselines::{aspt::aspt_matrix, fixed::fixed_default};
use waco::prelude::*;

const FEATURES: usize = 16;

/// One propagation: `H' = relu(Â · H)` (weights folded for brevity). The
/// adjacency kernel is prepared once and reused across layers and epochs.
fn propagate(spmm: &PlannedKernel, h: &DenseMatrix) -> DenseMatrix {
    let mut out = spmm
        .run(KernelArgs::Spmm { b: h })
        .expect("spmm runs")
        .into_matrix()
        .expect("SpMM yields a matrix");
    for v in out.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    out
}

fn main() {
    let mut rng = Rng64::seed_from(31415);
    // A community-structured graph (blocked adjacency) with self-loops,
    // symmetrically normalized: Â = D^{-1/2} (A + I) D^{-1/2}.
    let raw = waco::tensor::gen::blocked(96, 96, 8, 40, 0.35, &mut rng);
    let with_loops = CooMatrix::from_triplets(
        96,
        96,
        raw.iter()
            .map(|(r, c, _)| (r, c, 1.0))
            .chain((0..96).map(|i| (i, i, 1.0))),
    )
    .expect("in bounds");
    let deg = with_loops.row_nnz();
    let adj = CooMatrix::from_triplets(
        96,
        96,
        with_loops
            .iter()
            .map(|(r, c, v)| (r, c, v / ((deg[r] as f32).sqrt() * (deg[c] as f32).sqrt()))),
    )
    .expect("in bounds");

    // Train WACO for SpMM and tune the adjacency.
    let corpus = waco::tensor::gen::corpus(8, 48, 17);
    let sim = Simulator::new(MachineConfig::xeon_like());
    let (mut waco, _) = Waco::train(sim, Kernel::SpMM, &corpus, FEATURES, WacoConfig::tiny())
        .expect("training succeeds");
    let space = waco.space_for(&adj).expect("a matrix of the tuner's order");

    let tuned = waco.tune(&adj).expect("waco tunes");
    let fixed = fixed_default(&waco.sim, Kernel::SpMM, &adj, FEATURES).expect("fixed runs");
    let aspt = aspt_matrix(&waco.sim, Kernel::SpMM, &adj, FEATURES).expect("aspt runs");

    println!("adjacency: 96x96, {} nonzeros", adj.nnz());
    println!("WACO schedule: {}", tuned.result.sched.describe(&space));
    println!(
        "simulated SpMM: WACO {:.3e}s | FixedCSR {:.3e}s | ASpT {:.3e}s",
        tuned.result.kernel_seconds, fixed.kernel_seconds, aspt.kernel_seconds
    );

    // Real 2-layer forward pass over random node features.
    let h0 = DenseMatrix::from_fn(96, FEATURES, |r, c| {
        ((r * 31 + c * 7) % 13) as f32 * 0.1 - 0.6
    });
    let spmm = Executor::planned()
        .prepare(&adj, &tuned.result.sched, &space)
        .expect("tuned schedule lowers");
    let h1 = propagate(&spmm, &h0);
    let h2 = propagate(&spmm, &h1);
    let act_mean: f32 = h2.as_slice().iter().sum::<f32>() / (h2.nrows() * h2.ncols()) as f32;
    println!("\n2-layer GNN forward done; mean activation {act_mean:.4}");

    // Training a GNN = thousands of epochs × layers of this SpMM.
    let epochs = 10_000usize;
    println!("\nend-to-end for {epochs} propagations (units of one FixedCSR SpMM):");
    println!(
        "  WACO  {:.0}   FixedCSR  {epochs}",
        tuned.result.end_to_end(epochs) / fixed.kernel_seconds
    );
    let crossover = (tuned.result.tuning_seconds + tuned.result.convert_seconds)
        / (fixed.kernel_seconds - tuned.result.kernel_seconds).max(1e-12);
    println!("  WACO overtakes FixedCSR after ~{crossover:.0} invocations");
}
