//! Table 5: geomean speedup of WACO over the *fixed* implementations.
//!
//! vs TACO's Fixed CSR/CSF on all four kernels and vs ASpT on SpMM and
//! SDDMM (the kernels its authors released).
//!
//! Shape to hold: WACO > 1x geomean against both on every applicable
//! kernel.
//!
//! ```sh
//! cargo run --release -p waco-bench --bin table5 [--quick ...]
//! ```

use waco_bench::{eval, geomean, render, Scale};
use waco_schedule::Kernel;
use waco_sim::MachineConfig;

fn main() {
    let scale = Scale::from_args();
    println!("== Table 5: geomean speedup of WACO over fixed implementations ==\n");

    let mut rows = Vec::new();
    for kernel in [Kernel::SpMV, Kernel::SpMM, Kernel::SDDMM] {
        let dense = if kernel == Kernel::SpMV { 0 } else { 32 };
        let mut waco = scale.train_waco(MachineConfig::xeon_like(), kernel, dense);
        let test = scale.test_corpus();
        let evals: Vec<_> = test
            .iter()
            .map(|(n, m)| eval::evaluate(&mut waco, n, m))
            .collect();
        let vs_fixed = geomean(&eval::speedups(&evals, |r| r.fixed.as_ref()));
        let vs_aspt = if kernel == Kernel::SpMV {
            "Not Impl.".to_string()
        } else {
            render::speedup(geomean(&eval::speedups(&evals, |r| r.aspt.as_ref())))
        };
        rows.push(vec![kernel.to_string(), render::speedup(vs_fixed), vs_aspt]);
    }
    {
        let mut waco = scale.train_waco(MachineConfig::xeon_like(), Kernel::MTTKRP, 16);
        let test = scale.tensor_corpus(scale.test_matrices.max(4), 512, 0x7E57);
        let evals: Vec<_> = test
            .iter()
            .map(|(n, t)| eval::evaluate(&mut waco, n, t))
            .collect();
        let vs_fixed = geomean(&eval::speedups(&evals, |r| r.fixed.as_ref()));
        rows.push(vec![
            "MTTKRP".into(),
            render::speedup(vs_fixed),
            "Not Impl.".into(),
        ]);
    }

    render::table(&["kernel", "vs Fixed CSR/CSF", "vs ASpT"], &rows);
    println!(
        "\nPaper's Table 5: SpMV 1.54x/— · SpMM 1.26x/1.36x · SDDMM 1.29x/1.14x · MTTKRP 1.35x/—\n\
         Shape check: WACO > 1x geomean against both fixed implementations everywhere."
    );
}
