//! Table 6: where do WACO's wins come from?
//!
//! Matrices where WACO beats Fixed CSR by more than 1.5x are classified by
//! the dominant factor of the winning schedule: OpenMP chunk size, dense
//! blocks (≥/< 50% filled), sparse block formats, or column
//! parallelization (SDDMM).
//!
//! Shape to hold: chunk-size load balancing is the leading factor on
//! SpMV/SpMM; column parallelization appears only for SDDMM.
//!
//! ```sh
//! cargo run --release -p waco-bench --bin table6 [--quick ...]
//! ```

use std::collections::HashMap;
use waco_bench::{eval, factors, render, Scale};
use waco_schedule::Kernel;
use waco_sim::MachineConfig;

const SPEEDUP_GATE: f64 = 1.5;

fn main() {
    let scale = Scale::from_args();
    println!("== Table 6: speedup-factor analysis (wins > {SPEEDUP_GATE}x over Fixed CSR) ==\n");

    let mut per_kernel: Vec<(Kernel, HashMap<factors::Factor, usize>, usize)> = Vec::new();
    for kernel in [Kernel::SpMV, Kernel::SpMM, Kernel::SDDMM] {
        let dense = if kernel == Kernel::SpMV { 0 } else { 32 };
        let mut waco = scale.train_waco(MachineConfig::xeon_like(), kernel, dense);
        // A larger, more diverse pool than the other tables so the
        // percentages are meaningful.
        let mut test = scale.test_corpus();
        test.extend(waco_tensor::gen::corpus(
            scale.test_matrices,
            scale.test_size / 2,
            scale.seed ^ 0xFACADE,
        ));
        let mut counts: HashMap<factors::Factor, usize> = HashMap::new();
        let mut wins = 0usize;
        for (name, m) in &test {
            let row = eval::evaluate(&mut waco, name, m);
            let Some(speedup) = row.speedup_over(&row.fixed.clone()) else {
                continue;
            };
            if speedup < SPEEDUP_GATE {
                continue;
            }
            wins += 1;
            let space = waco.space_for(m);
            let f = factors::classify(m, &row.waco.sched, &space);
            *counts.entry(f).or_insert(0) += 1;
        }
        per_kernel.push((kernel, counts, wins));
    }

    let mut rows = Vec::new();
    for factor in factors::Factor::ALL {
        let mut row = vec![factor.label().to_string()];
        for (_, counts, wins) in &per_kernel {
            let c = counts.get(&factor).copied().unwrap_or(0);
            row.push(if *wins == 0 || c == 0 {
                "-".into()
            } else {
                format!("{:.0}%", 100.0 * c as f64 / *wins as f64)
            });
        }
        rows.push(row);
    }
    render::table(&["Factor", "SpMV", "SpMM", "SDDMM"], &rows);
    for (kernel, _, wins) in &per_kernel {
        println!("  {kernel}: {wins} matrices above the {SPEEDUP_GATE}x gate");
    }

    println!(
        "\nPaper's Table 6: chunk size 51/66/47%; dense blocks ≥50% 30/26/15%;\n\
         dense blocks <50% 19/-/-; sparse block -/8/-; column-parallel -/-/38%.\n\
         Shape check: chunk-size is a leading factor; column-parallel only on SDDMM."
    );
}
