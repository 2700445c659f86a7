//! Table 1: the impact of co-optimization.
//!
//! SpMM speedup over the CSR + default-schedule base after tuning (a) the
//! format only, (b) the schedule only, (c) both — on analogs of the paper's
//! three motivation matrices (pli, TSOPF, sparsine; Figure 2).
//!
//! Shape to hold: `F.+S. ≥ max(F., S.)` everywhere, with an out-sized joint
//! win on the block-structured (TSOPF-like) matrix.
//!
//! ```sh
//! cargo run --release -p waco-bench --bin table1 [--quick|--trials N]
//! ```

use waco_baselines::fixed::fixed_default;
use waco_bench::{render, Scale};
use waco_core::autotune::{self, Restriction};
use waco_schedule::Kernel;
use waco_sim::{MachineConfig, Simulator};
use waco_tensor::gen;

const DENSE_J: usize = 64;

fn main() {
    let scale = Scale::from_args();
    let sim = Simulator::new(MachineConfig::xeon_like());
    // The motivation trio keeps its paper-scale structure except under
    // `--smoke`, where CI needs seconds-per-binary.
    let trio_dim = if scale.smoke { 256 } else { 2048 };
    let trio = gen::motivation_trio(trio_dim, scale.seed);

    println!("== Table 1: SpMM speedup over Base (CSR + default schedule) ==");
    println!("   tuning budget: {} trials per space\n", scale.trials);

    let mut rows = Vec::new();
    for (name, m) in &trio {
        let base = fixed_default(&sim, Kernel::SpMM, m, DENSE_J).expect("base runs");
        let run = |r: Restriction| {
            autotune::tune(&sim, Kernel::SpMM, m, DENSE_J, scale.trials, scale.seed, r)
                .expect("tuning runs")
                .kernel_seconds
        };
        let f = base.kernel_seconds / run(Restriction::FormatOnly);
        let s = base.kernel_seconds / run(Restriction::ScheduleOnly);
        let fs = base.kernel_seconds / run(Restriction::Joint);
        rows.push(vec![
            name.clone(),
            "1x".to_string(),
            render::speedup(f),
            render::speedup(s),
            render::speedup(fs),
        ]);
        assert!(
            fs >= f.max(s) * 0.999,
            "{name}: joint ({fs:.2}) must dominate singles ({f:.2}, {s:.2})"
        );
    }
    render::table(&["Name", "Base", "F.", "S.", "F.+S."], &rows);

    println!(
        "\nPaper's Table 1:  pli 1.03/1.03/1.21 · TSOPF 1.11/1.12/2.02 · sparsine 2.4/1.02/2.5\n\
         Shape check: joint ≥ max(single) on every matrix (asserted)."
    );
}
