//! Figure 16b: WACO search-time breakdown — feature extraction vs ANNS —
//! as the number of nonzeros grows.
//!
//! The timings come from the live `waco-obs` trace rather than ad-hoc
//! stopwatches: the pipeline's own `feature_extraction` and
//! `anns_traversal` spans (recorded inside `CostModel::extract_feature`
//! and `ScheduleIndex::query_with_feature`) are aggregated per matrix
//! size, so this figure measures exactly what a `--trace` run reports.
//!
//! Shape to hold: ANNS time is roughly constant (it depends on the graph,
//! not the matrix), while feature extraction grows linearly with nnz
//! (sparse convolution cost), dominating for large matrices — the
//! "the feature extractor becomes more expensive when the number of
//! non-zeros increases" observation of §5.4.
//!
//! ```sh
//! cargo run --release -p waco-bench --bin fig16b [--quick]
//! ```

use waco_anns::ScheduleIndex;
use waco_bench::{render, Scale};
use waco_schedule::Kernel;
use waco_sim::MachineConfig;
use waco_sparseconv::Pattern;
use waco_tensor::gen::{self, Rng64};

fn main() {
    let scale = Scale::from_args();
    println!("== Figure 16b: search time breakdown vs nnz (SpMM) ==\n");
    let mut waco = scale.train_waco(MachineConfig::xeon_like(), Kernel::SpMM, 32);

    let sizes: &[usize] = if std::env::args().any(|a| a == "--quick") {
        &[256, 512, 1024]
    } else {
        &[256, 512, 1024, 2048, 4096]
    };

    // The breakdown is read off the observability layer, not re-timed here.
    waco_obs::install();

    let mut rows = Vec::new();
    let mut feat_series = Vec::new();
    let mut anns_series = Vec::new();
    for &n in sizes {
        let mut rng = Rng64::seed_from(scale.seed ^ n as u64);
        let m = gen::uniform_random(n, n, 12.0 / n as f64, &mut rng);
        let space = waco.space_for(&m);
        // Build the index once per shape (amortized in practice); timing
        // only covers the per-query phases like the paper's breakdown.
        let index = ScheduleIndex::build(&waco.model, &space, scale.index_size, scale.seed);
        let pattern = Pattern::from_matrix(&m);

        // 3 queries per size; the spans aggregate, so report the mean.
        waco_obs::reset();
        for _ in 0..3 {
            let feat = waco.model.extract_feature(&pattern);
            let _ = index.query_with_feature(&waco.model, &feat, 10, 64);
        }
        let snap = waco_obs::snapshot();
        let f = snap.span_total("feature_extraction").mean_seconds();
        let a = snap.span_total("anns_traversal").mean_seconds();
        let evals = snap.counter("anns.predictor_calls") / snap.counter("anns.queries").max(1);
        rows.push(vec![
            format!("{n}x{n}"),
            m.nnz().to_string(),
            format!("{:.2}ms", f * 1e3),
            format!("{:.2}ms", a * 1e3),
            evals.to_string(),
            format!("{:.0}%", 100.0 * f / (f + a)),
        ]);
        feat_series.push(f * 1e3);
        anns_series.push(a * 1e3);
    }
    waco_obs::uninstall();
    render::table(
        &[
            "matrix",
            "nnz",
            "feature extraction",
            "ANNS",
            "vertices/query",
            "feature share",
        ],
        &rows,
    );
    render::line_chart(
        "wall time (ms) vs matrix size",
        "growing nnz →",
        &[
            ("feature extraction", feat_series.clone()),
            ("ANNS", anns_series.clone()),
        ],
        8,
    );
    println!(
        "\nShape check: feature share grows with nnz (paper: the extractor \
         dominates past ~1.5M nnz on their scale); ANNS stays ~flat."
    );
}
