//! Figure 16a: search-strategy comparison — ANNS vs HyperOpt-like (TPE)
//! vs OpenTuner-like (bandit ensemble) vs random search.
//!
//! All strategies minimize the *trained cost model* for one query matrix
//! (the paper uses bcsstk29, a structural-mesh matrix; we use the mesh
//! family analog). Shape to hold: ANNS reaches the lowest predicted cost in
//! the fewest evaluations and spends by far the largest fraction of its
//! time actually evaluating the cost model (§4.2: 93.9% vs 3.9%/8.1%).
//!
//! ```sh
//! cargo run --release -p waco-bench --bin fig16a [--quick|--trials N ...]
//! ```

use waco_anns::{blackbox, ScheduleIndex};
use waco_baselines::fastest;
use waco_bench::{render, Scale};
use waco_schedule::{encode, Kernel, SuperSchedule};
use waco_sim::MachineConfig;
use waco_sparseconv::Pattern;
use waco_tensor::gen;

fn main() {
    let scale = Scale::from_args();
    println!("== Figure 16a: search strategies on the SpMM cost model ==\n");
    let waco = scale.train_waco(MachineConfig::xeon_like(), Kernel::SpMM, 32);

    // The query workload: a structural mesh (bcsstk29 analog).
    let side = (scale.test_size as f64).sqrt() as usize;
    let m = gen::mesh2d(side.max(8), side.max(8));
    let space = waco.space_for(&m).expect("a matrix of the tuner's order");
    let pattern = Pattern::from_matrix(&m);
    let feat = waco.model.extract_feature(&pattern);

    let trials = scale.trials.max(60);

    // ANNS: traverse the prebuilt KNN graph with the predictor as distance.
    let t0 = std::time::Instant::now();
    let index = ScheduleIndex::build(&waco.model, &space, scale.index_size, scale.seed);
    let build_secs = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let (hits, evals, anns_trace) = index.query_with_feature(&waco.model, &feat, 10, trials);
    let anns_secs = t1.elapsed().as_secs_f64();
    let anns_best = hits.first().map(|&(_, c)| c).unwrap_or(f32::NAN);

    // Black-box baselines share the identical objective.
    let model = &waco.model;
    let mut objective = |s: &waco_schedule::SuperSchedule| -> f32 {
        let enc = encode::encode_structured(s, &space);
        model.score(&feat, &model.embed(&enc))
    };
    // Random search has no cross-trial dependence, so its cost-model
    // evaluations run as a parallel batch on the persistent pool.
    let random = blackbox::random_search_batched(&space, trials, scale.seed, &objective);
    let tpe = blackbox::tpe_like(&space, trials, scale.seed, &mut objective);
    let bandit = blackbox::bandit_ensemble(&space, trials, scale.seed, &mut objective);

    // Measure the pure cost of one predictor evaluation to split ANNS time
    // into "evaluating the cost model" vs "graph bookkeeping".
    let eval_probe = {
        let emb = index.hnsw.vector(0);
        let t = std::time::Instant::now();
        let reps = 2000;
        let mut acc = 0.0f32;
        for _ in 0..reps {
            acc += waco.model.score(&feat, emb);
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64() / reps as f64
    };
    let anns_eval_fraction = ((evals as f64 * eval_probe) / anns_secs.max(1e-12)).min(1.0);

    // What each chosen schedule is actually worth on the machine: black-box
    // tuners can chase cost-model extrapolation artifacts far outside the
    // graph's (training-adjacent) distribution — the §4.2.2 argument for
    // graph-restricted search.
    let measure = |s: &waco_schedule::SuperSchedule| -> String {
        waco.sim
            .time_matrix(&m, s, &space)
            .map(|r| format!("{:.2e}s", r.seconds))
            .unwrap_or_else(|_| "infeasible".into())
    };
    // Deployment measures the whole top-k and ships the fastest feasible
    // candidate.
    let top: Vec<SuperSchedule> = hits
        .iter()
        .map(|&(i, _)| index.schedules[i].clone())
        .collect();
    let reports = waco.sim.time_batch(&m, &top, &space);
    let anns_measured = match fastest(&top, &reports, &space) {
        Some(best) => format!("{:.2e}s (best of top-10)", best.kernel_seconds),
        None => "infeasible".to_string(),
    };

    let rows = vec![
        vec![
            "ANNS (WACO)".into(),
            format!("{anns_best:.4}"),
            anns_measured,
            evals.to_string(),
            format!("{:.1}ms", anns_secs * 1e3),
            format!("{:.1}%", anns_eval_fraction * 100.0),
        ],
        vec![
            "Random".into(),
            format!("{:.4}", random.best_score),
            measure(&random.best),
            random.evals.to_string(),
            format!("{:.1}ms", random.seconds * 1e3),
            format!("{:.1}%", random.eval_fraction() * 100.0),
        ],
        vec![
            "HyperOpt-like (TPE)".into(),
            format!("{:.4}", tpe.best_score),
            measure(&tpe.best),
            tpe.evals.to_string(),
            format!("{:.1}ms", tpe.seconds * 1e3),
            format!("{:.1}%", tpe.eval_fraction() * 100.0),
        ],
        vec![
            "OpenTuner-like (bandit)".into(),
            format!("{:.4}", bandit.best_score),
            measure(&bandit.best),
            bandit.evals.to_string(),
            format!("{:.1}ms", bandit.seconds * 1e3),
            format!("{:.1}%", bandit.eval_fraction() * 100.0),
        ],
    ];
    render::table(
        &[
            "strategy",
            "best predicted",
            "measured runtime",
            "evaluations",
            "search time",
            "eval fraction",
        ],
        &rows,
    );
    println!(
        "  (KNN graph build: {:.1}ms, amortized across queries)",
        build_secs * 1e3
    );

    // Best-so-far traces.
    let pad = |t: &[f32], n: usize| -> Vec<f64> {
        let mut v: Vec<f64> = t.iter().map(|&x| x as f64).collect();
        let last = v.last().copied().unwrap_or(f64::NAN);
        while v.len() < n {
            v.push(last);
        }
        v.truncate(n);
        v
    };
    let n = trials.min(120);
    render::line_chart(
        "best-so-far predicted cost vs cost evaluations",
        "evaluations →",
        &[
            ("ANNS", pad(&anns_trace, n)),
            ("TPE", pad(&tpe.trace, n)),
            ("Bandit", pad(&bandit.trace, n)),
            ("Random", pad(&random.trace, n)),
        ],
        10,
    );

    println!(
        "\nShape check: ANNS retrieves candidates whose predictions are *reliable* \
         (graph vertices come from the feasible, training-adjacent distribution) and \
         ships the best measured one; unrestricted black-box tuners can chase cost-model \
         extrapolation artifacts into configurations that are infeasible to even build — \
         the paper's §4.2.2 argument for graph-restricted search. ANNS evals: {evals}; \
         predicted costs — ANNS {anns_best:.4}, TPE {:.4}, bandit {:.4}, random {:.4} \
         at {trials} trials. Tuner-side overhead fractions (paper: ANNS 93.9% of time \
         in the cost model vs 3.9%/8.1% for HyperOpt/OpenTuner) are printed above.",
        tpe.best_score, bandit.best_score, random.best_score
    );
}
