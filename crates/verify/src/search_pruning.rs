//! Search-pruning suite: the two-stage tuner (asymptotic pruning in front
//! of the learned-model ANNS traversal) must be a pure acceleration, never
//! a quality regression.
//!
//! For every kernel and every corpus structure the suite trains a tiny
//! [`Waco`] pipeline, tunes each case in [`SearchMode::Staged`] and
//! [`SearchMode::Full`], and holds the staged search to three properties:
//!
//! 1. **Equal-or-better over the corpus**: the geometric mean of the
//!    per-case time ratio staged/full never exceeds 1 — the pruned search
//!    matches or beats the unpruned one overall, the same corpus-level
//!    metric the paper reports. Per case, two hard floors apply: neither
//!    mode may ever lose to the measured default-CSR baseline (both
//!    measure it, so this is the tuner's contract), and no single case may
//!    blow past the full search by [`MAX_CASE_FACTOR`]× — a budgeted
//!    traversal may trade a few percent on one workload for a win on
//!    another, but a collapse that large means Stage 1 discarded the only
//!    good complexity class.
//! 2. **Cheaper**: aggregated over the corpus, the full search performs at
//!    least [`MIN_EVAL_RATIO`]× the cost-model evaluations of the staged
//!    search — the whole point of pruning.
//! 3. **Deterministic**: re-tuning the same workload in staged mode
//!    reproduces the same schedule and the same evaluation count.
//!
//! Alongside the end-to-end comparison, the pruner itself is property
//! tested through [`SearchPipeline`]: the survivor mask is never empty, is
//! a pure function of the workload profile, and never drops the full
//! search's winner while that winner's bound is within the kernel's
//! dominance margin ([`prune_margin`]) of the best — the condition under
//! which Stage 1 claims soundness.
//! Finally, the bound is cross-checked against the simulator: when one
//! schedule's asymptotic bound strongly dominates another's (by
//! [`DOMINANCE_FACTOR`]×), the simulator's traversal event counts must not
//! invert the ordering beyond [`EVENT_SLACK`] — the bound may be loose,
//! but it must not be *wrong* about complexity classes on real structures.

use std::collections::HashMap;

use waco_core::{prune_margin, SearchMode, SearchPipeline, Waco, WacoConfig, WacoTuned};
use waco_exec::{AsymptoticProfile, ExecutionPlan};
use waco_schedule::{Kernel, ScheduleSampler, Space, SuperSchedule};
use waco_sim::{MachineConfig, Simulator};
use waco_tensor::{gen, CooTensor3};

use crate::diff::dense_extent_for;
use crate::{corpus, kernel_wire_name, mix_seed, Failure, SuiteReport, VerifyConfig};

/// Aggregate cost-model evaluation ratio the staged search must achieve
/// over the corpus: full-mode evals ≥ this × staged-mode evals.
const MIN_EVAL_RATIO: f64 = 2.0;

/// Hard per-case ceiling on staged/full: the budgeted Stage-2 walk scores
/// ~2.5× fewer candidates than the unpruned search, so individual cases
/// may go either way (the corpus geomean is what must not regress), but a
/// loss beyond this factor is not search variance — it means the pruner
/// cut away every schedule in the winning complexity class.
const MAX_CASE_FACTOR: f64 = 8.0;

/// How much one bound must exceed another before the suite calls the pair
/// "strongly dominated" and demands the simulator agree on the ordering.
/// The gap absorbs the bound's constant-factor blindness (cache lines,
/// SIMD width, locate hit rates) — inside it the ordering is a modeling
/// judgment call, outside it an inversion means the bound derivation is
/// broken.
const DOMINANCE_FACTOR: f64 = 16.0;

/// Multiplicative slack on the simulator's event counts in the
/// cross-check, plus a small absolute allowance for near-empty structures
/// whose event counts are dominated by fixed loop overheads.
const EVENT_SLACK: f64 = 4.0;
const EVENT_SLACK_ABS: u64 = 256;

/// The tiny end-to-end config every pipeline in this suite trains with;
/// seeded per kernel so adding a kernel never shifts another's stream.
fn suite_config(seed: u64) -> WacoConfig {
    WacoConfig {
        seed,
        ..WacoConfig::tiny()
    }
}

/// One tuned staged/full pair plus the deterministic replay.
struct ModeComparison {
    staged: WacoTuned,
    full: WacoTuned,
    replay: WacoTuned,
}

/// Tunes one workload in staged, full, then staged mode again.
fn compare_modes<T>(
    waco: &mut Waco,
    tune: impl Fn(&mut Waco, &T) -> Result<WacoTuned, waco_core::WacoError>,
    workload: &T,
) -> Result<ModeComparison, waco_core::WacoError> {
    waco.set_search_mode(SearchMode::Staged);
    let staged = tune(waco, workload)?;
    waco.set_search_mode(SearchMode::Full);
    let full = tune(waco, workload)?;
    waco.set_search_mode(SearchMode::Staged);
    let replay = tune(waco, workload)?;
    Ok(ModeComparison {
        staged,
        full,
        replay,
    })
}

/// The per-case checks shared by the matrix and tensor paths. Returns
/// failure details; pushes nothing itself so callers own the bookkeeping.
fn mode_comparison_details(cmp: &ModeComparison) -> Vec<String> {
    let mut details = Vec::new();
    if cmp.full.breakdown.pruned != 0 {
        details.push(format!(
            "full search reported {} pruned candidates (must be 0)",
            cmp.full.breakdown.pruned
        ));
    }
    // Property 1, per-case floors. Both modes measure the shipped
    // default-CSR schedule and keep the fastest, so neither may ever
    // return something slower than that baseline — pruning can shave
    // model evaluations, never the tuner's contract.
    for (mode, tuned) in [("staged", &cmp.staged), ("full", &cmp.full)] {
        if tuned.result.kernel_seconds > tuned.baseline_seconds * (1.0 + 1e-9) {
            details.push(format!(
                "{mode} search lost to the default-CSR baseline: {:.3e}s vs {:.3e}s",
                tuned.result.kernel_seconds, tuned.baseline_seconds
            ));
        }
    }
    // And the catastrophic-loss ceiling: a single case may trade a little
    // (the corpus geomean guards the aggregate), but not collapse.
    if cmp.staged.result.kernel_seconds > cmp.full.result.kernel_seconds * MAX_CASE_FACTOR {
        details.push(format!(
            "pruned search collapsed: staged winner {:.3e}s vs full winner {:.3e}s \
             (beyond {MAX_CASE_FACTOR}x)",
            cmp.staged.result.kernel_seconds, cmp.full.result.kernel_seconds
        ));
    }
    // Property 3: staged tuning is a pure function of the workload.
    if cmp.replay.result.sched != cmp.staged.result.sched
        || cmp.replay.breakdown.evals != cmp.staged.breakdown.evals
        || cmp.replay.breakdown.pruned != cmp.staged.breakdown.pruned
    {
        details.push(format!(
            "staged search is not deterministic: {} evals / {} pruned, then {} evals / {} pruned",
            cmp.staged.breakdown.evals,
            cmp.staged.breakdown.pruned,
            cmp.replay.breakdown.evals,
            cmp.replay.breakdown.pruned,
        ));
    }
    details
}

/// Stage-1 soundness properties, checked directly on [`SearchPipeline`]:
/// nonempty survivors, deterministic mask, argmin retention under
/// dominance.
fn pruner_soundness_details(
    pipe: &SearchPipeline,
    index_schedules: &[SuperSchedule],
    profile: &AsymptoticProfile,
    min_keep: usize,
    margin: f64,
    full_winner: &SuperSchedule,
) -> Vec<String> {
    let mut details = Vec::new();
    let (mask, stats) = pipe.prune(profile, min_keep, margin);
    if stats.survivors == 0 || !mask.iter().any(|&a| a) {
        details.push("pruner discarded all candidates".to_string());
    }
    let (mask2, stats2) = pipe.prune(profile, min_keep, margin);
    if mask2 != mask || stats2 != stats {
        details.push("pruning is not deterministic for a fixed profile".to_string());
    }
    // Argmin retention: when the full search's measured winner is an
    // indexed candidate whose bound is within the margin (dominance
    // holds), the pruner must have kept it. A winner outside the margin
    // survives only via min-keep backfill, which this check does not
    // demand — that is the modeling-error regime property 1 covers.
    if let Some(w) = index_schedules.iter().position(|s| s == full_winner) {
        if let Some(plan) = pipe.plan(w) {
            let bound = plan.asymptotic_bound(profile).work;
            if bound <= stats.min_bound * margin && !mask[w] {
                details.push(format!(
                    "pruner discarded the full search's winner (candidate {w}, bound {bound:.3e} \
                     within margin of best {:.3e})",
                    stats.min_bound
                ));
            }
        }
    }
    details
}

/// Cross-checks the asymptotic bound against the simulator on one matrix
/// case: strongly-dominated bound pairs must not invert the simulator's
/// traversal event counts beyond slack.
fn event_ordering_details(
    sim: &Simulator,
    m: &waco_tensor::CooMatrix,
    space: &Space,
    profile: &AsymptoticProfile,
    schedules: &[SuperSchedule],
) -> Vec<String> {
    // The simulator replays the *written* (serial) loop order, while plan
    // lowering hoists the parallel loop outermost; serializing the sampled
    // schedules keeps the bound and the replay on the same nest.
    let points: Vec<(usize, f64, u64)> = schedules
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            let serial = SuperSchedule {
                parallel: None,
                ..s.clone()
            };
            let plan = ExecutionPlan::build(&serial, space).ok()?;
            let report = sim.time_matrix(m, &serial, space).ok()?;
            Some((i, plan.asymptotic_bound(profile).work, report.events))
        })
        .collect();
    let mut details = Vec::new();
    for &(ia, ba, ea) in &points {
        for &(ib, bb, eb) in &points {
            let dominated = ba.is_finite() && ba * DOMINANCE_FACTOR <= bb;
            let allowance = (eb as f64 * EVENT_SLACK) as u64 + EVENT_SLACK_ABS;
            if dominated && ea > allowance {
                details.push(format!(
                    "bound ordering inverted: schedule {ia} (bound {ba:.3e}) ran {ea} simulator \
                     events vs schedule {ib} (bound {bb:.3e}, {DOMINANCE_FACTOR}x dominated) at {eb}"
                ));
            }
        }
    }
    details
}

/// The full search-pruning suite. Always covers the workspace kernels in
/// addition to the configured 2-D kernels (same policy as the workspace
/// suites); MTTKRP runs when configured, through the tensor corpus.
/// The log of one case's staged/full time ratio, for the corpus geomean.
/// Simulated times are strictly positive, but guard the degenerate zero so
/// a pathological case cannot poison the aggregate with a NaN.
fn case_ln_ratio(cmp: &ModeComparison) -> f64 {
    let s = cmp.staged.result.kernel_seconds.max(f64::MIN_POSITIVE);
    let f = cmp.full.result.kernel_seconds.max(f64::MIN_POSITIVE);
    (s / f).ln()
}

pub fn search_pruning_suite(cfg: &VerifyConfig) -> SuiteReport {
    let mut executed = 0usize;
    let mut skipped = 0usize;
    let mut failures: Vec<Failure> = Vec::new();
    let mut evals_full = 0u64;
    let mut evals_staged = 0u64;
    let mut ln_ratios: Vec<f64> = Vec::new();

    let mut kernels: Vec<Kernel> = cfg
        .kernels
        .iter()
        .copied()
        .filter(|&k| k != Kernel::MTTKRP)
        .chain(Kernel::WORKSPACE.iter().copied())
        .collect();
    kernels.dedup();

    for kernel in kernels {
        let wire = kernel_wire_name(kernel);
        let sim = Simulator::new(MachineConfig::xeon_like());
        let dense = dense_extent_for(kernel);
        let wcfg = suite_config(mix_seed(cfg.seed, &format!("prune/train/{wire}")));
        let train_corpus = gen::corpus(3, 24, wcfg.seed);
        let topk = wcfg.topk;
        let mut waco = match Waco::train_2d(sim, kernel, &train_corpus, dense, wcfg) {
            Ok((waco, _)) => waco,
            Err(e) => {
                failures.push(Failure {
                    suite: "search_pruning",
                    kernel: Some(wire.to_string()),
                    case_name: "train".to_string(),
                    matrix_seed: None,
                    schedule_index: None,
                    schedule: None,
                    schedule_json: None,
                    divergence: None,
                    detail: format!("training failed: {e}"),
                });
                continue;
            }
        };
        // Stage-1 state is per shape; cache pipelines the same way the
        // tuner does so a 7-case corpus lowers each index once.
        let mut pipelines: HashMap<Vec<usize>, SearchPipeline> = HashMap::new();

        for case in corpus::matrices(cfg.seed, cfg.budget) {
            let fail = |detail: String| Failure {
                suite: "search_pruning",
                kernel: Some(wire.to_string()),
                case_name: case.name.clone(),
                matrix_seed: Some(case.seed),
                schedule_index: None,
                schedule: None,
                schedule_json: None,
                divergence: None,
                detail,
            };
            let cmp = match compare_modes(&mut waco, |w, m| w.tune_matrix(m), &case.matrix) {
                Ok(cmp) => cmp,
                Err(e) => {
                    executed += 1;
                    failures.push(fail(format!("tuning failed: {e}")));
                    continue;
                }
            };
            executed += 1;
            evals_staged += cmp.staged.breakdown.evals as u64;
            evals_full += cmp.full.breakdown.evals as u64;
            ln_ratios.push(case_ln_ratio(&cmp));
            for detail in mode_comparison_details(&cmp) {
                failures.push(fail(detail));
            }

            let space = waco.space_for_matrix(&case.matrix);
            let profile = AsymptoticProfile::from_matrix(&case.matrix);
            let key = vec![case.matrix.nrows(), case.matrix.ncols()];
            if !pipelines.contains_key(&key) {
                let pipe = SearchPipeline::new(waco.index(&space));
                pipelines.insert(key.clone(), pipe);
            }
            let pipe = &pipelines[&key];
            let index_schedules = waco.index(&space).schedules.clone();
            executed += 1;
            for detail in pruner_soundness_details(
                pipe,
                &index_schedules,
                &profile,
                topk,
                prune_margin(kernel),
                &cmp.full.result.sched,
            ) {
                failures.push(fail(detail));
            }

            // Simulator cross-check over the shared sampler stream. An
            // empty pattern has no sparse traversal to order, so it is
            // counted as skipped rather than silently passing.
            if case.matrix.nnz() == 0 {
                skipped += 1;
            } else {
                let sweep_seed = mix_seed(cfg.seed, &format!("prune/sweep/{wire}/{}", case.name));
                let schedules = ScheduleSampler::new(&space, sweep_seed)
                    .take_schedules(cfg.budget.metamorphic_schedules());
                executed += 1;
                for detail in
                    event_ordering_details(&waco.sim, &case.matrix, &space, &profile, &schedules)
                {
                    failures.push(fail(detail));
                }
            }
        }
    }

    if cfg.kernels.contains(&Kernel::MTTKRP) {
        let wcfg = suite_config(mix_seed(cfg.seed, "prune/train/mttkrp"));
        let rank = dense_extent_for(Kernel::MTTKRP);
        let mut rng = gen::Rng64::seed_from(wcfg.seed);
        let train_corpus: Vec<(String, CooTensor3)> = (0..3)
            .map(|i| {
                (
                    format!("train3-{i}"),
                    gen::random_tensor3([12, 12, 12], 100, &mut rng),
                )
            })
            .collect();
        let sim = Simulator::new(MachineConfig::xeon_like());
        let topk = wcfg.topk;
        match Waco::train_3d(sim, &train_corpus, rank, wcfg) {
            Err(e) => failures.push(Failure {
                suite: "search_pruning",
                kernel: Some("mttkrp".to_string()),
                case_name: "train".to_string(),
                matrix_seed: None,
                schedule_index: None,
                schedule: None,
                schedule_json: None,
                divergence: None,
                detail: format!("training failed: {e}"),
            }),
            Ok((mut waco, _)) => {
                let mut pipelines: HashMap<Vec<usize>, SearchPipeline> = HashMap::new();
                for case in corpus::tensors(cfg.seed, cfg.budget) {
                    let fail = |detail: String| Failure {
                        suite: "search_pruning",
                        kernel: Some("mttkrp".to_string()),
                        case_name: case.name.clone(),
                        matrix_seed: Some(case.seed),
                        schedule_index: None,
                        schedule: None,
                        schedule_json: None,
                        divergence: None,
                        detail,
                    };
                    let cmp = match compare_modes(&mut waco, |w, t| w.tune_tensor3(t), &case.tensor)
                    {
                        Ok(cmp) => cmp,
                        Err(e) => {
                            executed += 1;
                            failures.push(fail(format!("tuning failed: {e}")));
                            continue;
                        }
                    };
                    executed += 1;
                    evals_staged += cmp.staged.breakdown.evals as u64;
                    evals_full += cmp.full.breakdown.evals as u64;
                    ln_ratios.push(case_ln_ratio(&cmp));
                    for detail in mode_comparison_details(&cmp) {
                        failures.push(fail(detail));
                    }

                    let space =
                        waco.sim
                            .space_for(Kernel::MTTKRP, case.tensor.dims().to_vec(), rank);
                    let profile = AsymptoticProfile::from_tensor3(&case.tensor);
                    let key = case.tensor.dims().to_vec();
                    if !pipelines.contains_key(&key) {
                        let pipe = SearchPipeline::new(waco.index(&space));
                        pipelines.insert(key.clone(), pipe);
                    }
                    let pipe = &pipelines[&key];
                    let index_schedules = waco.index(&space).schedules.clone();
                    executed += 1;
                    for detail in pruner_soundness_details(
                        pipe,
                        &index_schedules,
                        &profile,
                        topk,
                        prune_margin(Kernel::MTTKRP),
                        &cmp.full.result.sched,
                    ) {
                        failures.push(fail(detail));
                    }
                }
            }
        }
    }

    // Property 1, aggregate: the corpus geomean of staged/full must not
    // regress. Individual cases may trade either way under the Stage-2
    // budget; overall, pruning must be a pure acceleration.
    executed += 1;
    if !ln_ratios.is_empty() {
        let geomean = (ln_ratios.iter().sum::<f64>() / ln_ratios.len() as f64).exp();
        if geomean > 1.0 + 1e-9 {
            failures.push(Failure {
                suite: "search_pruning",
                kernel: None,
                case_name: "aggregate/geomean".to_string(),
                matrix_seed: None,
                schedule_index: None,
                schedule: None,
                schedule_json: None,
                divergence: None,
                detail: format!(
                    "pruned search regressed over the corpus: geomean staged/full = {geomean:.4} \
                     across {} cases (must be <= 1)",
                    ln_ratios.len()
                ),
            });
        }
    }

    // Property 2: the aggregate evaluation-count ratio, the suite's whole
    // reason to exist. One check, corpus-wide, so a single easy case
    // cannot hide a pruner that stopped pruning elsewhere.
    executed += 1;
    let ratio = evals_full as f64 / (evals_staged.max(1)) as f64;
    if ratio < MIN_EVAL_RATIO {
        failures.push(Failure {
            suite: "search_pruning",
            kernel: None,
            case_name: "aggregate/evals_ratio".to_string(),
            matrix_seed: None,
            schedule_index: None,
            schedule: None,
            schedule_json: None,
            divergence: None,
            detail: format!(
                "full search made {evals_full} cost-model evaluations vs staged {evals_staged} \
                 — ratio {ratio:.2} below required {MIN_EVAL_RATIO:.1}"
            ),
        });
    }

    SuiteReport {
        name: "search_pruning",
        executed,
        skipped,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;

    #[test]
    fn smoke_corpus_prunes_soundly() {
        let cfg = VerifyConfig {
            kernels: vec![Kernel::SpMV, Kernel::MTTKRP],
            faults: false,
            ..VerifyConfig::new(7, Budget::Smoke)
        };
        let report = search_pruning_suite(&cfg);
        assert!(
            report.failures.is_empty(),
            "pruned search must be equal-or-better and >=2x cheaper: {:?}",
            report.failures.first().map(|f| f.to_string())
        );
        assert!(report.executed > 10, "suite actually ran checks");
        assert!(report.skipped >= 1, "the empty pattern skips the sim sweep");
    }
}
