//! The staged search pipeline: asymptotic pruning (Stage 1) in front of the
//! learned-model ANNS traversal (Stage 2).
//!
//! The monolithic tune path scored every graph vertex the beam touched.
//! Following Ahrens & Kjolstad's asymptotic cost model (and SparseAuto's
//! prune-then-search staging), Stage 1 lowers each indexed candidate once,
//! derives its symbolic iteration-domain bound from the plan IR
//! ([`ExecutionPlan::asymptotic_bound`]), and discards candidates whose
//! bound is Θ-dominated — more than [`PRUNE_MARGIN`]× the best bound. The
//! learned model then only ranks the survivors, which is where its
//! workload sensitivity actually matters: asymptotics decide *which
//! complexity class* to search, the model decides *where inside it*.
//!
//! Bounds are computed per structure class ([`waco_schedule::dominance`]):
//! schedules differing only in parallelization share one bound evaluation.
//! Soundness knobs: the pruner always keeps at least `min_keep` candidates
//! (backfilled in bound order), so the survivor set can never be empty and
//! Stage 2 always has a full top-k to measure.

use waco_anns::ScheduleIndex;
use waco_exec::{AsymptoticProfile, ExecutionPlan};
use waco_schedule::dominance::structure_classes;

/// How the tuner searches its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchMode {
    /// Two-stage search: asymptotic pruning, then masked ANNS over the
    /// survivors (the default).
    #[default]
    Staged,
    /// Single-stage search: the original unpruned ANNS traversal.
    Full,
}

/// Dominance margin of Stage 1: a candidate survives when its asymptotic
/// bound is within this factor of the best candidate's bound. The margin
/// absorbs the bound's modeling error (constant factors, cache effects the
/// simulator charges but the bound cannot see); outside it the candidate is
/// in a worse complexity class for this workload and the learned model
/// never needs to score it. Calibrated against the `search_pruning` verify
/// suite: large enough that the pruned search stays equal-or-better on the
/// structure corpus overall (geomean of staged/full time ≤ 1, with a hard
/// per-case collapse ceiling), small enough to cut cost-model evaluations
/// ≥2×.
pub const PRUNE_MARGIN: f64 = 6.0;

/// The dominance margin for a kernel. Most kernels use [`PRUNE_MARGIN`];
/// two get a wider band because their bounds carry more modeling error:
/// MTTKRP's order-3 bound folds per-mode slice histograms that average
/// away fiber structure, and SpMM's bound scales the traversal term by the
/// dense column extent, overweighting layouts that amortize it — measured
/// winners for both sit up to ~10–15× above the minimum bound while still
/// being in the best complexity class.
pub fn prune_margin(kernel: waco_schedule::Kernel) -> f64 {
    match kernel {
        waco_schedule::Kernel::MTTKRP | waco_schedule::Kernel::SpMM => 4.0 * PRUNE_MARGIN,
        _ => PRUNE_MARGIN,
    }
}

/// Stats of one Stage-1 pruning pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneStats {
    /// Indexed candidates considered.
    pub candidates: usize,
    /// Candidates that survived into Stage 2.
    pub survivors: usize,
    /// Distinct structure classes among the candidates (bound evaluations
    /// performed).
    pub classes: usize,
    /// The best (smallest) asymptotic bound seen.
    pub min_bound: f64,
}

impl PruneStats {
    /// Candidates discarded by the pass.
    pub fn pruned(&self) -> usize {
        self.candidates - self.survivors
    }
}

/// Stage 1 of the search, pre-lowered for one `(index, space)` pair.
///
/// Construction lowers every indexed schedule once (plans are operand-free
/// and reusable across every workload of the shape); each [`Self::prune`]
/// call then only folds the cached plans against a workload profile.
/// Deterministic throughout: same index + same profile → same mask.
#[derive(Debug)]
pub struct SearchPipeline {
    /// Lowered plan per candidate (`None` when lowering fails — such a
    /// candidate can never be measured, so it never survives on merit).
    plans: Vec<Option<ExecutionPlan>>,
    /// Structure class of each candidate.
    class_of: Vec<usize>,
    /// Number of structure classes.
    classes: usize,
}

impl SearchPipeline {
    /// Lowers the index's candidates and groups them into structure classes.
    pub fn new(index: &ScheduleIndex) -> Self {
        let space = index.space();
        let plans: Vec<Option<ExecutionPlan>> = index
            .schedules
            .iter()
            .map(|s| ExecutionPlan::build(s, space).ok())
            .collect();
        let (class_of, representatives) = structure_classes(&index.schedules);
        Self {
            plans,
            class_of,
            classes: representatives.len(),
        }
    }

    /// The cached plan of candidate `i`, if it lowered.
    pub fn plan(&self, i: usize) -> Option<&ExecutionPlan> {
        self.plans.get(i).and_then(|p| p.as_ref())
    }

    /// Runs Stage 1 for one workload: returns the survivor mask (parallel
    /// to the index's candidates) and the pass stats.
    ///
    /// Survivors are the candidates whose class bound is within `margin` of
    /// the minimum; when fewer than `min_keep` qualify, the next-best
    /// candidates (by `(bound, index)` order) are backfilled so Stage 2
    /// always has a full top-k to choose from. At least one candidate
    /// always survives.
    pub fn prune(
        &self,
        profile: &AsymptoticProfile,
        min_keep: usize,
        margin: f64,
    ) -> (Vec<bool>, PruneStats) {
        let n = self.plans.len();
        // One bound per structure class, computed from the first member
        // that lowered (class members share their iteration-domain shape).
        let mut class_bound = vec![f64::INFINITY; self.classes];
        for (i, plan) in self.plans.iter().enumerate() {
            let c = self.class_of[i];
            if class_bound[c].is_infinite() {
                if let Some(p) = plan {
                    class_bound[c] = p.asymptotic_bound(profile).work;
                }
            }
        }
        let bound_of = |i: usize| class_bound[self.class_of[i]];
        let min_bound = (0..n)
            .filter(|&i| self.plans[i].is_some())
            .map(bound_of)
            .fold(f64::INFINITY, f64::min);
        // On a degenerate workload Stage 1 abstains: every lowered candidate
        // survives and only Stage 2's evaluation budget separates the staged
        // search from the unpruned one. Likewise a non-positive or non-finite
        // minimum carries no ranking information at all.
        let abstain = profile.is_degenerate() || !min_bound.is_finite() || min_bound <= 0.0;
        let cutoff = if abstain {
            f64::INFINITY
        } else {
            min_bound * margin
        };
        let mut allowed: Vec<bool> = (0..n)
            .map(|i| self.plans[i].is_some() && bound_of(i) <= cutoff)
            .collect();
        let mut survivors = allowed.iter().filter(|&&a| a).count();
        if survivors < min_keep.max(1) {
            // Backfill deterministically by (bound, index).
            let mut rest: Vec<usize> = (0..n).filter(|&i| !allowed[i]).collect();
            rest.sort_by(|&a, &b| bound_of(a).total_cmp(&bound_of(b)).then(a.cmp(&b)));
            for i in rest {
                if survivors >= min_keep.max(1) {
                    break;
                }
                allowed[i] = true;
                survivors += 1;
            }
        }
        let stats = PruneStats {
            candidates: n,
            survivors,
            classes: self.classes,
            min_bound,
        };
        (allowed, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_model::{CostModel, CostModelConfig};
    use waco_schedule::{encode, Kernel, Space};
    use waco_tensor::gen::Rng64;

    fn pipeline() -> (ScheduleIndex, SearchPipeline) {
        let mut rng = Rng64::seed_from(1);
        let space = Space::new(Kernel::SpMV, vec![32, 32], 0);
        let layout = encode::layout(&space);
        let model = CostModel::for_kernel(Kernel::SpMV, &layout, CostModelConfig::tiny(), &mut rng);
        let index = ScheduleIndex::build(&model, &space, 150, 7);
        let pipeline = SearchPipeline::new(&index);
        (index, pipeline)
    }

    #[test]
    fn prune_is_deterministic_and_nonempty() {
        let (index, pipeline) = pipeline();
        let profile = AsymptoticProfile::uniform(&[32, 32], 128);
        let (mask, stats) = pipeline.prune(&profile, 5, PRUNE_MARGIN);
        let (mask2, stats2) = pipeline.prune(&profile, 5, PRUNE_MARGIN);
        assert_eq!(mask, mask2);
        assert_eq!(stats, stats2);
        assert_eq!(mask.len(), index.len());
        assert!(stats.survivors >= 5);
        assert!(stats.survivors + stats.pruned() == stats.candidates);
        assert!(stats.min_bound.is_finite());
    }

    #[test]
    fn tight_margin_still_keeps_min_keep() {
        let (_index, pipeline) = pipeline();
        let profile = AsymptoticProfile::uniform(&[32, 32], 128);
        // A margin below 1.0 admits nobody on merit; backfill must rescue
        // exactly min_keep survivors.
        let (mask, stats) = pipeline.prune(&profile, 7, 0.0);
        assert_eq!(stats.survivors, 7);
        assert_eq!(mask.iter().filter(|&&a| a).count(), 7);
    }

    #[test]
    fn degenerate_workloads_keep_every_lowered_candidate() {
        let (_index, pipeline) = pipeline();
        // One nonzero in a 32x32 space: every candidate's cost is dense
        // overhead, so Stage 1 must abstain rather than guess.
        let profile = AsymptoticProfile::uniform(&[32, 32], 1);
        let (mask, stats) = pipeline.prune(&profile, 5, PRUNE_MARGIN);
        let (mask2, stats2) = pipeline.prune(&profile, 5, PRUNE_MARGIN);
        assert_eq!(mask, mask2, "abstention is deterministic");
        assert_eq!(stats, stats2);
        let lowered = (0..mask.len())
            .filter(|&i| pipeline.plan(i).is_some())
            .count();
        assert_eq!(stats.survivors, lowered, "abstention keeps all lowered");
        assert_eq!(mask.iter().filter(|&&a| a).count(), lowered);
    }

    #[test]
    fn surviving_bounds_dominate_pruned_ones() {
        let (_index, pipeline) = pipeline();
        let profile = AsymptoticProfile::uniform(&[32, 32], 200);
        let (mask, _) = pipeline.prune(&profile, 1, 2.0);
        let bound = |i: usize| {
            pipeline
                .plan(i)
                .map(|p| p.asymptotic_bound(&profile).work)
                .unwrap_or(f64::INFINITY)
        };
        let worst_survivor = (0..mask.len())
            .filter(|&i| mask[i])
            .map(bound)
            .fold(0.0f64, f64::max);
        let best_pruned = (0..mask.len())
            .filter(|&i| !mask[i])
            .map(bound)
            .fold(f64::INFINITY, f64::min);
        // Merit survivors sit under the cutoff; anything pruned is above it.
        assert!(worst_survivor <= best_pruned.max(worst_survivor));
        assert!((0..mask.len()).any(|i| !mask[i]), "something was pruned");
    }
}
