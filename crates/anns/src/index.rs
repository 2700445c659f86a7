//! The WACO schedule index: sampled SuperSchedules, their embeddings, an
//! HNSW graph, and cost-model-guided queries.

use crate::hnsw::Hnsw;
use waco_model::CostModel;
use waco_schedule::encode;
use waco_schedule::{sample, Space, SuperSchedule};

/// Timing breakdown of one WACO search (Figure 16b): the pattern feature is
/// extracted once; ANNS then evaluates only the predictor head per vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchBreakdown {
    /// Wall time of the (single) feature extraction. A `Waco::tune` times
    /// it inside its extractor branch, which runs beside the Stage-1 prune
    /// and the default's measurement.
    pub feature_seconds: f64,
    /// Wall time of the graph traversal + head evaluations: in a staged
    /// tune, the masked query alone, without the Stage-1 prune before it.
    pub anns_seconds: f64,
    /// Number of cost evaluations performed by ANNS.
    pub evals: usize,
    /// Candidates discarded by the Stage-1 asymptotic pruner before the
    /// traversal ran (0 for an unpruned search).
    pub pruned: usize,
}

/// A pre-built search structure over the SuperSchedule space of one kernel
/// (§4.2.2's "graph built with the SuperSchedules which appeared in our
/// training dataset"; here: a deterministic sample of the space).
#[derive(Debug)]
pub struct ScheduleIndex {
    /// The vertex schedules.
    pub schedules: Vec<SuperSchedule>,
    /// The HNSW graph (l2) over the schedules' program embeddings under the
    /// model used at build time; `hnsw.vector(n)` is schedule `n`'s.
    pub hnsw: Hnsw,
    space: Space,
}

impl ScheduleIndex {
    /// Samples `count` schedules of `space`, embeds them with `model`, and
    /// builds the graph. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn build(model: &CostModel, space: &Space, count: usize, seed: u64) -> Self {
        Self::build_with_extras(model, space, count, seed, Vec::new())
    }

    /// Like [`ScheduleIndex::build`], but additionally indexes the given
    /// schedules. The paper builds its graph from the SuperSchedules of the
    /// training dataset, which is naturally dense in reasonable
    /// configurations; `extras` lets callers reproduce that density by
    /// seeding a portfolio of classic formats and parallelizations next to
    /// the uniform samples.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`; invalid extras panic on encoding.
    pub fn build_with_extras(
        model: &CostModel,
        space: &Space,
        count: usize,
        seed: u64,
        extras: Vec<SuperSchedule>,
    ) -> Self {
        assert!(count > 0, "index needs at least one schedule");
        let mut schedules = Vec::with_capacity(count + extras.len());
        for i in 0..count {
            schedules.push(sample::sample_indexed(space, i as u64, seed));
        }
        schedules.extend(extras);
        let embeddings = schedules
            .iter()
            .map(|s| model.embed(&encode::encode_structured(s, space)))
            .collect();
        let m = 12.min(schedules.len().max(2) - 1).max(2);
        let hnsw = Hnsw::build(embeddings, m, 64, seed ^ 0xA5A5);
        Self {
            schedules,
            hnsw,
            space: space.clone(),
        }
    }

    /// Number of indexed schedules.
    pub fn len(&self) -> usize {
        self.schedules.len()
    }

    /// Whether the index is empty (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.schedules.is_empty()
    }

    /// The space the index was built for.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Queries with a pre-extracted pattern feature: ANNS over the graph
    /// with `model.score(feat, embedding)` as the distance. Returns the
    /// top-k `(schedule index, predicted cost)` plus the best-so-far trace.
    pub fn query_with_feature(
        &self,
        model: &CostModel,
        feat: &[f32],
        k: usize,
        ef: usize,
    ) -> (Vec<(usize, f32)>, usize, Vec<f32>) {
        let _s = waco_obs::span("anns_traversal");
        let out = self
            .hnsw
            .search_generic(|n| model.score(feat, self.hnsw.vector(n)), k, ef);
        if waco_obs::enabled() {
            waco_obs::counter("anns.queries", 1);
            waco_obs::counter("anns.predictor_calls", out.1 as u64);
        }
        out
    }

    /// [`ScheduleIndex::query_with_feature`] restricted to the candidates
    /// flagged in `allowed` — Stage 2 of the two-stage tuning pipeline. The
    /// mask is computed by the caller (typically from
    /// `ExecutionPlan::asymptotic_bound` over the indexed schedules); the
    /// index itself stays pruning-agnostic. Masked vertices are traversed
    /// but never scored, so the returned eval count is the pruned-path
    /// measurement the `search_pruning` gate bounds.
    ///
    /// # Panics
    ///
    /// Panics if `allowed.len() != self.len()` or no candidate is allowed.
    pub fn query_with_feature_masked(
        &self,
        model: &CostModel,
        feat: &[f32],
        k: usize,
        ef: usize,
        allowed: &[bool],
    ) -> (Vec<(usize, f32)>, usize, Vec<f32>) {
        assert_eq!(allowed.len(), self.len(), "mask covers every candidate");
        assert!(
            allowed.iter().any(|&a| a),
            "pruner must leave at least one candidate"
        );
        let _s = waco_obs::span("anns_traversal");
        let out = self.hnsw.search_generic_masked(
            |n| model.score(feat, self.hnsw.vector(n)),
            k,
            ef,
            allowed,
        );
        if waco_obs::enabled() {
            waco_obs::counter("anns.queries", 1);
            waco_obs::counter("anns.predictor_calls", out.1 as u64);
            let pruned = allowed.iter().filter(|&&a| !a).count();
            waco_obs::counter("anns.pruned_candidates", pruned as u64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_model::CostModelConfig;
    use waco_schedule::Kernel;
    use waco_sparseconv::Pattern;
    use waco_tensor::gen::{self, Rng64};

    fn setup() -> (Space, CostModel, ScheduleIndex) {
        let mut rng = Rng64::seed_from(1);
        let space = Space::new(Kernel::SpMV, vec![32, 32], 0);
        let layout = encode::layout(&space);
        let model = CostModel::for_kernel(Kernel::SpMV, &layout, CostModelConfig::tiny(), &mut rng);
        let index = ScheduleIndex::build(&model, &space, 120, 7);
        (space, model, index)
    }

    #[test]
    fn build_shapes() {
        let (_s, _m, index) = setup();
        assert_eq!(index.len(), 120);
        assert!(!index.is_empty());
        assert_eq!(index.hnsw.len(), 120);
    }

    #[test]
    fn query_returns_low_scores() {
        let (_s, model, index) = setup();
        let mut rng = Rng64::seed_from(2);
        let m = gen::uniform_random(32, 32, 0.1, &mut rng);
        let feat = model.extract_feature(&Pattern::from_matrix(&m));
        let (res, evals, _) = index.query_with_feature(&model, &feat, 5, 48);
        assert_eq!(res.len(), 5);
        assert!(evals > 0 && evals <= index.len());
        // ANNS result should be close to the brute-force best prediction.
        let brute: f32 = (0..index.len())
            .map(|n| model.score(&feat, index.hnsw.vector(n)))
            .fold(f32::INFINITY, f32::min);
        let got = res[0].1;
        assert!(
            got <= brute + 0.3 * brute.abs().max(0.1),
            "ANNS best {got} vs brute {brute}"
        );
    }

    #[test]
    fn masked_query_only_scores_survivors() {
        let (_s, model, index) = setup();
        let mut rng = Rng64::seed_from(4);
        let m = gen::uniform_random(32, 32, 0.1, &mut rng);
        let feat = model.extract_feature(&Pattern::from_matrix(&m));
        // Allow every third candidate.
        let allowed: Vec<bool> = (0..index.len()).map(|i| i % 3 == 0).collect();
        let (res, evals, _) = index.query_with_feature_masked(&model, &feat, 5, 48, &allowed);
        assert!(!res.is_empty());
        assert!(res.iter().all(|&(n, _)| allowed[n]));
        assert!(evals <= allowed.iter().filter(|&&a| a).count());
        // Determinism: the same mask and feature give the same answer.
        let (res2, evals2, _) = index.query_with_feature_masked(&model, &feat, 5, 48, &allowed);
        assert_eq!(res, res2);
        assert_eq!(evals, evals2);
    }

    #[test]
    fn deterministic_build() {
        let (space, model, index) = setup();
        let again = ScheduleIndex::build(&model, &space, 120, 7);
        assert_eq!(index.schedules[10], again.schedules[10]);
        assert_eq!(index.hnsw.vector(10), again.hnsw.vector(10));
    }
}
