//! A stage-by-stage mirror of one cold tune, built only from the public
//! functions of `model`, `sparseconv`, `core::pipeline`, `anns`, `sim` and
//! `exec`.
//!
//! `WacoTuner::tune` is one opaque call; to attribute its time the traced
//! pass replays the same request through the same stages with a span around
//! each. The mirror is trained exactly as `WacoTuner` trains (same corpus,
//! seed and configuration), so it must pick the identical schedule — the
//! traced pass checks that, which is what makes the stage times stand for
//! the real call.

use std::collections::HashMap;

use waco_anns::ScheduleIndex;
use waco_core::{prune_margin, SearchPipeline, WacoConfig};
use waco_exec::AsymptoticProfile;
use waco_model::CostModel;
use waco_schedule::named::{default_csr, portfolio};
use waco_schedule::{Kernel, Space, SuperSchedule};
use waco_serve::{Fingerprint, PlanCache, WacoTunerConfig};
use waco_sim::{MachineConfig, Simulator};
use waco_sparseconv::Pattern;
use waco_tensor::{gen, CooMatrix};

use crate::inputs::DENSE_EXTENT;
use crate::trace::Tracer;

pub const KERNEL: Kernel = Kernel::SpMM;

/// The simulated machine `WacoTuner` measures on.
pub fn simulator() -> Simulator {
    Simulator::new(MachineConfig::xeon_like())
}

pub fn space_of(sim: &Simulator, m: &CooMatrix) -> Space {
    sim.space_for(KERNEL, vec![m.nrows(), m.ncols()], DENSE_EXTENT)
}

/// Simulated seconds of the default-CSR schedule on `m`: the denominator of
/// `tuned_sim_speedup`.
pub fn baseline_seconds(sim: &Simulator, m: &CooMatrix) -> f64 {
    let space = space_of(sim, m);
    sim.time_matrix(m, &default_csr(&space), &space)
        .map_or(f64::INFINITY, |r| r.seconds)
}

struct Shape {
    space: Space,
    index: ScheduleIndex,
    pipeline: SearchPipeline,
}

/// What the staged replay decided, with the exact counts of each stage.
#[derive(Debug, Clone)]
pub struct Staged {
    pub fingerprint: Fingerprint,
    pub schedule: SuperSchedule,
    pub kernel_seconds: f64,
    pub evals: usize,
    pub pruned: usize,
    pub survivors: usize,
}

pub struct TuneMirror {
    sim: Simulator,
    model: CostModel,
    cfg: WacoConfig,
    shapes: HashMap<(usize, usize), Shape>,
    plans: PlanCache,
    /// Candidates the simulator timed, per span tag.
    measured: HashMap<String, usize>,
}

impl TuneMirror {
    /// Trains the cost model the way `WacoTuner::pipeline_for` does.
    pub fn train() -> Self {
        let tuner_cfg = WacoTunerConfig::default();
        let cfg = tuner_cfg.waco;
        let (families, base) = tuner_cfg.corpus;
        let corpus = gen::corpus(families, base, cfg.seed);
        let (model, _) =
            waco_core::train_cost_model(simulator(), KERNEL, &corpus, DENSE_EXTENT, cfg)
                .expect("training the mirror cost model on the built-in corpus");
        TuneMirror {
            sim: simulator(),
            model,
            cfg,
            shapes: HashMap::new(),
            plans: PlanCache::new(tuner_cfg.plan_cache_capacity),
            measured: HashMap::new(),
        }
    }

    /// The hit path of the plan cache for a decision [`Self::staged`] made:
    /// what a client pays when it comes back to execute the decision.
    pub fn plan_hit(&self, m: &CooMatrix, staged: &Staged) {
        let shape = &self.shapes[&(m.nrows(), m.ncols())];
        self.plans
            .get_or_lower(staged.fingerprint, &staged.schedule, &shape.space)
            .expect("a cached plan");
    }

    /// Candidates the `sim.measure.<tag>` spans timed so far.
    pub fn measured(&self, tag: &str) -> usize {
        self.measured.get(tag).copied().unwrap_or(0)
    }

    /// Builds the KNN index and the Stage-1 pipeline of `m`'s shape, as the
    /// first tune of a shape does inside `Waco`. Set-up, not a timed stage.
    pub fn warm(&mut self, m: &CooMatrix) {
        let key = (m.nrows(), m.ncols());
        if self.shapes.contains_key(&key) {
            return;
        }
        let space = space_of(&self.sim, m);
        let index = ScheduleIndex::build_with_extras(
            &self.model,
            &space,
            self.cfg.index_size,
            self.cfg.seed,
            portfolio(&space),
        );
        let pipeline = SearchPipeline::new(&index);
        self.shapes.insert(
            key,
            Shape {
                space,
                index,
                pipeline,
            },
        );
    }

    /// One cold tune, stage by stage, a span around each layer call. `tag`
    /// is appended to the per-size spans (`model.extract_feature.<tag>`,
    /// `sim.measure.<tag>`, `serve.fingerprint.<tag>`).
    pub fn staged(&mut self, m: &CooMatrix, tag: &str, request: u64, tr: &mut Tracer) -> Staged {
        self.warm(m);
        let shape = &self.shapes[&(m.nrows(), m.ncols())];
        let (topk, ef) = (self.cfg.topk, self.cfg.ef);

        let model = &mut self.model;
        let feat = tr.time(&format!("model.extract_feature.{tag}"), request, || {
            model.extract_feature(&Pattern::from_matrix(m))
        });
        let (allowed, stats) = tr.time("core.prune", request, || {
            let profile = AsymptoticProfile::from_matrix(m);
            shape.pipeline.prune(&profile, topk, prune_margin(KERNEL))
        });
        // The narrowed Stage-2 beam of `Waco::tune_inner`.
        let ef_staged = (ef / 4).clamp(2 * topk.max(1), ef.max(1));
        let model = &self.model;
        let (hits, evals, _) = tr.time("anns.search", request, || {
            shape
                .index
                .query_with_feature_masked(model, &feat, topk, ef_staged, &allowed)
        });

        let default = default_csr(&shape.space);
        let candidates: Vec<SuperSchedule> = hits
            .iter()
            .map(|&(i, _)| shape.index.schedules[i].clone())
            .chain([default])
            .collect();
        let sim = &self.sim;
        let (best, measured) = tr.time(&format!("sim.measure.{tag}"), request, || {
            let mut best: Option<(f64, SuperSchedule)> = None;
            let mut measured = 0;
            for sched in candidates {
                if let Ok(r) = sim.time_matrix(m, &sched, &shape.space) {
                    measured += 1;
                    if best.as_ref().map_or(true, |(b, _)| r.seconds < *b) {
                        best = Some((r.seconds, sched));
                    }
                }
            }
            (best, measured)
        });
        *self.measured.entry(tag.to_string()).or_default() += measured;
        let (kernel_seconds, schedule) = best.expect("the default CSR schedule always simulates");
        // `WacoTuner::plan_for`: the matrix is fingerprinted again to key
        // the plan cache, whose miss lowers the winner.
        let fp = tr.time(&format!("serve.fingerprint.{tag}"), request, || {
            Fingerprint::of_matrix(m)
        });
        let plans = &self.plans;
        tr.time("exec.lower", request, || {
            plans
                .get_or_lower(fp, &schedule, &shape.space)
                .expect("the winning schedule lowers")
        });
        Staged {
            fingerprint: fp,
            schedule,
            kernel_seconds,
            evals,
            pruned: stats.pruned(),
            survivors: stats.survivors,
        }
    }
}
