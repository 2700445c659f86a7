//! The tuning backend behind the serve loop.
//!
//! [`Tuner`] abstracts "given a matrix and a kernel instance, produce a
//! decision" so the server, tests, and benches can swap backends. The
//! production backend is [`WacoTuner`]: a lazily-trained [`Waco`] pipeline
//! per `(kernel, dense extent)` pair, sharing one simulated machine and one
//! training corpus, with an optional model checkpoint. Each pipeline builds
//! its ANNS indices in memory on the first tune of a shape; nothing but the
//! server's decision journal outlives the process.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use waco_core::{Waco, WacoConfig, WacoError};
use waco_exec::plan::ExecutionPlan;
use waco_schedule::{Kernel, Space, SuperSchedule};
use waco_sim::{MachineConfig, SimError, Simulator};
use waco_tensor::{gen, CooMatrix};

use crate::fingerprint::Fingerprint;
use crate::plan_cache::{PlanCache, PlanCacheStats};

/// What a tuner produces for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedOutcome {
    /// The winning format + schedule.
    pub schedule: SuperSchedule,
    /// Simulated time of one tuned kernel invocation, seconds.
    pub kernel_seconds: f64,
    /// Simulated tuning cost, seconds.
    pub tuning_seconds: f64,
}

/// A tuning backend.
pub trait Tuner: Send + Sync {
    /// Tunes `m` for `kernel` with the given dense extent.
    ///
    /// # Errors
    ///
    /// Implementation-specific [`WacoError`]s; the server maps them to error
    /// responses without dropping the connection.
    fn tune(
        &self,
        m: &CooMatrix,
        kernel: Kernel,
        dense_extent: usize,
    ) -> Result<TunedOutcome, WacoError>;

    /// Lowered-plan cache counters, when the backend keeps one. The server's
    /// `stats` frame reports these as the plan-cache hit rate; backends
    /// without a plan cache (test doubles) inherit the `None` default.
    fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        None
    }
}

/// Construction parameters for [`WacoTuner`].
#[derive(Debug, Clone)]
pub struct WacoTunerConfig {
    /// End-to-end WACO configuration for each lazily-trained pipeline.
    pub waco: WacoConfig,
    /// Training corpus shape: `(families, base_size)` fed to
    /// [`waco_tensor::gen::corpus`] with the config's seed.
    pub corpus: (usize, usize),
    /// Optional cost-model checkpoint applied after training.
    pub checkpoint: Option<PathBuf>,
    /// Capacity of the lowered-plan cache (fingerprint+schedule keyed) that
    /// every cold tune lowers its winning schedule into; no protocol op
    /// reads it, so no request is served from an [`ExecutionPlan`] in it.
    pub plan_cache_capacity: usize,
}

impl Default for WacoTunerConfig {
    fn default() -> Self {
        WacoTunerConfig {
            waco: WacoConfig::tiny(),
            corpus: (4, 24),
            checkpoint: None,
            plan_cache_capacity: 256,
        }
    }
}

/// The production [`Tuner`]: one [`Waco`] pipeline per `(kernel, dense
/// extent)` pair, trained on first use.
///
/// Pipelines live behind a single mutex, so tuning requests serialize here;
/// the data-parallel work inside each `Waco::tune` call still fans out on
/// the shared `waco-runtime` pool, and cache hits in the serving layer never
/// take this lock — which is exactly the amortization the cache exists for.
pub struct WacoTuner {
    cfg: WacoTunerConfig,
    pipelines: Mutex<HashMap<(Kernel, usize), Waco>>,
    plans: PlanCache,
}

impl std::fmt::Debug for WacoTuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WacoTuner").field("cfg", &self.cfg).finish()
    }
}

impl WacoTuner {
    /// Creates the tuner; training happens lazily per kernel instance.
    pub fn new(cfg: WacoTunerConfig) -> Self {
        let plans = PlanCache::new(cfg.plan_cache_capacity);
        WacoTuner {
            cfg,
            pipelines: Mutex::new(HashMap::new()),
            plans,
        }
    }

    /// The lowered plan for running `sched` over `m`'s structure — an `Arc`
    /// clone when the plan cache is warm, a fresh lowering otherwise. Never
    /// takes the pipeline lock, so concurrent requests for cached decisions
    /// bypass the tuner entirely.
    ///
    /// # Errors
    ///
    /// Lowering errors if `sched` is invalid for `space`.
    pub fn plan_for(
        &self,
        m: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
    ) -> Result<Arc<ExecutionPlan>, WacoError> {
        self.plans
            .get_or_lower(Fingerprint::of_matrix(m), sched, space)
            .map_err(|e| WacoError::Sim(SimError::Exec(e)))
    }

    /// Hit/miss/occupancy counters of the lowered-plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Eagerly trains (or restores) the pipeline for one kernel instance —
    /// servers call this at startup so the first request doesn't pay the
    /// training cost.
    ///
    /// # Errors
    ///
    /// Same as [`Tuner::tune`].
    pub fn warm_up(&self, kernel: Kernel, dense_extent: usize) -> Result<(), WacoError> {
        let mut pipelines = self.pipelines.lock().expect("tuner lock poisoned");
        self.pipeline_for(&mut pipelines, kernel, dense_extent)?;
        Ok(())
    }

    fn pipeline_for<'a>(
        &self,
        pipelines: &'a mut HashMap<(Kernel, usize), Waco>,
        kernel: Kernel,
        dense_extent: usize,
    ) -> Result<&'a mut Waco, WacoError> {
        if kernel == Kernel::MTTKRP {
            // The serve protocol carries matrices only.
            return Err(WacoError::WrongOrder { kernel, order: 2 });
        }
        match pipelines.entry((kernel, dense_extent)) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let _span = waco_obs::span("serve.tuner.train");
                let sim = Simulator::new(MachineConfig::xeon_like());
                let (families, base) = self.cfg.corpus;
                let corpus = gen::corpus(families, base, self.cfg.waco.seed);
                let (mut waco, _stats) =
                    Waco::train(sim, kernel, &corpus, dense_extent, self.cfg.waco)?;
                if let Some(ckpt) = &self.cfg.checkpoint {
                    waco.load_checkpoint(ckpt)?;
                }
                waco_obs::counter("serve.tuner.pipelines_trained", 1);
                Ok(e.insert(waco))
            }
        }
    }
}

impl Tuner for WacoTuner {
    fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        Some(self.plans.stats())
    }

    fn tune(
        &self,
        m: &CooMatrix,
        kernel: Kernel,
        dense_extent: usize,
    ) -> Result<TunedOutcome, WacoError> {
        let _span = waco_obs::span("serve.tuner.tune");
        let (tuned, space) = {
            let mut pipelines = self.pipelines.lock().expect("tuner lock poisoned");
            let waco = self.pipeline_for(&mut pipelines, kernel, dense_extent)?;
            let tuned = waco.tune(m)?;
            let space = waco.space_for(m);
            (tuned, space)
        };
        // Pre-lower the winning schedule outside the pipeline lock so the
        // decision is already executable when the client comes back with it.
        self.plan_for(m, &tuned.result.sched, &space)?;
        if waco_obs::enabled() {
            // The two-stage search's accounting, exported by `stats`:
            // candidates the asymptotic pruner discarded, and cost-model
            // evaluations the masked traversal actually performed.
            waco_obs::counter("serve.tune.pruned", tuned.breakdown.pruned as u64);
            waco_obs::counter("serve.tune.evals", tuned.breakdown.evals as u64);
        }
        Ok(TunedOutcome {
            schedule: tuned.result.sched,
            kernel_seconds: tuned.result.kernel_seconds,
            tuning_seconds: tuned.result.tuning_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_tensor::gen::Rng64;

    #[test]
    fn tunes_and_reuses_pipeline() {
        let tuner = WacoTuner::new(WacoTunerConfig::default());
        let mut rng = Rng64::seed_from(11);
        let m = gen::uniform_random(24, 24, 0.1, &mut rng);
        let a = tuner.tune(&m, Kernel::SpMV, 0).unwrap();
        assert!(a.kernel_seconds > 0.0);
        // Second call reuses the trained pipeline and is deterministic.
        let b = tuner.tune(&m, Kernel::SpMV, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(tuner.pipelines.lock().unwrap().len(), 1);
    }

    #[test]
    fn tune_warms_the_plan_cache() {
        let tuner = WacoTuner::new(WacoTunerConfig::default());
        let mut rng = Rng64::seed_from(13);
        let m = gen::uniform_random(24, 24, 0.1, &mut rng);
        let outcome = tuner.tune(&m, Kernel::SpMV, 0).unwrap();
        let after_tune = tuner.plan_cache_stats();
        assert_eq!(after_tune.misses, 1, "tune pre-lowers the winner");

        // A client executing the decision hits the cache: no re-lowering.
        let space = Space::new(Kernel::SpMV, vec![24, 24], 0);
        let plan = tuner.plan_for(&m, &outcome.schedule, &space).unwrap();
        let warm = tuner.plan_cache_stats();
        assert_eq!((warm.hits, warm.misses), (1, 1));
        assert_eq!(plan.kernel(), Kernel::SpMV);
    }

    #[test]
    fn mttkrp_is_rejected() {
        let tuner = WacoTuner::new(WacoTunerConfig::default());
        let m = gen::mesh2d(4, 4);
        assert!(matches!(
            tuner.tune(&m, Kernel::MTTKRP, 8),
            Err(WacoError::WrongOrder {
                kernel: Kernel::MTTKRP,
                order: 2
            })
        ));
    }
}
