//! WACO: Workload-Aware Co-optimization of the format and schedule of
//! sparse tensor programs.
//!
//! This crate is the top of the workspace — the end-to-end pipeline of the
//! paper (Figure 1):
//!
//! 1. **Train** a cost model on `(pattern, SuperSchedule, runtime)` tuples
//!    ([`Waco::train`]; ground truth from the deterministic machine
//!    simulator in `waco-sim`).
//! 2. **Build** a KNN graph over program embeddings of sampled
//!    SuperSchedules (lazily, per workload shape).
//! 3. **Tune**: given an input matrix (or, for MTTKRP, an order-3 tensor),
//!    extract its WACONet feature once, run ANNS with the predictor head as
//!    the distance, measure the top-k candidates plus the default, and
//!    return the fastest ([`Waco::tune`]) — exactly §5.2's
//!    "among the top-10 SuperSchedules selected by WACO according to the
//!    cost model, we report the fastest after we measured them".
//!
//! [`autotune`] additionally provides the restricted oracle tuners
//! (format-only / schedule-only / joint random search) behind the
//! motivation Tables 1 and 2. Both keep their winner through
//! [`waco_baselines::fastest`], the pick the MKL and BestFormat baselines
//! use too, so every tuner charges conversion by the same rule.
//!
//! # Example
//!
//! ```
//! use waco_core::{Waco, WacoConfig};
//! use waco_schedule::Kernel;
//! use waco_sim::{MachineConfig, Simulator};
//! use waco_tensor::gen;
//!
//! let sim = Simulator::new(MachineConfig::xeon_like());
//! let corpus = gen::corpus(4, 24, 3);
//! let (mut waco, _stats) =
//!     Waco::train(sim, Kernel::SpMV, &corpus, 0, WacoConfig::tiny()).unwrap();
//! let (name, m) = &corpus[0];
//! let tuned = waco.tune(m).unwrap();
//! let space = waco.space_for(m);
//! println!("{name}: {} in {:.3e}s", tuned.result.sched.describe(&space), tuned.result.kernel_seconds);
//! ```

pub mod autotune;
pub mod error;
pub mod pipeline;

pub use error::WacoError;
pub use pipeline::{prune_margin, PruneStats, SearchMode, SearchPipeline, PRUNE_MARGIN};

use std::collections::HashMap;
use std::path::Path;
use waco_anns::{ScheduleIndex, SearchBreakdown};
use waco_baselines::{fastest, TunedResult};
use waco_exec::AsymptoticProfile;
use waco_model::dataset::{self, DataGenConfig};
use waco_model::train::{self, TrainConfig, TrainStats};
use waco_model::{CostModel, CostModelConfig};
use waco_schedule::{named, Kernel, Space, SuperSchedule};
use waco_sim::Simulator;
use waco_sparseconv::Pattern;
use waco_tensor::gen::Rng64;
use waco_tensor::{CooMatrix, Operand};

/// The result type of the public WACO API.
pub type Result<T> = std::result::Result<T, WacoError>;

/// Simulated feature-extraction cost per nonzero (sparse convolution is
/// linear in nnz — §5.4), used to express WACO's tuning overhead in the
/// same simulated clock as kernel times.
pub const SIM_FEATURE_SECONDS_PER_NNZ: f64 = 1e-7;

/// Simulated cost per ANNS cost-model evaluation (predictor head + graph
/// hop).
pub const SIM_SECONDS_PER_EVAL: f64 = 2e-6;

/// End-to-end WACO configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WacoConfig {
    /// Cost model architecture.
    pub model: CostModelConfig,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// Dataset generation parameters.
    pub datagen: DataGenConfig,
    /// Number of SuperSchedules in the KNN graph.
    pub index_size: usize,
    /// Candidates measured on the (simulated) hardware per query
    /// (paper: top-10).
    pub topk: usize,
    /// ANNS beam width.
    pub ef: usize,
    /// Master seed.
    pub seed: u64,
}

impl WacoConfig {
    /// Laptop-scale defaults.
    pub fn small() -> Self {
        Self {
            model: CostModelConfig::small(),
            train: TrainConfig::small(),
            datagen: DataGenConfig::default(),
            index_size: 400,
            topk: 10,
            ef: 64,
            seed: 2023,
        }
    }

    /// Test-scale defaults.
    pub fn tiny() -> Self {
        Self {
            model: CostModelConfig::tiny(),
            train: TrainConfig::tiny(),
            datagen: DataGenConfig {
                schedules_per_matrix: 8,
                ..Default::default()
            },
            index_size: 80,
            topk: 5,
            ef: 32,
            seed: 2023,
        }
    }

    /// Checks the configuration, nested WACONet, training and
    /// data-generation configs included. [`Waco::train`] calls it before any
    /// work.
    ///
    /// # Errors
    ///
    /// [`WacoError::InvalidConfig`] when a nested config's `validate`
    /// fails, or the index, top-k, or beam width is zero; top-k cannot
    /// exceed the index size, and the beam must be at least top-k (HNSW
    /// returns at most `ef` candidates).
    pub fn validate(&self) -> Result<()> {
        self.model.waconet.validate()?;
        self.train.validate()?;
        self.datagen.validate()?;
        if self.index_size == 0 {
            return Err(WacoError::InvalidConfig(
                "index_size must be at least 1".into(),
            ));
        }
        if self.topk == 0 {
            return Err(WacoError::InvalidConfig("topk must be at least 1".into()));
        }
        if self.topk > self.index_size {
            return Err(WacoError::InvalidConfig(format!(
                "topk ({}) cannot exceed index_size ({})",
                self.topk, self.index_size
            )));
        }
        if self.ef < self.topk {
            return Err(WacoError::InvalidConfig(format!(
                "ef ({}) must be at least topk ({})",
                self.ef, self.topk
            )));
        }
        Ok(())
    }
}

impl Default for WacoConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// A WACO tuning outcome: the co-optimized format + schedule with full
/// overhead accounting, plus the search breakdown.
#[derive(Debug, Clone)]
pub struct WacoTuned {
    /// The tuned result (name, schedule, kernel/tuning/conversion times).
    pub result: TunedResult,
    /// Feature-vs-ANNS wall-time breakdown of the query (Figure 16b).
    pub breakdown: SearchBreakdown,
    /// How many top-k candidates were actually measured.
    pub candidates_measured: usize,
    /// Measured kernel time of the shipped default-CSR schedule — the
    /// floor both search modes pay one measurement for. `INFINITY` when
    /// the default itself failed to simulate.
    pub baseline_seconds: f64,
}

/// The trained WACO auto-tuner.
pub struct Waco {
    /// Which kernel this tuner optimizes.
    pub kernel: Kernel,
    /// The simulated machine (ground truth and measurement device).
    pub sim: Simulator,
    /// The trained cost model.
    pub model: CostModel,
    /// Dense-dimension extent of the kernel (|j| / |k| / rank).
    pub dense_extent: usize,
    cfg: WacoConfig,
    /// Search state per workload shape (sparse dims + dense extent), built
    /// on the first tune of the shape and kept in memory only.
    shapes: HashMap<Vec<usize>, Shape>,
    /// Whether tuning runs the two-stage (pruned) or the full search.
    search_mode: SearchMode,
}

/// One shape's search state: the KNN index and, once a staged search has
/// run on the shape, its Stage-1 pipeline (lowered candidate plans +
/// structure classes).
#[derive(Debug)]
struct Shape {
    index: ScheduleIndex,
    pipeline: Option<SearchPipeline>,
}

impl Shape {
    /// The state for `space`'s shape, building its index on first use.
    fn get_or_build<'a>(
        shapes: &'a mut HashMap<Vec<usize>, Shape>,
        model: &CostModel,
        cfg: &WacoConfig,
        space: &Space,
    ) -> &'a mut Shape {
        let key = space
            .sparse_dims
            .iter()
            .copied()
            .chain([space.dense_extent])
            .collect();
        // The classic-configuration portfolio (shared with dataset
        // generation) is seeded next to the uniform samples: the paper's
        // graph, built from its training dataset's SuperSchedules, is
        // likewise dense in reasonable configurations.
        shapes.entry(key).or_insert_with(|| Shape {
            index: ScheduleIndex::build_with_extras(
                model,
                space,
                cfg.index_size,
                cfg.seed,
                named::portfolio(space),
            ),
            pipeline: None,
        })
    }
}

impl std::fmt::Debug for Waco {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waco")
            .field("kernel", &self.kernel)
            .field("machine", &self.sim.machine.name)
            .field("model", &self.model)
            .finish()
    }
}

impl Waco {
    /// Trains a WACO tuner for `kernel` on a named corpus of its sparse
    /// operands — matrices for the 2-D kernels, order-3 tensors for MTTKRP.
    /// `dense_extent` is the kernel's dense extent (|j| / |k| / rank).
    ///
    /// # Errors
    ///
    /// [`WacoError::InvalidConfig`] if `cfg` fails [`WacoConfig::validate`];
    /// [`WacoError::EmptyCorpus`] on an empty corpus;
    /// [`WacoError::WrongOrder`] if an operand is not of `kernel`'s order.
    pub fn train<T>(
        sim: Simulator,
        kernel: Kernel,
        corpus: &[(String, T)],
        dense_extent: usize,
        cfg: WacoConfig,
    ) -> Result<(Self, TrainStats)>
    where
        for<'a> &'a T: Into<Operand<'a>>,
    {
        cfg.validate()?;
        let ds = dataset::generate(&sim, kernel, corpus, dense_extent, &cfg.datagen)?;
        let mut rng = Rng64::seed_from(cfg.seed);
        let mut model = CostModel::for_kernel(kernel, &ds.layout, cfg.model, &mut rng);
        let stats = train::train(&mut model, &ds, &cfg.train, &mut rng);
        Ok((
            Self {
                kernel,
                sim,
                model,
                dense_extent,
                cfg,
                shapes: HashMap::new(),
                search_mode: SearchMode::default(),
            },
            stats,
        ))
    }

    /// Writes the trained cost model to `path` as one JSON document
    /// ([`CostModel::to_json`]).
    ///
    /// # Errors
    ///
    /// [`WacoError::Io`] on filesystem failures.
    pub fn save_checkpoint(&mut self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.model.to_json().to_string())
            .map_err(|e| WacoError::io(format!("creating checkpoint {}", path.display()), e))
    }

    /// Replaces this tuner's model parameters with a checkpoint written by
    /// [`Waco::save_checkpoint`]. The checkpoint must match the model
    /// architecture (same config the tuner was trained with).
    ///
    /// # Errors
    ///
    /// [`WacoError::Io`] when the file cannot be read,
    /// [`WacoError::Checkpoint`] when it does not parse, and
    /// [`WacoError::ShapeMismatch`] when the architectures differ.
    pub fn load_checkpoint(&mut self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let text = std::fs::read(path)
            .map_err(|e| WacoError::io(format!("opening checkpoint {}", path.display()), e))?;
        // All or nothing: a refused checkpoint leaves the model as it was.
        self.model.load(&text)?;
        // Cached per-shape indices embed schedules under the old weights.
        self.shapes.clear();
        Ok(())
    }

    /// Selects the search mode: [`SearchMode::Staged`] (the default) prunes
    /// asymptotically-dominated candidates before the ANNS traversal;
    /// [`SearchMode::Full`] runs the original unpruned search. The
    /// `search_pruning` verify suite holds the two modes to
    /// equal-or-better results at ≥2× fewer cost-model evaluations.
    pub fn set_search_mode(&mut self, mode: SearchMode) {
        self.search_mode = mode;
    }

    /// The active search mode.
    pub fn search_mode(&self) -> SearchMode {
        self.search_mode
    }

    /// The schedule space for a sparse operand under this tuner's machine.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not of the tuner's kernel's order.
    pub fn space_for<'a>(&self, a: impl Into<Operand<'a>>) -> Space {
        self.sim
            .space_for(self.kernel, a.into().dims(), self.dense_extent)
    }

    /// Tunes the format and schedule for a sparse operand — a matrix, or
    /// MTTKRP's order-3 tensor (Figure 1c): one feature extraction, ANNS over
    /// the KNN graph, then measurement of the top-k candidates on the
    /// simulated machine.
    ///
    /// # Errors
    ///
    /// [`WacoError::WrongOrder`] when `a` is not of the tuner's kernel's
    /// order; [`WacoError::Infeasible`] when not even the fallback default
    /// (CSR, or CSF for MTTKRP) can be simulated.
    pub fn tune<'a>(&mut self, a: impl Into<Operand<'a>>) -> Result<WacoTuned> {
        self.tune_inner(a.into())
    }

    /// [`Waco::tune`], compiled once for both orders.
    fn tune_inner(&mut self, a: Operand<'_>) -> Result<WacoTuned> {
        check_order(self.kernel, a)?;
        let space = self.space_for(a);
        let pattern = Pattern::of(a);
        let profile = AsymptoticProfile::of(a);
        let _tune_span = waco_obs::span("tune");
        let topk = self.cfg.topk;
        let ef = self.cfg.ef;
        // Build the shape's index (and its Stage-1 pipeline) before the
        // timed search.
        let shape = Shape::get_or_build(&mut self.shapes, &self.model, &self.cfg, &space);
        if self.search_mode == SearchMode::Staged && shape.pipeline.is_none() {
            shape.pipeline = Some(SearchPipeline::new(&shape.index));
        }
        let (index, pipeline) = (&shape.index, shape.pipeline.as_ref());
        let t0 = std::time::Instant::now();
        let feat = self.model.extract_feature(&pattern);
        let feature_seconds = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let (hits, evals, pruned) = match (self.search_mode, pipeline) {
            (SearchMode::Staged, Some(pipe)) => {
                // Stage 1: fold the cached candidate plans against the
                // workload profile and drop dominated candidates.
                let (allowed, stats) = pipe.prune(&profile, topk, prune_margin(self.kernel));
                // Stage 2: the learned model only ranks the survivors.
                // Pruning concentrated the set into one complexity class,
                // so the beam narrows with it: a quarter of the full-mode
                // `ef` (floored at 2·top-k) engages the masked query's
                // 4·ef evaluation budget — the margin the `search_pruning`
                // suite's ≥2× gate is built on. The narrowed beam applies
                // even when Stage 1 abstained (degenerate workload): the
                // budgeted stratified walk is what keeps the staged search
                // cheap there, since the mask alone prunes nothing.
                let ef_staged = (ef / 4).clamp(2 * topk.max(1), ef.max(1));
                let (hits, evals, _) =
                    index.query_with_feature_masked(&self.model, &feat, topk, ef_staged, &allowed);
                (hits, evals, stats.pruned())
            }
            _ => {
                let (hits, evals, _) = index.query_with_feature(&self.model, &feat, topk, ef);
                (hits, evals, 0)
            }
        };
        let anns_seconds = t1.elapsed().as_secs_f64();
        let breakdown = SearchBreakdown {
            feature_seconds,
            anns_seconds,
            evals,
            pruned,
        };

        // Measure the top-k plus the TACO default (last) on the simulated
        // hardware; keep the fastest (measuring the default costs one extra
        // run and guarantees the tuner never regresses below the shipped
        // baseline). One batch call: the candidates mostly share a format
        // and a nest, and the simulator builds and walks each once.
        let mut candidates: Vec<SuperSchedule> = hits
            .iter()
            .map(|&(idx, _)| index.schedules[idx].clone())
            .chain([named::default_csr(&space)])
            .collect();
        let reports = {
            let _measure_span = waco_obs::span("tune/measure");
            self.sim.time_batch(a, &candidates, &space)
        };
        let win = fastest(&candidates, &reports, &space).ok_or_else(|| {
            WacoError::Infeasible(
                "no candidate (nor the default format) simulated within budget".into(),
            )
        })?;
        let measured = reports.iter().flatten().count();
        let measure_cost = reports
            .iter()
            .flatten()
            .fold(0.0, |cost, r| cost + (r.seconds + r.convert_seconds));
        let baseline_seconds = match reports.last() {
            Some(Ok(r)) => r.seconds,
            _ => f64::INFINITY,
        };
        let tuning = profile.nnz as f64 * SIM_FEATURE_SECONDS_PER_NNZ
            + evals as f64 * SIM_SECONDS_PER_EVAL
            + measure_cost;
        if waco_obs::enabled() {
            waco_obs::counter("tune.calls", 1);
            waco_obs::counter("tune.candidates_measured", measured as u64);
            waco_obs::counter("tune.evals", evals as u64);
            waco_obs::counter("tune.pruned", pruned as u64);
            waco_obs::record("tune.tuning_seconds", tuning);
            waco_obs::record("tune.convert_seconds", win.convert_seconds);
            waco_obs::counter("tune.kept_default_format", u64::from(win.kept_input_format));
            waco_obs::record("tune.kernel_seconds", win.kernel_seconds);
        }
        Ok(WacoTuned {
            result: TunedResult {
                name: "WACO".into(),
                sched: candidates.swap_remove(win.index),
                kernel_seconds: win.kernel_seconds,
                tuning_seconds: tuning,
                convert_seconds: win.convert_seconds,
            },
            breakdown,
            candidates_measured: measured,
            baseline_seconds,
        })
    }

    /// Access the (possibly cached) schedule index for a space — exposed
    /// for the search-strategy experiments (Figure 16).
    pub fn index(&mut self, space: &Space) -> &ScheduleIndex {
        &Shape::get_or_build(&mut self.shapes, &self.model, &self.cfg, space).index
    }

    /// The configuration this tuner was built with.
    pub fn config(&self) -> &WacoConfig {
        &self.cfg
    }
}

/// Trains just the cost model for a 2-D kernel, for callers that want the
/// model rather than a ready [`Waco`] tuner.
///
/// # Errors
///
/// See [`Waco::train`].
pub fn train_cost_model(
    sim: Simulator,
    kernel: Kernel,
    corpus: &[(String, CooMatrix)],
    dense_extent: usize,
    cfg: WacoConfig,
) -> Result<(CostModel, TrainStats)> {
    let (waco, stats) = Waco::train(sim, kernel, corpus, dense_extent, cfg)?;
    Ok((waco.model, stats))
}

/// [`WacoError::WrongOrder`] unless `a` is of `kernel`'s order.
pub(crate) fn check_order(kernel: Kernel, a: Operand<'_>) -> Result<()> {
    let order = a.dims().len();
    if order == kernel.sparse_ndims() {
        Ok(())
    } else {
        Err(WacoError::WrongOrder { kernel, order })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_baselines::fixed::fixed_default;
    use waco_sim::MachineConfig;
    use waco_tensor::gen;

    fn trained() -> (Waco, Vec<(String, CooMatrix)>) {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let corpus = gen::corpus(6, 24, 9);
        let (waco, _) = Waco::train(sim, Kernel::SpMV, &corpus, 0, WacoConfig::tiny()).unwrap();
        (waco, corpus)
    }

    #[test]
    fn tune_returns_valid_schedule() {
        let (mut waco, corpus) = trained();
        let m = &corpus[0].1;
        let tuned = waco.tune(m).unwrap();
        let space = waco.space_for(m);
        assert!(tuned.result.sched.validate(&space).is_ok());
        assert!(tuned.result.kernel_seconds > 0.0);
        assert!(tuned.result.tuning_seconds > 0.0);
        assert!(tuned.candidates_measured > 0);
    }

    #[test]
    fn tuned_not_much_worse_than_fixed_csr() {
        // Even a tiny model measuring its top-k should land in the same
        // ballpark as the default (measurement protects against a bad
        // model).
        let (mut waco, corpus) = trained();
        let mut wins = 0usize;
        let mut total = 0usize;
        for (_, m) in corpus.iter().take(4) {
            let tuned = waco.tune(m).unwrap();
            let fixed = fixed_default(&waco.sim, Kernel::SpMV, m, 0).unwrap();
            total += 1;
            if tuned.result.kernel_seconds <= fixed.kernel_seconds * 1.25 {
                wins += 1;
            }
        }
        assert!(
            wins * 2 >= total,
            "tuned lost badly too often: {wins}/{total}"
        );
    }

    #[test]
    fn index_is_cached_per_shape() {
        let (mut waco, corpus) = trained();
        let m = &corpus[0].1;
        let _ = waco.tune(m).unwrap();
        let n_after_first = waco.shapes.len();
        let _ = waco.tune(m).unwrap();
        assert_eq!(waco.shapes.len(), n_after_first, "same shape reuses index");
    }

    #[test]
    fn staged_search_prunes_and_stays_competitive() {
        let (mut waco, corpus) = trained();
        let m = &corpus[1].1;
        assert_eq!(waco.search_mode(), SearchMode::Staged);
        let staged = waco.tune(m).unwrap();
        assert!(staged.breakdown.pruned > 0, "nothing was pruned");
        waco.set_search_mode(SearchMode::Full);
        let full = waco.tune(m).unwrap();
        assert_eq!(full.breakdown.pruned, 0);
        // Pruned Stage 2 must evaluate strictly fewer candidates, and the
        // measured winner must not regress (the default-CSR floor is
        // measured in both modes).
        assert!(
            staged.breakdown.evals < full.breakdown.evals,
            "staged {} !< full {}",
            staged.breakdown.evals,
            full.breakdown.evals
        );
        assert!(staged.result.kernel_seconds <= full.result.kernel_seconds * 1.5);
        // Staged tuning is deterministic for a fixed workload.
        waco.set_search_mode(SearchMode::Staged);
        let again = waco.tune(m).unwrap();
        assert_eq!(staged.result.sched, again.result.sched);
        assert_eq!(staged.breakdown.evals, again.breakdown.evals);
    }

    #[test]
    fn mttkrp_trains_and_tunes_over_tensors() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(4);
        let corpus: Vec<_> = (0..3)
            .map(|i| {
                (
                    format!("t{i}"),
                    gen::random_tensor3([12, 12, 12], 100, &mut rng),
                )
            })
            .collect();
        let (mut waco, _) =
            Waco::train(sim, Kernel::MTTKRP, &corpus, 4, WacoConfig::tiny()).unwrap();
        let tuned = waco.tune(&corpus[0].1).unwrap();
        assert!(tuned.result.kernel_seconds > 0.0);
    }

    #[test]
    fn debug_impl() {
        let (waco, _) = trained();
        assert!(format!("{waco:?}").contains("SpMV"));
    }
}
