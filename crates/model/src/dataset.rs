//! Training-set generation: `(sparse pattern, SuperSchedule, ground-truth
//! runtime)` tuples, with ground truth from the deterministic simulator
//! (§4.1.3's data collection, at laptop scale).

use crate::error::ModelError;
use waco_schedule::encode::{self, Encoded, Layout};
use waco_schedule::{Kernel, Space, SuperSchedule};
use waco_sim::Simulator;
use waco_sparseconv::Pattern;
use waco_tensor::gen::Rng64;
use waco_tensor::Operand;

/// One `(SuperSchedule, runtime)` sample of a matrix.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The sampled schedule.
    pub sched: SuperSchedule,
    /// Its structured encoding (cached for training).
    pub enc: Encoded,
    /// Simulated ground-truth runtime in seconds.
    pub seconds: f64,
}

/// All samples of one workload (matrix or tensor).
#[derive(Debug, Clone)]
pub struct Entry {
    /// Workload name.
    pub name: String,
    /// The sparsity pattern (the cost model input).
    pub pattern: Pattern,
    /// The schedule space of this workload.
    pub space: Space,
    /// Collected samples.
    pub samples: Vec<Sample>,
}

impl Entry {
    /// Ground-truth log-runtimes, parallel to `samples` (ranking training
    /// uses log time: monotone and scale-free across matrices).
    pub fn truths(&self) -> Vec<f32> {
        self.samples.iter().map(|s| s.seconds.ln() as f32).collect()
    }

    /// Encodings, parallel to `samples`.
    pub fn encodings(&self) -> Vec<Encoded> {
        self.samples.iter().map(|s| s.enc.clone()).collect()
    }
}

/// A training dataset for one kernel.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The kernel every entry targets.
    pub kernel: Kernel,
    /// The shared encoding layout (kernel- and machine-dependent only).
    pub layout: Layout,
    /// Workload entries.
    pub entries: Vec<Entry>,
}

/// Data-generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataGenConfig {
    /// Schedules sampled per matrix (paper: 100).
    pub schedules_per_matrix: usize,
    /// Give up after `factor × schedules_per_matrix` failed attempts
    /// (over-budget or over-limit schedules are skipped, like the paper's
    /// one-minute exclusion).
    pub max_tries_factor: usize,
    /// Additionally time the classic-configuration portfolio
    /// ([`waco_schedule::named::portfolio`]) for every matrix. At the
    /// paper's scale the random dataset is already dense in such
    /// configurations; at laptop scale this enrichment restores that
    /// density so the model learns to rank the configurations that matter.
    pub include_portfolio: bool,
    /// Sampling seed.
    pub seed: u64,
}

impl DataGenConfig {
    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// `schedules_per_matrix` and `max_tries_factor` must be nonzero.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.schedules_per_matrix == 0 {
            return Err(ModelError::InvalidConfig(
                "datagen.schedules_per_matrix must be at least 1".into(),
            ));
        }
        if self.max_tries_factor == 0 {
            return Err(ModelError::InvalidConfig(
                "datagen.max_tries_factor must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

impl Default for DataGenConfig {
    fn default() -> Self {
        Self {
            schedules_per_matrix: 24,
            max_tries_factor: 8,
            include_portfolio: true,
            seed: 42,
        }
    }
}

/// Generates a dataset for `kernel` over a named corpus of its sparse
/// operands: matrices for the 2-D kernels, order-3 tensors for MTTKRP.
///
/// `dense_extent` is `|j|` for SpMM, `|k|` for SDDMM, the rank for MTTKRP,
/// ignored for SpMV.
///
/// # Errors
///
/// [`ModelError::ExecutorOnly`] for a workspace kernel, before any work;
/// [`ModelError::EmptyCorpus`] on an empty corpus; [`ModelError::WrongOrder`]
/// when an operand is not of the kernel's order.
pub fn generate<T>(
    sim: &Simulator,
    kernel: Kernel,
    corpus: &[(String, T)],
    dense_extent: usize,
    cfg: &DataGenConfig,
) -> Result<Dataset, ModelError>
where
    for<'a> &'a T: Into<Operand<'a>>,
{
    if kernel.uses_workspace() {
        return Err(ModelError::ExecutorOnly(kernel));
    }
    if corpus.is_empty() {
        return Err(ModelError::EmptyCorpus);
    }
    let mut orders = corpus.iter().map(|(_, a)| a.into().dims().len());
    if let Some(order) = orders.find(|&o| o != kernel.sparse_ndims()) {
        return Err(ModelError::WrongOrder { kernel, order });
    }
    let mut entries = Vec::with_capacity(corpus.len());
    let mut layout = None;
    for (idx, (name, a)) in corpus.iter().enumerate() {
        let a = a.into();
        let space = sim.space_for(kernel, a.dims(), dense_extent);
        layout.get_or_insert_with(|| encode::layout(&space));
        let mut rng = Rng64::seed_from(cfg.seed ^ (idx as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let samples = collect(cfg, sim, a, &space, &mut rng);
        entries.push(Entry {
            name: name.clone(),
            pattern: Pattern::of(a),
            space,
            samples,
        });
    }
    let layout = layout.ok_or(ModelError::EmptyCorpus)?;
    Ok(Dataset {
        kernel,
        layout,
        entries,
    })
}

/// Times the portfolio (when configured) and then sampled schedules on `a`,
/// keeping those that simulate. The portfolio is one batch, and so is each
/// round of draws: a round is the draws still wanted, capped by the tries
/// left, and even if every one of them simulates the serial loop would have
/// drawn them all, so the rng stream and the samples are the loop's.
fn collect(
    cfg: &DataGenConfig,
    sim: &Simulator,
    a: Operand<'_>,
    space: &Space,
    rng: &mut Rng64,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(cfg.schedules_per_matrix);
    // Times `scheds` in one batch and keeps those that simulate; returns
    // how many it kept.
    let mut keep = |scheds: Vec<SuperSchedule>| {
        let before = samples.len();
        let reports = sim.time_batch(a, &scheds, space);
        for (sched, report) in scheds.into_iter().zip(reports) {
            let Ok(report) = report else { continue };
            let enc = encode::encode_structured(&sched, space);
            samples.push(Sample {
                sched,
                enc,
                seconds: report.seconds,
            });
        }
        samples.len() - before
    };
    if cfg.include_portfolio {
        keep(waco_schedule::named::portfolio(space));
    }
    let mut random = 0usize;
    let mut tries = 0usize;
    let max_tries = cfg.schedules_per_matrix * cfg.max_tries_factor;
    while random < cfg.schedules_per_matrix && tries < max_tries {
        let round = (cfg.schedules_per_matrix - random).min(max_tries - tries);
        tries += round;
        random += keep(
            (0..round)
                .map(|_| SuperSchedule::sample(space, rng))
                .collect(),
        );
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_sim::MachineConfig;
    use waco_tensor::gen;

    #[test]
    fn generate_small_spmv_dataset() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let corpus = gen::corpus(3, 24, 5);
        let ds = generate(
            &sim,
            Kernel::SpMV,
            &corpus,
            0,
            &DataGenConfig {
                schedules_per_matrix: 5,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(ds.entries.len(), 3);
        for e in &ds.entries {
            assert!(e.samples.len() >= 3, "most schedules should simulate");
            for s in &e.samples {
                assert!(s.seconds > 0.0);
            }
            assert_eq!(e.truths().len(), e.samples.len());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let corpus = gen::corpus(2, 24, 6);
        let cfg = DataGenConfig {
            schedules_per_matrix: 4,
            ..Default::default()
        };
        let a = generate(&sim, Kernel::SpMV, &corpus, 0, &cfg).unwrap();
        let b = generate(&sim, Kernel::SpMV, &corpus, 0, &cfg).unwrap();
        for (ea, eb) in a.entries.iter().zip(&b.entries) {
            assert_eq!(ea.samples.len(), eb.samples.len());
            for (sa, sb) in ea.samples.iter().zip(&eb.samples) {
                assert_eq!(sa.seconds, sb.seconds);
                assert_eq!(sa.sched, sb.sched);
            }
        }
    }

    #[test]
    fn generate_mttkrp_dataset() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let mut rng = Rng64::seed_from(7);
        let tensors = vec![
            (
                "t0".to_string(),
                gen::random_tensor3([12, 12, 12], 80, &mut rng),
            ),
            (
                "t1".to_string(),
                gen::fibered_tensor3([8, 8, 8], 2, 0.7, &mut rng),
            ),
        ];
        let ds = generate(
            &sim,
            Kernel::MTTKRP,
            &tensors,
            4,
            &DataGenConfig {
                schedules_per_matrix: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(ds.kernel, Kernel::MTTKRP);
        assert!(ds.entries.iter().all(|e| !e.samples.is_empty()));
    }

    #[test]
    fn runtimes_vary_across_schedules() {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let corpus = vec![("m".to_string(), gen::mesh2d(8, 8))];
        let ds = generate(
            &sim,
            Kernel::SpMV,
            &corpus,
            0,
            &DataGenConfig {
                schedules_per_matrix: 10,
                ..Default::default()
            },
        )
        .unwrap();
        let secs: Vec<f64> = ds.entries[0].samples.iter().map(|s| s.seconds).collect();
        let min = secs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = secs.iter().cloned().fold(0.0, f64::max);
        assert!(
            max > 1.2 * min,
            "schedule choice must matter: {min} vs {max}"
        );
    }
}
