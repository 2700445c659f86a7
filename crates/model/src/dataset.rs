//! Training-set generation: `(sparse pattern, SuperSchedule, ground-truth
//! runtime)` tuples, with ground truth from the deterministic simulator
//! (§4.1.3's data collection, at laptop scale).

use crate::error::ModelError;
use waco_schedule::encode::{self, Encoded, Layout};
use waco_schedule::{Kernel, Space, SuperSchedule};
use waco_sim::Simulator;
use waco_sparseconv::Pattern;
use waco_tensor::gen::Rng64;
use waco_tensor::{CooMatrix, CooTensor3};

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

/// Generates a dataset for a 2-D kernel over a named matrix corpus.
///
/// `dense_extent` is `|j|` for SpMM, `|k|` for SDDMM, ignored for SpMV.
///
/// # Errors
///
/// [`ModelError::WrongKernel`] if `kernel` is MTTKRP (use [`generate_3d`]);
/// [`ModelError::EmptyCorpus`] on an empty corpus.
pub fn generate_2d(
    sim: &Simulator,
    kernel: Kernel,
    matrices: &[(String, CooMatrix)],
    dense_extent: usize,
    cfg: &DataGenConfig,
) -> Result<Dataset, ModelError> {
    if kernel == Kernel::MTTKRP {
        return Err(ModelError::WrongKernel {
            kernel,
            expected: "generate_3d",
        });
    }
    if matrices.is_empty() {
        return Err(ModelError::EmptyCorpus);
    }
    let mut entries = Vec::with_capacity(matrices.len());
    let mut layout = None;
    for (idx, (name, m)) in matrices.iter().enumerate() {
        let space = sim.space_for(kernel, vec![m.nrows(), m.ncols()], dense_extent);
        layout.get_or_insert_with(|| encode::layout(&space));
        let mut rng = Rng64::seed_from(cfg.seed ^ (idx as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let samples = collect(cfg, &space, &mut rng, |sched| {
            sim.time_matrix(m, sched, &space).ok().map(|r| r.seconds)
        });
        entries.push(Entry {
            name: name.clone(),
            pattern: Pattern::from_matrix(m),
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

/// Generates an MTTKRP dataset over a named 3-D tensor corpus.
///
/// # Errors
///
/// [`ModelError::EmptyCorpus`] on an empty corpus.
pub fn generate_3d(
    sim: &Simulator,
    tensors: &[(String, CooTensor3)],
    rank: usize,
    cfg: &DataGenConfig,
) -> Result<Dataset, ModelError> {
    let kernel = Kernel::MTTKRP;
    if tensors.is_empty() {
        return Err(ModelError::EmptyCorpus);
    }
    let mut entries = Vec::with_capacity(tensors.len());
    let mut layout = None;
    for (idx, (name, t)) in tensors.iter().enumerate() {
        let space = sim.space_for(kernel, t.dims().to_vec(), rank);
        layout.get_or_insert_with(|| encode::layout(&space));
        let mut rng = Rng64::seed_from(cfg.seed ^ (idx as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let samples = collect(cfg, &space, &mut rng, |sched| {
            sim.time_tensor3(t, sched, &space).ok().map(|r| r.seconds)
        });
        entries.push(Entry {
            name: name.clone(),
            pattern: Pattern::from_tensor3(t),
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

fn collect(
    cfg: &DataGenConfig,
    space: &Space,
    rng: &mut Rng64,
    mut time: impl FnMut(&SuperSchedule) -> Option<f64>,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(cfg.schedules_per_matrix);
    let push = |sched: SuperSchedule, seconds: f64, samples: &mut Vec<Sample>| {
        let enc = encode::encode_structured(&sched, space);
        samples.push(Sample {
            sched,
            enc,
            seconds,
        });
    };
    if cfg.include_portfolio {
        for sched in waco_schedule::named::portfolio(space) {
            if let Some(seconds) = time(&sched) {
                push(sched, seconds, &mut samples);
            }
        }
    }
    let mut random = 0usize;
    let mut tries = 0usize;
    let max_tries = cfg.schedules_per_matrix * cfg.max_tries_factor;
    while random < cfg.schedules_per_matrix && tries < max_tries {
        tries += 1;
        let sched = SuperSchedule::sample(space, rng);
        if let Some(seconds) = time(&sched) {
            push(sched, seconds, &mut samples);
            random += 1;
        }
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
        let ds = generate_2d(
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
        let a = generate_2d(&sim, Kernel::SpMV, &corpus, 0, &cfg).unwrap();
        let b = generate_2d(&sim, Kernel::SpMV, &corpus, 0, &cfg).unwrap();
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
        let ds = generate_3d(
            &sim,
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
        let ds = generate_2d(
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
