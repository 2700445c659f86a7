//! Experiment scale configuration, overridable from the command line.

use waco_core::WacoConfig;
use waco_model::dataset::DataGenConfig;
use waco_model::train::TrainConfig;
use waco_model::CostModelConfig;
use waco_schedule::Kernel;
use waco_sim::{MachineConfig, Simulator};
use waco_sparseconv::waconet::WacoNetConfig;
use waco_tensor::{gen, CooMatrix, CooTensor3};

/// Scale knobs for one experiment run. Defaults complete in minutes on a
/// laptop; the paper's scale is reachable by raising them
/// (`--train-matrices 21400 --epochs 70 …` given the weeks the authors
/// spent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Matrices in the training corpus.
    pub train_matrices: usize,
    /// Nominal training matrix dimension.
    pub train_size: usize,
    /// SuperSchedules sampled per training matrix (paper: 100).
    pub schedules_per_matrix: usize,
    /// Training epochs (paper: 70).
    pub epochs: usize,
    /// Matrices in the held-out test corpus (paper: 726).
    pub test_matrices: usize,
    /// Nominal test matrix dimension.
    pub test_size: usize,
    /// KNN-graph vertex count.
    pub index_size: usize,
    /// Candidates measured per query (paper: 10).
    pub topk: usize,
    /// Oracle-search trials (Tables 1–2).
    pub trials: usize,
    /// WACONet channels (paper: 32).
    pub channels: usize,
    /// WACONet strided layers (paper: 14).
    pub layers: usize,
    /// Master seed.
    pub seed: u64,
    /// CI smoke mode (`--smoke`): smallest everything, fixed-size inputs
    /// shrunk, so each binary finishes in seconds on one core.
    pub smoke: bool,
}

impl Scale {
    /// The default laptop scale.
    pub fn default_scale() -> Self {
        Self {
            train_matrices: 14,
            train_size: 4096,
            schedules_per_matrix: 16,
            epochs: 10,
            test_matrices: 12,
            test_size: 4096,
            index_size: 240,
            topk: 10,
            trials: 120,
            channels: 8,
            layers: 6,
            seed: 2023,
            smoke: false,
        }
    }

    /// A smaller scale for smoke tests.
    pub fn quick() -> Self {
        Self {
            train_matrices: 6,
            train_size: 32,
            schedules_per_matrix: 8,
            epochs: 4,
            test_matrices: 5,
            test_size: 40,
            index_size: 80,
            topk: 5,
            trials: 40,
            channels: 8,
            layers: 4,
            seed: 2023,
            smoke: false,
        }
    }

    /// The CI scale (`--smoke`): `quick()` shrunk further, plus the
    /// `smoke` flag that tells binaries to shrink any fixed-size inputs.
    /// Every experiment binary must finish in seconds on one core at this
    /// scale; `scripts/ci_smoke.sh` runs a subset on every commit.
    pub fn smoke() -> Self {
        Self {
            train_matrices: 4,
            train_size: 32,
            schedules_per_matrix: 6,
            epochs: 2,
            test_matrices: 3,
            test_size: 40,
            index_size: 40,
            topk: 3,
            trials: 16,
            channels: 4,
            layers: 3,
            seed: 2023,
            smoke: true,
        }
    }

    /// Parses `--key value` overrides from the process arguments
    /// (`--quick` / `--smoke` switch to the reduced scales first). An
    /// override without a value, or whose value is not a non-negative
    /// integer, exits 2 with a message naming the flag.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::parse_args(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    fn parse_args(args: &[String]) -> Result<Self, String> {
        let mut s = if args.iter().any(|a| a == "--smoke") {
            Self::smoke()
        } else if args.iter().any(|a| a == "--quick") {
            Self::quick()
        } else {
            Self::default_scale()
        };
        let get = |key: &str| -> Result<Option<usize>, String> {
            let Some(i) = args.iter().position(|a| a == key) else {
                return Ok(None);
            };
            let v = args.get(i + 1).ok_or(format!("{key} needs a value"))?;
            v.parse()
                .map(Some)
                .map_err(|_| format!("{key} takes a non-negative integer, got `{v}`"))
        };
        for (key, field) in [
            ("--train-matrices", &mut s.train_matrices),
            ("--train-size", &mut s.train_size),
            ("--schedules", &mut s.schedules_per_matrix),
            ("--epochs", &mut s.epochs),
            ("--test-matrices", &mut s.test_matrices),
            ("--test-size", &mut s.test_size),
            ("--index-size", &mut s.index_size),
            ("--topk", &mut s.topk),
            ("--trials", &mut s.trials),
            ("--channels", &mut s.channels),
            ("--layers", &mut s.layers),
        ] {
            if let Some(v) = get(key)? {
                *field = v;
            }
        }
        if let Some(v) = get("--seed")? {
            s.seed = v as u64;
        }
        Ok(s)
    }

    /// The WACO pipeline configuration at this scale. Validated here, so
    /// nonsense command-line overrides (zero epochs, zero channels, …) fail
    /// loudly at parse time instead of deep in training.
    pub fn waco_config(&self) -> WacoConfig {
        let cfg = WacoConfig {
            model: CostModelConfig {
                waconet: WacoNetConfig {
                    channels: self.channels,
                    layers: self.layers,
                    out_dim: 48,
                },
                cat_dim: 6,
                perm_dim: 12,
                embed_dim: 32,
                predictor_hidden: 48,
            },
            train: TrainConfig {
                epochs: self.epochs,
                batch: 12,
                lr: 1e-3,
                val_fraction: 0.2,
            },
            datagen: DataGenConfig {
                schedules_per_matrix: self.schedules_per_matrix,
                max_tries_factor: 8,
                include_portfolio: true,
                seed: self.seed,
            },
            index_size: self.index_size,
            topk: self.topk,
            ef: 64,
            seed: self.seed,
        };
        cfg.validate().expect("scale WACO config");
        cfg
    }

    /// The training corpus (synthetic SuiteSparse stand-in).
    pub fn train_corpus(&self) -> Vec<(String, CooMatrix)> {
        gen::corpus(self.train_matrices, self.train_size, self.seed)
    }

    /// The held-out test corpus (disjoint seed stream).
    pub fn test_corpus(&self) -> Vec<(String, CooMatrix)> {
        gen::corpus(self.test_matrices, self.test_size, self.seed ^ 0xBEEF_CAFE)
    }

    /// A 3-D tensor corpus for MTTKRP experiments.
    pub fn tensor_corpus(
        &self,
        count: usize,
        dim: usize,
        seed_xor: u64,
    ) -> Vec<(String, CooTensor3)> {
        let mut rng = gen::Rng64::seed_from(self.seed ^ seed_xor);
        (0..count)
            .map(|i| {
                let t = if i % 2 == 0 {
                    gen::random_tensor3([dim, dim, dim], dim * 16, &mut rng)
                } else {
                    gen::fibered_tensor3([dim, dim, dim], 2, 8.0 / dim as f64, &mut rng)
                };
                (format!("tensor-{i}"), t)
            })
            .collect()
    }

    /// Trains a WACO tuner for `kernel` at this scale: on the training
    /// corpus for a 2-D kernel, on a tensor corpus for MTTKRP.
    pub fn train_waco(
        &self,
        machine: MachineConfig,
        kernel: Kernel,
        dense_extent: usize,
    ) -> waco_core::Waco {
        let sim = Simulator::new(machine);
        let cfg = self.waco_config();
        let trained = if kernel == Kernel::MTTKRP {
            let corpus = self.tensor_corpus(self.train_matrices.max(4), 512, 0x3D);
            waco_core::Waco::train(sim, kernel, &corpus, dense_extent, cfg)
        } else {
            waco_core::Waco::train(sim, kernel, &self.train_corpus(), dense_extent, cfg)
        };
        trained.expect("training succeeds at bench scale").0
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::default_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let d = Scale::default_scale();
        let q = Scale::quick();
        let s = Scale::smoke();
        assert!(q.train_matrices < d.train_matrices);
        assert!(q.epochs < d.epochs);
        assert!(s.trials < q.trials);
        assert!(s.smoke && !q.smoke && !d.smoke);
    }

    #[test]
    fn overrides_parse_or_name_the_flag() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            Scale::parse_args(&args)
        };
        let s = parse("table1 --smoke --trials 4 --seed 9").unwrap();
        assert_eq!((s.trials, s.seed, s.epochs), (4, 9, Scale::smoke().epochs));
        assert_eq!(parse("table1").unwrap(), Scale::default_scale());
        let err = parse("table1 --trials 1e3").unwrap_err();
        assert!(err.contains("--trials") && err.contains("1e3"), "{err}");
        let err = parse("table1 --quick --epochs ten").unwrap_err();
        assert!(err.contains("--epochs") && err.contains("ten"), "{err}");
        let err = parse("table1 --epochs").unwrap_err();
        assert!(err.contains("--epochs"), "{err}");
        assert!(parse("table1 --seed -3").is_err());
    }

    #[test]
    fn corpora_are_disjoint_streams() {
        let s = Scale::quick();
        let train = s.train_corpus();
        let test = s.test_corpus();
        assert_eq!(train.len(), s.train_matrices);
        assert_eq!(test.len(), s.test_matrices);
        // Different seeds → different matrices even at equal indices.
        assert_ne!(train[0].1, test[0].1);
    }

    #[test]
    fn config_reflects_scale() {
        let s = Scale::quick();
        let cfg = s.waco_config();
        assert_eq!(cfg.train.epochs, s.epochs);
        assert_eq!(cfg.index_size, s.index_size);
    }
}
