//! Ranking training of the cost model (§4.1.3).

use crate::dataset::{Dataset, Entry};
use crate::error::ModelError;
use crate::CostModel;
use waco_nn::loss::{pairwise_accuracy, pairwise_hinge};
use waco_nn::Adam;
use waco_tensor::gen::Rng64;

/// Training parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Training epochs (paper: 70).
    pub epochs: usize,
    /// SuperSchedules per matrix batch (paper: 32).
    pub batch: usize,
    /// Adam learning rate (paper: 1e-4; larger by default at tiny scale).
    pub lr: f32,
    /// Fraction of entries held out for validation (paper: 20%).
    pub val_fraction: f64,
}

impl TrainConfig {
    /// Laptop-scale default.
    pub fn small() -> Self {
        Self {
            epochs: 20,
            batch: 16,
            lr: 5e-4,
            val_fraction: 0.2,
        }
    }

    /// Test-scale.
    pub fn tiny() -> Self {
        Self {
            epochs: 4,
            batch: 8,
            lr: 1e-3,
            val_fraction: 0.25,
        }
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Epochs must be nonzero, the batch must hold a pair (≥ 2), the
    /// learning rate must be finite and positive, and the validation
    /// fraction must lie in `[0, 1)`.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.epochs == 0 {
            return Err(ModelError::InvalidConfig(
                "train.epochs must be at least 1".into(),
            ));
        }
        if self.batch < 2 {
            return Err(ModelError::InvalidConfig(
                "train.batch must be at least 2 (pairwise ranking needs a pair)".into(),
            ));
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return Err(ModelError::InvalidConfig(
                "train.lr must be finite and positive".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.val_fraction) {
            return Err(ModelError::InvalidConfig(
                "train.val_fraction must lie in [0, 1)".into(),
            ));
        }
        Ok(())
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// Per-epoch training curves (the Figure 15 output).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainStats {
    /// Mean training hinge loss per epoch.
    pub train_loss: Vec<f64>,
    /// Mean validation hinge loss per epoch.
    pub val_loss: Vec<f64>,
    /// Validation pairwise ranking accuracy per epoch.
    pub val_rank_acc: Vec<f64>,
}

/// Splits entry indices into (train, validation) deterministically.
pub fn split_indices(n: usize, val_fraction: f64, rng: &mut Rng64) -> (Vec<usize>, Vec<usize>) {
    let mut idx: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut idx);
    let n_val = if n > 1 {
        ((n as f64 * val_fraction).round() as usize).clamp(1, n - 1)
    } else {
        0
    };
    let val = idx.split_off(n - n_val);
    (idx, val)
}

/// Evaluates mean hinge loss and pairwise ranking accuracy over entries.
pub fn evaluate(model: &mut CostModel, entries: &[&Entry]) -> (f64, f64) {
    let mut loss_sum = 0.0;
    let mut acc_sum = 0.0;
    let mut count = 0usize;
    for e in entries {
        if e.samples.len() < 2 {
            continue;
        }
        let encs = e.encodings();
        let preds = model.forward_batch(&e.pattern, &encs);
        let truths = e.truths();
        let (loss, _) = pairwise_hinge(&preds, &truths);
        loss_sum += loss as f64;
        acc_sum += pairwise_accuracy(&preds, &truths);
        count += 1;
    }
    if count == 0 {
        (0.0, 1.0)
    } else {
        (loss_sum / count as f64, acc_sum / count as f64)
    }
}

/// Trains the cost model on the dataset; returns per-epoch curves.
pub fn train(
    model: &mut CostModel,
    ds: &Dataset,
    cfg: &TrainConfig,
    rng: &mut Rng64,
) -> TrainStats {
    let (train_idx, val_idx) = split_indices(ds.entries.len(), cfg.val_fraction, rng);
    let val_entries: Vec<&Entry> = val_idx.iter().map(|&i| &ds.entries[i]).collect();
    let mut opt = Adam::new(cfg.lr);
    let mut stats = TrainStats::default();

    for _epoch in 0..cfg.epochs {
        let _epoch_span = waco_obs::span("train/epoch");
        let mut order = train_idx.clone();
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        let mut comparisons = 0u64;
        for &i in &order {
            let entry = &ds.entries[i];
            if entry.samples.len() < 2 {
                continue;
            }
            // Pick a batch of schedules of this matrix.
            let mut sel: Vec<usize> = (0..entry.samples.len()).collect();
            rng.shuffle(&mut sel);
            sel.truncate(cfg.batch.max(2));
            comparisons += (sel.len() * (sel.len() - 1) / 2) as u64;
            let encs: Vec<_> = sel.iter().map(|&s| entry.samples[s].enc.clone()).collect();
            let truths: Vec<f32> = sel
                .iter()
                .map(|&s| entry.samples[s].seconds.ln() as f32)
                .collect();

            let preds = model.forward_batch(&entry.pattern, &encs);
            let (loss, grad) = pairwise_hinge(&preds, &truths);
            model.zero_grad();
            model.backward_batch(&grad);
            opt.step(&mut model.params_mut());
            epoch_loss += loss as f64;
            batches += 1;
        }
        let mean_loss = if batches > 0 {
            epoch_loss / batches as f64
        } else {
            0.0
        };
        stats.train_loss.push(mean_loss);
        let (vl, va) = evaluate(model, &val_entries);
        stats.val_loss.push(vl);
        stats.val_rank_acc.push(va);
        if waco_obs::enabled() {
            waco_obs::counter("train.batches", batches as u64);
            waco_obs::counter("train.pairwise_comparisons", comparisons);
            waco_obs::record("train.epoch_loss", mean_loss);
            waco_obs::record("train.val_loss", vl);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate, DataGenConfig};
    use crate::{CostModel, CostModelConfig};
    use waco_schedule::Kernel;
    use waco_sim::{MachineConfig, Simulator};
    use waco_tensor::gen;

    fn tiny_dataset() -> Dataset {
        let sim = Simulator::new(MachineConfig::xeon_like());
        let corpus = gen::corpus(6, 24, 11);
        generate(
            &sim,
            Kernel::SpMV,
            &corpus,
            0,
            &DataGenConfig {
                schedules_per_matrix: 10,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn split_is_deterministic_and_partitions() {
        let mut rng = Rng64::seed_from(1);
        let (tr, va) = split_indices(10, 0.2, &mut rng);
        assert_eq!(tr.len() + va.len(), 10);
        assert_eq!(va.len(), 2);
        let mut all: Vec<usize> = tr.iter().chain(&va).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn training_reduces_loss() {
        let ds = tiny_dataset();
        let mut rng = Rng64::seed_from(2);
        let mut model =
            CostModel::for_kernel(Kernel::SpMV, &ds.layout, CostModelConfig::tiny(), &mut rng);
        let cfg = TrainConfig {
            epochs: 8,
            batch: 8,
            lr: 2e-3,
            val_fraction: 0.2,
        };
        let stats = train(&mut model, &ds, &cfg, &mut rng);
        assert_eq!(stats.train_loss.len(), 8);
        let first = stats.train_loss[0];
        let last = *stats.train_loss.last().unwrap();
        assert!(last < first, "training loss should fall: {first} → {last}");
    }

    #[test]
    fn trained_model_ranks_better_than_untrained() {
        let ds = tiny_dataset();
        let mut rng = Rng64::seed_from(3);
        let mut model =
            CostModel::for_kernel(Kernel::SpMV, &ds.layout, CostModelConfig::tiny(), &mut rng);
        let all: Vec<&Entry> = ds.entries.iter().collect();
        let (_, acc_before) = evaluate(&mut model, &all);
        let cfg = TrainConfig {
            epochs: 10,
            batch: 10,
            lr: 2e-3,
            val_fraction: 0.2,
        };
        let _ = train(&mut model, &ds, &cfg, &mut rng);
        let (_, acc_after) = evaluate(&mut model, &all);
        assert!(
            acc_after > acc_before.max(0.55),
            "ranking accuracy should improve: {acc_before} → {acc_after}"
        );
    }
}
