//! WACO's learned cost model (Figure 6): feature extractor + program
//! embedder + runtime predictor, with dataset generation and ranking
//! training.
//!
//! The model predicts the relative runtime of a `(sparsity pattern,
//! SuperSchedule)` pair:
//!
//! * the **feature extractor** (any [`waco_sparseconv::Extractor`], normally
//!   WACONet) turns the raw pattern into a fixed-width feature;
//! * the **program embedder** ([`embedder::ProgramEmbedder`], Figure 11)
//!   turns the SuperSchedule's parameters into an embedding — learnable
//!   lookup tables for categoricals, linear-ReLU stacks over permutation
//!   matrices for the orders;
//! * the **runtime predictor** concatenates both and applies linear-ReLU
//!   layers down to a scalar score.
//!
//! Training (§4.1.3) minimizes the pairwise hinge ranking loss within
//! per-matrix batches of SuperSchedules using Adam; ground-truth runtimes
//! come from the deterministic simulator in `waco-sim` (the testbed
//! substitute).
//!
//! # Example
//!
//! ```
//! use waco_model::{dataset, train, CostModel, CostModelConfig};
//! use waco_schedule::Kernel;
//! use waco_sim::{MachineConfig, Simulator};
//! use waco_tensor::gen::{self, Rng64};
//!
//! let sim = Simulator::new(MachineConfig::xeon_like());
//! let corpus = gen::corpus(4, 32, 7);
//! let ds = dataset::generate(
//!     &sim,
//!     Kernel::SpMV,
//!     &corpus,
//!     0,
//!     &dataset::DataGenConfig { schedules_per_matrix: 6, ..Default::default() },
//! )
//! .unwrap();
//! let mut rng = Rng64::seed_from(0);
//! let mut model = CostModel::for_kernel(Kernel::SpMV, &ds.layout, CostModelConfig::tiny(), &mut rng);
//! let stats = train::train(&mut model, &ds, &train::TrainConfig::tiny(), &mut rng);
//! assert!(!stats.train_loss.is_empty());
//! ```

pub mod dataset;
pub mod embedder;
pub mod error;
pub mod train;

pub use error::ModelError;

use embedder::ProgramEmbedder;
use waco_nn::layers::Mlp;
use waco_nn::{Mat, Param};
use waco_obs::json::Json;
use waco_schedule::encode::{Encoded, Layout};
use waco_schedule::Kernel;
use waco_sparseconv::waconet::{WacoNet, WacoNetConfig};
use waco_sparseconv::{Extractor, Pattern};
use waco_tensor::gen::Rng64;

/// Cost model hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModelConfig {
    /// WACONet size (ignored when an explicit extractor is supplied).
    pub waconet: WacoNetConfig,
    /// Per-categorical embedding width.
    pub cat_dim: usize,
    /// Permutation-MLP output width.
    pub perm_dim: usize,
    /// Program embedding width.
    pub embed_dim: usize,
    /// Predictor hidden width (two hidden layers of this width).
    pub predictor_hidden: usize,
}

impl CostModelConfig {
    /// Laptop-scale default.
    pub fn small() -> Self {
        Self {
            waconet: WacoNetConfig::small(),
            cat_dim: 8,
            perm_dim: 16,
            embed_dim: 48,
            predictor_hidden: 64,
        }
    }

    /// Test-scale.
    pub fn tiny() -> Self {
        Self {
            waconet: WacoNetConfig::tiny(),
            cat_dim: 4,
            perm_dim: 8,
            embed_dim: 16,
            predictor_hidden: 24,
        }
    }
}

impl Default for CostModelConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// The assembled cost model.
pub struct CostModel {
    /// The pattern feature extractor (WACONet by default; swappable for the
    /// Figure 15 ablations).
    pub extractor: Box<dyn Extractor>,
    /// The program embedder.
    pub embedder: ProgramEmbedder,
    /// The runtime predictor head.
    pub predictor: Mlp,
    cached_feat: Option<Vec<f32>>,
    cached_batch: usize,
}

impl std::fmt::Debug for CostModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostModel")
            .field("extractor", &self.extractor.name())
            .field("feature_dim", &self.extractor.dim())
            .field("embed_dim", &self.embedder.out_dim())
            .finish()
    }
}

impl CostModel {
    /// Builds a model with an explicit extractor (the ablation entry point).
    pub fn new(
        extractor: Box<dyn Extractor>,
        layout: &Layout,
        cfg: CostModelConfig,
        rng: &mut Rng64,
    ) -> Self {
        let embedder = ProgramEmbedder::new(layout, cfg.cat_dim, cfg.perm_dim, cfg.embed_dim, rng);
        let in_dim = extractor.dim() + cfg.embed_dim;
        let predictor = Mlp::new(
            &[in_dim, cfg.predictor_hidden, cfg.predictor_hidden, 1],
            false,
            rng,
        );
        Self {
            extractor,
            embedder,
            predictor,
            cached_feat: None,
            cached_batch: 0,
        }
    }

    /// Builds the standard model for a kernel: 2-D WACONet for the matrix
    /// kernels, 3-D WACONet for MTTKRP.
    pub fn for_kernel(
        kernel: Kernel,
        layout: &Layout,
        cfg: CostModelConfig,
        rng: &mut Rng64,
    ) -> Self {
        let extractor: Box<dyn Extractor> = match kernel {
            Kernel::MTTKRP => Box::new(WacoNet::new_3d(cfg.waconet, rng)),
            _ => Box::new(WacoNet::new_2d(cfg.waconet, rng)),
        };
        Self::new(extractor, layout, cfg, rng)
    }

    /// Predicts scores for a batch of encoded SuperSchedules of one pattern,
    /// caching activations for [`CostModel::backward_batch`].
    pub fn forward_batch(&mut self, pattern: &Pattern, encs: &[Encoded]) -> Vec<f32> {
        let feat = self.extractor.forward(pattern);
        let emb = self.embedder.forward_batch(encs);
        let b = encs.len();
        let fdim = feat.len();
        let input = Mat::from_fn(b, fdim + emb.cols(), |r, c| {
            if c < fdim {
                feat[c]
            } else {
                emb.get(r, c - fdim)
            }
        });
        let out = self.predictor.forward(&input);
        self.cached_feat = Some(feat);
        self.cached_batch = b;
        (0..b).map(|r| out.get(r, 0)).collect()
    }

    /// Backpropagates per-sample prediction gradients through the whole
    /// model (extractor gradient is the sum over the batch, since the
    /// feature was shared).
    ///
    /// # Panics
    ///
    /// Panics if called before `forward_batch` or with a mismatched length.
    pub fn backward_batch(&mut self, dpred: &[f32]) {
        assert_eq!(dpred.len(), self.cached_batch, "gradient batch mismatch");
        let feat = self.cached_feat.as_ref().expect("forward before backward");
        let fdim = feat.len();
        let dy = Mat::from_fn(dpred.len(), 1, |r, _| dpred[r]);
        let dinput = self.predictor.backward(&dy);
        let parts = dinput.split_cols(&[fdim, dinput.cols() - fdim]);
        // Feature gradient: sum over the batch rows.
        let dfeat = parts[0].col_sums();
        self.extractor.backward(&dfeat);
        self.embedder.backward_batch(&parts[1]);
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        self.extractor.zero_grad();
        self.embedder.zero_grad();
        self.predictor.zero_grad();
    }

    /// Mutable references to every parameter (extractor, embedder,
    /// predictor — stable order for checkpointing).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.extractor.params_mut();
        out.extend(self.embedder.params_mut());
        out.extend(self.predictor.params_mut());
        out
    }

    /// Extracts the pattern feature once (the reusable part of a query —
    /// §5.4's search-time breakdown hinges on this). Recorded as the
    /// `feature_extraction` span, one half of the Fig. 16b time split.
    pub fn extract_feature(&mut self, pattern: &Pattern) -> Vec<f32> {
        let _s = waco_obs::span("feature_extraction");
        self.extractor.forward(pattern)
    }

    /// Embeds one schedule without caching (inference; the KNN-graph build).
    pub fn embed(&self, enc: &Encoded) -> Vec<f32> {
        self.embedder.infer_one(enc)
    }

    /// Scores a (pre-extracted feature, pre-computed embedding) pair — the
    /// only part of the model ANNS must evaluate per search step.
    pub fn score(&self, feat: &[f32], emb: &[f32]) -> f32 {
        let mut input = Vec::with_capacity(feat.len() + emb.len());
        input.extend_from_slice(feat);
        input.extend_from_slice(emb);
        self.predictor.infer(&Mat::row_vector(&input)).get(0, 0)
    }

    /// Scores a batch of schedules end-to-end without caching.
    pub fn predict(&mut self, pattern: &Pattern, encs: &[Encoded]) -> Vec<f32> {
        let feat = self.extract_feature(pattern);
        encs.iter()
            .map(|e| self.score(&feat, &self.embed(e)))
            .collect()
    }

    /// The parameters as one checkpoint document:
    /// `{"format":"waco-cost-model","tensors":[{"rows","cols","bits"},…]}`,
    /// tensors in [`params_mut`](Self::params_mut) order. `bits` is the
    /// lowercase hex of each value's `f32::to_bits`, eight digits a value:
    /// exact for every bit pattern (−0.0, subnormals, ±inf, NaN), which the
    /// codec's finite JSON numbers are not.
    pub fn to_json(&mut self) -> Json {
        let tensors = self.params_mut().into_iter().map(|p| {
            let m = &p.value;
            let bits = m.as_slice().iter().map(|v| format!("{:08x}", v.to_bits()));
            Json::obj([
                ("rows", Json::num(m.rows() as f64)),
                ("cols", Json::num(m.cols() as f64)),
                ("bits", Json::Str(bits.collect())),
            ])
        });
        Json::obj([
            ("format", Json::str(CHECKPOINT_FORMAT)),
            ("tensors", Json::Arr(tensors.collect())),
        ])
    }

    /// Loads a [`to_json`](Self::to_json) document into this model, all or
    /// nothing: the tensor count and every tensor are checked before any
    /// parameter is assigned.
    ///
    /// # Errors
    ///
    /// [`ModelError::Checkpoint`] when `doc` is not a cost-model checkpoint
    /// or holds another number of tensors; [`ModelError::ShapeMismatch`]
    /// when a tensor's shape is not this model's.
    pub fn load_json(&mut self, doc: &Json) -> Result<(), ModelError> {
        let format = doc.get("format").and_then(Json::as_str);
        let tensors = match (format, doc.get("tensors").and_then(Json::as_arr)) {
            (Some(CHECKPOINT_FORMAT), Some(tensors)) => tensors,
            _ => return Err(not_a_checkpoint("wrong `format` tag or no `tensors` array")),
        };
        let mut params = self.params_mut();
        if tensors.len() != params.len() {
            let (got, want) = (tensors.len(), params.len());
            let msg = format!("checkpoint has {got} tensors, model has {want}");
            return Err(ModelError::Checkpoint(msg));
        }
        let mats = tensors.iter().zip(&params).enumerate();
        let mats: Vec<Mat> = mats
            .map(|(i, (t, p))| decode_tensor(i, t, (p.value.rows(), p.value.cols())))
            .collect::<Result<_, _>>()?;
        for (p, m) in params.iter_mut().zip(mats) {
            p.value = m;
        }
        Ok(())
    }

    /// Writes [`to_json`](Self::to_json) as compact JSON text.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn save<W: std::io::Write>(&mut self, w: &mut W) -> std::io::Result<()> {
        w.write_all(self.to_json().to_string().as_bytes())
    }

    /// Loads checkpoint text written by [`CostModel::save`] through
    /// [`Json::parse`] and [`CostModel::load_json`].
    ///
    /// # Errors
    ///
    /// As [`CostModel::load_json`]; text that is not one JSON document is a
    /// [`ModelError::Checkpoint`].
    pub fn load(&mut self, text: &[u8]) -> Result<(), ModelError> {
        let text = std::str::from_utf8(text).map_err(not_a_checkpoint)?;
        self.load_json(&Json::parse(text).map_err(not_a_checkpoint)?)
    }
}

/// The `format` tag of a cost-model checkpoint document.
const CHECKPOINT_FORMAT: &str = "waco-cost-model";

fn not_a_checkpoint(why: impl std::fmt::Display) -> ModelError {
    ModelError::Checkpoint(format!("not a `{CHECKPOINT_FORMAT}` JSON document: {why}"))
}

/// Tensor `i` of a checkpoint document, checked against the model's
/// `want` shape. `bits` must spell exactly `rows · cols` values, so the
/// claimed shape sizes no allocation.
fn decode_tensor(i: usize, t: &Json, want: (usize, usize)) -> Result<Mat, ModelError> {
    let bad = |why: String| ModelError::Checkpoint(format!("tensor {i}: {why}"));
    let dim = |key| usize::try_from(t.get(key)?.as_u64()?).ok();
    let bits = t.get("bits").and_then(Json::as_str);
    let (Some(rows), Some(cols), Some(bits)) = (dim("rows"), dim("cols"), bits) else {
        return Err(bad("not a `{rows, cols, bits}` object".into()));
    };
    if rows.checked_mul(cols).and_then(|n| n.checked_mul(8)) != Some(bits.len()) {
        let digits = bits.len();
        return Err(bad(format!("{digits} hex digits for {rows} x {cols}")));
    }
    let got = (rows, cols);
    if got != want {
        let msg = format!("checkpoint tensor {i} is {got:?}, model has {want:?}");
        return Err(ModelError::ShapeMismatch(msg));
    }
    let digit = |b: &u8| char::from(*b).to_digit(16);
    let mut data = Vec::with_capacity(rows * cols);
    for hex in bits.as_bytes().chunks(8) {
        let Some(word) = hex.iter().map(digit).try_fold(0, |w, d| Some(w << 4 | d?)) else {
            return Err(bad("a non-hex digit".into()));
        };
        data.push(f32::from_bits(word));
    }
    Ok(Mat::from_vec(rows, cols, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_schedule::{encode, sample::sample_many, Space};
    use waco_tensor::gen::{self};

    fn setup() -> (Space, CostModel, Pattern, Vec<Encoded>) {
        let mut rng = Rng64::seed_from(1);
        let space = Space::new(Kernel::SpMV, vec![32, 32], 0);
        let layout = encode::layout(&space);
        let model = CostModel::for_kernel(Kernel::SpMV, &layout, CostModelConfig::tiny(), &mut rng);
        let m = gen::uniform_random(32, 32, 0.1, &mut rng);
        let encs: Vec<Encoded> = sample_many(&space, 6, &mut rng)
            .iter()
            .map(|s| encode::encode_structured(s, &space))
            .collect();
        (space, model, Pattern::from_matrix(&m), encs)
    }

    #[test]
    fn forward_backward_shapes() {
        let (_space, mut model, pattern, encs) = setup();
        let preds = model.forward_batch(&pattern, &encs);
        assert_eq!(preds.len(), 6);
        assert!(preds.iter().all(|p| p.is_finite()));
        model.zero_grad();
        model.backward_batch(&[1.0; 6]);
        assert!(model.params_mut().iter().any(|p| p.grad.max_abs() > 0.0));
    }

    #[test]
    fn score_matches_forward() {
        let (_space, mut model, pattern, encs) = setup();
        let preds = model.forward_batch(&pattern, &encs);
        let feat = model.extract_feature(&pattern);
        for (i, e) in encs.iter().enumerate() {
            let s = model.score(&feat, &model.embed(e));
            assert!(
                (s - preds[i]).abs() < 1e-4,
                "batched {} vs composed {s}",
                preds[i]
            );
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let (_space, mut model, pattern, encs) = setup();
        let before = model.predict(&pattern, &encs);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        // Perturb, then restore.
        for p in model.params_mut() {
            p.value.scale(0.5);
        }
        model.load(buf.as_slice()).unwrap();
        let after = model.predict(&pattern, &encs);
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let (_s, model, _p, _e) = setup();
        assert!(format!("{model:?}").contains("WACONet"));
    }
}
