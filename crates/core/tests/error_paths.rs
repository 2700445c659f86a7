//! Every user-reachable [`WacoError`] variant, triggered for real through
//! the public API — no variant may be constructible only in theory.

use std::collections::BTreeMap;
use waco_core::autotune::{self, Restriction};
use waco_core::{Waco, WacoConfig, WacoError};
use waco_model::dataset::DataGenConfig;
use waco_model::train::TrainConfig;
use waco_model::{CostModel, CostModelConfig};
use waco_obs::json::Json;
use waco_schedule::{encode, Kernel, Space};
use waco_sim::{MachineConfig, Simulator};
use waco_sparseconv::waconet::WacoNetConfig;
use waco_tensor::gen::{self, Rng64};
use waco_tensor::CooMatrix;

fn sim() -> Simulator {
    Simulator::new(MachineConfig::xeon_like())
}

fn tiny_waco() -> Waco {
    let corpus = gen::corpus(3, 24, 1);
    let (waco, _) = Waco::train(sim(), Kernel::SpMV, &corpus, 0, WacoConfig::tiny())
        .expect("tiny training succeeds");
    waco
}

fn tmpfile(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("waco-core-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn empty_corpus_is_reported() {
    let none: &[(String, CooMatrix)] = &[];
    let err = Waco::train(sim(), Kernel::SpMV, none, 0, WacoConfig::tiny()).unwrap_err();
    assert!(matches!(err, WacoError::EmptyCorpus));
    assert_eq!(err.to_string(), "empty training corpus");
}

/// `err` is [`WacoError::WrongOrder`] for `kernel` handed an operand of
/// `order`.
fn assert_wrong_order(err: WacoError, kernel: Kernel, order: usize) {
    let msg = err.to_string();
    match err {
        WacoError::WrongOrder {
            kernel: k,
            order: o,
        } => assert_eq!((k, o), (kernel, order)),
        other => panic!("expected WrongOrder, got {other}"),
    }
    let want = format!("order-{}", kernel.sparse_ndims());
    assert!(msg.contains(&want), "names the kernel's order: {msg}");
}

#[test]
fn wrong_kernel_is_reported() {
    let corpus = gen::corpus(2, 24, 1);
    let err = Waco::train(sim(), Kernel::MTTKRP, &corpus, 0, WacoConfig::tiny()).unwrap_err();
    assert_wrong_order(err, Kernel::MTTKRP, 2);
}

/// A tuner handed an operand of another order than its kernel's — and the
/// oracle search likewise — answers with a typed error rather than a panic
/// in the schedule space.
#[test]
fn order_mismatched_tune_is_reported() {
    let mut rng = Rng64::seed_from(3);
    let t = gen::random_tensor3([10, 10, 10], 80, &mut rng);
    let m = gen::uniform_random(24, 24, 0.1, &mut rng);
    assert_wrong_order(tiny_waco().tune(&t).unwrap_err(), Kernel::SpMV, 3);
    let tensors = vec![("t0".to_string(), t)];
    let (mut mttkrp, _) =
        Waco::train(sim(), Kernel::MTTKRP, &tensors, 4, WacoConfig::tiny()).unwrap();
    assert_wrong_order(mttkrp.tune(&m).unwrap_err(), Kernel::MTTKRP, 2);
    let oracle = autotune::tune(&sim(), Kernel::MTTKRP, &m, 4, 4, 1, Restriction::Joint);
    assert_wrong_order(oracle.unwrap_err(), Kernel::MTTKRP, 2);
}

/// The workspace kernels are executor-only: training, a tuner whose kernel
/// is one, and the oracle search each refuse them with a typed error that
/// names the kernel.
#[test]
fn workspace_kernels_are_executor_only() {
    let assert_refused = |err: WacoError, kernel: Kernel| {
        let msg = err.to_string();
        match err {
            WacoError::ExecutorOnly(k) => assert_eq!(k, kernel),
            other => panic!("expected ExecutorOnly, got {other}"),
        }
        assert!(msg.contains(&kernel.to_string()), "names the kernel: {msg}");
    };
    let corpus = gen::corpus(2, 24, 1);
    let m = &corpus[0].1;
    let mut waco = tiny_waco();
    for kernel in Kernel::WORKSPACE {
        let trained = Waco::train(sim(), kernel, &corpus, 8, WacoConfig::tiny());
        assert_refused(trained.unwrap_err(), kernel);
        waco.kernel = kernel;
        assert_refused(waco.tune(m).unwrap_err(), kernel);
        assert_refused(waco.space_for(m).unwrap_err(), kernel);
        let oracle = autotune::tune(&sim(), kernel, m, 8, 4, 1, Restriction::Joint);
        assert_refused(oracle.unwrap_err(), kernel);
    }
}

#[test]
fn missing_checkpoint_is_io() {
    let mut waco = tiny_waco();
    let err = waco
        .load_checkpoint("/nonexistent/waco-model.ckpt")
        .unwrap_err();
    match &err {
        WacoError::Io { context, .. } => assert!(context.contains("opening checkpoint")),
        other => panic!("expected Io, got {other}"),
    }
    assert!(std::error::Error::source(&err).is_some());
}

#[test]
fn garbage_checkpoint_is_checkpoint_error() {
    let path = tmpfile("garbage.ckpt");
    std::fs::write(&path, "this is not a checkpoint\n").unwrap();
    let mut waco = tiny_waco();
    let err = waco.load_checkpoint(&path).unwrap_err();
    assert!(
        matches!(err, WacoError::Checkpoint(_)),
        "expected Checkpoint, got {err}"
    );
}

#[test]
fn architecture_mismatch_is_shape_mismatch() {
    let path = tmpfile("tiny.ckpt");
    let mut wider_arch = {
        let corpus = gen::corpus(3, 24, 1);
        // Same tensor count as tiny (same layer structure), different
        // widths — the per-tensor shape check must fire, not the count one.
        let model = CostModelConfig {
            predictor_hidden: CostModelConfig::tiny().predictor_hidden * 2,
            ..CostModelConfig::tiny()
        };
        let cfg = WacoConfig {
            model,
            ..WacoConfig::tiny()
        };
        let (waco, _) =
            Waco::train(sim(), Kernel::SpMV, &corpus, 0, cfg).expect("training succeeds");
        waco
    };
    tiny_waco().save_checkpoint(&path).unwrap();
    let err = wider_arch.load_checkpoint(&path).unwrap_err();
    assert!(
        matches!(err, WacoError::ShapeMismatch(_)),
        "expected ShapeMismatch, got {err}"
    );
}

#[test]
fn checkpoint_roundtrip_succeeds() {
    let path = tmpfile("roundtrip.ckpt");
    let mut waco = tiny_waco();
    waco.save_checkpoint(&path).unwrap();
    waco.load_checkpoint(&path).unwrap();
}

/// An untrained SpMV cost model: a checkpoint needs weights, not training.
fn cost_model(cfg: CostModelConfig, seed: u64) -> CostModel {
    let layout = encode::layout(&Space::new(Kernel::SpMV, vec![24, 24], 0));
    CostModel::for_kernel(Kernel::SpMV, &layout, cfg, &mut Rng64::seed_from(seed))
}

fn param_bits(model: &mut CostModel) -> Vec<Vec<u32>> {
    let params = model.params_mut();
    params
        .iter()
        .map(|p| p.value.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn refusal(model: &mut CostModel, text: &[u8]) -> WacoError {
    model
        .load(text)
        .expect_err("the checkpoint is refused")
        .into()
}

#[test]
fn a_refused_checkpoint_leaves_every_parameter_as_it_was() {
    let mut text = Vec::new();
    cost_model(CostModelConfig::tiny(), 99)
        .save(&mut text)
        .unwrap();
    let wider = CostModelConfig {
        predictor_hidden: CostModelConfig::tiny().predictor_hidden * 2,
        ..CostModelConfig::tiny()
    };
    let mut wider = cost_model(wider, 1);
    let before = param_bits(&mut wider);
    let err = refusal(&mut wider, &text);
    assert!(matches!(err, WacoError::ShapeMismatch(_)), "{err}");
    assert!(
        param_bits(&mut wider) == before,
        "a refused load assigned parameters"
    );
}

/// One-wide layers: every truncation of the checkpoint stays cheap.
fn one_wide() -> CostModelConfig {
    let waconet = WacoNetConfig {
        channels: 1,
        layers: 1,
        out_dim: 1,
    };
    CostModelConfig {
        waconet,
        cat_dim: 1,
        perm_dim: 1,
        embed_dim: 1,
        predictor_hidden: 1,
    }
}

type Obj = BTreeMap<String, Json>;

fn tensors(root: &mut Obj) -> &mut Vec<Json> {
    match root.get_mut("tensors") {
        Some(Json::Arr(tensors)) => tensors,
        _ => unreachable!("a checkpoint holds a `tensors` array"),
    }
}

/// Every truncation and every malformed field of a valid checkpoint is a
/// typed error, never a panic.
#[test]
fn hostile_checkpoints_are_typed_errors() {
    let mut model = cost_model(one_wide(), 3);
    let doc = model.to_json();
    let text = doc.to_string();
    for cut in 0..text.len() {
        let err = refusal(&mut model, &text.as_bytes()[..cut]);
        assert!(
            matches!(err, WacoError::Checkpoint(_)),
            "cut at {cut}: {err}"
        );
    }
    let edit = |f: &dyn Fn(&mut Obj)| {
        let mut doc = doc.clone();
        let Json::Obj(root) = &mut doc else {
            unreachable!()
        };
        f(root);
        doc.to_string()
    };
    // Edits the first tensor of more than one row.
    let tensor = |f: &dyn Fn(&mut Obj)| {
        edit(&|root| {
            let t = tensors(root)
                .iter_mut()
                .find(|t| t.get("rows").and_then(Json::as_u64) > Some(1));
            let Some(Json::Obj(t)) = t else {
                unreachable!()
            };
            f(t);
        })
    };
    let set = |t: &mut Obj, key: &str, value: Json| drop(t.insert(key.into(), value));
    let hex = |t: &Obj| t["bits"].as_str().unwrap().to_string();
    let checkpoint_errors = [
        (
            "the old text format",
            "waco-checkpoint waco-cost-model 1\nmat 1 1\n0\n".into(),
        ),
        (
            "a wrong format tag",
            edit(&|root| set(root, "format", Json::str("waco"))),
        ),
        ("no format tag", edit(&|root| drop(root.remove("format")))),
        ("a tensor too few", edit(&|root| drop(tensors(root).pop()))),
        (
            "a value short",
            tensor(&|t| set(t, "bits", Json::str(&hex(t)[8..]))),
        ),
        (
            "a non-hex digit",
            tensor(&|t| set(t, "bits", Json::str(format!("g{}", &hex(t)[1..])))),
        ),
        (
            "rows · cols past usize",
            tensor(&|t| {
                set(t, "rows", Json::num(2f64.powi(32)));
                set(t, "cols", Json::num(2f64.powi(32) + 1.0));
            }),
        ),
    ];
    for (what, text) in checkpoint_errors {
        let err = refusal(&mut model, text.as_bytes());
        assert!(matches!(err, WacoError::Checkpoint(_)), "{what}: {err}");
    }
    let as_one_row = tensor(&|t| {
        let n = t["rows"].as_u64().unwrap() * t["cols"].as_u64().unwrap();
        set(t, "rows", Json::num(1));
        set(t, "cols", Json::num(n as f64));
    });
    let err = refusal(&mut model, as_one_row.as_bytes());
    assert!(matches!(err, WacoError::ShapeMismatch(_)), "{err}");
    assert!(model.to_json() == doc, "a refused load assigned parameters");
}

#[test]
fn checkpoints_round_trip_every_bit_pattern() {
    let mut model = cost_model(one_wide(), 5);
    let special = [
        -0.0,
        f32::MIN_POSITIVE,
        f32::from_bits(1),
        1e38,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0xffc0_1234),
    ];
    let mut params = model.params_mut();
    let p = params
        .iter_mut()
        .find(|p| p.value.as_slice().len() >= special.len());
    p.unwrap().value.as_mut_slice()[..special.len()].copy_from_slice(&special);
    let mut text = Vec::new();
    model.save(&mut text).unwrap();
    let mut fresh = cost_model(one_wide(), 6);
    assert!(param_bits(&mut fresh) != param_bits(&mut model));
    fresh.load(&text).unwrap();
    assert!(param_bits(&mut fresh) == param_bits(&mut model));
}

/// The checkpoint is all a tuner's answer depends on: a tuner of the same
/// architecture trained on another corpus, once loaded, tunes as the saved
/// one did, bit for bit.
#[test]
fn a_reloaded_checkpoint_tunes_as_the_saved_model_did() {
    let path = tmpfile("reload.ckpt");
    let m = gen::uniform_random(32, 32, 0.1, &mut Rng64::seed_from(5));
    let mut saved = tiny_waco();
    let before = saved.tune(&m).unwrap();
    saved.save_checkpoint(&path).unwrap();
    let (mut fresh, _) = Waco::train(
        sim(),
        Kernel::SpMV,
        &gen::corpus(3, 24, 2),
        0,
        WacoConfig::tiny(),
    )
    .unwrap();
    assert!(param_bits(&mut fresh.model) != param_bits(&mut saved.model));
    fresh.load_checkpoint(&path).unwrap();
    assert!(param_bits(&mut fresh.model) == param_bits(&mut saved.model));
    let after = fresh.tune(&m).unwrap();
    assert_eq!(after.result.sched, before.result.sched);
    assert_eq!(
        after.result.kernel_seconds.to_bits(),
        before.result.kernel_seconds.to_bits()
    );
}

#[test]
fn zero_work_budget_is_infeasible() {
    let mut waco = tiny_waco();
    // A machine that rejects every kernel: even the fallback CSR default
    // cannot simulate within a zero work budget.
    waco.sim.work_limit = 0.0;
    let mut rng = waco_tensor::gen::Rng64::seed_from(5);
    let m = gen::uniform_random(32, 32, 0.1, &mut rng);
    let err = waco.tune(&m).unwrap_err();
    assert!(
        matches!(err, WacoError::Infeasible(_)),
        "expected Infeasible, got {err}"
    );
}

/// One invalid config per `validate` check, with the message it must give.
fn invalid_configs() -> Vec<(WacoConfig, &'static str)> {
    let tiny = WacoConfig::tiny;
    let train = |train| WacoConfig { train, ..tiny() };
    let datagen = |datagen| WacoConfig { datagen, ..tiny() };
    let waconet = |waconet| WacoConfig {
        model: CostModelConfig {
            waconet,
            ..CostModelConfig::tiny()
        },
        ..tiny()
    };
    let net = WacoNetConfig::tiny();
    vec![
        (
            WacoConfig {
                index_size: 0,
                ..tiny()
            },
            "index_size must be at least 1",
        ),
        (WacoConfig { topk: 0, ..tiny() }, "topk must be at least 1"),
        (
            WacoConfig {
                index_size: 10,
                topk: 20,
                ef: 32,
                ..tiny()
            },
            "topk (20) cannot exceed index_size (10)",
        ),
        (
            WacoConfig {
                topk: 8,
                ef: 4,
                ..tiny()
            },
            "ef (4) must be at least topk (8)",
        ),
        (
            train(TrainConfig {
                epochs: 0,
                ..TrainConfig::tiny()
            }),
            "train.epochs must be at least 1",
        ),
        (
            train(TrainConfig {
                batch: 1,
                ..TrainConfig::tiny()
            }),
            "train.batch must be at least 2 (pairwise ranking needs a pair)",
        ),
        (
            train(TrainConfig {
                lr: f32::NAN,
                ..TrainConfig::tiny()
            }),
            "train.lr must be finite and positive",
        ),
        (
            train(TrainConfig {
                lr: -0.5,
                ..TrainConfig::tiny()
            }),
            "train.lr must be finite and positive",
        ),
        (
            train(TrainConfig {
                val_fraction: 1.0,
                ..TrainConfig::tiny()
            }),
            "train.val_fraction must lie in [0, 1)",
        ),
        (
            datagen(DataGenConfig {
                schedules_per_matrix: 0,
                ..tiny().datagen
            }),
            "datagen.schedules_per_matrix must be at least 1",
        ),
        (
            datagen(DataGenConfig {
                max_tries_factor: 0,
                ..tiny().datagen
            }),
            "datagen.max_tries_factor must be at least 1",
        ),
        (
            waconet(WacoNetConfig { channels: 0, ..net }),
            "waconet.channels must be at least 1",
        ),
        (
            waconet(WacoNetConfig { layers: 0, ..net }),
            "waconet.layers must be at least 1",
        ),
        (
            waconet(WacoNetConfig { out_dim: 0, ..net }),
            "waconet.out_dim must be at least 1",
        ),
    ]
}

fn assert_invalid_config(result: Result<(), WacoError>, msg: &str) {
    match result {
        Err(err @ WacoError::InvalidConfig(_)) => {
            assert_eq!(err.to_string(), format!("invalid configuration: {msg}"));
        }
        Err(other) => panic!("expected InvalidConfig({msg}), got {other}"),
        Ok(()) => panic!("expected InvalidConfig({msg}), got Ok"),
    }
}

#[test]
fn invalid_configs_are_rejected_by_validate_and_training() {
    let corpus = gen::corpus(2, 24, 1);
    for (cfg, msg) in invalid_configs() {
        assert_invalid_config(cfg.validate(), msg);
        let trained = Waco::train(sim(), Kernel::SpMV, &corpus, 0, cfg);
        assert_invalid_config(trained.map(drop), msg);
    }
    let mut rng = waco_tensor::gen::Rng64::seed_from(3);
    let tensors = vec![(
        "t0".to_string(),
        gen::random_tensor3([10, 10, 10], 80, &mut rng),
    )];
    let cfg = WacoConfig {
        topk: 0,
        ..WacoConfig::tiny()
    };
    let trained = Waco::train(sim(), Kernel::MTTKRP, &tensors, 4, cfg);
    assert_invalid_config(trained.map(drop), "topk must be at least 1");
}

// The `validate` invariants, property-tested: it succeeds exactly when the
// documented constraints hold.
waco_check::props! {
    cases = 128,
    fn waco_config_validates(index_size in 0usize..64, topk in 0usize..64, ef in 0usize..64) {
        let valid = index_size >= 1 && topk >= 1 && topk <= index_size && ef >= topk;
        let cfg = WacoConfig { index_size, topk, ef, ..WacoConfig::small() };
        assert_eq!(cfg.validate().is_ok(), valid, "index {index_size}, topk {topk}, ef {ef}");
    }
}

waco_check::props! {
    cases = 128,
    fn train_config_validates(epochs in 0usize..8, batch in 0usize..8, lr_milli in 0u32..2000) {
        let lr = lr_milli as f32 * 1e-3;
        let valid = epochs >= 1 && batch >= 2 && lr > 0.0;
        let cfg = TrainConfig { epochs, batch, lr, ..TrainConfig::small() };
        assert_eq!(cfg.validate().is_ok(), valid, "epochs {epochs}, batch {batch}, lr {lr}");
    }
}

waco_check::props! {
    cases = 64,
    fn datagen_config_validates(schedules_per_matrix in 0usize..6, max_tries_factor in 0usize..6) {
        let cfg = DataGenConfig { schedules_per_matrix, max_tries_factor, ..DataGenConfig::default() };
        assert_eq!(cfg.validate().is_ok(), schedules_per_matrix >= 1 && max_tries_factor >= 1);
    }
}
