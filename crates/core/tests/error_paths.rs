//! Every user-reachable [`WacoError`] variant, triggered for real through
//! the public API — no variant may be constructible only in theory.

use waco_core::{Waco, WacoConfig, WacoError};
use waco_model::dataset::DataGenConfig;
use waco_model::train::TrainConfig;
use waco_model::CostModelConfig;
use waco_schedule::Kernel;
use waco_sim::{MachineConfig, Simulator};
use waco_sparseconv::waconet::WacoNetConfig;
use waco_tensor::gen;

fn sim() -> Simulator {
    Simulator::new(MachineConfig::xeon_like())
}

fn tiny_waco() -> Waco {
    let corpus = gen::corpus(3, 24, 1);
    let (waco, _) = Waco::train_2d(sim(), Kernel::SpMV, &corpus, 0, WacoConfig::tiny())
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
    let err = Waco::train_2d(sim(), Kernel::SpMV, &[], 0, WacoConfig::tiny()).unwrap_err();
    assert!(matches!(err, WacoError::EmptyCorpus));
    assert_eq!(err.to_string(), "empty training corpus");
}

#[test]
fn wrong_kernel_is_reported() {
    let corpus = gen::corpus(2, 24, 1);
    let err = Waco::train_2d(sim(), Kernel::MTTKRP, &corpus, 0, WacoConfig::tiny()).unwrap_err();
    match err {
        WacoError::WrongKernel { kernel, expected } => {
            assert_eq!(kernel, Kernel::MTTKRP);
            assert!(expected.contains("3"), "points at the 3-D API: {expected}");
        }
        other => panic!("expected WrongKernel, got {other}"),
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
            Waco::train_2d(sim(), Kernel::SpMV, &corpus, 0, cfg).expect("training succeeds");
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

#[test]
fn zero_work_budget_is_infeasible() {
    let mut waco = tiny_waco();
    // A machine that rejects every kernel: even the fallback CSR default
    // cannot simulate within a zero work budget.
    waco.sim.work_limit = 0.0;
    let mut rng = waco_tensor::gen::Rng64::seed_from(5);
    let m = gen::uniform_random(32, 32, 0.1, &mut rng);
    let err = waco.tune_matrix(&m).unwrap_err();
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
        let trained = Waco::train_2d(sim(), Kernel::SpMV, &corpus, 0, cfg);
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
    let trained = Waco::train_3d(sim(), &tensors, 4, cfg);
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
