//! Figure 15: train/validation loss of the four feature extractors.
//!
//! The cost-model ablation: HumanFeature vs DenseConv (downsampled
//! conventional CNN) vs MinkowskiNet-like (stride-1 submanifold) vs WACONet
//! (strided submanifold, all-layer pooling), trained on the same SpMM
//! dataset with the same pairwise ranking loss.
//!
//! Shape to hold: the final validation loss ranks
//! `WACONet < MinkowskiNet ≲ DenseConv < HumanFeature`.
//!
//! ```sh
//! cargo run --release -p waco-bench --bin fig15 [--quick|--epochs N ...]
//! ```

use waco_bench::{render, Scale};
use waco_model::dataset::generate;
use waco_model::train::{train, TrainConfig};
use waco_model::CostModel;
use waco_schedule::Kernel;
use waco_sim::{MachineConfig, Simulator};
use waco_sparseconv::baselines::{DenseConvNet, HumanFeature, MinkowskiLike};
use waco_sparseconv::waconet::{WacoNet, WacoNetConfig};
use waco_sparseconv::Extractor;
use waco_tensor::gen::Rng64;

fn main() {
    let scale = Scale::from_args();
    let sim = Simulator::new(MachineConfig::xeon_like());
    let corpus = scale.train_corpus();
    println!(
        "== Figure 15: extractor ablation on SpMM ({} matrices × {} schedules, {} epochs) ==",
        corpus.len(),
        scale.schedules_per_matrix,
        scale.epochs
    );
    let cfg = scale.waco_config();
    let ds = generate(&sim, Kernel::SpMM, &corpus, 32, &cfg.datagen).expect("fig15 dataset");

    let out_dim = cfg.model.waconet.out_dim;
    let mk = |name: &str, rng: &mut Rng64| -> Box<dyn Extractor> {
        match name {
            "HumanFeature" => Box::new(HumanFeature::new(out_dim, rng)),
            "DenseConv" => Box::new(DenseConvNet::new(
                32,
                cfg.model.waconet.channels,
                out_dim,
                rng,
            )),
            "MinkowskiNet" => Box::new(MinkowskiLike::new(
                cfg.model.waconet.channels,
                4,
                out_dim,
                rng,
            )),
            _ => Box::new(WacoNet::new_2d(
                WacoNetConfig {
                    channels: cfg.model.waconet.channels,
                    layers: cfg.model.waconet.layers,
                    out_dim,
                },
                rng,
            )),
        }
    };

    let tcfg = TrainConfig {
        epochs: scale.epochs,
        batch: 12,
        lr: 1e-3,
        val_fraction: 0.2,
    };

    let mut rows = Vec::new();
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    let mut finals: Vec<(String, f64)> = Vec::new();
    for name in ["HumanFeature", "DenseConv", "MinkowskiNet", "WACONet"] {
        let mut rng = Rng64::seed_from(scale.seed);
        let extractor = mk(name, &mut rng);
        let mut model = CostModel::new(extractor, &ds.layout, cfg.model, &mut rng);
        let t0 = std::time::Instant::now();
        let stats = train(&mut model, &ds, &tcfg, &mut rng);
        let secs = t0.elapsed().as_secs_f64();
        let final_train = *stats.train_loss.last().unwrap_or(&f64::NAN);
        let final_val = *stats.val_loss.last().unwrap_or(&f64::NAN);
        let final_acc = *stats.val_rank_acc.last().unwrap_or(&f64::NAN);
        rows.push(vec![
            name.to_string(),
            format!("{final_train:.4}"),
            format!("{final_val:.4}"),
            format!("{:.1}%", final_acc * 100.0),
            format!("{secs:.1}s"),
        ]);
        finals.push((name.to_string(), final_val));
        series.push((format!("{name} val"), stats.val_loss.clone()));
        println!(
            "  {name:>13}: val loss per epoch {:?}",
            stats
                .val_loss
                .iter()
                .map(|v| (v * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>()
        );
    }

    println!();
    render::table(
        &[
            "extractor",
            "final train loss",
            "final val loss",
            "val rank acc",
            "train time",
        ],
        &rows,
    );

    let refs: Vec<(&str, Vec<f64>)> = series
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    render::line_chart("validation loss vs epoch", "epoch →", &refs, 10);

    let get = |n: &str| {
        finals
            .iter()
            .find(|(m, _)| m == n)
            .map(|(_, v)| *v)
            .unwrap()
    };
    let (h, w) = (get("HumanFeature"), get("WACONet"));
    println!(
        "\nShape check: WACONet final val loss {:.4} vs HumanFeature {:.4} \
         ({}; paper reports ~50% lower loss for WACONet vs conventional CNN).",
        w,
        h,
        if w < h {
            "WACONet better ✓"
        } else {
            "UNEXPECTED"
        }
    );
}
