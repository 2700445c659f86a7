//! Bit-for-bit pin of the sparse-CNN extractors against the last commit
//! that computed them by hash probe + dense gather + GEMM (9b906b8).
//!
//! `fixtures/parent_bits.txt` was written by `regenerate` below running on
//! that commit's code. The rulebook convolution promises the same
//! floating-point operations in the same order, so every feature word and
//! every parameter gradient must be *equal as bits* — that, not a
//! tolerance, is what keeps trained checkpoints, `anns.evals` and every
//! tuned decision repeating across the change.
//!
//! Features are stored in full. Gradients (27k words per input at
//! `WacoNetConfig::small()`) are stored per parameter as shape + FNV-1a-64
//! over the `to_bits` stream: still an equality test, one line per parameter
//! instead of 2 MB of hex.

use std::fmt::Write as _;

use waco_runtime::hash::Fnv64;
use waco_sparseconv::baselines::{DenseConvNet, MinkowskiLike};
use waco_sparseconv::waconet::{WacoNet, WacoNetConfig};
use waco_sparseconv::{Extractor, Pattern};
use waco_tensor::gen::{self, Family, Rng64};

const FIXTURE: &str = include_str!("fixtures/parent_bits.txt");

/// One forward + one backward of `net` on `p`, rendered as fixture lines.
/// An inference pass between the two must give the forward's words and
/// leave what the backward reads as it was.
fn render_input(out: &mut String, name: &str, net: &mut dyn Extractor, p: &Pattern) {
    let words = |feat: &[f32]| -> Vec<String> {
        feat.iter()
            .map(|v| format!("{:08x}", v.to_bits()))
            .collect()
    };
    let feat = net.forward(p);
    let words_now = words(&feat);
    assert_eq!(words(&net.infer(p)), words_now, "{name}: infer's words");
    writeln!(out, "input {name} {} nnz {}", net.name(), p.nnz()).unwrap();
    writeln!(out, "feat {}", words_now.join(" ")).unwrap();

    // A fixed, sign-alternating upstream gradient.
    let grad: Vec<f32> = (0..feat.len())
        .map(|i| 0.01 * (i + 1) as f32 * if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    net.zero_grad();
    net.backward(&grad);
    for (i, param) in net.params_mut().iter().enumerate() {
        let g = &param.grad;
        let mut digest = Fnv64::new();
        for v in g.as_slice() {
            digest.write(&v.to_bits().to_le_bytes());
        }
        let digest = digest.finish();
        writeln!(out, "grad {i} {}x{} {digest:016x}", g.rows(), g.cols()).unwrap();
    }
}

fn render() -> String {
    let mut out = String::new();
    let mut rng = Rng64::seed_from(0x16);
    let mut net2 = WacoNet::new_2d(WacoNetConfig::small(), &mut rng);
    let mut first = None;
    for family in Family::ALL {
        let p = Pattern::from_matrix(&family.generate(256, &mut rng));
        render_input(&mut out, &format!("{family:?}-256"), &mut net2, &p);
        first.get_or_insert(p);
    }
    let mut net3 = WacoNet::new_3d(WacoNetConfig::small(), &mut rng);
    let t = gen::random_tensor3([64, 48, 32], 3000, &mut rng);
    render_input(
        &mut out,
        "tensor3-64x48x32",
        &mut net3,
        &Pattern::from_tensor3(&t),
    );
    // The ablations share the convolution: stride 1 with 16 input channels,
    // and a fully dense site grid.
    let p = first.expect("Family::ALL is not empty");
    let mut mink = MinkowskiLike::new(16, 3, 64, &mut rng);
    render_input(&mut out, "Uniform-256", &mut mink, &p);
    let mut dense = DenseConvNet::new(32, 8, 64, &mut rng);
    render_input(&mut out, "Uniform-256", &mut dense, &p);
    out
}

#[test]
fn features_and_gradients_equal_parent_bits() {
    let now = render();
    for (n, (got, want)) in now.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {} differs", n + 1);
    }
    assert_eq!(now.lines().count(), FIXTURE.lines().count());
}

/// Rewrites the fixture from the code under test. Only for a change that
/// *means* to alter the extractor's numbers; say so in CHANGES.md.
#[test]
#[ignore = "overwrites tests/fixtures/parent_bits.txt"]
fn regenerate() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/parent_bits.txt"
    );
    std::fs::write(path, render()).unwrap();
}
