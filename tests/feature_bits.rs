//! The facade's view of the sparse-convolution bit-identity contract: a
//! tuner trained and queried through `Waco` makes the pick, and extracts
//! the feature bits, that the commit before the rulebook convolution
//! (9b906b8) did. Training runs `backward` through every conv layer, so an
//! equal pick also pins the gradients; the per-layer pin lives in
//! `crates/sparseconv/tests/parent_bits.rs`.

use waco::core::{Waco, WacoConfig};
use waco::prelude::*;
use waco::tensor::gen::{self, Family};

const FIXTURE: &str = include_str!("fixtures/parent_tune_bits.txt");

fn render() -> String {
    let corpus = gen::corpus(8, 32, 21);
    let sim = Simulator::new(MachineConfig::xeon_like());
    let (mut waco, _) = Waco::train(sim, Kernel::SpMV, &corpus, 0, WacoConfig::tiny()).unwrap();
    let mut rng = Rng64::seed_from(16);
    let m = Family::BlockedSparse.generate(256, &mut rng);
    let tuned = waco.tune(&m).unwrap();
    let feat = waco.model.extract_feature(&Pattern::from_matrix(&m));
    let words: Vec<String> = feat
        .iter()
        .map(|v| format!("{:08x}", v.to_bits()))
        .collect();
    format!(
        "pick {:?}\nkernel_seconds {:016x}\nfeat {}\n",
        tuned.result.sched,
        tuned.result.kernel_seconds.to_bits(),
        words.join(" ")
    )
}

#[test]
fn tune_matrix_pick_and_feature_bits_equal_parent() {
    let now = render();
    for (got, want) in now.lines().zip(FIXTURE.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(now.lines().count(), FIXTURE.lines().count());
}

/// Rewrites the fixture from the code under test. Only for a change that
/// *means* to alter features, training or search; say so in CHANGES.md.
#[test]
#[ignore = "overwrites tests/fixtures/parent_tune_bits.txt"]
fn regenerate() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/parent_tune_bits.txt"
    );
    std::fs::write(path, render()).unwrap();
}
