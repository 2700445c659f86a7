//! What one tune records: the measurement is a single batch, and a winner
//! that keeps the default format is counted as such instead of leaving a
//! flat zero in `tune.convert_seconds`.
//!
//! One test, so nothing else writes the process-global `waco-obs` registry
//! while it reads it.

use waco_core::{Waco, WacoConfig};
use waco_schedule::{named, Kernel};
use waco_sim::{MachineConfig, Simulator};
use waco_tensor::gen;

#[test]
fn measurement_is_one_batch_and_kept_formats_are_counted() {
    let sim = Simulator::new(MachineConfig::xeon_like());
    let corpus = gen::corpus(6, 32, 5);
    let (mut waco, _) = Waco::train(sim, Kernel::SpMM, &corpus, 8, WacoConfig::tiny()).unwrap();

    waco_obs::install();
    let tuned: Vec<_> = corpus.iter().map(|(_, m)| waco.tune(m).unwrap()).collect();
    let snap = waco_obs::uninstall();

    let calls = tuned.len() as u64;
    assert_eq!(snap.counter("tune.calls"), calls);
    assert_eq!(snap.span_total("tune/measure").count, calls);
    // Every candidate a tune reports as measured was priced by the batch.
    let measured: usize = tuned.iter().map(|t| t.candidates_measured).sum();
    assert_eq!(snap.counter("sim.kernels_timed"), measured as u64);
    assert_eq!(snap.counter("tune.candidates_measured"), measured as u64);

    let mut kept = 0;
    for ((_, m), t) in corpus.iter().zip(&tuned) {
        let space = waco.space_for(m);
        let default = named::default_csr(&space).a_format_spec(&space).unwrap();
        if t.result.sched.a_format_spec(&space).unwrap() == default {
            kept += 1;
            assert_eq!(
                t.result.convert_seconds, 0.0,
                "keeping CSR converts nothing"
            );
        } else {
            assert!(t.result.convert_seconds > 0.0);
        }
        assert!(t.result.kernel_seconds <= t.baseline_seconds);
    }
    assert_eq!(snap.counter("tune.kept_default_format"), kept);
    assert_eq!(snap.hist("tune.convert_seconds").unwrap().count, calls);
}
