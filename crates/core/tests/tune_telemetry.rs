//! What one tune records: the top-k measurement is a single batch, a winner
//! that keeps the default format is counted as such instead of leaving a
//! flat zero in `tune.convert_seconds`, and a tune on a busy pool (its
//! extractor and Stage-1 branches run inline, one after the other) decides
//! and counts exactly what a tune on a free pool does.
//!
//! One test, so nothing else writes the process-global `waco-obs` registry
//! while it reads it.

use std::sync::Mutex;

use waco_core::{Waco, WacoConfig, WacoTuned};
use waco_obs::Snapshot;
use waco_runtime::ThreadPool;
use waco_schedule::{named, Kernel};
use waco_sim::{MachineConfig, Simulator};
use waco_tensor::{gen, CooMatrix};

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
        let space = waco.space_for(m).unwrap();
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

    for (name, m) in &corpus {
        let (free, free_snap) = traced_tune(&mut waco, m, false);
        let (busy, busy_snap) = traced_tune(&mut waco, m, true);
        assert_eq!(busy.result.sched, free.result.sched, "{name}");
        assert_eq!(
            busy.result.kernel_seconds.to_bits(),
            free.result.kernel_seconds.to_bits(),
            "{name}"
        );
        assert_eq!(
            busy.baseline_seconds.to_bits(),
            free.baseline_seconds.to_bits(),
            "{name}"
        );
        assert_eq!(busy.candidates_measured, free.candidates_measured, "{name}");
        assert_eq!(busy.breakdown.evals, free.breakdown.evals, "{name}");
        assert_eq!(busy.breakdown.pruned, free.breakdown.pruned, "{name}");
        for counter in ["sim.kernels_timed", "tune.candidates_measured"] {
            assert_eq!(
                busy_snap.counter(counter),
                free_snap.counter(counter),
                "{name}: {counter}"
            );
        }
        // The tune's one region ran inline: the same regions as on the free
        // pool, plus the surrounding broadcast, which is inline itself on a
        // one-participant pool.
        let regions = |s: &Snapshot| {
            (
                s.counter("runtime.broadcasts"),
                s.counter("runtime.inline_regions"),
            )
        };
        let (free_pooled, free_inline) = regions(&free_snap);
        assert_eq!(free_pooled + free_inline, 1, "{name}");
        assert_eq!(
            regions(&busy_snap),
            (free_pooled, free_inline + 1),
            "{name}"
        );
    }
}

/// Tunes `m` under a fresh subscriber; with `busy`, from slot 0 of a
/// global-pool broadcast, which holds the pool for the whole tune.
fn traced_tune(waco: &mut Waco, m: &CooMatrix, busy: bool) -> (WacoTuned, Snapshot) {
    waco_obs::install();
    let tuned = if busy {
        let waco = Mutex::new(waco);
        let tuned = Mutex::new(None);
        ThreadPool::global().broadcast(2, |slot| {
            if slot == 0 {
                let t = waco.lock().unwrap().tune(m).unwrap();
                *tuned.lock().unwrap() = Some(t);
            }
        });
        tuned
            .into_inner()
            .unwrap()
            .expect("slot 0 runs on the caller")
    } else {
        waco.tune(m).unwrap()
    };
    (tuned, waco_obs::uninstall())
}
