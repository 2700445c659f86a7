//! `tune_cold`: one caller, closed loop, in-process `WacoTuner::tune` on a
//! never-repeating matrix stream.
//!
//! Chosen because `sparseconv`/`model`/`core::pipeline`/`anns`/`sim` do all
//! the work and the serve wire and cache do none: it answers "what dominates
//! a cold tune", and it is the bypass workload for every wire, fingerprint
//! and cache optimisation (prediction there: no change).

use std::time::Instant;

use waco_serve::fingerprint::Fnv64;
use waco_serve::{Tuner, WacoTuner, WacoTunerConfig};

use crate::inputs::{Class, TuneStream, DENSE_EXTENT};
use crate::stages::{self, TuneMirror, KERNEL};
use crate::trace::Tracer;
use crate::util::{geomean, median, obs_counter, quiet_blocks, Outcome, SHORT_SETUP_REPEATS};

/// Inputs whose decision is checked, hashed into the output and averaged
/// into `tuned_sim_speedup`. A fixed prefix, so those numbers do not depend
/// on how many tunes the machine fits into the timed window.
const CHECKED: usize = 64;
/// `waco-obs` counters of the program reported over the fixed prefix (the
/// whole tune and its staged replay both feed them).
const OBS_COUNTERS: [&str; 2] = ["sparseconv.active_sites", "sim.kernels_timed"];
/// Inputs re-tuned after the run; the schedule must come back identical.
const RETUNED: usize = 8;

fn build_tuner(stream: &TuneStream) -> WacoTuner {
    let tuner = WacoTuner::new(WacoTunerConfig::default());
    tuner
        .warm_up(KERNEL, DENSE_EXTENT)
        .expect("training the default pipeline");
    // One tune per shape builds that shape's KNN index, so the timed phase
    // starts warm.
    for class in TuneStream::CLASSES {
        tuner
            .tune(&stream.warm_up(class), KERNEL, DENSE_EXTENT)
            .expect("warm-up tune");
    }
    tuner
}

fn stream_hash(stream: &TuneStream) -> u64 {
    let mut h = Fnv64::new();
    for i in 0..CHECKED {
        let (_, m) = stream.get(i);
        for (r, c, v) in m.iter() {
            h.write_u64(r as u64);
            h.write_u64(c as u64);
            h.write_u64(u64::from(v.to_bits()));
        }
    }
    h.finish()
}

pub fn run(seed: u64, seconds: f64, start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let stream = TuneStream::new(seed);

    let mut setups = Vec::new();
    let mut tuner = None;
    for k in 0..SHORT_SETUP_REPEATS {
        let t = if k == 0 { start } else { Instant::now() };
        tuner = Some(build_tuner(&stream));
        setups.push(t.elapsed().as_secs_f64());
    }
    let tuner = tuner.expect("at least one set-up");
    out.metric("setup_s", median(&mut setups), "s", setups.len());
    out.fact("stream_hash", format!("{:016x}", stream_hash(&stream)));

    let mut lat_ms = Vec::new();
    let mut decisions = Vec::new();
    let mut failed = 0u64;
    let phase = Instant::now();
    let mut i = 0;
    while phase.elapsed().as_secs_f64() < seconds || i < CHECKED {
        let (_, m) = stream.get(i);
        let t = Instant::now();
        let tuned = tuner.tune(&m, KERNEL, DENSE_EXTENT);
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match tuned {
            Ok(t) if i < CHECKED => decisions.push(t),
            Ok(_) => {}
            Err(e) => {
                failed += 1;
                out.error(format!("tune of input {i} failed: {e}"));
            }
        }
        i += 1;
    }
    out.phase("tune", lat_ms.len() as u64, failed);

    // Untimed checks on the fixed prefix: never slower than the default,
    // and deterministic.
    let sim = stages::simulator();
    let mut speedups = Vec::new();
    for (i, d) in decisions.iter().enumerate() {
        let (_, m) = stream.get(i);
        let baseline = stages::baseline_seconds(&sim, &m);
        if d.kernel_seconds > baseline {
            out.error(format!(
                "input {i}: tuned kernel {} s is slower than the default {} s",
                d.kernel_seconds, baseline
            ));
        }
        speedups.push(baseline / d.kernel_seconds);
    }
    for (i, d) in decisions.iter().enumerate().take(RETUNED) {
        let (_, m) = stream.get(i);
        match tuner.tune(&m, KERNEL, DENSE_EXTENT) {
            Ok(again) if again.schedule == d.schedule => {}
            Ok(_) => out.error(format!(
                "input {i}: re-tuning returned a different schedule"
            )),
            Err(e) => out.error(format!("input {i}: re-tuning failed: {e}")),
        }
    }

    // Quiet-machine figures over the stream's stratified blocks (eight 256²
    // and two 1024² inputs each): a block's median is a 256² tune and its
    // 90th percentile the faster of its two 1024² ones. The rate is on the
    // clock of the timed calls alone: generating the next input is not the
    // tuner's work.
    let n = lat_ms.len();
    let (p50, p90, per_s) = quiet_blocks(&lat_ms, TuneStream::BLOCK);
    out.metric("op_ms_p50", p50, "ms", n);
    out.metric("op_ms_p90", p90, "ms", n);
    out.metric("ops_per_s", per_s, "1/s", n);
    out.metric("tuned_sim_speedup", geomean(&speedups), "x", speedups.len());
    out.fact(
        "aliases",
        "op_ms_p50=tune_ms_p50 op_ms_p90=tune_ms_p90 ops_per_s=tunes_per_s",
    );
    out
}

/// The traced pass: the first inputs again, each tuned whole through a
/// `Waco` of its own and then stage by stage through the mirror.
pub fn trace(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let stream = TuneStream::new(seed);
    let mut mirror = TuneMirror::train();
    let tuner = build_tuner(&stream);
    for class in TuneStream::CLASSES {
        mirror.warm(&stream.warm_up(class));
    }

    // Exact for a fixed seed: read after the fixed prefix, whatever the
    // number of inputs the window fits.
    let obs_before = OBS_COUNTERS.map(obs_counter);
    let mut obs_prefix = obs_before;
    let mut whole_s = Vec::new();
    let mut evals = 0usize;
    let (mut pruned, mut survivors) = (Vec::new(), Vec::new());
    let phase = Instant::now();
    let mut i = 0;
    while phase.elapsed().as_secs_f64() < seconds || i < CHECKED {
        let (class, m) = stream.get(i);
        let request = i as u64;
        tr.begin("tune", request);
        let t = Instant::now();
        let whole = tuner.tune(&m, KERNEL, DENSE_EXTENT);
        whole_s.push(t.elapsed().as_secs_f64());
        tr.end();
        tr.begin("replay", request);
        let staged = mirror.staged(&m, class.name(), request, tr);
        tr.end();
        tr.time("serve.plan_cache.get", request, || {
            mirror.plan_hit(&m, &staged)
        });
        match whole {
            Ok(w) if w.schedule == staged.schedule && w.kernel_seconds == staged.kernel_seconds => {
            }
            Ok(_) => out.error(format!(
                "input {i}: the staged replay chose another schedule than the tuner"
            )),
            Err(e) => out.error(format!("input {i}: tune failed: {e}")),
        }
        if i < CHECKED {
            evals += staged.evals;
        }
        pruned.push(staged.pruned as f64);
        survivors.push(staged.survivors as f64);
        i += 1;
        if i == CHECKED {
            obs_prefix = OBS_COUNTERS.map(obs_counter);
        }
    }
    out.phase("trace", i as u64, out.errors.len() as u64);

    let ratio = tr.total_seconds("replay") / whole_s.iter().sum::<f64>();
    out.metric("core.stage_sum_ratio", ratio, "ratio", i);
    if !(0.9..=1.1).contains(&ratio) {
        out.warnings.push(format!(
            "core.stage_sum_ratio = {ratio:.3}: the stages do not close the budget of one tune (expect 0.9-1.1)"
        ));
    }

    tune_layer_metrics(&mut out, tr, &mirror);
    out.metric("core.pruned", median(&mut pruned), "count", pruned.len());
    out.metric(
        "core.survivors",
        median(&mut survivors),
        "count",
        survivors.len(),
    );
    // Exact for a fixed seed: summed over the fixed prefix.
    out.metric("anns.evals", evals as f64, "count", CHECKED);
    let (search_s, n) = tr.median_self("anns.search");
    out.metric(
        "anns.us_per_eval",
        search_s * 1e6 / (evals as f64 / CHECKED as f64),
        "us",
        n,
    );
    tr.report(
        &mut out,
        "serve.plan_cache.get",
        "serve.plan_cache.get_ns",
        "ns",
        1e9,
    );
    let plans = tuner.plan_cache_stats();
    out.metric(
        "serve.plan_cache.hit_rate",
        plans.hits as f64 / (plans.hits + plans.misses).max(1) as f64,
        "ratio",
        (plans.hits + plans.misses) as usize,
    );
    for class in TuneStream::CLASSES {
        let tag = class.name();
        tr.report(
            &mut out,
            &format!("serve.fingerprint.{tag}"),
            format!("serve.fingerprint.us.{tag}"),
            "us",
            1e6,
        );
    }
    for (k, name) in OBS_COUNTERS.iter().enumerate() {
        out.metric(
            *name,
            (obs_prefix[k] - obs_before[k]) as f64,
            "count",
            CHECKED,
        );
    }
    out
}

/// The per-layer timings every workload that tunes reports, from the spans
/// [`TuneMirror::staged`] recorded.
pub fn tune_layer_metrics(out: &mut Outcome, tr: &Tracer, mirror: &TuneMirror) {
    let mut measure = Vec::new();
    for class in Class::ALL {
        let tag = class.name();
        tr.report(
            out,
            &format!("model.extract_feature.{tag}"),
            format!("model.extract_feature_ms.{tag}"),
            "ms",
            1e3,
        );
        let xs = tr.self_seconds(&format!("sim.measure.{tag}"));
        let candidates = mirror.measured(tag);
        let per_candidate = if candidates == 0 {
            0.0
        } else {
            xs.iter().sum::<f64>() * 1e3 / candidates as f64
        };
        out.metric(
            format!("sim.ms_per_candidate.{tag}"),
            per_candidate,
            "ms",
            candidates,
        );
        measure.extend(xs);
    }
    let n = measure.len();
    let measure_ms = if n == 0 {
        0.0
    } else {
        median(&mut measure) * 1e3
    };
    out.metric("sim.measure_ms", measure_ms, "ms", n);
    for (span, metric, unit, per_second) in [
        ("core.prune", "core.prune_us", "us", 1e6),
        ("anns.search", "anns.search_ms", "ms", 1e3),
        ("exec.lower", "exec.lower_us", "us", 1e6),
    ] {
        tr.report(out, span, metric, unit, per_second);
    }
}
