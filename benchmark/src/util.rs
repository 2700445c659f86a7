//! Small shared pieces: order statistics, process memory, seed mixing,
//! scratch directories and the metric record every workload reports in.

use std::collections::HashMap;
use std::hash::Hash;
use std::path::PathBuf;

use waco_serve::Json;

/// One reported number: its name (as in `BENCHMARK.json`), value, unit and
/// the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one pass (untraced or traced) of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted / failed, per phase and in total. A wrong
    /// answer is a failure.
    pub phases: Vec<(&'static str, u64, u64)>,
    pub metrics: Vec<Metric>,
    /// Text facts that are not numbers: stream hash, rates, fast paths.
    pub facts: Vec<(String, String)>,
    /// Budget-closure and generator-health findings; never fatal.
    pub warnings: Vec<String>,
    /// Correctness mismatches; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn fact(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.facts.push((key.into(), value.into()));
    }

    pub fn phase(&mut self, name: &'static str, attempted: u64, failed: u64) {
        self.phases.push((name, attempted, failed));
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.1).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.2).sum()
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed() == 0
    }

    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("value", Json::num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("samples", Json::num(m.samples as f64)),
                    ]),
                )
            })
            .collect();
        let phases = self
            .phases
            .iter()
            .map(|&(name, attempted, failed)| {
                Json::obj([
                    ("phase", Json::str(name)),
                    ("attempted", Json::num(attempted as f64)),
                    ("succeeded", Json::num((attempted - failed) as f64)),
                    ("failed", Json::num(failed as f64)),
                ])
            })
            .collect();
        let strs = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("phases", Json::Arr(phases)),
            ("metrics", Json::Obj(metrics)),
            (
                "facts",
                Json::Obj(
                    self.facts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v)))
                        .collect(),
                ),
            ),
            ("warnings", strs(&self.warnings)),
            ("errors", strs(&self.errors)),
        ])
    }
}

/// Linear-interpolated quantile of an unsorted sample (sorts it in place).
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

// Quiet-machine figures.
//
// This sandbox shares its host. A neighbour slows it — by up to 2× on the
// paths measured here, for a fraction of a second or for minutes — and
// nothing ever speeds it up, so a median over a run moves with the
// neighbours (the same code and seed read 4.3 and 9.4 ms ten minutes apart).
// The gated timings therefore estimate what the program costs on a quiet
// machine, from the fastest comparable work of the run: where inputs repeat,
// each takes the fastest of its repeats ([`fastest_per_key`]); where they
// never do, the stream is compared block by stratified block and the best
// blocks speak for the run ([`quiet_blocks`]).

/// Every sample's time replaced by the fastest time among the samples that
/// share its key. Repeats of one input do the same work, so what they add
/// to the fastest of them is the machine, not the program.
pub fn fastest_per_key<K: Copy + Eq + Hash>(samples: &[(K, f64)]) -> Vec<f64> {
    let mut fastest: HashMap<K, f64> = HashMap::new();
    for &(key, ms) in samples {
        fastest
            .entry(key)
            .and_modify(|f| *f = f.min(ms))
            .or_insert(ms);
    }
    samples.iter().map(|(key, _)| fastest[key]).collect()
}

/// Share of a run's blocks, from the fast end, that [`quiet_blocks`] reads
/// its figures at: few enough to be quiet blocks in a noisy run, enough
/// that a block of luckily small inputs does not speak for the run.
const QUIET_BLOCKS: f64 = 0.05;

/// `(p50 ms, p90 ms, operations per second)` of a never-repeating stream
/// whose consecutive blocks of `block` inputs hold the same mix of work:
/// every complete block's own median, 90th percentile and rate, each read at
/// the `QUIET_BLOCKS` quantile from its fast end. `ms` is in stream order.
pub fn quiet_blocks(ms: &[f64], block: usize) -> (f64, f64, f64) {
    let blocks = || ms.chunks_exact(block).map(<[f64]>::to_vec);
    let mut p50: Vec<f64> = blocks().map(|mut b| quantile(&mut b, 0.5)).collect();
    let mut p90: Vec<f64> = blocks().map(|mut b| quantile(&mut b, 0.9)).collect();
    let mut rate: Vec<f64> = blocks()
        .map(|b| block as f64 / (b.iter().sum::<f64>() * 1e-3))
        .collect();
    (
        quantile(&mut p50, QUIET_BLOCKS),
        quantile(&mut p90, QUIET_BLOCKS),
        quantile(&mut rate, 1.0 - QUIET_BLOCKS),
    )
}

pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `VmHWM` of this process in MiB: the peak resident set, so memory that a
/// change moves into a cache or into set-up still shows.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64 step: derives independent sub-seeds from `(seed, tag)` so
/// every generator (catalog, classes, Zipf, arrivals) has its own stream.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The benchmark's package directory, fixed at build time: the checkout the
/// binary was built in is the checkout it measures.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where traces, reports and server cache directories go (git-ignored).
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

fn scratch_root() -> PathBuf {
    out_dir().join("tmp").join(std::process::id().to_string())
}

/// A fresh, empty scratch directory of this process (server cache dirs,
/// scratch journals), removed by [`remove_scratch`].
pub fn scratch_dir(label: &str) -> PathBuf {
    let dir = scratch_root().join(label);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating a scratch directory under benchmark/out");
    dir
}

pub fn remove_scratch() {
    let _ = std::fs::remove_dir_all(scratch_root());
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// The same for `tune_cold`, whose set-up is short (≈ 0.1 s) and so both
/// cheap to repeat and easy to disturb.
pub const SHORT_SETUP_REPEATS: usize = 9;

/// A `waco-obs` counter of the traced pass (0 when obs is not installed).
pub fn obs_counter(name: &str) -> u64 {
    waco_obs::snapshot().counter(name)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Connections of the closed loop, one thread each. One: a served request
/// crosses the server's event loop, one of its executors and (routed) the
/// router's loop, and a second client would keep a second chain of those
/// threads runnable. On the two cores of this sandbox that measured the
/// scheduler (the same code and seed read 8.7 to 15.4 ms); with one
/// connection exactly one thread is runnable at a time, whatever `nproc` is.
pub const GENERATOR_WIDTH: usize = 1;
