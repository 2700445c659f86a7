//! Minimal micro-benchmark harness (the external `criterion` dependency's
//! replacement, keeping the build hermetic).
//!
//! Each benchmark is calibrated to a target sample duration, warmed up,
//! then timed over a fixed number of samples; the reported statistic is
//! the **median** per-iteration time (robust to scheduler noise), next to
//! the min and mean. Results print as a table and are written to
//! `results/microbench.json`, a document of `waco-obs`'s one JSON codec.

use std::path::{Path, PathBuf};
use std::time::Instant;

use waco_obs::json::Json;

/// One benchmark's timing summary. All times are nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct MicroStat {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Iterations timed per sample.
    pub iters_per_sample: usize,
    /// Number of samples taken.
    pub samples: usize,
    /// Median per-iteration time.
    pub median_ns: f64,
    /// Fastest sample's per-iteration time.
    pub min_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
}

/// Collects micro-benchmark results.
pub struct Harness {
    samples: usize,
    target_sample_ns: f64,
    stats: Vec<MicroStat>,
}

impl Harness {
    /// A harness taking `samples` samples of roughly `target_sample_ms`
    /// each per benchmark.
    pub fn new(samples: usize, target_sample_ms: f64) -> Self {
        Self {
            samples: samples.max(3),
            target_sample_ns: target_sample_ms * 1e6,
            stats: Vec::new(),
        }
    }

    /// The default configuration: 11 samples of ~30 ms (`--smoke`: 3 of
    /// ~5 ms, for CI).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--smoke") {
            Self::new(3, 5.0)
        } else {
            Self::new(11, 30.0)
        }
    }

    /// Times `f`, printing one line and recording the stat.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        // Calibrate: one untimed run, then scale iterations to the target.
        let t = Instant::now();
        std::hint::black_box(f());
        let once_ns = t.elapsed().as_nanos().max(1) as f64;
        let iters = ((self.target_sample_ns / once_ns).ceil() as usize).clamp(1, 1_000_000);
        // Warm up one full sample.
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(f64::total_cmp);
        let stat = MicroStat {
            name: name.to_string(),
            iters_per_sample: iters,
            samples: self.samples,
            median_ns: per_iter[per_iter.len() / 2],
            min_ns: per_iter[0],
            mean_ns: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
        };
        println!(
            "  {:<44} median {:>12}  min {:>12}  ({} x {} iters)",
            stat.name,
            fmt_ns(stat.median_ns),
            fmt_ns(stat.min_ns),
            stat.samples,
            stat.iters_per_sample,
        );
        self.stats.push(stat);
    }

    /// Records a raw value (a count or a ratio, not a timing) as a
    /// pseudo-stat: it flows into `results/microbench.json` next to the real
    /// timings, with the value stored in every time field.
    pub fn record_value(&mut self, name: &str, value: f64) {
        println!("  {:<44} value  {value:>12.1}", name);
        self.stats.push(MicroStat {
            name: name.to_string(),
            iters_per_sample: 1,
            samples: 1,
            median_ns: value,
            min_ns: value,
            mean_ns: value,
        });
    }

    /// The stat recorded under `name`, if any.
    pub fn stat(&self, name: &str) -> Option<&MicroStat> {
        self.stats.iter().find(|s| s.name == name)
    }

    /// All stats as one JSON document, `harness` plus `benchmarks[{name,
    /// median_ns,min_ns,mean_ns,samples,iters_per_sample}]` (non-finite: `null`).
    pub fn to_json(&self) -> Json {
        let benchmarks = self.stats.iter().map(|s| {
            Json::obj([
                ("name", Json::str(&s.name)),
                ("median_ns", Json::num(s.median_ns)),
                ("min_ns", Json::num(s.min_ns)),
                ("mean_ns", Json::num(s.mean_ns)),
                ("samples", Json::num(s.samples as f64)),
                ("iters_per_sample", Json::num(s.iters_per_sample as f64)),
            ])
        });
        Json::obj([
            ("harness", Json::str("waco-bench-micro")),
            ("benchmarks", Json::Arr(benchmarks.collect())),
        ])
    }

    /// Writes the JSON report to `results/microbench.json` (repo-rooted).
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_results(&self) -> std::io::Result<PathBuf> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/microbench.json");
        self.to_json().write_file(&path)?;
        Ok(path)
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_records_and_serializes() {
        let mut h = Harness::new(3, 0.01);
        h.bench("group/fast", || 1 + 1);
        h.bench("group/slow", || {
            std::thread::sleep(std::time::Duration::from_micros(50))
        });
        assert!(h.stat("group/fast").is_some());
        assert!(h.stat("missing").is_none());
        let fast = h.stat("group/fast").unwrap();
        let slow = h.stat("group/slow").unwrap();
        assert!(fast.median_ns < slow.median_ns);
        assert!(fast.min_ns <= fast.median_ns);
        let doc = Json::parse(&h.to_json().to_string()).unwrap();
        let first = &doc.get("benchmarks").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(first.get("name").and_then(Json::as_str), Some("group/fast"));
        assert_eq!(
            first.get("median_ns").and_then(Json::as_f64),
            Some(fast.median_ns)
        );
    }

    #[test]
    fn raw_values_flow_through_like_stats() {
        let mut h = Harness::new(3, 0.01);
        h.record_value("group/count", 42.0);
        let s = h.stat("group/count").unwrap();
        assert_eq!(s.median_ns, 42.0);
        assert_eq!(s.min_ns, 42.0);
        assert_eq!(s.samples, 1);
        let doc = h.to_json();
        let only = &doc.get("benchmarks").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(only.get("name").and_then(Json::as_str), Some("group/count"));
    }

    #[test]
    fn quoted_names_and_non_finite_values_stay_valid_json() {
        let mut h = Harness::new(3, 0.01);
        h.record_value("say \"hi\"", 1.0);
        h.record_value("x", f64::NAN);
        let doc = Json::parse(&h.to_json().to_string()).expect("valid JSON");
        let benches = doc.get("benchmarks").and_then(Json::as_arr).unwrap();
        assert_eq!(
            benches[0].get("name").and_then(Json::as_str),
            Some("say \"hi\"")
        );
        assert_eq!(benches[1].get("median_ns"), Some(&Json::Null));
    }

    #[test]
    fn formatting_covers_magnitudes() {
        assert_eq!(fmt_ns(12.0), "12 ns");
        assert_eq!(fmt_ns(1500.0), "1.50 µs");
        assert_eq!(fmt_ns(2.5e6), "2.50 ms");
        assert_eq!(fmt_ns(3.0e9), "3.00 s");
    }
}
