//! `compare <a.json>[,...] <b.json>[,...]`: one row per workload ×
//! end-to-end metric with both medians, the ratio with its base, the bound
//! from `BENCHMARK.json` and a verdict.
//!
//! * `ok` — `b` is not worse than `a` by more than the bound.
//! * `regressed` — it is, and the runs are steady enough to say so.
//! * `unresolved` — the run-to-run spread of a side is wider than the bound,
//!   so the sides cannot be told apart — unless every run of `b` reads
//!   better than every run of `a`, which is `ok` however wide the spread.
//!
//! Two quantities must repeat exactly for a fixed seed and are compared
//! run by run when both sides used the same seeds: `tuned_sim_speedup` and
//! `anns.evals`.

use waco_serve::Json;

use crate::util::{median, quantile};
use crate::Manifest;

struct Run {
    seed: u64,
    doc: Json,
}

impl Run {
    fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or(format!("{path}: not a `run` report"))?;
        Ok(Run { seed, doc })
    }

    fn value(&self, workload: &str, pass: &str, metric: &str) -> Option<f64> {
        self.doc
            .get("workloads")?
            .get(workload)?
            .get(pass)?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    }
}

fn load_side(arg: &str) -> Result<Vec<Run>, String> {
    arg.split(',')
        .filter(|p| !p.is_empty())
        .map(Run::load)
        .collect()
}

/// Spread of one side as a share of its median: the whole range for fewer
/// than four runs, the distance between the quartiles otherwise.
fn spread(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    let mid = median(&mut v);
    let width = if v.len() < 4 {
        v[v.len() - 1] - v[0]
    } else {
        quantile(&mut v, 0.75) - quantile(&mut v, 0.25)
    };
    if mid == 0.0 {
        0.0
    } else {
        width / mid.abs()
    }
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two arguments: <a.json>[,...] <b.json>[,...]".to_string());
    };
    let manifest = Manifest::load()?;
    let (a, b) = (load_side(a)?, load_side(b)?);
    if a.is_empty() || b.is_empty() {
        return Err("each side needs at least one run report".to_string());
    }
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>9} {:>6} {:>8}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound", "spread"
    );
    let mut regressed = false;
    for (workload, _) in &manifest.workloads {
        for (metric, unit, better, bound) in &manifest.end_to_end {
            let side = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.value(workload, "end_to_end", metric))
                    .collect()
            };
            let (xa, xb) = (side(&a), side(&b));
            if xa.is_empty() || xb.is_empty() {
                println!("{workload:<13} {metric:<18} missing on one side");
                regressed = true;
                continue;
            }
            let (ma, mb) = (median(&mut xa.clone()), median(&mut xb.clone()));
            // Worsening of `b` against `a` as a share of `a`.
            let higher_is_better = better == "higher";
            let worse_by = if higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let wide = spread(&xa).max(spread(&xb));
            let b_always_better = xb.iter().all(|&y| {
                xa.iter()
                    .all(|&x| if higher_is_better { y > x } else { y < x })
            });
            let verdict = if b_always_better {
                "ok"
            } else if wide > *bound {
                "unresolved"
            } else if worse_by > *bound {
                regressed = true;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{workload:<13} {metric:<18} {ma:>14.6} {mb:>14.6} {:>9.4} {bound:>6.3} {wide:>8.4}  {verdict} [{unit}, base a]",
                mb / ma
            );
        }
    }

    // Exact repeats, where the two sides share seeds.
    for (workload, pass, metric) in manifest
        .workloads
        .iter()
        .map(|(w, _)| (w.as_str(), "end_to_end", "tuned_sim_speedup"))
        .chain([("tune_cold", "per_layer", "anns.evals")])
    {
        for ra in &a {
            for rb in b.iter().filter(|rb| rb.seed == ra.seed) {
                let (va, vb) = (
                    ra.value(workload, pass, metric),
                    rb.value(workload, pass, metric),
                );
                if va != vb {
                    regressed = true;
                    println!("{workload:<13} {metric:<18} seed {}: {va:?} vs {vb:?}  regressed (must repeat exactly)", ra.seed);
                }
            }
        }
    }
    Ok(!regressed)
}
