//! `waco-benchmark`: five named workloads, end-to-end and per-layer metrics,
//! and an outside-in stage trace. See `benchmark/README.md`.
//!
//! Three ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` measures one
//!   pass of one workload and prints, as the last line of standard output,
//!   one JSON object with `correct`, `attempted`, `failed` and `metrics`
//!   (the end-to-end metrics of `BENCHMARK.json` with `--trace 0`, its
//!   per-layer metrics with `--trace 1`).
//! * `run --seed <n> --out <file>` does that for every workload and both
//!   passes, one child process per pass so set-up time and peak memory are
//!   each pass's own, and writes `<file>` and `<file>.trace.json`.
//! * `compare <a.json>[,...] <b.json>[,...]` judges two sets of `run` files
//!   against the bounds in `BENCHMARK.json`.

mod compare;
mod inputs;
mod kernel_exec;
mod serve;
mod stages;
mod trace;
mod tune_cold;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use waco_runtime::ThreadPool;
use waco_serve::Json;

use crate::trace::Tracer;
use crate::util::{nproc, out_dir, package_dir, peak_rss_mb, remove_scratch, Outcome};

pub const WORKLOADS: [&str; 5] = [
    "tune_cold",
    "kernel_exec",
    "serve_warm",
    "serve_mixed",
    "serve_routed",
];

/// The metric lists and bounds of `BENCHMARK.json`, the one place they are
/// written down.
pub struct Manifest {
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    /// `(name, unit, better, bound)`.
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

impl Manifest {
    pub fn load() -> Result<Self, String> {
        let path = package_dir().join("..").join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Result<Vec<Json>, String> {
            Ok(doc
                .get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
                .to_vec())
        };
        let text_of = |v: &Json, key: &str| -> Result<String, String> {
            Ok(v.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("BENCHMARK.json: an entry has no `{key}`"))?
                .to_string())
        };
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json has no `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(|m| {
                    let bound = m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("an end-to-end metric has no `bound`")?;
                    Ok((
                        text_of(m, "name")?,
                        text_of(m, "unit")?,
                        text_of(m, "better")?,
                        bound,
                    ))
                })
                .collect::<Result<_, String>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(|m| Ok((text_of(m, "name")?, text_of(m, "unit")?)))
                .collect::<Result<_, String>>()?,
        })
    }
}

struct PassArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Where to write the full outcome (used by `run`).
    report: Option<PathBuf>,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_pass(args: &[String]) -> Result<PassArgs, String> {
    let need = |name: &str| flag(args, name).ok_or(format!("missing {name}"));
    let workload = need("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(PassArgs {
        workload,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed takes an unsigned integer")?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".to_string()),
        },
        report: flag(args, "--report").map(PathBuf::from),
    })
}

/// Measures one pass of one workload in this process.
fn measure(args: &PassArgs, start: Instant) -> (Outcome, Option<Tracer>) {
    let variant = |name: &str| match name {
        "serve_warm" => serve::Variant::Warm,
        "serve_mixed" => serve::Variant::Mixed,
        _ => serve::Variant::Routed,
    };
    if !args.trace {
        let mut out = match args.workload.as_str() {
            "tune_cold" => tune_cold::run(args.seed, args.seconds, start),
            "kernel_exec" => kernel_exec::run(args.seed, args.seconds, start),
            name => serve::run(variant(name), args.seed, args.seconds, start),
        };
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
        return (out, None);
    }
    let mut tr = Tracer::new(true);
    let mut out = match args.workload.as_str() {
        // The in-process workloads read `waco-obs` counters for the whole
        // pass; the serve ones install it after their untraced sample.
        "tune_cold" => {
            waco_obs::install();
            tune_cold::trace(args.seed, args.seconds, &mut tr)
        }
        "kernel_exec" => {
            waco_obs::install();
            kernel_exec::trace(args.seed, args.seconds, &mut tr)
        }
        name => serve::trace(variant(name), args.seed, args.seconds, &mut tr),
    };
    waco_obs::uninstall();
    out.metric(
        "runtime.pool_threads",
        ThreadPool::global().max_participants() as f64,
        "count",
        1,
    );
    (out, Some(tr))
}

fn print_outcome(workload: &str, pass: &str, out: &Outcome) {
    for (phase, attempted, failed) in &out.phases {
        println!(
            "{workload} {pass} phase {phase}: attempted {attempted} succeeded {} failed {failed}",
            attempted - failed
        );
    }
    for m in &out.metrics {
        println!(
            "{workload} {pass} {} = {} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for (k, v) in &out.facts {
        println!("{workload} {pass} {k}: {v}");
    }
    for w in &out.warnings {
        println!("{workload} {pass} warning: {w}");
    }
    for e in &out.errors {
        println!("{workload} {pass} ERROR: {e}");
    }
}

/// The contract's result line: exactly the metrics `BENCHMARK.json` lists
/// for this pass. A per-layer metric this workload never touches reads 0.
fn result_line(manifest: &Manifest, args: &PassArgs, out: &Outcome) -> Result<Json, String> {
    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        metrics.insert(
            name.to_string(),
            Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))]),
        );
    };
    if args.trace {
        for (name, unit) in &manifest.per_layer {
            put(name, unit, out.get(name).map_or(0.0, |m| m.value));
        }
    } else {
        for (name, unit, _, _) in &manifest.end_to_end {
            let m = out
                .get(name)
                .ok_or(format!("{} reported no `{name}`", args.workload))?;
            put(name, unit, m.value);
        }
    }
    Ok(Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::num(out.attempted().max(1) as f64)),
        ("failed", Json::num(out.failed() as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

fn pass_main(args: &[String], start: Instant) -> Result<bool, String> {
    let args = parse_pass(args)?;
    let manifest = Manifest::load()?;
    let (out, tracer) = measure(&args, start);
    remove_scratch();
    let pass = if args.trace { "traced" } else { "untraced" };
    print_outcome(&args.workload, pass, &out);
    if let Some(tr) = &tracer {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-{}.trace.json", args.workload, args.seed));
        std::fs::write(&path, tr.to_json().to_string())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("{} {pass} trace: {}", args.workload, path.display());
    }
    if let Some(path) = &args.report {
        std::fs::write(path, out.to_json().to_string())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{}", result_line(&manifest, &args, &out)?);
    Ok(out.correct())
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(package_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// `run`: every workload, untraced then traced, each pass a child process.
fn run_main(args: &[String]) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let seed: u64 = flag(args, "--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer")?;
    let out_path = PathBuf::from(flag(args, "--out").ok_or("missing --out")?);
    let seconds = match flag(args, "--seconds") {
        Some(s) => s.parse::<f64>().map_err(|_| "--seconds takes a number")?,
        None => manifest.run_seconds,
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let tmp = out_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;

    let mut all_correct = true;
    let mut workloads = BTreeMap::new();
    let mut traces = BTreeMap::new();
    for (name, why) in &manifest.workloads {
        let mut passes = BTreeMap::new();
        for (trace, pass) in [("0", "end_to_end"), ("1", "per_layer")] {
            let report = tmp.join(format!("{name}-{pass}.json"));
            let status = Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .arg("--report")
                .arg(&report)
                .status()
                .map_err(|e| format!("starting the {name} pass: {e}"))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&report)
                .map_err(|e| format!("{name} {pass} left no report: {e}"))?;
            passes.insert(
                pass.to_string(),
                Json::parse(&text).map_err(|e| e.to_string())?,
            );
            if trace == "1" {
                let path = out_dir().join(format!("{name}-{seed}.trace.json"));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{name} left no trace: {e}"))?;
                traces.insert(name.clone(), Json::parse(&text).map_err(|e| e.to_string())?);
            }
        }
        passes.insert("why".to_string(), Json::str(why));
        workloads.insert(name.clone(), Json::Obj(passes));
    }
    let _ = std::fs::remove_dir_all(&tmp);

    let fact = |workload: &str, key: &str| -> Option<String> {
        let w: &Json = workloads.get(workload)?;
        Some(
            w.get("end_to_end")?
                .get("facts")?
                .get(key)?
                .as_str()?
                .to_string(),
        )
    };
    let (warm, routed) = (
        fact("serve_warm", "stream_hash"),
        fact("serve_routed", "stream_hash"),
    );
    if warm.is_none() || warm != routed {
        println!(
            "ERROR: serve_routed's request stream ({routed:?}) is not serve_warm's ({warm:?})"
        );
        all_correct = false;
    }
    let doc = Json::obj([
        ("seed", Json::num(seed as f64)),
        ("seconds", Json::num(seconds)),
        ("nproc", Json::num(nproc() as f64)),
        ("generator_width", Json::num(util::GENERATOR_WIDTH as f64)),
        ("git_commit", Json::str(git_commit())),
        ("open_loop_rps", Json::num(serve::OPEN_RPS)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(&out_path, doc.to_string())
        .map_err(|e| format!("writing {}: {e}", out_path.display()))?;
    let trace_path = PathBuf::from(format!("{}.trace.json", out_path.display()));
    std::fs::write(&trace_path, Json::Obj(traces).to_string())
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    println!(
        "report: {}\ntrace: {}",
        out_path.display(),
        trace_path.display()
    );
    Ok(all_correct)
}

fn usage() -> String {
    format!(
        "usage:\n  waco-benchmark --workload <{}> --seed <u64> --seconds <s> --trace <0|1>\n  waco-benchmark run --seed <u64> --out <file> [--seconds <s>]\n  waco-benchmark compare <a.json>[,<a2.json>...] <b.json>[,<b2.json>...]",
        WORKLOADS.join("|")
    )
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some(a) if a.starts_with("--") => pass_main(&args, start),
        _ => Err(usage()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
