//! Subcommand implementations.
//!
//! Every command returns `Result<(), WacoError>`; `main` maps errors to a
//! one-line `error: …` message and exit code 2. Flag and parse problems
//! become [`WacoError::InvalidConfig`], file problems [`WacoError::Io`].

use waco_baselines::{best_format, fixed, mkl};
use waco_core::{Waco, WacoConfig, WacoError};
use waco_schedule::Kernel;
use waco_sim::{MachineConfig, Simulator};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::{io, CooMatrix, MatrixStats};

pub(crate) type Result<T> = std::result::Result<T, WacoError>;

/// Top-level usage text.
pub const USAGE: &str = "\
waco-cli — workload-aware co-optimization of sparse tensor programs

USAGE:
  waco-cli gen     --family <uniform|banded|blocked|powerlaw|kronecker|mesh>
                   [--size N] [--seed S] --out FILE.mtx
  waco-cli inspect FILE.mtx
  waco-cli bench   [--kernel spmv|spmm|sddmm|spgemm|sddmm_spmm] [--dense N]
                   FILE.mtx
  waco-cli train   [--kernel spmv|spmm|sddmm] [--matrices N] [--size N]
                   [--epochs N] [--dense N] [--seed S] --out MODEL.ckpt
  waco-cli tune    [--kernel spmv|spmm|sddmm] [--model MODEL.ckpt]
                   [--dense N] [--seed S] FILE.mtx
  waco-cli serve   --cache DIR [--addr 127.0.0.1:PORT] [--workers N]
                   [--queue N] [--capacity N] [--timeout SECS]
                   [--model MODEL.ckpt] [--sync-from HOST:PORT]
  waco-cli route   --shards ADDR1,ADDR2[,...] [--addr 127.0.0.1:PORT]
                   [--vnodes N] [--queue N] [--timeout SECS]
  waco-cli query   --addr 127.0.0.1:PORT [--op tune|lookup|stats|shutdown]
                   [--kernel spmv|spmm|sddmm] [--dense N] [--timeout SECS]
                   [FILE.mtx]
  waco-cli verify  [--seed S] [--budget smoke|nightly]
                   [--kernel spmv,spmm,mttkrp,spgemm,sddmm_spmm,...]
                   [--faults on|off] [--out FILE.json]
  waco-cli loadgen --addr 127.0.0.1:PORT [--connections N] [--duration SECS]
                   [--rps R] [--fingerprints K] [--zipf S]
                   [--arrivals poisson|burst] [--kernel spmv|spmm|sddmm]
                   [--dense N] [--size N] [--seed S] [--out FILE.json]
                   [--smoke]
  waco-cli plan    [--kernel spmv|spmm|sddmm|spgemm|sddmm_spmm] [--dense N]
                   [--rows N] [--cols N] [--schedule JSON]
                   [--format text|json] [FILE.mtx]

Global flags:
  --trace FILE.json   record a structured trace (spans, counters,
                      histograms); the span tree is printed to stderr and
                      the full trace written to FILE.json

All timing is on the deterministic xeon-like machine model.
Exit codes: 0 success, 2 error.";

pub(crate) fn bad(msg: impl Into<String>) -> WacoError {
    WacoError::InvalidConfig(msg.into())
}

/// Parsed `--key value` flags plus positional arguments.
pub(crate) struct Flags {
    kv: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    /// Parses `args`, refusing any `--key` outside `known` (the
    /// space-separated keys the command reads) so a mistyped flag fails
    /// instead of being ignored.
    pub(crate) fn parse(args: &[String], known: &str) -> Result<Self> {
        let mut kv = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if !known.split_whitespace().any(|k| k == key) {
                    return Err(bad(format!("unknown flag --{key}")));
                }
                let val = it
                    .next()
                    .ok_or_else(|| bad(format!("flag --{key} needs a value")))?;
                kv.push((key.to_string(), val.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self { kv, positional })
    }

    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.kv
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub(crate) fn usize_or(&self, key: &str, default: usize) -> Result<usize> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| bad(format!("--{key} expects an integer, got `{v}`"))),
        }
    }

    pub(crate) fn f64_or(&self, key: &str, default: f64) -> Result<f64> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| bad(format!("--{key} expects a number, got `{v}`"))),
        }
    }

    fn one_positional(&self, what: &str) -> Result<&str> {
        match self.positional.as_slice() {
            [p] => Ok(p),
            [] => Err(bad(format!("missing {what}"))),
            _ => Err(bad(format!("expected exactly one {what}"))),
        }
    }
}

pub(crate) fn parse_kernel(flags: &Flags) -> Result<Kernel> {
    let name = flags.get("kernel").unwrap_or("spmm");
    match Kernel::from_wire_name(name) {
        // Every matrix command reads one `.mtx` operand; MTTKRP's is a tensor.
        Some(kernel) if kernel != Kernel::MTTKRP => Ok(kernel),
        _ => Err(bad(format!(
            "unsupported kernel `{name}` (CLI supports spmv/spmm/sddmm/spgemm/sddmm_spmm; MTTKRP needs the library API)"
        ))),
    }
}

pub(crate) fn dense_extent(flags: &Flags, kernel: Kernel) -> Result<usize> {
    flags.usize_or("dense", if kernel == Kernel::SpMV { 0 } else { 32 })
}

fn io_err(context: impl Into<String>, e: impl std::fmt::Display) -> WacoError {
    WacoError::io(context, std::io::Error::other(e.to_string()))
}

fn load_matrix(path: &str) -> Result<CooMatrix> {
    io::read_matrix_market_file(path).map_err(|e| io_err(format!("reading {path}"), e))
}

/// `waco-cli gen`: writes a synthetic matrix in Matrix Market form.
pub fn gen(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, "family size seed out")?;
    let family = flags.get("family").unwrap_or("uniform").to_string();
    let n = flags.usize_or("size", 512)?;
    let seed = flags.usize_or("seed", 7)? as u64;
    let out = flags
        .get("out")
        .ok_or_else(|| bad("--out FILE.mtx is required"))?;
    let mut rng = Rng64::seed_from(seed);
    let m = match family.as_str() {
        "uniform" => gen::uniform_random(n, n, 8.0 / n as f64, &mut rng),
        "banded" => gen::banded(n, (n / 64).max(2), 0.4, &mut rng),
        "blocked" => gen::blocked(n, n, 8, (n * n / 512).max(4), 0.9, &mut rng),
        "powerlaw" => gen::powerlaw_rows(n, n, 8.0, 1.2, &mut rng),
        "kronecker" => gen::kronecker((n as f64).log2().ceil() as u32, n * 8, &mut rng),
        "mesh" => {
            let side = (n as f64).sqrt().round() as usize;
            gen::mesh2d(side.max(2), side.max(2))
        }
        other => return Err(bad(format!("unknown family `{other}`"))),
    };
    io::write_matrix_market_file(out, &m).map_err(|e| io_err(format!("writing {out}"), e))?;
    println!(
        "wrote {out}: {}x{}, {} nnz ({family})",
        m.nrows(),
        m.ncols(),
        m.nnz()
    );
    Ok(())
}

/// `waco-cli inspect`: pattern statistics.
pub fn inspect(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, "")?;
    let path = flags.one_positional("FILE.mtx")?;
    let m = load_matrix(path)?;
    let s = MatrixStats::compute(&m);
    println!("{path}");
    println!("  shape          {} x {}", s.nrows, s.ncols);
    println!(
        "  nonzeros       {} ({:.4}% dense)",
        s.nnz,
        s.density * 100.0
    );
    println!(
        "  row nnz        mean {:.2}, max {}, cv {:.2}",
        s.row_nnz_mean, s.row_nnz_max, s.row_cv
    );
    println!("  diag distance  {:.3} (normalized)", s.diag_distance_mean);
    println!("  symmetry       {:.0}%", s.symmetry * 100.0);
    println!(
        "  8x8 blocks     {} occupied, mean fill {:.0}%",
        s.block8_count,
        s.block8_fill_mean * 100.0
    );
    Ok(())
}

/// `waco-cli bench`: a no-ML leaderboard of the classic formats.
pub fn bench(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, "kernel dense")?;
    let kernel = parse_kernel(&flags)?;
    let dense = dense_extent(&flags, kernel)?;
    let path = flags.one_positional("FILE.mtx")?;
    let m = load_matrix(path)?;
    let sim = Simulator::new(MachineConfig::xeon_like());
    let space = sim.space_for(kernel, vec![m.nrows(), m.ncols()], dense);

    println!("{kernel} on {path} ({} nnz), xeon-like machine:", m.nnz());
    let mut rows: Vec<(String, f64)> = Vec::new();
    for sched in waco_schedule::named::portfolio(&space) {
        if let Ok(r) = sim.time_matrix(&m, &sched, &space) {
            rows.push((sched.describe(&space), r.seconds));
        }
    }
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (i, (desc, secs)) in rows.iter().take(8).enumerate() {
        println!("  {:>2}. {secs:.3e}s  {desc}", i + 1);
    }
    if let Some((_, worst)) = rows.last() {
        println!(
            "  ({} configurations; best is {:.2}x faster than worst)",
            rows.len(),
            worst / rows[0].1
        );
    }
    Ok(())
}

fn waco_config(flags: &Flags) -> Result<(WacoConfig, usize, usize)> {
    let matrices = flags.usize_or("matrices", 12)?;
    let size = flags.usize_or("size", 384)?;
    let epochs = flags.usize_or("epochs", 10)?;
    let seed = flags.usize_or("seed", 2023)? as u64;
    let mut cfg = WacoConfig::small();
    cfg.train.epochs = epochs;
    cfg.datagen.schedules_per_matrix = 16;
    cfg.seed = seed;
    cfg.validate()?;
    Ok((cfg, matrices, size))
}

/// `waco-cli train`: trains a cost model and writes a checkpoint.
pub fn train(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, "kernel dense out matrices size epochs seed")?;
    let kernel = parse_kernel(&flags)?;
    let dense = dense_extent(&flags, kernel)?;
    let out = flags
        .get("out")
        .ok_or_else(|| bad("--out MODEL.ckpt is required"))?
        .to_string();
    let (cfg, matrices, size) = waco_config(&flags)?;
    let corpus = gen::corpus(matrices, size, cfg.seed);
    println!("training {kernel} cost model on {matrices} matrices (~{size} rows) …");
    let sim = Simulator::new(MachineConfig::xeon_like());
    let t0 = std::time::Instant::now();
    let (mut waco, stats) = Waco::train(sim, kernel, &corpus, dense, cfg)?;
    println!(
        "trained in {:.1}s; final val ranking accuracy {:.2}",
        t0.elapsed().as_secs_f64(),
        stats.val_rank_acc.last().copied().unwrap_or(0.0)
    );
    waco.save_checkpoint(&out)?;
    println!("checkpoint written to {out}");
    Ok(())
}

/// `waco-cli tune`: tunes one matrix, comparing against the baselines.
pub fn tune(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, "kernel dense model matrices size epochs seed")?;
    let kernel = parse_kernel(&flags)?;
    let dense = dense_extent(&flags, kernel)?;
    let path = flags.one_positional("FILE.mtx")?;
    let m = load_matrix(path)?;
    let (cfg, matrices, size) = waco_config(&flags)?;

    // Build the tuner: retrain (cheap at CLI scale) and overwrite weights
    // from the checkpoint when one is given.
    let corpus = gen::corpus(matrices, size, cfg.seed);
    let sim = Simulator::new(MachineConfig::xeon_like());
    let (mut waco, _) = Waco::train(sim, kernel, &corpus, dense, cfg)?;
    if let Some(ckpt) = flags.get("model") {
        waco.load_checkpoint(ckpt)?;
        println!("loaded model weights from {ckpt}");
    }

    let tuned = waco.tune(&m)?;
    let space = waco.space_for(&m);
    println!("\n{kernel} on {path} ({} nnz):", m.nnz());
    println!("  WACO chose : {}", tuned.result.sched.describe(&space));
    println!(
        "  kernel time: {:.3e}s  (tuning {:.3e}s, conversion {:.3e}s)",
        tuned.result.kernel_seconds, tuned.result.tuning_seconds, tuned.result.convert_seconds
    );

    let mut lines = Vec::new();
    if let Ok(f) = fixed::fixed_default(&waco.sim, kernel, &m, dense) {
        lines.push(("FixedCSR", f.kernel_seconds));
    }
    if matches!(kernel, Kernel::SpMV | Kernel::SpMM) {
        if let Ok(k) = mkl::mkl_like_matrix(&waco.sim, kernel, &m, dense) {
            lines.push(("MKL-like", k.kernel_seconds));
        }
    }
    if let Ok(b) = best_format::best_format(&waco.sim, kernel, &m, dense) {
        lines.push(("BestFormat", b.kernel_seconds));
    }
    println!("  baselines  :");
    for (name, secs) in lines {
        println!(
            "    {name:<11} {secs:.3e}s  (WACO is {:.2}x)",
            secs / tuned.result.kernel_seconds
        );
    }
    Ok(())
}

/// `waco-cli serve`: runs the online tuning service until a client sends
/// `shutdown` (or the process is killed).
pub fn serve(args: &[String]) -> Result<()> {
    use std::io::Write as _;

    let flags = Flags::parse(
        args,
        "cache addr workers queue capacity timeout sync-from model",
    )?;
    let cache = flags
        .get("cache")
        .ok_or_else(|| bad("--cache DIR is required"))?
        .to_string();
    let mut builder = waco_serve::ServeConfig::builder()
        .addr(flags.get("addr").unwrap_or("127.0.0.1:0"))
        .cache_dir(&cache);
    if flags.get("workers").is_some() {
        builder = builder.workers(flags.usize_or("workers", 0)?);
    }
    if flags.get("queue").is_some() {
        builder = builder.queue_depth(flags.usize_or("queue", 0)?);
    }
    if flags.get("capacity").is_some() {
        builder = builder.cache_capacity(flags.usize_or("capacity", 0)?);
    }
    if flags.get("timeout").is_some() {
        builder = builder.timeout_secs(flags.f64_or("timeout", 0.0)?);
    }
    let cfg = builder.build()?;

    if let Some(peer) = flags.get("sync-from") {
        // Warm the journal from a running peer before serving. A failed
        // stream leaves the cache untouched, so falling back to cold
        // tuning is safe — degraded, never wrong.
        let journal = cfg.cache_dir().join("tuning.journal");
        let warm_cache = waco_serve::TuningCache::open(journal, cfg.cache_capacity())?;
        match waco_serve::warm_from_peer(peer, cfg.timeout(), &warm_cache) {
            Ok(report) => {
                warm_cache.sync()?;
                println!(
                    "warmed {} records from {peer} ({} batches, {} resumes)",
                    report.records, report.batches, report.resumes
                );
            }
            Err(e) => eprintln!("warning: sync from {peer} failed ({e}); starting cold"),
        }
        // Dropped here so the server below reopens the journal fresh.
    }

    let tuner_cfg = waco_serve::WacoTunerConfig {
        checkpoint: flags.get("model").map(Into::into),
        ..waco_serve::WacoTunerConfig::default()
    };
    let server = waco_serve::Server::start(
        cfg,
        std::sync::Arc::new(waco_serve::WacoTuner::new(tuner_cfg)),
    )?;
    // The bound address line is the startup handshake: tests and scripts
    // bind port 0 and parse the real port from here, so flush eagerly.
    println!("listening on {}", server.local_addr());
    std::io::stdout()
        .flush()
        .map_err(|e| WacoError::io("flushing stdout", e))?;
    server.wait()?;
    println!("server drained");
    Ok(())
}

/// `waco-cli route`: the fingerprint-sharded router in front of N shard
/// servers, with failover to the ring's next live shard.
pub fn route(args: &[String]) -> Result<()> {
    use std::io::Write as _;

    let flags = Flags::parse(args, "shards addr vnodes queue timeout")?;
    let shards = flags
        .get("shards")
        .ok_or_else(|| bad("--shards ADDR1,ADDR2[,...] is required"))?;
    let mut builder =
        waco_serve::RouterConfig::builder().addr(flags.get("addr").unwrap_or("127.0.0.1:0"));
    for shard in shards.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        builder = builder.shard(shard);
    }
    if flags.get("vnodes").is_some() {
        builder = builder.vnodes(flags.usize_or("vnodes", 0)?);
    }
    if flags.get("queue").is_some() {
        builder = builder.max_connections(flags.usize_or("queue", 0)?);
    }
    if flags.get("timeout").is_some() {
        builder = builder.timeout_secs(flags.f64_or("timeout", 0.0)?);
    }
    let router = waco_serve::Router::start(builder.build()?)?;
    // Same startup handshake as `serve`: scripts parse the real port here.
    println!("listening on {}", router.local_addr());
    std::io::stdout()
        .flush()
        .map_err(|e| WacoError::io("flushing stdout", e))?;
    router.wait();
    println!("router drained");
    Ok(())
}

/// `waco-cli query`: one client request against a running server.
pub fn query(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, "addr timeout op kernel dense")?;
    let addr = flags
        .get("addr")
        .ok_or_else(|| bad("--addr HOST:PORT is required"))?;
    let timeout = std::time::Duration::from_secs_f64(flags.f64_or("timeout", 120.0)?);
    let op = flags.get("op").unwrap_or("tune");
    let mut client = waco_serve::Client::connect(addr, timeout)?;
    match op {
        "stats" => {
            println!("{}", client.stats()?);
            Ok(())
        }
        "shutdown" => {
            client.shutdown()?;
            println!("server shutting down");
            Ok(())
        }
        "tune" | "lookup" => {
            let kernel = parse_kernel(&flags)?;
            let dense = dense_extent(&flags, kernel)?;
            let kname = flags.get("kernel").unwrap_or("spmm");
            let path = flags.one_positional("FILE.mtx")?;
            let m = load_matrix(path)?;
            let reply = if op == "tune" {
                client.tune(&m, kname, dense)?
            } else {
                client.lookup(&m, kname, dense)?
            };
            let Some(d) = reply.decision else {
                println!("no cached decision for {path}");
                return Ok(());
            };
            let space = waco_schedule::Space::new(kernel, vec![m.nrows(), m.ncols()], dense);
            println!(
                "{} {kernel} decision for {path} ({} nnz):",
                if reply.cached { "cached" } else { "computed" },
                m.nnz()
            );
            println!("  schedule   : {}", d.schedule.describe(&space));
            println!(
                "  kernel time: {:.3e}s  (tuned in {:.3e}s)",
                d.kernel_seconds, d.tuning_seconds
            );
            println!("  fingerprint: {}", d.fingerprint);
            Ok(())
        }
        other => Err(bad(format!(
            "unknown --op `{other}` (tune|lookup|stats|shutdown)"
        ))),
    }
}

/// `waco-cli verify`: the differential + metamorphic + fault-injection
/// correctness harness (`waco-verify`), with a JSON report for CI.
pub fn verify(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, "seed budget kernel faults out")?;
    let seed = flags.usize_or("seed", 42)? as u64;
    let budget_name = flags.get("budget").unwrap_or("smoke");
    let budget = waco_verify::Budget::parse(budget_name).ok_or_else(|| {
        bad(format!(
            "--budget must be `smoke` or `nightly`, got `{budget_name}`"
        ))
    })?;
    let mut cfg = waco_verify::VerifyConfig::new(seed, budget);
    if let Some(list) = flags.get("kernel") {
        let parse = |tok| {
            Kernel::from_wire_name(tok).ok_or_else(|| {
                bad(format!(
                    "unknown kernel `{tok}` in --kernel (spmv|spmm|sddmm|mttkrp|spgemm|sddmm_spmm, comma-separated)"
                ))
            })
        };
        cfg.kernels = list.split(',').map(parse).collect::<Result<_>>()?;
    }
    cfg.faults = match flags.get("faults").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => {
            return Err(bad(format!(
                "--faults must be `on` or `off`, got `{other}`"
            )))
        }
    };
    let out = flags
        .get("out")
        .unwrap_or("results/verify_report.json")
        .to_string();

    let report = waco_verify::run(&cfg);
    print!("{}", report.summary());
    waco_verify::report::to_json(&report)
        .write_file(&out)
        .map_err(|e| WacoError::io(format!("writing report {out}"), e))?;
    println!("report written to {out}");
    if report.passed() {
        Ok(())
    } else {
        Err(WacoError::VerificationFailed {
            failures: report.total_failures(),
            report: out,
        })
    }
}

/// `waco-cli plan`: lowers a schedule to its `ExecutionPlan` and dumps it,
/// as text (default) or JSON (`--format json`) — the introspection window into the
/// exact loop structure every backend (exec, sim, serve, verify) runs.
pub fn plan(args: &[String]) -> Result<()> {
    use waco_exec::{AsymptoticProfile, ExecutionPlan, LocateKind, PlanOp};
    use waco_serve::Json;

    let flags = Flags::parse(args, "kernel dense rows cols nnz schedule format")?;
    let kernel = parse_kernel(&flags)?;
    let dense = dense_extent(&flags, kernel)?;

    // Sparse dims: from the matrix when given, else --rows/--cols. A real
    // matrix also gives the asymptotic profile its true nnz and degree
    // histograms; without one the bound falls back to a uniform profile.
    let (dims, profile) = match flags.positional.as_slice() {
        [] => {
            let dims = vec![flags.usize_or("rows", 1024)?, flags.usize_or("cols", 1024)?];
            let nnz = flags.usize_or("nnz", dims.iter().product::<usize>() / 100)?;
            let profile = AsymptoticProfile::uniform(&dims, nnz);
            (dims, profile)
        }
        [path] => {
            let m = load_matrix(path)?;
            let profile = AsymptoticProfile::from_matrix(&m);
            (vec![m.nrows(), m.ncols()], profile)
        }
        _ => return Err(bad("expected at most one FILE.mtx")),
    };
    let space = waco_schedule::Space::new(kernel, dims, dense);

    let sched = match flags.get("schedule") {
        None => waco_schedule::named::default_csr(&space),
        Some(text) => {
            let v = Json::parse(text).map_err(|e| bad(format!("--schedule is not JSON: {e}")))?;
            waco_serve::cache::schedule_from_json(&v, kernel)
                .ok_or_else(|| bad("--schedule JSON does not decode to a schedule"))?
        }
    };

    let plan = ExecutionPlan::build(&sched, &space)
        .map_err(|e| WacoError::InvalidSchedule(e.to_string()))?;
    let bound = plan.asymptotic_bound(&profile);

    match flags.get("format").unwrap_or("text") {
        "json" => {}
        "text" => {
            println!("{}", sched.describe(&space));
            print!("{}", plan.describe());
            println!("asymptotic: {}", bound.summary());
            return Ok(());
        }
        other => {
            return Err(bad(format!(
                "--format must be `text` or `json`, got `{other}`"
            )))
        }
    }

    let op_json = |op: &PlanOp| match *op {
        PlanOp::ParallelChunk {
            var,
            extent,
            threads,
            chunk,
            ..
        } => Json::obj([
            ("op", Json::str("parallel_chunk")),
            ("var", Json::str(plan.var_name(var))),
            ("extent", Json::num(extent as f64)),
            ("threads", Json::num(threads as f64)),
            ("chunk", Json::num(chunk as f64)),
        ]),
        PlanOp::DenseLoop { var, extent, .. } => Json::obj([
            ("op", Json::str("dense_loop")),
            ("var", Json::str(plan.var_name(var))),
            ("extent", Json::num(extent as f64)),
        ]),
        PlanOp::ConcordantIter { level, .. } => Json::obj([
            ("op", Json::str("concordant_iter")),
            ("level", Json::num(level as f64)),
        ]),
        PlanOp::Locate { level, kind, .. } => Json::obj([
            ("op", Json::str("locate")),
            ("level", Json::num(level as f64)),
            (
                "strategy",
                match kind {
                    LocateKind::Stride(s) => Json::obj([
                        ("kind", Json::str("stride")),
                        ("extent", Json::num(s as f64)),
                    ]),
                    LocateKind::BinarySearch => Json::obj([("kind", Json::str("binary_search"))]),
                },
            ),
        ]),
        PlanOp::Workspace { extent } => Json::obj([
            ("op", Json::str("workspace")),
            ("extent", Json::num(extent as f64)),
        ]),
        PlanOp::Body => Json::obj([("op", Json::str("body"))]),
    };
    let doc = Json::obj([
        ("kernel", Json::str(kernel.wire_name())),
        (
            "sparse_dims",
            Json::Arr(
                plan.sparse_dims()
                    .iter()
                    .map(|&d| Json::num(d as f64))
                    .collect(),
            ),
        ),
        ("dense_extent", Json::num(plan.dense_extent() as f64)),
        ("format", Json::str(plan.spec().describe())),
        (
            "order",
            Json::Arr(
                plan.order()
                    .iter()
                    .map(|&v| Json::str(plan.var_name(v)))
                    .collect(),
            ),
        ),
        (
            "splits",
            Json::Arr(plan.splits().iter().map(|&s| Json::num(s as f64)).collect()),
        ),
        (
            "parallel",
            match plan.parallel() {
                None => Json::Null,
                Some(p) => Json::obj([
                    ("var", Json::str(plan.var_name(p.var))),
                    ("threads", Json::num(p.threads as f64)),
                    ("chunk", Json::num(p.chunk as f64)),
                ]),
            },
        ),
        ("fast_path", Json::str(plan.fast_path().wire_name())),
        ("fast_path_reason", Json::str(plan.fast_path_reason())),
        (
            "ops",
            Json::Arr(
                plan.ops()
                    .iter()
                    .zip(&bound.per_op)
                    .map(|(op, b)| {
                        let mut o = op_json(op);
                        if let Json::Obj(pairs) = &mut o {
                            pairs.insert(
                                "bound".to_string(),
                                Json::obj([
                                    ("iterations", Json::num(b.iterations)),
                                    ("cost", Json::num(b.cost)),
                                    ("term", Json::str(b.term.clone())),
                                ]),
                            );
                        }
                        o
                    })
                    .collect(),
            ),
        ),
        (
            "asymptotic",
            Json::obj([
                ("work", Json::num(bound.work)),
                ("nnz", Json::num(profile.nnz as f64)),
                ("summary", Json::str(bound.summary())),
            ]),
        ),
        ("schedule", waco_serve::cache::schedule_to_json(&sched)),
    ]);
    println!("{doc}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse() {
        let args: Vec<String> = ["--size", "64", "m.mtx", "--seed", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&args, "size seed").unwrap();
        assert_eq!(f.usize_or("size", 1).unwrap(), 64);
        assert_eq!(f.usize_or("seed", 1).unwrap(), 9);
        assert_eq!(f.usize_or("missing", 5).unwrap(), 5);
        assert_eq!(f.one_positional("file").unwrap(), "m.mtx");
    }

    #[test]
    fn flags_reject_bad_input() {
        let args: Vec<String> = ["--size"].iter().map(|s| s.to_string()).collect();
        assert!(Flags::parse(&args, "size").is_err());
        let args: Vec<String> = ["--size", "abc"].iter().map(|s| s.to_string()).collect();
        let f = Flags::parse(&args, "size").unwrap();
        assert!(f.usize_or("size", 1).is_err());
        let args: Vec<String> = ["--sise", "64"].iter().map(|s| s.to_string()).collect();
        let err = Flags::parse(&args, "size").err().unwrap();
        assert_eq!(
            err.to_string(),
            "invalid configuration: unknown flag --sise"
        );
    }

    #[test]
    fn flag_errors_are_invalid_config() {
        let f = Flags::parse(&["--size".into(), "abc".into()], "size").unwrap();
        assert!(matches!(
            f.usize_or("size", 1),
            Err(WacoError::InvalidConfig(_))
        ));
    }

    #[test]
    fn kernel_parsing() {
        let f = Flags::parse(&["--kernel".into(), "spmv".into()], "kernel").unwrap();
        assert_eq!(parse_kernel(&f).unwrap(), Kernel::SpMV);
        let f = Flags::parse(&["--kernel".into(), "mttkrp".into()], "kernel").unwrap();
        assert!(parse_kernel(&f).is_err());
        let f = Flags::parse(&[], "").unwrap();
        assert_eq!(parse_kernel(&f).unwrap(), Kernel::SpMM);
    }
}
