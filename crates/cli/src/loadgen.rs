//! `waco-cli loadgen` — an open-loop synthetic load generator for a running
//! `waco-cli serve` instance.
//!
//! Two phases, mirroring how a tuning service degrades in practice:
//!
//! 1. **Coalesce probe** — `--connections` clients barrier-start a `tune`
//!    for the *same fresh* fingerprint. A correct server performs exactly
//!    one tuner call and hands every client the identical decision; the
//!    probe records the observed `tune_calls` / `coalesced` deltas from the
//!    server's `stats` frame and checks response identity client-side.
//! 2. **Main run** — an open-loop arrival process (Poisson or 1 Hz bursts,
//!    `--rps` total) over a Zipf-popularity catalog of `--fingerprints`
//!    distinct matrices, round-robin across pipelined connections. Open
//!    loop means arrivals are *not* gated on responses: each connection
//!    splits into a sender thread (sleeps to the schedule, sends) and a
//!    receiver thread (pairs in-order responses with send timestamps), so
//!    queueing delay shows up in the measured latency instead of silently
//!    throttling the offered load.
//!
//! The report written to `--out` (default `results/loadgen.json`) carries
//! exact client-side latency percentiles (overall and per-second
//! trajectories), cache hit-rate trajectories sampled from `stats` polls,
//! and the probe verdict. CI gates read this file: the probe's `coalesced`
//! must be positive and `latency.p99_ms` must stay under a ceiling.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use waco_schedule::Kernel;
use waco_serve::protocol::request_json;
use waco_serve::{Client, Json};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::io::write_matrix_market;

use crate::commands::{bad, dense_extent, parse_kernel, Flags, Result};

/// How arrivals are spaced over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrivals {
    /// Exponential inter-arrival gaps at the target rate.
    Poisson,
    /// The whole second's worth of arrivals lands at the top of the second.
    Burst,
}

/// Parsed loadgen configuration.
struct LoadgenConfig {
    addr: String,
    connections: usize,
    duration: Duration,
    rps: f64,
    fingerprints: usize,
    zipf_s: f64,
    arrivals: Arrivals,
    kernel: Kernel,
    dense: usize,
    size: usize,
    density: f64,
    seed: u64,
    out: String,
    timeout: Duration,
}

/// Every `--key value` flag `loadgen` reads (`--smoke` is bare).
const FLAGS: &str = "addr connections duration rps fingerprints zipf arrivals kernel dense \
                     size density seed out timeout";

impl LoadgenConfig {
    fn from_flags(flags: &Flags, smoke: bool) -> Result<Self> {
        let addr = flags
            .get("addr")
            .ok_or_else(|| bad("loadgen needs --addr HOST:PORT"))?
            .to_string();
        // Smoke mode shrinks every knob the user didn't pin explicitly.
        let (d_conns, d_dur, d_rps, d_fps) = if smoke {
            (4usize, 2.0f64, 20.0f64, 6usize)
        } else {
            (8, 10.0, 40.0, 24)
        };
        let kernel = parse_kernel(flags)?;
        let cfg = LoadgenConfig {
            addr,
            connections: flags.usize_or("connections", d_conns)?,
            duration: Duration::from_secs_f64(flags.f64_or("duration", d_dur)?),
            rps: flags.f64_or("rps", d_rps)?,
            fingerprints: flags.usize_or("fingerprints", d_fps)?,
            zipf_s: flags.f64_or("zipf", 1.1)?,
            arrivals: match flags.get("arrivals").unwrap_or("poisson") {
                "poisson" => Arrivals::Poisson,
                "burst" => Arrivals::Burst,
                other => {
                    return Err(bad(format!(
                        "--arrivals expects poisson|burst, got `{other}`"
                    )))
                }
            },
            kernel,
            dense: dense_extent(flags, kernel)?,
            size: flags.usize_or("size", 32)?,
            density: flags.f64_or("density", 0.08)?,
            seed: flags.usize_or("seed", 42)? as u64,
            out: flags
                .get("out")
                .unwrap_or("results/loadgen.json")
                .to_string(),
            timeout: Duration::from_secs_f64(flags.f64_or("timeout", 60.0)?),
        };
        if cfg.connections == 0 || cfg.fingerprints == 0 {
            return Err(bad("--connections and --fingerprints must be positive"));
        }
        if cfg.rps <= 0.0 || cfg.rps.is_nan() || cfg.duration.is_zero() {
            return Err(bad("--rps and --duration must be positive"));
        }
        if cfg.zipf_s <= 0.0 || cfg.zipf_s.is_nan() {
            return Err(bad("--zipf must be positive"));
        }
        Ok(cfg)
    }
}

/// One completed request, timestamped relative to the run start.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Completion time offset from the start of the main phase, seconds.
    at_s: f64,
    latency_ms: f64,
    cached: bool,
}

/// One `stats` poll during the main phase.
#[derive(Debug, Clone, Copy)]
struct StatsPoll {
    at_s: f64,
    cache_hits: f64,
    cache_misses: f64,
    tune_calls: f64,
    coalesced: f64,
}

/// Pre-encoded tune request for one catalog entry.
fn tune_body(m: &waco_tensor::CooMatrix, kernel: Kernel, dense: usize) -> Result<Json> {
    let mut mtx = Vec::new();
    write_matrix_market(&mut mtx, m)
        .map_err(|e| bad(format!("serializing generated matrix: {e}")))?;
    let text = String::from_utf8(mtx).expect("matrix market output is ASCII");
    Ok(request_json("tune", kernel.wire_name(), dense, &text))
}

/// Zipf CDF over ranks `0..k` with exponent `s` (rank 0 most popular).
fn zipf_cdf(k: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf = Vec::with_capacity(k);
    for i in 0..k {
        acc += 1.0 / ((i + 1) as f64).powf(s);
        cdf.push(acc);
    }
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn zipf_sample(cdf: &[f64], rng: &mut Rng64) -> usize {
    let u = rng.unit_f64();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Exact percentile (nearest-rank) over an already-sorted slice, in ms.
///
/// Nearest-rank is `ceil(q·n)`, but `q·n` computed in binary can land an
/// ulp above the exact integer (`0.9 × 10 = 9.000000000000002`), and a
/// naive `ceil` then overshoots by a whole rank — at tiny sample counts
/// that silently turns p90/p99/p999 into the max. Snap to the integer when
/// within rounding distance before ceiling.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let raw = q * sorted.len() as f64;
    let rank = if (raw - raw.round()).abs() < 1e-9 {
        raw.round()
    } else {
        raw.ceil()
    };
    sorted[(rank as usize).clamp(1, sorted.len()) - 1]
}

fn u64_field(stats: &Json, section: &str, key: &str) -> f64 {
    stats
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Phase 1: all connections tune the same fresh fingerprint at once.
fn coalesce_probe(cfg: &LoadgenConfig, body: &Json) -> Result<Json> {
    let mut stats_client = Client::connect(&cfg.addr, cfg.timeout)?;
    let before = stats_client.stats()?;

    let barrier = Arc::new(Barrier::new(cfg.connections));
    let body = Arc::new(body.clone());
    let mut handles = Vec::new();
    for _ in 0..cfg.connections {
        let barrier = Arc::clone(&barrier);
        let body = Arc::clone(&body);
        let addr = cfg.addr.clone();
        let timeout = cfg.timeout;
        handles.push(thread::spawn(
            move || -> std::result::Result<(f64, String), String> {
                let mut client = Client::connect(&addr, timeout).map_err(|e| e.to_string())?;
                barrier.wait();
                let t0 = Instant::now();
                let reply = client.roundtrip(&body).map_err(|e| e.to_string())?;
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                    return Err(format!("probe tune failed: {reply}"));
                }
                let decision = reply
                    .get("decision")
                    .map(|d| d.to_string())
                    .ok_or("probe response carries no decision")?;
                Ok((ms, decision))
            },
        ));
    }
    let mut decisions = Vec::new();
    let mut max_ms = 0.0f64;
    for h in handles {
        let (ms, decision) = h
            .join()
            .expect("probe thread panicked")
            .map_err(|e| bad(format!("coalesce probe: {e}")))?;
        max_ms = max_ms.max(ms);
        decisions.push(decision);
    }
    let identical = decisions.windows(2).all(|w| w[0] == w[1]);

    let after = stats_client.stats()?;
    let tune_calls =
        u64_field(&after, "server", "tune_calls") - u64_field(&before, "server", "tune_calls");
    let coalesced =
        u64_field(&after, "server", "coalesced") - u64_field(&before, "server", "coalesced");
    println!(
        "loadgen: probe connections={} tune_calls={} coalesced={} identical={}",
        cfg.connections, tune_calls, coalesced, identical
    );
    Ok(Json::obj([
        ("connections", Json::num(cfg.connections as f64)),
        ("tune_calls", Json::num(tune_calls)),
        ("coalesced", Json::num(coalesced)),
        ("identical_responses", Json::Bool(identical)),
        ("max_ms", Json::num(max_ms)),
    ]))
}

/// The per-connection arrival schedules: `(offset, catalog index)`.
fn build_schedules(cfg: &LoadgenConfig, rng: &mut Rng64) -> Vec<Vec<(Duration, usize)>> {
    let cdf = zipf_cdf(cfg.fingerprints, cfg.zipf_s);
    let horizon = cfg.duration.as_secs_f64();
    let mut arrivals: Vec<(f64, usize)> = Vec::new();
    match cfg.arrivals {
        Arrivals::Poisson => {
            let mut t = 0.0;
            loop {
                // Exponential gap; guard the log against u == 0.
                t += -(1.0 - rng.unit_f64()).ln() / cfg.rps;
                if t >= horizon {
                    break;
                }
                arrivals.push((t, zipf_sample(&cdf, rng)));
            }
        }
        Arrivals::Burst => {
            let per_burst = cfg.rps.round().max(1.0) as usize;
            let mut second = 0.0;
            while second < horizon {
                for i in 0..per_burst {
                    // A microsecond stagger keeps the schedule strictly
                    // ordered without spreading the burst.
                    arrivals.push((second + i as f64 * 1e-6, zipf_sample(&cdf, rng)));
                }
                second += 1.0;
            }
        }
    }
    let mut schedules = vec![Vec::new(); cfg.connections];
    for (i, (t, idx)) in arrivals.into_iter().enumerate() {
        schedules[i % cfg.connections].push((Duration::from_secs_f64(t), idx));
    }
    schedules
}

/// Phase 2: the open-loop main run. Returns (samples, errors, polls).
fn main_run(
    cfg: &LoadgenConfig,
    bodies: &[Json],
    schedules: Vec<Vec<(Duration, usize)>>,
) -> Result<(Vec<Sample>, u64, Vec<StatsPoll>)> {
    let bodies: Arc<Vec<Json>> = Arc::new(bodies.to_vec());
    let samples: Arc<Mutex<Vec<Sample>>> = Arc::new(Mutex::new(Vec::new()));
    let errors = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let start = Instant::now();

    // Stats sampler: cumulative counters every ~1/8 of the run (>=100ms).
    let poll_every = Duration::from_secs_f64((cfg.duration.as_secs_f64() / 8.0).max(0.1));
    let sampler = {
        let addr = cfg.addr.clone();
        let timeout = cfg.timeout;
        let done = Arc::clone(&done);
        thread::spawn(move || -> Vec<StatsPoll> {
            let mut polls = Vec::new();
            let Ok(mut client) = Client::connect(&addr, timeout) else {
                return polls;
            };
            while !done.load(Ordering::Acquire) {
                thread::sleep(poll_every);
                let Ok(stats) = client.stats() else { break };
                polls.push(StatsPoll {
                    at_s: start.elapsed().as_secs_f64(),
                    cache_hits: u64_field(&stats, "cache", "hits"),
                    cache_misses: u64_field(&stats, "cache", "misses"),
                    tune_calls: u64_field(&stats, "server", "tune_calls"),
                    coalesced: u64_field(&stats, "server", "coalesced"),
                });
            }
            polls
        })
    };

    let mut pairs = Vec::new();
    for schedule in schedules {
        if schedule.is_empty() {
            continue;
        }
        let sender_client = Client::connect(&cfg.addr, cfg.timeout)?;
        let receiver_client = sender_client.try_clone()?;
        let expected = schedule.len();
        // Send timestamps cross from sender to receiver in FIFO order —
        // the server answers pipelined frames strictly in order.
        let sent: Arc<Mutex<VecDeque<Instant>>> = Arc::new(Mutex::new(VecDeque::new()));

        let send_half = {
            let bodies = Arc::clone(&bodies);
            let sent = Arc::clone(&sent);
            let errors = Arc::clone(&errors);
            let mut client = sender_client;
            thread::spawn(move || {
                for (at, idx) in schedule {
                    let target = start + at;
                    let now = Instant::now();
                    if target > now {
                        thread::sleep(target - now);
                    }
                    sent.lock()
                        .expect("send queue lock")
                        .push_back(Instant::now());
                    if client.send(&bodies[idx]).is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                        sent.lock().expect("send queue lock").pop_back();
                        return;
                    }
                }
            })
        };
        let recv_half = {
            let sent = Arc::clone(&sent);
            let samples = Arc::clone(&samples);
            let errors = Arc::clone(&errors);
            let mut client = receiver_client;
            thread::spawn(move || {
                for _ in 0..expected {
                    let reply = match client.recv() {
                        Ok(r) => r,
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    };
                    // Block until the matching send timestamp is queued
                    // (the server cannot answer before we send, so this
                    // spin resolves immediately in practice).
                    let sent_at = loop {
                        if let Some(t) = sent.lock().expect("send queue lock").pop_front() {
                            break t;
                        }
                        thread::yield_now();
                    };
                    let ok = reply.get("ok").and_then(Json::as_bool) == Some(true);
                    if !ok {
                        errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    samples.lock().expect("samples lock").push(Sample {
                        at_s: start.elapsed().as_secs_f64(),
                        latency_ms: sent_at.elapsed().as_secs_f64() * 1e3,
                        cached: reply.get("cached").and_then(Json::as_bool).unwrap_or(false),
                    });
                }
            })
        };
        pairs.push((send_half, recv_half));
    }
    for (s, r) in pairs {
        s.join().expect("sender thread panicked");
        r.join().expect("receiver thread panicked");
    }
    done.store(true, Ordering::Release);
    let polls = sampler.join().expect("stats sampler panicked");

    let samples = Arc::try_unwrap(samples)
        .expect("all sample holders joined")
        .into_inner()
        .expect("samples lock");
    Ok((samples, errors.load(Ordering::Relaxed), polls))
}

/// Overall latency summary from raw samples.
fn latency_json(samples: &[Sample], errors: u64) -> Json {
    let mut sorted: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mean = if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<f64>() / sorted.len() as f64
    };
    let hits = samples.iter().filter(|s| s.cached).count();
    let hit_rate = if samples.is_empty() {
        0.0
    } else {
        hits as f64 / samples.len() as f64
    };
    Json::obj([
        ("count", Json::num(samples.len() as f64)),
        ("errors", Json::num(errors as f64)),
        ("mean_ms", Json::num(mean)),
        ("p50_ms", Json::num(percentile(&sorted, 0.50))),
        ("p90_ms", Json::num(percentile(&sorted, 0.90))),
        ("p99_ms", Json::num(percentile(&sorted, 0.99))),
        ("p999_ms", Json::num(percentile(&sorted, 0.999))),
        ("max_ms", Json::num(sorted.last().copied().unwrap_or(0.0))),
        ("cache_hit_rate", Json::num(hit_rate)),
    ])
}

/// Per-second latency/hit-rate trajectory, bucketed by completion time.
fn trajectory_json(samples: &[Sample], horizon_s: f64) -> Json {
    let buckets = (horizon_s.ceil() as usize).max(1);
    let mut by_bucket: Vec<Vec<&Sample>> = vec![Vec::new(); buckets];
    for s in samples {
        let i = (s.at_s.floor() as usize).min(buckets - 1);
        by_bucket[i].push(s);
    }
    let mut out = Vec::new();
    for (i, bucket) in by_bucket.iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let mut sorted: Vec<f64> = bucket.iter().map(|s| s.latency_ms).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let hits = bucket.iter().filter(|s| s.cached).count();
        out.push(Json::obj([
            ("t_s", Json::num((i + 1) as f64)),
            ("count", Json::num(bucket.len() as f64)),
            ("p50_ms", Json::num(percentile(&sorted, 0.50))),
            ("p99_ms", Json::num(percentile(&sorted, 0.99))),
            (
                "cache_hit_rate",
                Json::num(hits as f64 / bucket.len() as f64),
            ),
        ]));
    }
    Json::Arr(out)
}

fn polls_json(polls: &[StatsPoll]) -> Json {
    Json::Arr(
        polls
            .iter()
            .map(|p| {
                let looked = p.cache_hits + p.cache_misses;
                let rate = if looked > 0.0 {
                    p.cache_hits / looked
                } else {
                    0.0
                };
                Json::obj([
                    ("t_s", Json::num(p.at_s)),
                    ("cache_hit_rate", Json::num(rate)),
                    ("tune_calls", Json::num(p.tune_calls)),
                    ("coalesced", Json::num(p.coalesced)),
                ])
            })
            .collect(),
    )
}

/// Entry point for `waco-cli loadgen`.
pub fn loadgen(args: &[String]) -> Result<()> {
    // `--smoke` is a bare flag; strip it before the `--key value` parser.
    let mut args: Vec<String> = args.to_vec();
    let smoke = if let Some(i) = args.iter().position(|a| a == "--smoke") {
        args.remove(i);
        true
    } else {
        false
    };
    let flags = Flags::parse(&args, FLAGS)?;
    let cfg = LoadgenConfig::from_flags(&flags, smoke)?;

    // Catalog: `fingerprints` structurally distinct matrices (distinct
    // seeds → distinct nnz patterns → distinct fingerprints), plus one
    // held-out probe matrix that phase 1 tunes fresh.
    let mut bodies = Vec::with_capacity(cfg.fingerprints);
    for i in 0..cfg.fingerprints {
        let mut rng = Rng64::seed_from(cfg.seed.wrapping_add(1 + i as u64));
        let m = gen::uniform_random(cfg.size, cfg.size, cfg.density, &mut rng);
        bodies.push(tune_body(&m, cfg.kernel, cfg.dense)?);
    }
    let probe_body = {
        let mut rng = Rng64::seed_from(cfg.seed.wrapping_add(0x9E37_79B9));
        let m = gen::uniform_random(cfg.size, cfg.size, cfg.density, &mut rng);
        tune_body(&m, cfg.kernel, cfg.dense)?
    };

    let probe = coalesce_probe(&cfg, &probe_body)?;

    let mut rng = Rng64::seed_from(cfg.seed ^ 0xC0A1_E5CE);
    let schedules = build_schedules(&cfg, &mut rng);
    let offered: usize = schedules.iter().map(Vec::len).sum();
    println!(
        "loadgen: main run {} requests over {:.1}s ({} connections, {:?} arrivals, {} fingerprints)",
        offered,
        cfg.duration.as_secs_f64(),
        cfg.connections,
        cfg.arrivals,
        cfg.fingerprints
    );
    let (samples, errors, polls) = main_run(&cfg, &bodies, schedules)?;

    let latency = latency_json(&samples, errors);
    let p50 = latency.get("p50_ms").and_then(Json::as_f64).unwrap_or(0.0);
    let p99 = latency.get("p99_ms").and_then(Json::as_f64).unwrap_or(0.0);
    let hit_rate = latency
        .get("cache_hit_rate")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    println!(
        "loadgen: {} completed, {} errors, p50={:.2}ms p99={:.2}ms, cache hit rate {:.2}",
        samples.len(),
        errors,
        p50,
        p99,
        hit_rate
    );

    // Final server-side stats snapshot rides along for context.
    let final_stats = Client::connect(&cfg.addr, cfg.timeout)?.stats()?;

    // A router's stats frame carries a `router` section: surface its
    // counters as a first-class section so CI can gate on failover
    // behaviour from this one file. A single server counts as one shard.
    let field = |key: &str| u64_field(&final_stats, "router", key);
    let router = final_stats.get("router").map(|_| {
        println!(
            "loadgen: router shards={} forwarded={} failover={} shard_down={}",
            field("shards"),
            field("forwarded"),
            field("failover"),
            field("shard_down")
        );
        Json::obj([
            ("shards", Json::num(field("shards"))),
            ("requests", Json::num(field("requests"))),
            ("forwarded", Json::num(field("forwarded"))),
            ("failover", Json::num(field("failover"))),
            ("shard_down", Json::num(field("shard_down"))),
        ])
    });
    let shards = router.as_ref().map_or(1.0, |_| field("shards"));

    let report = Json::obj([
        (
            "config",
            Json::obj([
                ("addr", Json::str(cfg.addr.clone())),
                ("connections", Json::num(cfg.connections as f64)),
                ("duration_s", Json::num(cfg.duration.as_secs_f64())),
                ("rps", Json::num(cfg.rps)),
                ("fingerprints", Json::num(cfg.fingerprints as f64)),
                ("zipf_s", Json::num(cfg.zipf_s)),
                (
                    "arrivals",
                    Json::str(match cfg.arrivals {
                        Arrivals::Poisson => "poisson",
                        Arrivals::Burst => "burst",
                    }),
                ),
                ("kernel", Json::str(cfg.kernel.wire_name())),
                ("dense_extent", Json::num(cfg.dense as f64)),
                ("size", Json::num(cfg.size as f64)),
                ("seed", Json::num(cfg.seed as f64)),
                ("shards", Json::num(shards)),
                ("smoke", Json::Bool(smoke)),
            ]),
        ),
        ("coalesce_probe", probe),
        ("latency", latency),
        (
            "trajectory",
            trajectory_json(&samples, cfg.duration.as_secs_f64()),
        ),
        ("stats_trajectory", polls_json(&polls)),
        ("server", final_stats),
    ]);
    let report = match (report, router) {
        (Json::Obj(mut map), Some(r)) => {
            map.insert("router".to_string(), r);
            Json::Obj(map)
        }
        (report, _) => report,
    };

    report
        .write_file(&cfg.out)
        .map_err(|e| bad(format!("writing {}: {e}", cfg.out)))?;
    println!("loadgen: wrote {}", cfg.out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_normalized_and_skewed() {
        let cdf = zipf_cdf(8, 1.1);
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-12);
        // Rank 0 carries the largest probability mass.
        assert!(cdf[0] > 0.3);
        let mut rng = Rng64::seed_from(7);
        let mut counts = [0usize; 8];
        for _ in 0..4000 {
            counts[zipf_sample(&cdf, &mut rng)] += 1;
        }
        assert!(counts[0] > counts[7], "head rank must dominate the tail");
        assert!(counts.iter().all(|&c| c > 0), "tail still gets sampled");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_survives_fp_rounding_at_tiny_n() {
        // 0.9 × 10 computes as 9.000000000000002; a naive ceil picks rank
        // 10 and reports the max as the p90.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 9.0);
        // 0.95 × 20 lands at 19.000000000000004 the same way.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 19.0);
        // Exact-integer ranks and genuine fractional ranks still behave.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn p999_tracks_the_tail_at_small_and_large_n() {
        // Below 1000 samples p999 is the max (rank ceil(0.999·n) = n)...
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.999), 50.0);
        // ...and at exactly 1000 it is the 999th value, not the max.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.999), 999.0);
    }

    /// The topology is read from the server's own stats, so a shard count
    /// is not a flag: `--shards` is an unknown flag like any other.
    #[test]
    fn shards_is_not_a_flag() {
        let args = ["--addr", "127.0.0.1:1", "--shards", "2"].map(String::from);
        assert!(Flags::parse(&args, FLAGS).is_err());
    }

    #[test]
    fn burst_schedule_lands_on_second_boundaries() {
        let mut cfg = LoadgenConfig::from_flags(&flags_with_addr(), false).unwrap();
        cfg.arrivals = Arrivals::Burst;
        cfg.rps = 3.0;
        cfg.duration = Duration::from_secs(2);
        cfg.connections = 2;
        let mut rng = Rng64::seed_from(1);
        let schedules = build_schedules(&cfg, &mut rng);
        let total: usize = schedules.iter().map(Vec::len).sum();
        assert_eq!(total, 6, "2 seconds x 3 rps");
        let all: Vec<f64> = schedules
            .iter()
            .flatten()
            .map(|(t, _)| t.as_secs_f64())
            .collect();
        assert!(
            all.iter().all(|&t| t.fract() < 1e-3),
            "bursts sit on the boundary"
        );
    }

    #[test]
    fn poisson_schedule_respects_horizon_and_rate() {
        let mut cfg = LoadgenConfig::from_flags(&flags_with_addr(), false).unwrap();
        cfg.rps = 200.0;
        cfg.duration = Duration::from_secs(4);
        let mut rng = Rng64::seed_from(2);
        let schedules = build_schedules(&cfg, &mut rng);
        let total: usize = schedules.iter().map(Vec::len).sum();
        // Poisson(800) stays within ~5 sigma of its mean.
        assert!((650..=950).contains(&total), "got {total} arrivals");
        for sched in &schedules {
            assert!(sched.iter().all(|(t, _)| *t < cfg.duration));
            assert!(
                sched.windows(2).all(|w| w[0].0 <= w[1].0),
                "sorted per conn"
            );
        }
    }

    fn flags_with_addr() -> Flags {
        Flags::parse(&["--addr".to_string(), "127.0.0.1:1".to_string()], FLAGS).unwrap()
    }
}
