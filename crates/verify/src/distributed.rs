//! Crash-failover drills for the distributed serve tier. The claim under
//! test is "degraded, never wrong": a router answer must be bit-identical
//! to what a single healthy shard would have said, no matter which shard
//! dies, when it dies, or how a journal sync stream is mangled.
//!
//! Drills (each on ephemeral loopback ports and scratch cache dirs):
//!
//! * **route-oracle** — a router over three live shards answers `tune`
//!   bit-for-bit like the deterministic single-node oracle, for matrices
//!   pre-selected to land on every shard; repeats are served cached.
//! * **route-pipelined-order** — a pipelined slow/fast/slow burst over two
//!   scripted shards comes back in request order, though the fast reply
//!   reaches the router first.
//! * **failover-mid-tune** / **failover-refused** — the owning shard dies
//!   mid-frame (accepts the request, then closes) or refuses the dial; the
//!   router re-routes to the ring successor and the client still sees the
//!   oracle answer, never an error frame.
//! * **sync-warm-rejoin** — a joiner warmed via [`warm_from_peer`] holds a
//!   journal byte-identical to the source's and to a local replay of the
//!   same decisions, and serves every decision without one tuner call.
//! * **sync-kill-mid-stream** — the sync peer drops the connection after
//!   the first batch; the stream resumes from the confirmed offset and
//!   still lands every record.
//! * **sync-corrupt-stream** — a checksum mismatch, an undecodable or
//!   misshapen record, a stalled cursor, or a peer that dies mid-stream and
//!   stays dead must surface a typed error and leave the joiner
//!   byte-for-byte cold (the cold-fallback contract), never panic.
//! * **restart-rejoin** — a shard restarted on its own cache dir serves
//!   its pre-crash decisions from the journal with zero tuner calls.
//!
//! The oracle is [`DeterministicTuner`]: a pure function of (matrix,
//! kernel, dense extent), so every shard — and the drill itself — can
//! compute the one correct answer independently. The fixtures here (the
//! oracle, `start_shard`, `scripted_peer`) are the fault suite's too.
//! Every wait is bounded by a socket or channel timeout; nothing sleeps.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use waco_core::WacoError;
use waco_schedule::{named, Kernel, Space};
use waco_serve::cache::encode_payload;
use waco_serve::fingerprint::fnv1a64;
use waco_serve::protocol::{
    encode_frame, read_frame, request_json, sync_response, write_frame, SyncRecord,
};
use waco_serve::sync::warm_from_peer;
use waco_serve::tuner::TunedOutcome;
use waco_serve::{
    Client, Decision, Fingerprint, HashRing, Json, Router, RouterConfig, ServeConfig, Server,
    Tuner, TuningCache,
};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::io::write_matrix_market;
use waco_tensor::CooMatrix;

use crate::sweep::Tally;
use crate::{mix_seed, scratch_dir, SuiteReport, VerifyConfig};

pub(crate) const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

const SUITE: &str = "distributed";

/// The single-node oracle: what any healthy shard must answer for this
/// input. Pure in (matrix, kernel, dense extent); the timing fields are
/// fingerprint-derived so two different matrices never share a decision.
pub(crate) fn oracle_decision(m: &CooMatrix, kernel: Kernel, dense_extent: usize) -> Decision {
    let space = Space::new(kernel, vec![m.nrows(), m.ncols()], dense_extent);
    let fp = Fingerprint::of_matrix(m);
    Decision {
        fingerprint: fp,
        kernel,
        dense_extent,
        schedule: named::default_csr(&space),
        kernel_seconds: ((fp.lo % 997) + 1) as f64 * 1e-9,
        tuning_seconds: ((fp.hi % 997) + 1) as f64 * 1e-9,
    }
}

/// A tuner that computes [`oracle_decision`] and counts its invocations,
/// so warm-serving drills can prove the cache answered (zero calls).
struct DeterministicTuner {
    calls: Arc<AtomicUsize>,
}

impl Tuner for DeterministicTuner {
    fn tune(
        &self,
        m: &CooMatrix,
        kernel: Kernel,
        dense_extent: usize,
    ) -> Result<TunedOutcome, WacoError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let d = oracle_decision(m, kernel, dense_extent);
        Ok(TunedOutcome {
            schedule: d.schedule,
            kernel_seconds: d.kernel_seconds,
            tuning_seconds: d.tuning_seconds,
        })
    }
}

/// A server on an ephemeral port with its cache in `dir`, answering from
/// [`DeterministicTuner`]; the count is its tuner calls.
pub(crate) fn start_shard(dir: &Path) -> (Arc<AtomicUsize>, Server) {
    let calls = Arc::new(AtomicUsize::new(0));
    let tuner = Arc::new(DeterministicTuner {
        calls: Arc::clone(&calls),
    });
    let config = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .cache_dir(dir)
        .workers(2)
        .build()
        .expect("shard config");
    let server = Server::start(config, tuner).expect("starting shard");
    (calls, server)
}

/// A scripted peer on an ephemeral loopback port: one thread hands each of
/// the next `conns` accepted connections, with its index, to `script`. The
/// listener drops after the last one, so later dials are refused — a dead
/// process, as its clients see it.
pub(crate) fn scripted_peer(
    conns: usize,
    mut script: impl FnMut(usize, TcpStream) + Send + 'static,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted peer");
    let addr = listener.local_addr().expect("scripted peer addr");
    let peer = std::thread::spawn(move || {
        for i in 0..conns {
            let (sock, _) = listener.accept().expect("scripted peer accept");
            script(i, sock);
        }
    });
    (addr, peer)
}

/// Deterministically finds a matrix whose fingerprint the ring routes to
/// `target`. Seeds are walked in order, so the pick replays with the run.
fn matrix_routed_to(ring: &HashRing, target: usize, seed: u64) -> CooMatrix {
    for i in 0..10_000u64 {
        let mut rng = Rng64::seed_from(seed.wrapping_add(i));
        let m = gen::banded(40 + (i % 13) as usize, 3 + (i % 5) as usize, 0.8, &mut rng);
        if m.nnz() > 0 && ring.route(Fingerprint::of_matrix(&m)) == target {
            return m;
        }
    }
    unreachable!("10k seeds never landed on shard {target}")
}

fn router_over(shards: &[SocketAddr]) -> Router {
    let mut builder = RouterConfig::builder().addr("127.0.0.1:0");
    for s in shards {
        builder = builder.shard(s.to_string());
    }
    Router::start(builder.build().expect("router config")).expect("starting router")
}

fn router_stat(stats: &Json, field: &str) -> u64 {
    stats
        .get("router")
        .and_then(|r| r.get(field))
        .and_then(Json::as_u64)
        .unwrap_or(u64::MAX)
}

fn stop_router(router: Router, client: Client) {
    drop(client);
    router.begin_shutdown();
    router.wait();
}

fn stop(server: Server) {
    server.begin_shutdown();
    server.wait().expect("shard drain");
}

/// Drill 1: routed answers are bit-identical to the oracle, on every shard.
fn route_oracle(cfg: &VerifyConfig, ctx: &mut Tally) {
    let dirs: Vec<_> = (0..3)
        .map(|i| scratch_dir(SUITE, cfg, &format!("route-{i}")))
        .collect();
    let shards: Vec<_> = dirs.iter().map(|d| start_shard(d).1).collect();
    let addrs: Vec<_> = shards.iter().map(Server::local_addr).collect();
    let router = router_over(&addrs);
    let ring = HashRing::new(3);
    let seed = mix_seed(cfg.seed, "distributed-route-oracle");

    let mut client =
        Client::connect(&router.local_addr().to_string(), CLIENT_TIMEOUT).expect("router client");
    // One matrix per shard: the drill exercises every ring segment.
    for target in 0..3 {
        let m = matrix_routed_to(&ring, target, seed.wrapping_add(target as u64 * 101));
        let want = oracle_decision(&m, Kernel::SpMV, 0);
        match client.tune(&m, "spmv", 0) {
            Err(e) => ctx.check("route-oracle", false, || {
                format!("tune via router for shard {target} failed: {e}")
            }),
            Ok(reply) => {
                ctx.check(
                    "route-oracle",
                    reply.decision.as_ref() == Some(&want) && !reply.cached,
                    || format!("shard {target}: routed tune diverged from the single-node oracle"),
                );
                // The repeat must come from the shard's cache, unchanged.
                match client.tune(&m, "spmv", 0) {
                    Err(e) => ctx.check("route-oracle-cached", false, || {
                        format!("cached tune via router failed: {e}")
                    }),
                    Ok(again) => ctx.check(
                        "route-oracle-cached",
                        again.decision.as_ref() == Some(&want) && again.cached,
                        || format!("shard {target}: repeat tune was not the cached oracle answer"),
                    ),
                }
            }
        }
    }
    let stats = client.stats().expect("router stats");
    ctx.check(
        "route-oracle-stats",
        router_stat(&stats, "forwarded") >= 6,
        || format!("router forwarded fewer frames than requested: {stats}"),
    );

    stop_router(router, client);
    shards.into_iter().for_each(stop);
    for d in dirs {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// Drill 2: pipelined replies come back in request order. Two scripted
/// shards tag their replies; the client pipelines requests owned by shards
/// 0, 1, 0, and shard 0 answers only once shard 1 has written its reply,
/// so the second reply reaches the router first and must wait its turn.
fn route_pipelined_order(cfg: &VerifyConfig, ctx: &mut Tally) {
    let tag = |id: f64| encode_frame(&Json::obj([("shard", Json::num(id))]));
    let (slow_reply, fast_reply) = (tag(0.0), tag(1.0));
    let (wrote, fast_wrote) = mpsc::channel();
    let mut gate = Some(fast_wrote);
    let slow = scripted_peer(1, move |_, mut sock| {
        while let Ok(Some(_)) = read_frame(&mut sock) {
            if let Some(gate) = gate.take() {
                let _ = gate.recv_timeout(CLIENT_TIMEOUT);
            }
            let _ = sock.write_all(&slow_reply);
        }
    });
    let fast = scripted_peer(1, move |_, mut sock| {
        while let Ok(Some(_)) = read_frame(&mut sock) {
            let _ = sock.write_all(&fast_reply);
            let _ = wrote.send(());
        }
    });
    let router = router_over(&[slow.0, fast.0]);
    let ring = HashRing::new(2);
    let seed = mix_seed(cfg.seed, "distributed-pipelined-order");
    let request = |target: usize| {
        let m = matrix_routed_to(&ring, target, seed.wrapping_add(target as u64 * 101));
        let mut text = Vec::new();
        write_matrix_market(&mut text, &m).expect("matrix text");
        request_json("tune", "spmv", 0, &String::from_utf8(text).expect("utf-8"))
    };
    let (to_slow, to_fast) = (request(0), request(1));

    let mut client =
        Client::connect(&router.local_addr().to_string(), CLIENT_TIMEOUT).expect("router client");
    let order: Result<Vec<_>, WacoError> = [&to_slow, &to_fast, &to_slow]
        .into_iter()
        .try_for_each(|r| client.send(r))
        .and_then(|()| (0..3).map(|_| client.recv()).collect());
    let tags: Vec<_> = order
        .iter()
        .flatten()
        .map(|r| r.get("shard").and_then(Json::as_u64))
        .collect();
    ctx.check(
        "route-pipelined-order",
        tags == [Some(0), Some(1), Some(0)],
        || format!("pipelined replies came back as {order:?}, wanted shards 0, 1, 0"),
    );

    stop_router(router, client);
    for (_, peer) in [slow, fast] {
        peer.join().expect("scripted shard thread");
    }
}

/// Drill 3: the owning shard dies mid-frame (`failover-mid-tune`: it reads
/// the request, then closes — the router's `upstream_failed` path) or
/// before it (`failover-refused`: nothing listens, so the dial fails in
/// `ensure_connected`). The ring successor must produce the oracle answer;
/// the client never sees an error frame.
fn failover(cfg: &VerifyConfig, ctx: &mut Tally) {
    for (name, mid_frame) in [("failover-mid-tune", true), ("failover-refused", false)] {
        let dir = scratch_dir(SUITE, cfg, name);
        let (dead, saboteur) = if mid_frame {
            let (addr, peer) = scripted_peer(1, |_, mut sock| drop(read_frame(&mut sock)));
            (addr, Some(peer))
        } else {
            let free = TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr());
            (free.expect("a free port"), None)
        };
        let (live_calls, live) = start_shard(&dir);
        let router = router_over(&[dead, live.local_addr()]);
        let m = matrix_routed_to(
            &HashRing::new(2),
            0,
            mix_seed(cfg.seed, "distributed-failover"),
        );
        let want = oracle_decision(&m, Kernel::SpMV, 0);

        let mut client = Client::connect(&router.local_addr().to_string(), CLIENT_TIMEOUT)
            .expect("router client");
        match client.tune(&m, "spmv", 0) {
            Err(e) => ctx.check(name, false, || {
                format!("tune failed instead of failing over: {e}")
            }),
            Ok(reply) => ctx.check(name, reply.decision.as_ref() == Some(&want), || {
                "failover answer diverged from the single-node oracle".to_string()
            }),
        }
        let tuned = live_calls.load(Ordering::SeqCst);
        ctx.check(&format!("{name}-tuned"), tuned == 1, || {
            format!("the surviving shard tuned {tuned} times, wanted exactly 1")
        });
        let stats = client.stats().expect("router stats");
        ctx.check(
            &format!("{name}-stats"),
            router_stat(&stats, "failover") >= 1 && router_stat(&stats, "shard_down") >= 1,
            || format!("router stats did not record the failover: {stats}"),
        );

        if let Some(peer) = saboteur {
            peer.join().expect("saboteur thread");
        }
        stop_router(router, client);
        stop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Drill 4: a peer-warmed joiner is byte-identical to the source and to a
/// local replay, and serves everything without tuning.
fn sync_warm_rejoin(cfg: &VerifyConfig, ctx: &mut Tally) {
    let src_dir = scratch_dir(SUITE, cfg, "sync-src");
    let join_dir = scratch_dir(SUITE, cfg, "sync-join");
    let seed = mix_seed(cfg.seed, "distributed-sync-warm");

    let (_, source) = start_shard(&src_dir);
    let matrices: Vec<CooMatrix> = (0..4)
        .map(|i| {
            let mut rng = Rng64::seed_from(seed.wrapping_add(i));
            gen::banded(32 + (i as usize) * 7, 4, 0.9, &mut rng)
        })
        .collect();
    let decisions: Vec<_> = matrices
        .iter()
        .map(|m| oracle_decision(m, Kernel::SpMV, 0))
        .collect();
    {
        let mut c =
            Client::connect(&source.local_addr().to_string(), CLIENT_TIMEOUT).expect("src client");
        for m in &matrices {
            c.tune(m, "spmv", 0).expect("tuning on source shard");
        }
    }

    let joiner_journal = join_dir.join("tuning.journal");
    let joiner = TuningCache::open(&joiner_journal, 64).expect("joiner cache");
    match warm_from_peer(&source.local_addr().to_string(), CLIENT_TIMEOUT, &joiner) {
        Err(e) => ctx.check("sync-warm-rejoin", false, || format!("warm-up failed: {e}")),
        Ok(report) => {
            ctx.check("sync-warm-rejoin", report.records == matrices.len(), || {
                format!(
                    "warmed {} records, wanted {}",
                    report.records,
                    matrices.len()
                )
            });
            ctx.check("sync-warm-no-resumes", report.resumes == 0, || {
                format!("a clean stream resumed {} times", report.resumes)
            });
        }
    }
    joiner.sync().expect("joiner sync");
    drop(joiner);
    stop(source);

    let src_bytes = std::fs::read(src_dir.join("tuning.journal")).expect("source journal");
    let join_bytes = std::fs::read(&joiner_journal).expect("joiner journal");
    ctx.check("sync-warm-journal-bytes", src_bytes == join_bytes, || {
        format!(
            "journals differ after warm-up ({} vs {} bytes)",
            src_bytes.len(),
            join_bytes.len()
        )
    });
    // A local replay: the same decisions inserted in the same order.
    let replay = src_dir.join("replay.journal");
    let local = TuningCache::open(&replay, 64).expect("replay cache");
    for d in &decisions {
        local.insert(d.clone()).expect("replaying a decision");
    }
    local.sync().expect("replay sync");
    let replayed = std::fs::read(&replay).expect("replayed journal");
    ctx.check("sync-warm-local-replay", replayed == join_bytes, || {
        "the warmed journal differs from a local replay of the same decisions".to_string()
    });

    // The warmed shard serves every decision with zero tuner calls.
    let (calls, warmed) = start_shard(&join_dir);
    let mut c =
        Client::connect(&warmed.local_addr().to_string(), CLIENT_TIMEOUT).expect("warmed client");
    for (m, want) in matrices.iter().zip(&decisions) {
        match c.tune(m, "spmv", 0) {
            Err(e) => ctx.check("sync-warm-serves", false, || {
                format!("warmed shard failed a tune: {e}")
            }),
            Ok(reply) => ctx.check(
                "sync-warm-serves",
                reply.decision.as_ref() == Some(want) && reply.cached,
                || "warmed shard answer was not the cached oracle decision".to_string(),
            ),
        }
    }
    let tuned = calls.load(Ordering::SeqCst);
    ctx.check("sync-warm-no-tunes", tuned == 0, || {
        format!("warmed shard tuned {tuned} times; the journal should have answered")
    });
    drop(c);
    stop(warmed);
    let _ = std::fs::remove_dir_all(&src_dir);
    let _ = std::fs::remove_dir_all(&join_dir);
}

fn sync_record_for(d: &Decision) -> SyncRecord {
    let payload = encode_payload(d);
    SyncRecord {
        crc: fnv1a64(payload.as_bytes()),
        payload,
    }
}

/// A scripted sync peer's turn on one connection: read the request, answer
/// with `body`, then read once more — the joiner's next request or its
/// hang-up — and close.
fn answer(mut sock: TcpStream, body: &Json) {
    let _ = read_frame(&mut sock);
    write_frame(&mut sock, body).expect("scripted sync reply");
    let _ = read_frame(&mut sock);
}

/// `n` distinct oracle decisions for small banded matrices.
fn decisions(seed: u64, n: u64) -> Vec<Decision> {
    (0..n)
        .map(|i| {
            let mut rng = Rng64::seed_from(seed.wrapping_add(i));
            let m = gen::banded(24 + (i as usize) * 5, 3, 0.9, &mut rng);
            oracle_decision(&m, Kernel::SpMV, 0)
        })
        .collect()
}

/// Drill 5: the peer dies after the first batch; the stream resumes from
/// the confirmed offset and every record still lands.
fn sync_kill_mid_stream(cfg: &VerifyConfig, ctx: &mut Tally) {
    let dir = scratch_dir(SUITE, cfg, "sync-kill");
    let decisions = decisions(mix_seed(cfg.seed, "distributed-sync-kill"), 3);
    let records: Vec<SyncRecord> = decisions.iter().map(sync_record_for).collect();
    let n = records.len();
    // Connection 1 answers the first batch and dies; connection 2 serves
    // the resumed stream to completion.
    let batches = [
        sync_response(&records[..1], 1, false, n),
        sync_response(&records[1..], n, true, n),
    ];
    let (addr, peer) = scripted_peer(2, move |i, sock| answer(sock, &batches[i]));

    let cache = TuningCache::open(dir.join("tuning.journal"), 64).expect("joiner cache");
    match warm_from_peer(&addr.to_string(), Duration::from_secs(10), &cache) {
        Err(e) => ctx.check("sync-kill-mid-stream", false, || {
            format!("resumable warm-up failed: {e}")
        }),
        Ok(report) => ctx.check(
            "sync-kill-mid-stream",
            report.records == n && report.resumes >= 1,
            || {
                format!(
                    "warmed {} records with {} resumes; wanted {n} records and >=1 resume",
                    report.records, report.resumes
                )
            },
        ),
    }
    for d in &decisions {
        let got = cache.lookup(d.fingerprint, d.kernel, d.dense_extent);
        ctx.check("sync-kill-records", got.as_ref() == Some(d), || {
            "a record streamed across the reconnect was lost or mutated".to_string()
        });
    }
    peer.join().expect("scripted peer thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drill 6: mangled sync streams. Every row must surface its typed error
/// and leave the joiner byte-for-byte cold — the cold-fallback contract.
fn sync_corrupt_stream(cfg: &VerifyConfig, ctx: &mut Tally) {
    let good = decisions(mix_seed(cfg.seed, "distributed-sync-corrupt"), 2);

    // (check, the peer's one reply built from two good decisions, the
    // error kind the joiner must surface).
    type Mangle = fn(&[Decision]) -> Json;
    let cases: &[(&str, Mangle, &str)] = &[
        (
            "sync-bad-checksum",
            |d| {
                // Payload byte flipped, checksum kept: verification must
                // catch it.
                let mut rec = sync_record_for(&d[0]);
                rec.payload.replace_range(0..1, "[");
                sync_response(&[rec], 1, true, 1)
            },
            "Checkpoint",
        ),
        (
            "sync-undecodable-record",
            |_| {
                // Checksum valid but the payload is not a decision.
                let payload = "{\"not\":\"a decision\"}".to_string();
                let crc = fnv1a64(payload.as_bytes());
                sync_response(&[SyncRecord { crc, payload }], 1, true, 1)
            },
            "Checkpoint",
        ),
        (
            "sync-misshapen-record",
            |d| {
                // One record whose schedule misses a loop, beside a good
                // one: neither may be committed.
                let mut bad = d[1].clone();
                bad.schedule.loop_order.pop();
                sync_response(&[sync_record_for(&d[0]), sync_record_for(&bad)], 2, true, 2)
            },
            "Checkpoint",
        ),
        (
            // No records, not done: a stream that can never finish.
            "sync-stalled-cursor",
            |_| sync_response(&[], 0, false, 1),
            "Checkpoint",
        ),
        (
            // One batch of an announced two, then the peer dies and every
            // re-dial is refused.
            "sync-truncated",
            |d| sync_response(&[sync_record_for(&d[0])], 1, false, 2),
            "Io",
        ),
    ];

    for (i, &(name, mangle, want)) in cases.iter().enumerate() {
        let dir = scratch_dir(SUITE, cfg, &format!("sync-corrupt-{i}"));
        let body = mangle(&good);
        let (addr, peer) = scripted_peer(1, move |_, sock| answer(sock, &body));

        let journal = dir.join("tuning.journal");
        let cache = TuningCache::open(&journal, 64).expect("joiner cache");
        let cold_len = std::fs::metadata(&journal).expect("stat journal").len();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            warm_from_peer(&addr.to_string(), Duration::from_secs(10), &cache)
        }));
        match outcome {
            Err(_) => ctx.check(name, false, || "warm-up panicked".to_string()),
            Ok(Ok(_)) => ctx.check(name, false, || {
                "a mangled sync stream was accepted as a successful warm-up".to_string()
            }),
            Ok(Err(e)) => {
                let kind = match e {
                    WacoError::Checkpoint(_) => "Checkpoint",
                    WacoError::Io { .. } => "Io",
                    _ => "other",
                };
                ctx.check(name, kind == want, || {
                    format!("wanted a typed {want} error, got: {e}")
                })
            }
        }
        // Cold fallback: nothing may have been committed.
        let (records, total) = cache.journal_records(0).expect("journal snapshot");
        cache.sync().expect("joiner sync");
        let len_after = std::fs::metadata(&journal).expect("stat journal").len();
        ctx.check(
            &format!("{name}-cold"),
            records.is_empty() && total == 0 && len_after == cold_len,
            || format!("joiner not cold after mangled stream ({total} records committed)"),
        );
        peer.join().expect("scripted peer thread");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Drill 7: a shard restarted on its own cache dir re-joins warm.
fn restart_rejoin(cfg: &VerifyConfig, ctx: &mut Tally) {
    let dir = scratch_dir(SUITE, cfg, "restart");
    let seed = mix_seed(cfg.seed, "distributed-restart");
    let m = {
        let mut rng = Rng64::seed_from(seed);
        gen::banded(36, 4, 0.9, &mut rng)
    };
    let want = oracle_decision(&m, Kernel::SpMV, 0);

    let (_, first) = start_shard(&dir);
    {
        let mut c =
            Client::connect(&first.local_addr().to_string(), CLIENT_TIMEOUT).expect("client");
        let reply = c.tune(&m, "spmv", 0).expect("initial tune");
        ctx.check(
            "restart-rejoin-initial",
            reply.decision.as_ref() == Some(&want),
            || "initial tune diverged from the oracle".to_string(),
        );
    }
    stop(first);

    let (calls, second) = start_shard(&dir);
    let mut c = Client::connect(&second.local_addr().to_string(), CLIENT_TIMEOUT).expect("client");
    match c.tune(&m, "spmv", 0) {
        Err(e) => ctx.check("restart-rejoin", false, || {
            format!("tune after restart failed: {e}")
        }),
        Ok(reply) => ctx.check(
            "restart-rejoin",
            reply.decision.as_ref() == Some(&want) && reply.cached,
            || "restarted shard did not serve the journaled decision".to_string(),
        ),
    }
    let tuned = calls.load(Ordering::SeqCst);
    ctx.check("restart-rejoin-no-tunes", tuned == 0, || {
        format!("restarted shard tuned {tuned} times; the journal should have answered")
    });
    drop(c);
    stop(second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The distributed crash-failover drill suite.
pub fn distributed_suite(cfg: &VerifyConfig) -> SuiteReport {
    let mut ctx = Tally::new(SUITE);
    route_oracle(cfg, &mut ctx);
    route_pipelined_order(cfg, &mut ctx);
    failover(cfg, &mut ctx);
    sync_warm_rejoin(cfg, &mut ctx);
    sync_kill_mid_stream(cfg, &mut ctx);
    sync_corrupt_stream(cfg, &mut ctx);
    restart_rejoin(cfg, &mut ctx);
    ctx.finish()
}
