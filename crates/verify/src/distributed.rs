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
//! * **failover-mid-tune** — the owning shard dies mid-frame (accepts the
//!   request, then closes); the router re-routes to the ring successor and
//!   the client still sees the oracle answer, never an error frame.
//! * **sync-warm-rejoin** — a joiner warmed via [`warm_from_peer`] holds a
//!   byte-identical journal and serves every decision without one tuner
//!   call.
//! * **sync-kill-mid-stream** — the sync peer drops the connection after
//!   the first batch; the stream resumes from the confirmed offset and
//!   still lands every record.
//! * **sync-corrupt-stream** — a checksum mismatch, an undecodable record,
//!   or a stalled cursor must surface a typed error and leave the joiner
//!   byte-for-byte cold (the cold-fallback contract), never panic.
//! * **restart-rejoin** — a shard restarted on its own cache dir serves
//!   its pre-crash decisions from the journal with zero tuner calls.
//!
//! The oracle is [`DeterministicTuner`]: a pure function of (matrix,
//! kernel, dense extent), so every shard — and the drill itself — can
//! compute the one correct answer independently.

use std::io::Read as _;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use waco_core::WacoError;
use waco_schedule::{named, Kernel, Space};
use waco_serve::cache::encode_payload;
use waco_serve::fingerprint::fnv1a64;
use waco_serve::protocol::{sync_response, write_frame, SyncRecord};
use waco_serve::sync::warm_from_peer;
use waco_serve::tuner::TunedOutcome;
use waco_serve::{
    Client, Decision, Fingerprint, HashRing, Json, Router, RouterConfig, ServeConfig, Server,
    Tuner, TuningCache,
};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::CooMatrix;

use crate::sweep::Tally;
use crate::{mix_seed, scratch_dir, SuiteReport, VerifyConfig};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

const SUITE: &str = "distributed";

/// The single-node oracle: what any healthy shard must answer for this
/// input. Pure in (matrix, kernel, dense extent); the timing fields are
/// fingerprint-derived so two different matrices never share a decision.
fn oracle_decision(m: &CooMatrix, kernel: Kernel, dense_extent: usize) -> Decision {
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
/// so warm-serving drills can prove the cache answered (zero calls). The
/// fault suite's TCP checks serve from it too: the schedule it answers is
/// default CSR.
pub(crate) struct DeterministicTuner {
    calls: Arc<AtomicUsize>,
}

impl DeterministicTuner {
    pub(crate) fn new() -> (Arc<AtomicUsize>, Arc<DeterministicTuner>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let tuner = Arc::new(DeterministicTuner {
            calls: Arc::clone(&calls),
        });
        (calls, tuner)
    }
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

fn start_shard(dir: &Path) -> (Arc<AtomicUsize>, Server) {
    let (calls, tuner) = DeterministicTuner::new();
    let config = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .cache_dir(dir)
        .workers(2)
        .build()
        .expect("shard config");
    let server = Server::start(config, tuner).expect("starting shard");
    (calls, server)
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

fn router_over(shards: &[std::net::SocketAddr]) -> Router {
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

/// Drill 1: routed answers are bit-identical to the oracle, on every shard.
fn route_oracle(cfg: &VerifyConfig, ctx: &mut Tally) {
    let dirs: Vec<_> = (0..3)
        .map(|i| scratch_dir(SUITE, cfg, &format!("route-{i}")))
        .collect();
    let shards: Vec<_> = dirs.iter().map(|d| start_shard(d)).collect();
    let addrs: Vec<_> = shards.iter().map(|(_, s)| s.local_addr()).collect();
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

    drop(client);
    router.begin_shutdown();
    router.wait();
    for (_, s) in shards {
        s.begin_shutdown();
        s.wait().expect("shard drain");
    }
    for d in dirs {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// Drill 2: the owning shard accepts the request, then dies mid-frame. The
/// ring successor must produce the oracle answer; the client never sees an
/// error frame.
fn failover_mid_tune(cfg: &VerifyConfig, ctx: &mut Tally) {
    let dir = scratch_dir(SUITE, cfg, "failover");
    // Shard 0 is a saboteur: it accepts one connection, reads part of the
    // request, and closes — a kill -9 as seen from the router's socket.
    let crashy = TcpListener::bind("127.0.0.1:0").expect("bind crashy shard");
    let crashy_addr = crashy.local_addr().expect("crashy addr");
    let saboteur = std::thread::spawn(move || {
        let (mut sock, _) = crashy.accept().expect("crashy accept");
        let mut buf = [0u8; 256];
        let _ = sock.read(&mut buf);
        // Drop both socket and listener: mid-frame death, then refused
        // re-dials.
    });

    let (live_calls, live) = start_shard(&dir);
    let router = router_over(&[crashy_addr, live.local_addr()]);
    let ring = HashRing::new(2);
    let seed = mix_seed(cfg.seed, "distributed-failover");
    let m = matrix_routed_to(&ring, 0, seed);
    let want = oracle_decision(&m, Kernel::SpMV, 0);

    let mut client =
        Client::connect(&router.local_addr().to_string(), CLIENT_TIMEOUT).expect("router client");
    match client.tune(&m, "spmv", 0) {
        Err(e) => ctx.check("failover-mid-tune", false, || {
            format!("tune failed instead of failing over: {e}")
        }),
        Ok(reply) => ctx.check(
            "failover-mid-tune",
            reply.decision.as_ref() == Some(&want),
            || "failover answer diverged from the single-node oracle".to_string(),
        ),
    }
    ctx.check(
        "failover-mid-tune-tuned",
        live_calls.load(Ordering::SeqCst) == 1,
        || {
            format!(
                "the surviving shard tuned {} times, wanted exactly 1",
                live_calls.load(Ordering::SeqCst)
            )
        },
    );
    let stats = client.stats().expect("router stats");
    ctx.check(
        "failover-mid-tune-stats",
        router_stat(&stats, "failover") >= 1 && router_stat(&stats, "shard_down") >= 1,
        || format!("router stats did not record the failover: {stats}"),
    );

    saboteur.join().expect("saboteur thread");
    drop(client);
    router.begin_shutdown();
    router.wait();
    live.begin_shutdown();
    live.wait().expect("shard drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drill 3: a peer-warmed joiner is byte-identical to the source and serves
/// everything without tuning.
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
        Ok(report) => ctx.check("sync-warm-rejoin", report.records == matrices.len(), || {
            format!(
                "warmed {} records, wanted {}",
                report.records,
                matrices.len()
            )
        }),
    }
    joiner.sync().expect("joiner sync");
    drop(joiner);

    source.begin_shutdown();
    source.wait().expect("source drain");

    let src_bytes = std::fs::read(src_dir.join("tuning.journal")).expect("source journal");
    let join_bytes = std::fs::read(&joiner_journal).expect("joiner journal");
    ctx.check("sync-warm-journal-bytes", src_bytes == join_bytes, || {
        format!(
            "journals differ after warm-up ({} vs {} bytes)",
            src_bytes.len(),
            join_bytes.len()
        )
    });

    // The warmed shard serves every decision with zero tuner calls.
    let (calls, warmed) = start_shard(&join_dir);
    let mut c =
        Client::connect(&warmed.local_addr().to_string(), CLIENT_TIMEOUT).expect("warmed client");
    for m in &matrices {
        let want = oracle_decision(m, Kernel::SpMV, 0);
        match c.tune(m, "spmv", 0) {
            Err(e) => ctx.check("sync-warm-serves", false, || {
                format!("warmed shard failed a tune: {e}")
            }),
            Ok(reply) => ctx.check(
                "sync-warm-serves",
                reply.decision.as_ref() == Some(&want) && reply.cached,
                || "warmed shard answer was not the cached oracle decision".to_string(),
            ),
        }
    }
    ctx.check(
        "sync-warm-no-tunes",
        calls.load(Ordering::SeqCst) == 0,
        || {
            format!(
                "warmed shard tuned {} times; the journal should have answered",
                calls.load(Ordering::SeqCst)
            )
        },
    );
    drop(c);
    warmed.begin_shutdown();
    warmed.wait().expect("warmed drain");
    let _ = std::fs::remove_dir_all(&src_dir);
    let _ = std::fs::remove_dir_all(&join_dir);
}

/// Reads one length-prefixed frame (the fake peers don't parse it — the
/// scripted replies don't depend on the request body).
fn read_frame_bytes(sock: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    sock.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix) as usize;
    let mut body = vec![0u8; len];
    sock.read_exact(&mut body)?;
    Ok(body)
}

fn sync_record_for(d: &Decision) -> SyncRecord {
    let payload = encode_payload(d);
    SyncRecord {
        crc: fnv1a64(payload.as_bytes()),
        payload,
    }
}

/// Drill 4: the peer dies after the first batch; the stream resumes from
/// the confirmed offset and every record still lands.
fn sync_kill_mid_stream(cfg: &VerifyConfig, ctx: &mut Tally) {
    let dir = scratch_dir(SUITE, cfg, "sync-kill");
    let seed = mix_seed(cfg.seed, "distributed-sync-kill");
    let decisions: Vec<Decision> = (0..3)
        .map(|i| {
            let mut rng = Rng64::seed_from(seed.wrapping_add(i));
            oracle_decision(
                &gen::banded(24 + (i as usize) * 5, 3, 0.9, &mut rng),
                Kernel::SpMV,
                0,
            )
        })
        .collect();
    let records: Vec<SyncRecord> = decisions.iter().map(sync_record_for).collect();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
    let addr = listener.local_addr().expect("fake peer addr");
    let peer = {
        let records = records.clone();
        std::thread::spawn(move || {
            // Connection 1: answer the first batch, then die mid-stream.
            {
                let (mut sock, _) = listener.accept().expect("accept 1");
                let _ = read_frame_bytes(&mut sock);
                let body = sync_response(&records[..1], 1, false, records.len());
                write_frame(&mut sock, &body).expect("first batch");
                // Drop: the journal stream is cut here.
            }
            // Connection 2: the resumed stream; serve to completion.
            let (mut sock, _) = listener.accept().expect("accept 2");
            let _ = read_frame_bytes(&mut sock);
            let body = sync_response(&records[1..], records.len(), true, records.len());
            write_frame(&mut sock, &body).expect("final batch");
            // Hold the socket until the client hangs up.
            let _ = read_frame_bytes(&mut sock);
        })
    };

    let cache = TuningCache::open(dir.join("tuning.journal"), 64).expect("joiner cache");
    match warm_from_peer(&addr.to_string(), Duration::from_secs(10), &cache) {
        Err(e) => ctx.check("sync-kill-mid-stream", false, || {
            format!("resumable warm-up failed: {e}")
        }),
        Ok(report) => ctx.check(
            "sync-kill-mid-stream",
            report.records == decisions.len() && report.resumes >= 1,
            || {
                format!(
                    "warmed {} records with {} resumes; wanted {} records and >=1 resume",
                    report.records,
                    report.resumes,
                    decisions.len()
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
    peer.join().expect("fake peer thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drill 5: mangled sync streams. Every case must surface a typed error and
/// leave the joiner byte-for-byte cold — the cold-fallback contract.
fn sync_corrupt_stream(cfg: &VerifyConfig, ctx: &mut Tally) {
    let seed = mix_seed(cfg.seed, "distributed-sync-corrupt");
    let good = {
        let mut rng = Rng64::seed_from(seed);
        sync_record_for(&oracle_decision(
            &gen::banded(28, 3, 0.9, &mut rng),
            Kernel::SpMV,
            0,
        ))
    };

    type Mangle = fn(&SyncRecord) -> Json;
    let cases: &[(&str, Mangle)] = &[
        ("sync-bad-checksum", |r| {
            // Payload byte flipped, checksum kept: verification must catch it.
            let mut bad = r.payload.clone().into_bytes();
            bad[0] ^= 0x20;
            let rec = SyncRecord {
                crc: r.crc,
                payload: String::from_utf8(bad).expect("still utf-8"),
            };
            sync_response(&[rec], 1, true, 1)
        }),
        ("sync-undecodable-record", |r| {
            // Checksum valid but the payload is not a decision.
            let payload = "{\"not\":\"a decision\"}".to_string();
            let rec = SyncRecord {
                crc: fnv1a64(payload.as_bytes()),
                payload,
            };
            let _ = r;
            sync_response(&[rec], 1, true, 1)
        }),
        ("sync-stalled-cursor", |_| {
            // No records, not done: a stream that can never finish.
            sync_response(&[], 0, false, 1)
        }),
    ];

    for (i, &(name, mangle)) in cases.iter().enumerate() {
        let dir = scratch_dir(SUITE, cfg, &format!("sync-corrupt-{i}"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
        let addr = listener.local_addr().expect("fake peer addr");
        let body = mangle(&good);
        let peer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let _ = read_frame_bytes(&mut sock);
            write_frame(&mut sock, &body).expect("mangled batch");
            let _ = read_frame_bytes(&mut sock);
        });

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
            Ok(Err(e)) => ctx.check(name, matches!(e, WacoError::Checkpoint(_)), || {
                format!("wanted a typed Checkpoint error, got: {e}")
            }),
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
        peer.join().expect("fake peer thread");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Drill 6: a shard restarted on its own cache dir re-joins warm.
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
    first.begin_shutdown();
    first.wait().expect("first drain");

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
    ctx.check(
        "restart-rejoin-no-tunes",
        calls.load(Ordering::SeqCst) == 0,
        || {
            format!(
                "restarted shard tuned {} times; the journal should have answered",
                calls.load(Ordering::SeqCst)
            )
        },
    );
    drop(c);
    second.begin_shutdown();
    second.wait().expect("second drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The distributed crash-failover drill suite.
pub fn distributed_suite(cfg: &VerifyConfig) -> SuiteReport {
    let mut ctx = Tally::new(SUITE);
    route_oracle(cfg, &mut ctx);
    failover_mid_tune(cfg, &mut ctx);
    sync_warm_rejoin(cfg, &mut ctx);
    sync_kill_mid_stream(cfg, &mut ctx);
    sync_corrupt_stream(cfg, &mut ctx);
    restart_rejoin(cfg, &mut ctx);
    ctx.finish()
}
