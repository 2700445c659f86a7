//! End-to-end tests of the serving layer: a real listener on an ephemeral
//! loopback port, a real client, and a journal-backed restart.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use waco_serve::json::Json;
use waco_serve::tuner::{TunedOutcome, Tuner};
use waco_serve::{Client, ServeConfig, Server, WacoTuner, WacoTunerConfig};
use waco_tensor::gen::{self, Rng64};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("waco-serve-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_server(cache_dir: &PathBuf) -> Server {
    let cfg = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .cache_dir(cache_dir)
        .workers(2)
        .timeout_secs(60.0)
        .build()
        .unwrap();
    let tuner = Arc::new(WacoTuner::new(WacoTunerConfig::default()));
    Server::start(cfg, tuner).unwrap()
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.local_addr().to_string(), Duration::from_secs(60)).unwrap()
}

#[test]
fn tune_hits_cache_and_survives_restart() {
    let dir = tmp_dir("restart");
    let mut rng = Rng64::seed_from(21);
    let m = gen::uniform_random(24, 24, 0.1, &mut rng);

    let first_decision;
    {
        let server = start_server(&dir);
        let mut client = connect(&server);

        // Unknown matrix: lookup misses, tune computes.
        let miss = client.lookup(&m, "spmv", 0).unwrap();
        assert!(!miss.cached);
        assert!(miss.decision.is_none());

        let cold = client.tune(&m, "spmv", 0).unwrap();
        assert!(!cold.cached, "first tune must be computed");
        let d = cold.decision.expect("tune returns a decision");
        assert!(d.kernel_seconds > 0.0);
        first_decision = d;

        // Same matrix again: served from cache, identical decision.
        let warm = client.tune(&m, "spmv", 0).unwrap();
        assert!(warm.cached, "second tune must be a cache hit");
        assert_eq!(warm.decision.unwrap(), first_decision);

        // The hit is observable in stats.
        let stats = client.stats().unwrap();
        let cache = stats.get("cache").unwrap();
        assert!(cache.get("hits").unwrap().as_u64().unwrap() >= 1);
        assert_eq!(cache.get("inserts").unwrap().as_u64(), Some(1));

        client.shutdown().unwrap();
        server.wait().unwrap();
    }

    // Restart from the journal: lookup answers without re-tuning.
    {
        let server = start_server(&dir);
        let mut client = connect(&server);
        let stats = client.stats().unwrap();
        assert!(
            stats
                .get("cache")
                .unwrap()
                .get("replayed")
                .unwrap()
                .as_u64()
                .unwrap()
                >= 1,
            "journal must replay the decision"
        );
        let found = client.lookup(&m, "spmv", 0).unwrap();
        assert!(
            found.cached,
            "restarted server must answer from the journal"
        );
        assert_eq!(found.decision.unwrap(), first_decision);
        client.shutdown().unwrap();
        server.wait().unwrap();
    }
}

#[test]
fn concurrent_clients_agree() {
    let dir = tmp_dir("concurrent");
    let server = start_server(&dir);

    // Pre-tune one matrix so threads exercise the hit path concurrently.
    let mut rng = Rng64::seed_from(22);
    let m = gen::uniform_random(24, 24, 0.08, &mut rng);
    let baseline = {
        let mut client = connect(&server);
        client.tune(&m, "spmv", 0).unwrap().decision.unwrap()
    };

    let addr = server.local_addr().to_string();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let m = m.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr, Duration::from_secs(60)).unwrap();
                client.tune(&m, "spmv", 0).unwrap()
            })
        })
        .collect();
    for h in handles {
        let reply = h.join().unwrap();
        assert!(reply.cached);
        assert_eq!(reply.decision.unwrap(), baseline);
    }

    let mut client = connect(&server);
    let stats = client.stats().unwrap();
    assert!(
        stats
            .get("cache")
            .unwrap()
            .get("hits")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 8
    );
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// A tuner double that counts invocations and holds each tune open long
/// enough for concurrent requests to pile up behind it.
struct CountingTuner {
    calls: AtomicUsize,
    delay: Duration,
}

impl Tuner for CountingTuner {
    fn tune(
        &self,
        m: &waco_tensor::CooMatrix,
        kernel: waco_schedule::Kernel,
        dense_extent: usize,
    ) -> Result<TunedOutcome, waco_core::WacoError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        let space = waco_schedule::Space::new(kernel, vec![m.nrows(), m.ncols()], dense_extent);
        Ok(TunedOutcome {
            schedule: waco_schedule::named::default_csr(&space),
            kernel_seconds: 1e-3,
            tuning_seconds: 2e-3,
        })
    }
}

/// The coalescing contract: N concurrent cold tunes of the same
/// fingerprint perform exactly one tuner invocation, every client gets the
/// identical decision, and the stats frame records the N-1 piggy-backers.
#[test]
fn concurrent_cold_tunes_coalesce_into_one_tuner_call() {
    const N: usize = 6;
    let dir = tmp_dir("coalesce");
    let cfg = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .cache_dir(&dir)
        .workers(2)
        .timeout_secs(60.0)
        .build()
        .unwrap();
    // 400 ms per tune: the second executor registers the other five
    // requests as waiters long before the owner's tune returns.
    let tuner = Arc::new(CountingTuner {
        calls: AtomicUsize::new(0),
        delay: Duration::from_millis(400),
    });
    let server = Server::start(cfg, Arc::clone(&tuner) as Arc<dyn Tuner>).unwrap();

    let mut rng = Rng64::seed_from(33);
    let m = gen::uniform_random(24, 24, 0.1, &mut rng);
    let addr = server.local_addr().to_string();
    let barrier = Arc::new(Barrier::new(N));
    let handles: Vec<_> = (0..N)
        .map(|_| {
            let addr = addr.clone();
            let m = m.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr, Duration::from_secs(60)).unwrap();
                barrier.wait();
                client.tune(&m, "spmv", 0).unwrap()
            })
        })
        .collect();
    let replies: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    assert_eq!(
        tuner.calls.load(Ordering::SeqCst),
        1,
        "N concurrent tunes of one fingerprint must invoke the tuner once"
    );
    let first = replies[0].decision.as_ref().unwrap();
    for reply in &replies {
        assert!(!reply.cached, "a fresh tune is not a cache hit");
        assert_eq!(reply.decision.as_ref().unwrap(), first);
    }

    let mut client = connect(&server);
    let stats = client.stats().unwrap();
    let srv = stats.get("server").unwrap();
    assert_eq!(srv.get("tune_calls").unwrap().as_u64(), Some(1));
    assert_eq!(
        srv.get("coalesced").unwrap().as_u64(),
        Some((N - 1) as u64),
        "the other {} requests must piggy-back on the in-flight tune",
        N - 1
    );
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// A server in `dir` over a [`CountingTuner`] that answers at once.
fn start_counting_server(dir: &PathBuf) -> (Server, Arc<CountingTuner>) {
    let cfg = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .cache_dir(dir)
        .workers(2)
        .timeout_secs(60.0)
        .build()
        .unwrap();
    let tuner = Arc::new(CountingTuner {
        calls: AtomicUsize::new(0),
        delay: Duration::ZERO,
    });
    let server = Server::start(cfg, Arc::clone(&tuner) as Arc<dyn Tuner>).unwrap();
    (server, tuner)
}

fn cache_field(stats: &Json, field: &str) -> Option<f64> {
    stats.get("cache")?.get(field)?.as_f64()
}

/// A cold tune is one lookup, so one miss: the owner's re-check after it
/// registers in flight must not count a second time.
#[test]
fn a_cold_tune_counts_one_miss() {
    let (server, _tuner) = start_counting_server(&tmp_dir("one-miss"));
    let mut client = connect(&server);
    let mut rng = Rng64::seed_from(36);
    let a = gen::uniform_random(16, 16, 0.2, &mut rng);
    let b = gen::uniform_random(16, 16, 0.2, &mut rng);
    assert!(!client.tune(&a, "spmv", 0).unwrap().cached);
    assert!(client.tune(&a, "spmv", 0).unwrap().cached);
    assert!(!client.tune(&b, "spmv", 0).unwrap().cached);

    let stats = client.stats().unwrap();
    assert_eq!(cache_field(&stats, "hits"), Some(1.0));
    assert_eq!(cache_field(&stats, "misses"), Some(2.0));
    let hit_rate = cache_field(&stats, "hit_rate").unwrap();
    assert!((hit_rate - 1.0 / 3.0).abs() < 1e-9, "hit rate {hit_rate}");
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// SpMV has no dense extent, so the `dense` a client sends cannot split its
/// key: a decision tuned with 32 is the one a lookup with 0 finds.
#[test]
fn spmv_decisions_share_one_key_whatever_dense_says() {
    let (server, tuner) = start_counting_server(&tmp_dir("spmv-dense"));
    let mut client = connect(&server);
    let mut rng = Rng64::seed_from(37);
    let m = gen::uniform_random(16, 16, 0.2, &mut rng);
    let tuned = client.tune(&m, "spmv", 32).unwrap();
    let found = client.lookup(&m, "spmv", 0).unwrap();
    assert!(
        found.cached,
        "the dense-32 tune must answer a dense-0 lookup"
    );
    assert_eq!(found.decision, tuned.decision);
    assert_eq!(tuned.decision.unwrap().dense_extent, 0);
    let stats = client.stats().unwrap();
    let tune_calls = stats.get("server").unwrap().get("tune_calls").unwrap();
    assert_eq!(tune_calls.as_u64(), Some(1));
    assert_eq!(tuner.calls.load(Ordering::SeqCst), 1);
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// `stats.latency` is one `waco_obs::HistStat` of server-side service times
/// (power-of-two buckets): its p50 must track what the client measured for
/// the same requests, and the section keeps its five fields.
#[test]
fn stats_latency_p50_tracks_the_client_side_median() {
    const N: usize = 25;
    let dir = tmp_dir("latency");
    let cfg = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .cache_dir(&dir)
        .workers(2)
        .timeout_secs(60.0)
        .build()
        .unwrap();
    // 20 ms per tune and a fresh fingerprint per request: service time
    // dominates the round trip, so both sides time the same thing.
    let tuner = Arc::new(CountingTuner {
        calls: AtomicUsize::new(0),
        delay: Duration::from_millis(20),
    });
    let server = Server::start(cfg, tuner).unwrap();
    let mut client = connect(&server);
    let mut rng = Rng64::seed_from(35);
    let mut client_ms: Vec<f64> = (0..N)
        .map(|_| {
            let m = gen::uniform_random(16, 16, 0.2, &mut rng);
            let sent = std::time::Instant::now();
            assert!(!client.tune(&m, "spmv", 0).unwrap().cached);
            sent.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    client_ms.sort_by(f64::total_cmp);
    let median = client_ms[N / 2];

    let stats = client.stats().unwrap();
    let latency = stats.get("latency").unwrap();
    let ms = |key: &str| latency.get(key).and_then(Json::as_f64).unwrap();
    assert_eq!(latency.get("count").unwrap().as_u64(), Some(N as u64));
    let p50 = ms("p50_ms");
    assert!(
        (median / 2.0..=median * 2.0).contains(&p50),
        "server p50 {p50} ms vs client median {median} ms"
    );
    assert!(ms("mean_ms") >= 20.0 && p50 <= ms("p99_ms") && ms("p99_ms") <= ms("max_ms"));
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// Pipelining: several requests written back-to-back on one connection are
/// answered strictly in request order.
#[test]
fn pipelined_requests_answer_in_order() {
    let dir = tmp_dir("pipeline");
    let cfg = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .cache_dir(&dir)
        .workers(2)
        .timeout_secs(60.0)
        .build()
        .unwrap();
    let tuner = Arc::new(CountingTuner {
        calls: AtomicUsize::new(0),
        delay: Duration::from_millis(50),
    });
    let server = Server::start(cfg, tuner).unwrap();

    let mut rng = Rng64::seed_from(34);
    let m = gen::uniform_random(16, 16, 0.2, &mut rng);
    let mut mtx = Vec::new();
    waco_tensor::io::write_matrix_market(&mut mtx, &m).unwrap();
    let text = String::from_utf8(mtx).unwrap();

    let mut client = connect(&server);
    // stats answers immediately; the tune behind it takes 50 ms — the
    // stats response after it must still arrive third.
    client
        .send(&Json::obj([("op", Json::str("stats"))]))
        .unwrap();
    client
        .send(&waco_serve::protocol::request_json(
            "tune", "spmv", 0, &text,
        ))
        .unwrap();
    client
        .send(&Json::obj([("op", Json::str("stats"))]))
        .unwrap();

    let r1 = client.recv().unwrap();
    assert!(
        r1.get("cache").is_some(),
        "first reply answers the stats op"
    );
    let r2 = client.recv().unwrap();
    assert!(
        r2.get("decision").is_some(),
        "second reply answers the tune op"
    );
    let r3 = client.recv().unwrap();
    assert!(
        r3.get("cache").is_some(),
        "third reply answers the stats op"
    );

    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[test]
fn malformed_requests_get_error_responses() {
    let dir = tmp_dir("malformed");
    let server = start_server(&dir);
    let mut client = connect(&server);

    // Unknown op.
    let reply = client
        .roundtrip(&Json::obj([("op", Json::str("dance"))]))
        .unwrap();
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));
    assert!(reply
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("dance"));

    // Tune with an unparseable matrix: error response, connection stays up.
    let reply = client
        .roundtrip(&waco_serve::protocol::request_json(
            "tune",
            "spmv",
            0,
            "not a matrix",
        ))
        .unwrap();
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));

    // The executor-only workspace kernels: a one-line error naming the
    // kernel, before the cache or the tuner sees the request.
    let mut text = Vec::new();
    let m = gen::uniform_random(16, 16, 0.2, &mut Rng64::seed_from(38));
    waco_tensor::io::write_matrix_market(&mut text, &m).unwrap();
    let text = String::from_utf8(text).unwrap();
    for kernel in ["spgemm", "sddmm_spmm"] {
        for op in ["tune", "lookup"] {
            let body = waco_serve::protocol::request_json(op, kernel, 8, &text);
            let reply = client.roundtrip(&body).unwrap();
            assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));
            let error = reply.get("error").unwrap().as_str().unwrap();
            assert!(error.contains(kernel) && !error.contains('\n'), "{error}");
        }
    }

    // The same connection still serves valid requests afterwards.
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(cache_field(&stats, "misses"), Some(0.0));

    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// Drives the wire protocol by hand so we can send frames a well-behaved
/// [`Client`] never would.
fn raw_connect(server: &Server) -> std::net::TcpStream {
    let s = std::net::TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s
}

fn read_error_reply(stream: &mut std::net::TcpStream) -> String {
    let reply = waco_serve::protocol::read_frame(stream)
        .unwrap()
        .expect("server must answer with a frame, not a bare disconnect");
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));
    reply.get("error").unwrap().as_str().unwrap().to_string()
}

#[test]
fn negative_frames_get_typed_error_responses() {
    use std::io::Write as _;

    let dir = tmp_dir("negative-frames");
    let server = start_server(&dir);

    // Oversized u32 length prefix: typed error response (framing is lost,
    // so the server may close afterwards — but it must answer first).
    {
        let mut s = raw_connect(&server);
        s.write_all(&(waco_serve::protocol::MAX_FRAME_LEN + 7).to_be_bytes())
            .unwrap();
        let err = read_error_reply(&mut s);
        assert!(err.contains("cap"), "unexpected error: {err}");
    }

    // Zero-length frame: typed error response AND the connection survives.
    {
        let mut s = raw_connect(&server);
        s.write_all(&0u32.to_be_bytes()).unwrap();
        let err = read_error_reply(&mut s);
        assert!(err.contains("JSON"), "unexpected error: {err}");
        // Same connection still serves a valid request.
        waco_serve::protocol::write_frame(&mut s, &Json::obj([("op", Json::str("stats"))]))
            .unwrap();
        let reply = waco_serve::protocol::read_frame(&mut s).unwrap().unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
    }

    // Truncated JSON inside a complete frame: typed error, connection survives.
    {
        let mut s = raw_connect(&server);
        let junk = b"{\"op\":\"stats\""; // cut before the closing brace
        s.write_all(&(junk.len() as u32).to_be_bytes()).unwrap();
        s.write_all(junk).unwrap();
        let err = read_error_reply(&mut s);
        assert!(err.contains("JSON"), "unexpected error: {err}");
        waco_serve::protocol::write_frame(&mut s, &Json::obj([("op", Json::str("stats"))]))
            .unwrap();
        let reply = waco_serve::protocol::read_frame(&mut s).unwrap().unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
    }

    // Unknown op: typed error naming the op, connection survives.
    {
        let mut s = raw_connect(&server);
        waco_serve::protocol::write_frame(&mut s, &Json::obj([("op", Json::str("launch"))]))
            .unwrap();
        let err = read_error_reply(&mut s);
        assert!(err.contains("launch"), "unexpected error: {err}");
        waco_serve::protocol::write_frame(&mut s, &Json::obj([("op", Json::str("stats"))]))
            .unwrap();
        let reply = waco_serve::protocol::read_frame(&mut s).unwrap().unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
    }

    let mut client = connect(&server);
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// A size line is seventy bytes of claims. Each of these used to take the
/// process down — a capacity overflow, a failed 2.4 TB allocation, an 8 TB
/// row-count array; each is now an ordinary error reply on a connection
/// that keeps working.
#[test]
fn hostile_size_lines_get_error_responses() {
    let dir = tmp_dir("hostile-size-lines");
    let server = start_server(&dir);
    let mut s = raw_connect(&server);

    for (size_line, expect) in [
        (
            "4 4 1152921504606846976",
            "expected 1152921504606846976 entries",
        ),
        ("4 4 100000000000", "expected 100000000000 entries"),
        ("1000000000000 4 1", "at most"),
    ] {
        let matrix =
            format!("%%MatrixMarket matrix coordinate real general\n{size_line}\n1 1 1.0\n");
        for op in ["tune", "lookup"] {
            let request = waco_serve::protocol::request_json(op, "spmv", 0, &matrix);
            waco_serve::protocol::write_frame(&mut s, &request).unwrap();
            let err = read_error_reply(&mut s);
            assert!(err.contains(expect), "{size_line}: unexpected error: {err}");
        }
        waco_serve::protocol::write_frame(&mut s, &Json::obj([("op", Json::str("stats"))]))
            .unwrap();
        let reply = waco_serve::protocol::read_frame(&mut s).unwrap().unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
    }
    drop(s); // the drain waits for every connection to go

    let mut client = connect(&server);
    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[test]
fn builder_rejects_bad_config() {
    for (build, what) in [
        (
            ServeConfig::builder().cache_dir("/tmp/x").addr("8.8.8.8:1"),
            "non-loopback",
        ),
        (
            ServeConfig::builder()
                .cache_dir("/tmp/x")
                .addr("not-an-addr"),
            "unparseable",
        ),
        (ServeConfig::builder(), "missing cache dir"),
        (
            ServeConfig::builder().cache_dir("/tmp/x").workers(0),
            "zero workers",
        ),
        (
            ServeConfig::builder().cache_dir("/tmp/x").queue_depth(0),
            "zero queue",
        ),
        (
            ServeConfig::builder().cache_dir("/tmp/x").cache_capacity(0),
            "zero capacity",
        ),
        (
            ServeConfig::builder().cache_dir("/tmp/x").timeout_secs(0.0),
            "zero timeout",
        ),
    ] {
        assert!(
            matches!(build.build(), Err(waco_core::WacoError::InvalidConfig(_))),
            "{what} must be rejected"
        );
    }
    // And a valid one passes.
    assert!(ServeConfig::builder().cache_dir("/tmp/x").build().is_ok());
}

// ---------------------------------------------------------------------------
// The request memo
// ---------------------------------------------------------------------------

/// A field of the `stats` frame's `memo` section.
fn memo_field(stats: &Json, field: &str) -> u64 {
    stats
        .get("memo")
        .and_then(|m| m.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats has no memo.{field}: {stats}"))
}

/// One request and its reply's exact bytes (the body, after the prefix).
fn raw_roundtrip(s: &mut std::net::TcpStream, body: &Json) -> Vec<u8> {
    use std::io::Read as _;
    waco_serve::protocol::write_frame(s, body).unwrap();
    let mut len = [0u8; 4];
    s.read_exact(&mut len).unwrap();
    let mut reply = vec![0; u32::from_be_bytes(len) as usize];
    s.read_exact(&mut reply).unwrap();
    reply
}

/// An 8×8 Matrix Market text whose three `entries` lines sit between two
/// 400-byte comments: a change to an entry lies outside the head and tail
/// the memo buckets frames by, so only the byte comparison tells it apart.
fn padded_text(entries: &str) -> String {
    let pad = |c: &str| format!("% {}\n", c.repeat(400));
    format!(
        "%%MatrixMarket matrix coordinate real general\n{}8 8 3\n{entries}{}",
        pad("x"),
        pad("y")
    )
}

fn fingerprint_of(text: &str) -> waco_serve::Fingerprint {
    waco_serve::Fingerprint::of_matrix(&waco_tensor::io::parse_matrix_market(text).unwrap())
}

fn spmv(op: &str, text: &str) -> Json {
    waco_serve::protocol::request_json(op, "spmv", 0, text)
}

/// A memo hit is answered on the loop while a cold tune ahead of it is
/// still on an executor: the reactor's slots keep the replies in order.
#[test]
fn a_memo_hit_behind_a_cold_tune_answers_in_request_order() {
    let dir = tmp_dir("memo-order");
    let cfg = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .cache_dir(&dir)
        .workers(2)
        .timeout_secs(60.0)
        .build()
        .unwrap();
    let tuner = Arc::new(CountingTuner {
        calls: AtomicUsize::new(0),
        delay: Duration::from_millis(100),
    });
    let server = Server::start(cfg, tuner).unwrap();
    let a = padded_text("1 1 0.5\n2 3 0.25\n7 5 0.75\n");
    let b = padded_text("1 2 0.5\n4 3 0.25\n8 8 0.75\n");
    let mut client = connect(&server);
    // Each frame's second arrival is admitted.
    for op in ["tune", "tune", "lookup", "lookup"] {
        client.roundtrip(&spmv(op, &a)).unwrap();
    }
    assert_eq!(memo_field(&client.stats().unwrap(), "entries"), 2);

    for body in [spmv("tune", &b), spmv("tune", &a), spmv("lookup", &a)] {
        client.send(&body).unwrap();
    }
    let fp = |reply: &Json| {
        waco_serve::protocol::response_decision(reply)
            .unwrap()
            .fingerprint
    };
    let cold = client.recv().unwrap();
    assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(fp(&cold), fingerprint_of(&b));
    let hit = client.recv().unwrap();
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(fp(&hit), fingerprint_of(&a));
    let found = client.recv().unwrap();
    assert_eq!(found.get("found").and_then(Json::as_bool), Some(true));
    assert_eq!(fp(&found), fingerprint_of(&a));
    assert_eq!(memo_field(&client.stats().unwrap(), "hits"), 2);
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// Bytes decide a match: one changed byte goes through the parse. A changed
/// value keeps the fingerprint, and so the decision; a changed coordinate
/// makes a fingerprint, and a decision, of its own.
#[test]
fn a_frame_one_byte_away_from_a_memoized_one_is_parsed() {
    let (server, tuner) = start_counting_server(&tmp_dir("memo-exact"));
    let mut client = connect(&server);
    let text = padded_text("1 1 0.5\n2 3 0.25\n7 5 0.75\n");
    let value = padded_text("1 1 0.5\n2 3 0.35\n7 5 0.75\n");
    let coordinate = padded_text("1 1 0.5\n2 3 0.25\n7 7 0.75\n");
    assert_eq!(fingerprint_of(&value), fingerprint_of(&text));
    assert_ne!(fingerprint_of(&coordinate), fingerprint_of(&text));

    let tuned = client.roundtrip(&spmv("tune", &text)).unwrap();
    for _ in 0..2 {
        assert_eq!(
            client
                .roundtrip(&spmv("tune", &text))
                .unwrap()
                .get("cached")
                .and_then(Json::as_bool),
            Some(true)
        );
    }
    assert_eq!(memo_field(&client.stats().unwrap(), "hits"), 1);

    let same = client.roundtrip(&spmv("tune", &value)).unwrap();
    assert_eq!(same.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(same.get("decision"), tuned.get("decision"));
    let other = client.roundtrip(&spmv("tune", &coordinate)).unwrap();
    assert_eq!(other.get("cached").and_then(Json::as_bool), Some(false));
    let fp = waco_serve::protocol::response_decision(&other)
        .unwrap()
        .fingerprint;
    assert_eq!(fp, fingerprint_of(&coordinate));

    let stats = client.stats().unwrap();
    assert_eq!(memo_field(&stats, "hits"), 1, "neither near miss is a hit");
    assert_eq!(tuner.calls.load(Ordering::SeqCst), 2);
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// Only frames that parsed are admitted: a repeated bad request gets the
/// same error every time, from the parse.
#[test]
fn repeated_bad_matrices_get_the_same_error_and_are_never_admitted() {
    let (server, _tuner) = start_counting_server(&tmp_dir("memo-errors"));
    let mut client = connect(&server);
    let oversized = "%%MatrixMarket matrix coordinate real general\n1000000000000 4 1\n1 1 1.0\n";
    for matrix in ["not a matrix", oversized] {
        for op in ["tune", "lookup"] {
            let first = client.roundtrip(&spmv(op, matrix)).unwrap();
            assert_eq!(first.get("ok").and_then(Json::as_bool), Some(false));
            for _ in 0..4 {
                assert_eq!(client.roundtrip(&spmv(op, matrix)).unwrap(), first);
            }
        }
    }
    let stats = client.stats().unwrap();
    for field in ["hits", "admitted", "entries", "bytes"] {
        assert_eq!(memo_field(&stats, field), 0, "memo.{field}");
    }
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// The memo remembers what a frame means, not its decision: once the
/// decision is evicted, a memo-hit `lookup` answers `found:false` byte for
/// byte as the executor does, and a memo-hit `tune` is tuned again.
#[test]
fn a_memo_hit_whose_decision_was_evicted_answers_as_the_executor_would() {
    let cfg = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .cache_dir(tmp_dir("memo-evicted"))
        .cache_capacity(1)
        .workers(2)
        .timeout_secs(60.0)
        .build()
        .unwrap();
    let tuner = Arc::new(CountingTuner {
        calls: AtomicUsize::new(0),
        delay: Duration::ZERO,
    });
    let server = Server::start(cfg, Arc::clone(&tuner) as Arc<dyn Tuner>).unwrap();
    let mut s = raw_connect(&server);
    let text = padded_text("1 1 0.5\n2 3 0.25\n7 5 0.75\n");
    // Same fingerprint, other bytes: a probe through the parse.
    let probe = padded_text("1 1 0.5\n2 3 0.35\n7 5 0.75\n");
    for body in [
        spmv("tune", &text),
        spmv("tune", &text),
        spmv("lookup", &text),
        spmv("lookup", &text),
    ] {
        raw_roundtrip(&mut s, &body);
    }

    // Capacity 1 is one entry: one fresh decision evicts this one.
    let mut rng = Rng64::seed_from(39);
    let m = gen::uniform_random(16, 16, 0.2, &mut rng);
    let mut mtx = Vec::new();
    waco_tensor::io::write_matrix_market(&mut mtx, &m).unwrap();
    raw_roundtrip(&mut s, &spmv("tune", &String::from_utf8(mtx).unwrap()));
    let executor_reply = raw_roundtrip(&mut s, &spmv("lookup", &probe));
    assert_eq!(executor_reply, br#"{"found":false,"ok":true}"#);

    let mut client = connect(&server);
    let before = client.stats().unwrap();
    assert_eq!(cache_field(&before, "capacity"), Some(1.0));
    assert_eq!(cache_field(&before, "resident"), Some(1.0));
    let misses = |stats: &Json| cache_field(stats, "misses").unwrap();
    assert_eq!(
        raw_roundtrip(&mut s, &spmv("lookup", &text)),
        executor_reply
    );
    let after_lookup = client.stats().unwrap();
    assert_eq!(misses(&after_lookup), misses(&before) + 1.0);
    let calls = tuner.calls.load(Ordering::SeqCst);
    let retuned = client.roundtrip(&spmv("tune", &text)).unwrap();
    assert_eq!(retuned.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(tuner.calls.load(Ordering::SeqCst), calls + 1);
    // Each request counts its one miss, as on the executor's path.
    let after = client.stats().unwrap();
    assert_eq!(misses(&after), misses(&before) + 2.0);
    assert_eq!(memo_field(&after, "hits"), memo_field(&before, "hits") + 2);
    drop(s);
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// Admitting past the byte budget evicts the least recently used frame,
/// and `memo.bytes` never exceeds it.
#[test]
fn the_memo_evicts_least_recently_used_frames_within_its_budget() {
    use waco_serve::protocol::MEMO_BUDGET;

    let (server, _tuner) = start_counting_server(&tmp_dir("memo-budget"));
    let mut client = connect(&server);
    // Three such frames overflow the budget; comments make them cheap to
    // parse.
    let frame = |k: usize| {
        let pad = format!("% {}\n", "p".repeat(MEMO_BUDGET / 3));
        spmv(
            "lookup",
            &format!("%%MatrixMarket matrix coordinate real general\n% {k}\n{pad}4 4 1\n1 1 1.0\n"),
        )
    };
    for k in 0..4 {
        client.roundtrip(&frame(k)).unwrap();
        client.roundtrip(&frame(k)).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(memo_field(&stats, "admitted"), k as u64 + 1);
        assert!(memo_field(&stats, "bytes") <= MEMO_BUDGET as u64);
    }
    let stats = client.stats().unwrap();
    assert_eq!(memo_field(&stats, "entries"), 2);
    assert_eq!(memo_field(&stats, "budget"), MEMO_BUDGET as u64);
    // The two most recent frames are resident, the two oldest are not.
    for (k, hits) in [(3, 1), (2, 2), (1, 2), (0, 2)] {
        client.roundtrip(&frame(k)).unwrap();
        assert_eq!(
            memo_field(&client.stats().unwrap(), "hits"),
            hits,
            "frame {k}"
        );
    }
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// A memo hit's reply is built by the executor's function: the third
/// arrival of a frame, answered on the loop, is byte for byte the second
/// arrival's reply.
#[test]
fn a_memo_hit_replies_with_the_executors_bytes() {
    let (server, _tuner) = start_counting_server(&tmp_dir("memo-bytes"));
    let mut s = raw_connect(&server);
    let text = padded_text("1 1 0.5\n2 3 0.25\n7 5 0.75\n");
    for op in ["tune", "lookup"] {
        let body = spmv(op, &text);
        let replies: Vec<Vec<u8>> = (0..3).map(|_| raw_roundtrip(&mut s, &body)).collect();
        assert_eq!(replies[1], replies[2], "{op}");
    }
    let stats = raw_roundtrip(&mut s, &Json::obj([("op", Json::str("stats"))]));
    let stats = Json::parse(std::str::from_utf8(&stats).unwrap()).unwrap();
    assert_eq!(memo_field(&stats, "hits"), 2);
    drop(s);
    let mut client = connect(&server);
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// The router keeps a memo of its own: a repeat skips the router's parse
/// and goes to the shard that owns its remembered fingerprint.
#[test]
fn a_routed_repeat_goes_by_its_remembered_fingerprint() {
    let shards: Vec<Server> = (0..2)
        .map(|k| start_counting_server(&tmp_dir(&format!("memo-routed-{k}"))).0)
        .collect();
    let mut config = waco_serve::RouterConfig::builder();
    for s in &shards {
        config = config.shard(s.local_addr().to_string());
    }
    let router = waco_serve::Router::start(config.build().unwrap()).unwrap();
    let mut client =
        Client::connect(&router.local_addr().to_string(), Duration::from_secs(60)).unwrap();
    let text = padded_text("1 1 0.5\n2 3 0.25\n7 5 0.75\n");
    let replies: Vec<Json> = (0..3)
        .map(|_| client.roundtrip(&spmv("tune", &text)).unwrap())
        .collect();
    assert_eq!(
        replies[0].get("cached").and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(replies[1], replies[2]);
    let stats = client.stats().unwrap();
    assert_eq!(memo_field(&stats, "hits"), 1);
    assert_eq!(memo_field(&stats, "admitted"), 1);
    // All three went to the one shard that owns the fingerprint.
    let requests: Vec<u64> = shards
        .iter()
        .map(|s| {
            let stats = connect(s).stats().unwrap();
            stats
                .get("server")
                .unwrap()
                .get("requests")
                .unwrap()
                .as_u64()
                .unwrap()
        })
        .collect();
    assert_eq!(requests.iter().max(), Some(&4), "{requests:?}");
    drop(client);
    router.begin_shutdown();
    router.wait();
    for s in shards {
        connect(&s).shutdown().unwrap();
        s.wait().unwrap();
    }
}

/// Runs `check` against a single server, then against a router in front of
/// two shards; `tier` is the `stats` section that holds `requests` there.
fn on_both_tiers(name: &str, check: impl Fn(std::net::SocketAddr, &str)) {
    let (server, _tuner) = start_counting_server(&tmp_dir(&format!("{name}-server")));
    check(server.local_addr(), "server");
    connect(&server).shutdown().unwrap();
    server.wait().unwrap();

    let shards: Vec<Server> = (0..2)
        .map(|k| start_counting_server(&tmp_dir(&format!("{name}-shard-{k}"))).0)
        .collect();
    let mut config = waco_serve::RouterConfig::builder();
    for s in &shards {
        config = config.shard(s.local_addr().to_string());
    }
    let router = waco_serve::Router::start(config.build().unwrap()).unwrap();
    check(router.local_addr(), "router");
    router.begin_shutdown();
    router.wait();
    for s in shards {
        connect(&s).shutdown().unwrap();
        s.wait().unwrap();
    }
}

/// A frame around `body`, whatever its bytes.
fn frame_of(body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body);
    frame
}

/// One reply frame's exact bytes, prefix included.
fn read_raw_frame(s: &mut std::net::TcpStream) -> Vec<u8> {
    use std::io::Read as _;
    let mut frame = vec![0u8; 4];
    s.read_exact(&mut frame).unwrap();
    let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    frame.resize(4 + len, 0);
    s.read_exact(&mut frame[4..]).unwrap();
    frame
}

/// The reply a malformed `body` gets: `parse_body`'s message, as an
/// `ok:false` frame.
fn malformed_reply(body: &[u8]) -> Vec<u8> {
    use waco_serve::protocol::{encode_frame, error_response, parse_body, Frame};
    let Frame::Malformed(msg) = parse_body(body) else {
        panic!("{body:?} decodes")
    };
    encode_frame(&error_response(&msg, false))
}

fn stats_at(addr: std::net::SocketAddr) -> Json {
    Client::connect(&addr.to_string(), Duration::from_secs(60))
        .unwrap()
        .stats()
        .unwrap()
}

const NOT_JSON: &[u8] = br#"{"op":"tune","kernel":"spmv""#;
const NOT_UTF8: &[u8] = b"{\"op\":\"\xff\xfe\"}";

/// Memo hits are answered without a decode and malformed bodies by the
/// handler, yet replies to five frames pipelined in one write come back in
/// request order. Each error reply is `parse_body`'s message as an
/// `ok:false` frame, and a malformed body is answered without counting as a
/// request.
#[test]
fn pipelined_memo_hits_and_malformed_bodies_answer_in_request_order() {
    on_both_tiers("memo-pipelined", |addr, tier| {
        use std::io::Write as _;
        use waco_serve::protocol::encode_frame;
        let a = padded_text("1 1 0.5\n2 3 0.25\n7 5 0.75\n");
        let b = padded_text("1 2 0.5\n4 3 0.25\n8 8 0.75\n");
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        // Each frame's second arrival is admitted.
        for op in ["tune", "tune", "lookup", "lookup"] {
            raw_roundtrip(&mut s, &spmv(op, &a));
        }
        let requests = |stats: &Json| stats.get(tier).unwrap().get("requests").unwrap().as_u64();
        let before = stats_at(addr);

        let script = [
            encode_frame(&spmv("tune", &a)),
            frame_of(NOT_JSON),
            frame_of(NOT_UTF8),
            encode_frame(&spmv("lookup", &a)),
            encode_frame(&spmv("lookup", &b)),
        ];
        s.write_all(&script.concat()).unwrap();
        let replies: Vec<Vec<u8>> = script.iter().map(|_| read_raw_frame(&mut s)).collect();
        assert_eq!(replies[1], malformed_reply(NOT_JSON), "{tier}");
        assert_eq!(replies[2], malformed_reply(NOT_UTF8), "{tier}");
        let json = |frame: &[u8]| Json::parse(std::str::from_utf8(&frame[4..]).unwrap()).unwrap();
        let field = |frame: &[u8], key: &str| json(frame).get(key).and_then(Json::as_bool);
        let fp = |frame: &[u8]| {
            waco_serve::protocol::response_decision(&json(frame))
                .unwrap()
                .fingerprint
        };
        assert_eq!(field(&replies[0], "cached"), Some(true), "{tier}");
        assert_eq!(fp(&replies[0]), fingerprint_of(&a));
        assert_eq!(field(&replies[3], "found"), Some(true), "{tier}");
        assert_eq!(fp(&replies[3]), fingerprint_of(&a));
        assert_eq!(field(&replies[4], "found"), Some(false), "{tier}");

        let after = stats_at(addr);
        // This `stats` and the three well-formed frames; not the two
        // malformed ones.
        assert_eq!(requests(&after), requests(&before).map(|r| r + 4), "{tier}");
        assert_eq!(memo_field(&after, "hits"), memo_field(&before, "hits") + 2);
    });
}

/// A body that never decodes is answered the same way every time, and it
/// is never admitted to either tier's memo.
#[test]
fn a_repeated_malformed_body_is_never_admitted() {
    on_both_tiers("memo-garbage", |addr, tier| {
        use std::io::Write as _;
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        for _ in 0..5 {
            s.write_all(&frame_of(NOT_JSON)).unwrap();
            assert_eq!(read_raw_frame(&mut s), malformed_reply(NOT_JSON), "{tier}");
        }
        let stats = stats_at(addr);
        for field in ["hits", "admitted", "entries", "bytes"] {
            assert_eq!(memo_field(&stats, field), 0, "{tier} memo.{field}");
        }
    });
}
