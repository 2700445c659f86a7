//! Journal-streaming equivalence: a peer-warmed cache must be byte-identical
//! to a local replay of the same decisions, and a truncated or corrupted
//! stream must surface a typed error and leave the joiner cold — never a
//! panic, never a partially-committed cache.

use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use waco_core::WacoError;
use waco_schedule::{named, Kernel, Space};
use waco_serve::cache::encode_payload;
use waco_serve::fingerprint::fnv1a64;
use waco_serve::protocol::{read_frame, sync_response, write_frame, SyncRecord};
use waco_serve::sync::warm_from_peer;
use waco_serve::tuner::{TunedOutcome, Tuner};
use waco_serve::{Client, Decision, ServeConfig, Server, TuningCache};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::CooMatrix;

const TIMEOUT: Duration = Duration::from_secs(30);

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("waco-sync-stream-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A pure tuner so the expected decision is computable in the test.
struct CsrTuner;

impl Tuner for CsrTuner {
    fn tune(
        &self,
        m: &CooMatrix,
        kernel: Kernel,
        dense_extent: usize,
    ) -> Result<TunedOutcome, WacoError> {
        let space = Space::new(kernel, vec![m.nrows(), m.ncols()], dense_extent);
        Ok(TunedOutcome {
            schedule: named::default_csr(&space),
            kernel_seconds: 1e-6,
            tuning_seconds: 2e-6,
        })
    }
}

fn start_server(cache_dir: &PathBuf) -> Server {
    let cfg = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .cache_dir(cache_dir)
        .workers(2)
        .build()
        .unwrap();
    Server::start(cfg, Arc::new(CsrTuner)).unwrap()
}

#[test]
fn peer_warm_is_byte_identical_to_local_replay() {
    let src_dir = tmp_dir("equiv-src");
    let join_dir = tmp_dir("equiv-join");
    let local_dir = tmp_dir("equiv-local");

    let matrices: Vec<CooMatrix> = (0..5)
        .map(|i| {
            let mut rng = Rng64::seed_from(900 + i);
            gen::banded(20 + (i as usize) * 6, 3, 0.9, &mut rng)
        })
        .collect();

    // Tune everything on the source shard, keeping the wire decisions.
    let server = start_server(&src_dir);
    let decisions: Vec<Decision> = {
        let mut c = Client::connect(&server.local_addr().to_string(), TIMEOUT).unwrap();
        matrices
            .iter()
            .map(|m| c.tune(m, "spmv", 0).unwrap().decision.unwrap())
            .collect()
    };

    // Warm a joiner over the wire while the source is still serving.
    let joiner = TuningCache::open(join_dir.join("tuning.journal"), 64).unwrap();
    let report = warm_from_peer(&server.local_addr().to_string(), TIMEOUT, &joiner).unwrap();
    assert_eq!(report.records, matrices.len());
    assert_eq!(report.resumes, 0);
    for d in &decisions {
        assert_eq!(
            joiner
                .lookup(d.fingerprint, d.kernel, d.dense_extent)
                .as_ref(),
            Some(d),
            "warmed cache must serve the exact streamed decision"
        );
    }
    joiner.sync().unwrap();
    drop(joiner);

    server.begin_shutdown();
    server.wait().unwrap();

    // Local replay: the same decisions inserted in the same order.
    {
        let local = TuningCache::open(local_dir.join("tuning.journal"), 64).unwrap();
        for d in &decisions {
            local.insert(d.clone()).unwrap();
        }
        local.sync().unwrap();
    }

    let src = std::fs::read(src_dir.join("tuning.journal")).unwrap();
    let join = std::fs::read(join_dir.join("tuning.journal")).unwrap();
    let local = std::fs::read(local_dir.join("tuning.journal")).unwrap();
    assert_eq!(src, join, "peer-warmed journal must equal the source's");
    assert_eq!(
        local, join,
        "peer-warmed journal must equal a local replay of the same decisions"
    );

    for d in [&src_dir, &join_dir, &local_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

fn decision_for(seed: u64) -> Decision {
    let mut rng = Rng64::seed_from(seed);
    let m = gen::banded(24, 3, 0.9, &mut rng);
    let space = Space::new(Kernel::SpMV, vec![m.nrows(), m.ncols()], 0);
    Decision {
        fingerprint: waco_serve::Fingerprint::of_matrix(&m),
        kernel: Kernel::SpMV,
        dense_extent: 0,
        schedule: named::default_csr(&space),
        kernel_seconds: 1e-6,
        tuning_seconds: 2e-6,
    }
}

/// `d`'s record with a valid checksum.
fn record_of(d: &Decision) -> SyncRecord {
    let payload = encode_payload(d);
    SyncRecord {
        crc: fnv1a64(payload.as_bytes()),
        payload,
    }
}

fn record_for(seed: u64) -> SyncRecord {
    record_of(&decision_for(seed))
}

/// Asserts a warm-up against a scripted peer fails with a typed error and
/// leaves the joiner byte-for-byte cold.
fn assert_cold_failure(
    name: &str,
    serve_conn: impl FnOnce(std::net::TcpStream) + Send + 'static,
    want_checkpoint: bool,
) {
    let dir = tmp_dir(name);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (sock, _) = listener.accept().unwrap();
        serve_conn(sock);
        // Listener drops here: any reconnect is refused, like a dead peer.
    });

    let journal = dir.join("tuning.journal");
    let cache = TuningCache::open(&journal, 64).unwrap();
    let cold_len = std::fs::metadata(&journal).unwrap().len();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        warm_from_peer(&addr.to_string(), Duration::from_secs(5), &cache)
    }));
    peer.join().unwrap();

    let err = outcome
        .unwrap_or_else(|_| panic!("{name}: warm-up panicked"))
        .expect_err("a mangled stream must not report success");
    if want_checkpoint {
        assert!(
            matches!(err, WacoError::Checkpoint(_)),
            "{name}: wanted Checkpoint, got {err}"
        );
    } else {
        assert!(
            matches!(err, WacoError::Io { .. }),
            "{name}: wanted Io, got {err}"
        );
    }

    // Cold fallback: no record committed, journal file untouched.
    let (records, total) = cache.journal_records(0).unwrap();
    assert!(records.is_empty() && total == 0, "{name}: joiner not cold");
    cache.sync().unwrap();
    assert_eq!(
        std::fs::metadata(&journal).unwrap().len(),
        cold_len,
        "{name}: journal grew despite the failed stream"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_stream_is_a_typed_error_and_cold_fallback() {
    // The peer sends one good batch of an announced two, then dies; every
    // reconnect is refused. The committed state must stay empty.
    assert_cold_failure(
        "truncated",
        |mut sock| {
            let _ = read_frame(&mut sock);
            let rec = record_for(41);
            write_frame(&mut sock, &sync_response(&[rec], 1, false, 2)).unwrap();
        },
        false,
    );
}

#[test]
fn corrupt_stream_is_a_typed_error_and_cold_fallback() {
    // Checksum mismatch: payload altered after the crc was computed.
    assert_cold_failure(
        "corrupt",
        |mut sock| {
            let _ = read_frame(&mut sock);
            let mut rec = record_for(42);
            rec.payload.replace_range(0..1, "[");
            write_frame(&mut sock, &sync_response(&[rec], 1, true, 1)).unwrap();
            let _ = read_frame(&mut sock);
        },
        true,
    );
}

#[test]
fn undecodable_record_is_a_typed_error_and_cold_fallback() {
    // Checksum valid, but the payload is not a decision: verification must
    // reject content, not just transport.
    assert_cold_failure(
        "undecodable",
        |mut sock| {
            let _ = read_frame(&mut sock);
            let payload = "{\"op\":\"not a decision\"}".to_string();
            let rec = SyncRecord {
                crc: fnv1a64(payload.as_bytes()),
                payload,
            };
            write_frame(&mut sock, &sync_response(&[rec], 1, true, 1)).unwrap();
            let _ = read_frame(&mut sock);
        },
        true,
    );
}

#[test]
fn one_misshapen_schedule_fails_the_whole_sync() {
    // A peer journal holding one record whose schedule misses a loop (say,
    // hand-edited) cannot be synced from at all: the good record beside it
    // is not committed either, and the joiner serves cold.
    assert_cold_failure(
        "misshapen",
        |mut sock| {
            let _ = read_frame(&mut sock);
            let mut bad = decision_for(44);
            bad.schedule.loop_order.pop();
            let records = [record_for(43), record_of(&bad)];
            write_frame(&mut sock, &sync_response(&records, 2, true, 2)).unwrap();
            let _ = read_frame(&mut sock);
        },
        true,
    );
}
