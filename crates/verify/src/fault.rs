//! Fault injection for the serving layer. Two stores of truth are attacked:
//!
//! * **The journal** — every truncation point and every byte flip of a
//!   populated journal file is replayed through [`Journal::open`]. Recovery
//!   must never panic, never error (corruption is repaired, not reported as
//!   failure), and never surface a record that is not byte-identical to a
//!   prefix of what was appended — the per-record checksum is the witness.
//!   At every cut the open report counts that prefix, and the repaired
//!   journal takes an append that a clean reopen sees.
//! * **The wire** — a client that drops a request frame mid-message must
//!   not wedge or poison the server (the next client gets the correct
//!   tune), and a server that short-writes or corrupts a response frame
//!   must surface a clean [`Err`] to the client, never a fabricated tune.
//!
//! Everything runs in a scratch directory under the system temp dir and on
//! ephemeral loopback ports; nothing here touches real caches.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Duration;

use waco_schedule::Kernel;
use waco_serve::journal::OpenReport;
use waco_serve::protocol::{encode_frame, read_frame};
use waco_serve::{Client, Decision, Journal, Json, TuningCache};
use waco_tensor::gen::Rng64;
use waco_tensor::CooMatrix;

use crate::distributed::{oracle_decision, scripted_peer, start_shard, CLIENT_TIMEOUT};
use crate::problem::Sparse;
use crate::sweep::Tally;
use crate::{corpus, scratch_dir, Budget, SuiteReport, VerifyConfig};

const SUITE: &str = "fault";

/// Deterministic journal payloads, including an empty one.
fn payloads(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng64::seed_from(seed);
    (0..6)
        .map(|i| {
            let len = if i == 2 { 0 } else { 16 + (i * 7) % 23 };
            (0..len).map(|_| (rng.below(256)) as u8).collect()
        })
        .collect()
}

type Recovered = (Journal, Vec<Vec<u8>>, OpenReport);

/// Opens `path` through recovery; `Err` says how recovery failed.
fn open_recovered(path: &Path) -> Result<Recovered, String> {
    match catch_unwind(AssertUnwindSafe(|| Journal::open(path, |_| vec![]))) {
        Err(_) => Err("panicked".to_string()),
        Ok(opened) => opened.map_err(|e| format!("errored ({e})")),
    }
}

fn is_prefix(recovered: &[Vec<u8>], originals: &[Vec<u8>]) -> bool {
    recovered.len() <= originals.len() && recovered.iter().zip(originals).all(|(a, b)| a == b)
}

/// Journal torn-write and bit-flip sweeps.
fn journal_faults(cfg: &VerifyConfig, ctx: &mut Tally) {
    let dir = scratch_dir(SUITE, cfg, "journal");
    let pristine = dir.join("pristine.journal");
    let originals = payloads(cfg.seed);

    // Measure the header: an empty journal is exactly the header.
    let header_len = {
        let empty = dir.join("empty.journal");
        let _ = Journal::open(&empty, |_| vec![]).expect("creating empty journal");
        std::fs::metadata(&empty).expect("stat empty journal").len() as usize
    };

    {
        let (mut j, _, _) = Journal::open(&pristine, |_| vec![]).expect("creating journal");
        for p in &originals {
            j.append(p).expect("appending");
        }
        j.sync().expect("syncing");
    }
    let bytes = std::fs::read(&pristine).expect("reading journal file");

    // Record boundaries: header, then `len u32 + crc u64 + payload` each.
    let mut boundaries = vec![header_len];
    for p in &originals {
        boundaries.push(boundaries.last().unwrap() + 4 + 8 + p.len());
    }
    assert_eq!(*boundaries.last().unwrap(), bytes.len(), "boundary math");

    let victim = dir.join("victim.journal");

    // Every truncation point: recovery must yield and report exactly the
    // records whose bytes fully survived the cut, and the repaired journal
    // must take an append that a clean reopen then sees.
    for cut in 0..bytes.len() {
        std::fs::write(&victim, &bytes[..cut]).expect("writing truncated copy");
        // Cuts inside the header reinitialize the journal: zero records.
        let want = boundaries
            .iter()
            .filter(|&&b| b <= cut)
            .count()
            .saturating_sub(1);
        let (mut journal, recovered, report) = match open_recovered(&victim) {
            Err(why) => {
                ctx.check("journal-truncation", false, || {
                    format!("recovery {why} at cut {cut}")
                });
                continue;
            }
            Ok(opened) => opened,
        };
        ctx.check(
            "journal-truncation",
            recovered.len() == want && is_prefix(&recovered, &originals),
            || {
                format!(
                    "cut {cut}: recovered {} records, wanted {want} (prefix intact: {})",
                    recovered.len(),
                    is_prefix(&recovered, &originals)
                )
            },
        );
        ctx.check(
            "journal-truncation-report",
            report.records_recovered == want,
            || format!("cut {cut}: report says {report:?}, wanted {want} records"),
        );
        let appended = journal
            .append(b"after-recovery")
            .and_then(|()| journal.sync());
        drop(journal);
        let again = appended.and_then(|()| Journal::open(&victim, |_| vec![]));
        let again = again.map(|(_, records, _)| records);
        ctx.check(
            "journal-append-after-recovery",
            again.as_ref().is_ok_and(|r| {
                r.len() == want + 1 && r.last().map(Vec::as_slice) == Some(b"after-recovery")
            }),
            || format!("cut {cut}: reopen after an append read {again:?}, wanted {want} + 1"),
        );
    }

    // Every byte flip: recovered records must stay a byte-exact prefix —
    // a checksum-passing corrupt record would be a poisoned cache entry.
    let masks: &[u8] = match cfg.budget {
        Budget::Smoke => &[0xFF],
        Budget::Nightly => &[0x01, 0x80, 0xFF],
    };
    for pos in 0..bytes.len() {
        for &mask in masks {
            let mut copy = bytes.clone();
            copy[pos] ^= mask;
            std::fs::write(&victim, &copy).expect("writing flipped copy");
            match open_recovered(&victim) {
                Err(why) => ctx.check("journal-bit-flip", false, || {
                    format!("recovery {why} at pos {pos} mask {mask:#x}")
                }),
                Ok((_, recovered, _)) => ctx.check(
                    "journal-bit-flip",
                    is_prefix(&recovered, &originals),
                    || format!("pos {pos} mask {mask:#x}: a non-prefix record survived recovery"),
                ),
            }
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The smoke corpus's matrices that store at least one entry, in order.
fn nonempty_matrices(cfg: &VerifyConfig) -> impl Iterator<Item = CooMatrix> {
    let cases = corpus::cases(cfg.seed, Budget::Smoke, Kernel::SpMV);
    cases.into_iter().filter_map(|c| match c.sparse {
        Sparse::Matrix(m) if m.nnz() > 0 => Some(m),
        _ => None,
    })
}

/// Torn write against the full cache: earlier decisions must survive
/// byte-exact; the torn one must be a clean miss.
fn cache_torn_write(cfg: &VerifyConfig, ctx: &mut Tally) {
    let dir = scratch_dir(SUITE, cfg, "cache");
    let journal = dir.join("cache.journal");
    let matrices: Vec<CooMatrix> = nonempty_matrices(cfg).take(4).collect();
    let decisions: Vec<Decision> = matrices
        .iter()
        .map(|m| oracle_decision(m, Kernel::SpMV, 0))
        .collect();

    {
        let cache = TuningCache::open(&journal, 64).expect("opening cache");
        for d in &decisions {
            cache.insert(d.clone()).expect("inserting");
        }
        cache.sync().expect("syncing");
    }

    // Tear the tail: drop the last 5 bytes, mid-way through the last record.
    let bytes = std::fs::read(&journal).expect("reading cache journal");
    std::fs::write(&journal, &bytes[..bytes.len() - 5]).expect("tearing journal");

    match TuningCache::open(&journal, 64) {
        Err(e) => ctx.check("cache-torn-write", false, || {
            format!("reopen after torn write errored: {e}")
        }),
        Ok(cache) => {
            for (i, d) in decisions.iter().enumerate().take(decisions.len() - 1) {
                let got = cache.lookup(d.fingerprint, d.kernel, d.dense_extent);
                ctx.check("cache-torn-write", got.as_ref() == Some(d), || {
                    format!("decision {i} lost or mutated after torn-tail recovery")
                });
            }
            let torn = decisions.last().unwrap();
            let got = cache.lookup(torn.fingerprint, torn.kernel, torn.dense_extent);
            ctx.check("cache-torn-write", got.is_none(), || {
                "the torn record was served instead of being dropped".to_string()
            });
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Mid-frame TCP faults, both directions.
fn tcp_faults(cfg: &VerifyConfig, ctx: &mut Tally) {
    let dir = scratch_dir(SUITE, cfg, "tcp");
    let m = nonempty_matrices(cfg)
        .next()
        .expect("corpus has a non-empty matrix");
    let want = oracle_decision(&m, Kernel::SpMV, 0);

    // Direction 1: a request frame dropped mid-message. The victim
    // connection dies; the server — and its cache — must not.
    let (_, server) = start_shard(&dir);
    {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("raw connect");
        raw.write_all(&4096u32.to_be_bytes()).expect("prefix");
        raw.write_all(b"{\"op\":\"tune\",\"trunc")
            .expect("partial body");
        // Drop: the frame never completes.
    }
    let tune = Client::connect(&server.local_addr().to_string(), CLIENT_TIMEOUT)
        .and_then(|mut c| c.tune(&m, "spmv", 0));
    match tune {
        Err(e) => ctx.check("tcp-dropped-request", false, || {
            format!("server unusable after a dropped request frame: {e}")
        }),
        Ok(reply) => ctx.check(
            "tcp-dropped-request",
            reply.decision.as_ref() == Some(&want),
            || "tune after a dropped request frame returned a wrong decision".to_string(),
        ),
    }
    server.begin_shutdown();
    server.wait().expect("server drain");

    // Direction 2: the server's response is short-written / corrupted.
    // The client must return Err, never a fabricated tune result.
    type Corruptor = fn(&Json) -> Vec<u8>;
    let cases: &[(&str, Corruptor)] = &[
        ("tcp-short-response", |body| {
            let full = encode_frame(body);
            full[..full.len() / 2].to_vec()
        }),
        ("tcp-garbage-response", |_| {
            let garbage = b"!!this is not json!!";
            let mut out = Vec::new();
            out.extend_from_slice(&(garbage.len() as u32).to_be_bytes());
            out.extend_from_slice(garbage);
            out
        }),
    ];
    for &(name, corrupt) in cases {
        let body = Json::obj([("ok", Json::Bool(true)), ("cached", Json::Bool(false))]);
        let (addr, handle) = scripted_peer(1, move |_, mut sock| {
            let _ = read_frame(&mut sock);
            let _ = sock.write_all(&corrupt(&body));
            // Drop: connection closes mid-reply.
        });
        let outcome = Client::connect(&addr.to_string(), Duration::from_secs(5))
            .and_then(|mut c| c.tune(&m, "spmv", 0));
        ctx.check(name, outcome.is_err(), || {
            "client accepted a torn/corrupt response as a tune result".to_string()
        });
        handle.join().expect("fake server thread");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The fault-injection suite.
pub fn fault_suite(cfg: &VerifyConfig) -> SuiteReport {
    let mut ctx = Tally::new(SUITE);
    journal_faults(cfg, &mut ctx);
    cache_torn_write(cfg, &mut ctx);
    tcp_faults(cfg, &mut ctx);
    ctx.finish()
}
