//! Property suites for the tuning cache's three load-bearing invariants:
//! fingerprint stability, the LRU capacity bound under contention, and
//! journal recovery after torn writes.

use std::sync::Arc;

use waco_check::props;
use waco_serve::fingerprint::Fingerprint;
use waco_serve::journal::{Journal, JOURNAL_MAGIC};
use waco_serve::ShardedLru;
use waco_tensor::gen::{self, Rng64};
use waco_tensor::CooMatrix;

props! {
    /// Fingerprints are deterministic and depend only on the sparsity
    /// structure, not on the order the COO entries were assembled in.
    cases = 32,
    fn fingerprint_ignores_entry_order(n in 4usize..64, dens_pm in 20usize..250,
                                       seed in 0u64..1_000_000) {
        let mut rng = Rng64::seed_from(seed);
        let m = gen::uniform_random(n, n, dens_pm as f64 / 1000.0, &mut rng);
        let fp = Fingerprint::of_matrix(&m);
        assert_eq!(fp, Fingerprint::of_matrix(&m), "recomputation is stable");

        let mut triplets: Vec<_> = m.iter().collect();
        rng.shuffle(&mut triplets);
        let shuffled = CooMatrix::from_triplets(m.nrows(), m.ncols(), triplets)
            .expect("same entries rebuild");
        assert_eq!(fp, Fingerprint::of_matrix(&shuffled), "order must not matter");
    }

    /// Dropping a nonzero changes the structure and therefore the
    /// fingerprint (nnz is part of the canonical encoding).
    cases = 24,
    fn fingerprint_separates_structures(n in 4usize..64, seed in 0u64..1_000_000) {
        let mut rng = Rng64::seed_from(seed);
        let m = gen::uniform_random(n, n, 0.2, &mut rng);
        let mut triplets: Vec<_> = m.iter().collect();
        if triplets.len() < 2 {
            return; // nothing to drop
        }
        let victim = rng.below(triplets.len());
        triplets.remove(victim);
        let smaller = CooMatrix::from_triplets(m.nrows(), m.ncols(), triplets).unwrap();
        assert_ne!(Fingerprint::of_matrix(&m), Fingerprint::of_matrix(&smaller));
    }

    /// After truncating the journal file at an arbitrary byte offset, a
    /// reopen recovers exactly the records that were completely written
    /// before the cut — never a torn one, never fewer than the complete
    /// prefix.
    cases = 24,
    fn journal_recovers_complete_prefix(nrec in 1usize..16, cut_frac_pm in 0usize..1001,
                                        seed in 0u64..1_000_000) {
        let dir = std::env::temp_dir().join(format!(
            "waco-serve-props-{}-{seed}-{nrec}-{cut_frac_pm}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("torn.journal");

        let mut rng = Rng64::seed_from(seed);
        let payloads: Vec<Vec<u8>> = (0..nrec)
            .map(|i| {
                let len = 1 + rng.below(200);
                (0..len).map(|j| (i * 31 + j) as u8).collect()
            })
            .collect();
        {
            let (mut journal, recovered, _) =
                Journal::open(&path, |_| Vec::new()).expect("fresh journal");
            assert!(recovered.is_empty());
            for p in &payloads {
                journal.append(p).expect("append");
            }
            journal.sync().expect("sync");
        }

        // Tear the file at a proportional offset and work out which
        // records survive intact: header (magic + version), then
        // [len u32][checksum u64][payload] per record.
        let full = std::fs::metadata(&path).expect("journal exists").len();
        let cut = full * cut_frac_pm as u64 / 1000;
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut).expect("truncate");
        drop(file);
        let header_len = (JOURNAL_MAGIC.len() + 4) as u64;
        let mut offset = header_len;
        let mut expect = 0usize;
        for p in &payloads {
            offset += 4 + 8 + p.len() as u64;
            if offset <= cut {
                expect += 1;
            }
        }
        if cut < header_len {
            expect = 0; // damaged header: the journal is reinitialized
        }

        let (mut journal, recovered, report) =
            Journal::open(&path, |_| Vec::new()).expect("reopen after tear");
        assert_eq!(recovered.len(), expect, "complete prefix, cut at {cut}/{full}");
        assert_eq!(recovered, payloads[..expect].to_vec());
        assert_eq!(report.records_recovered, expect);

        // The recovered journal accepts appends and a further clean reopen
        // sees them.
        journal.append(b"after-recovery").expect("append after recovery");
        journal.sync().expect("sync");
        drop(journal);
        let (_, again, _) = Journal::open(&path, |_| Vec::new()).expect("clean reopen");
        assert_eq!(again.len(), expect + 1);
        assert_eq!(again.last().map(Vec::as_slice), Some(&b"after-recovery"[..]));

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Eight threads hammer a 64-entry LRU with a key space 8x its capacity;
/// the resident count must never exceed capacity, mid-flight or after.
#[test]
fn lru_never_exceeds_capacity_under_contention() {
    const CAPACITY: usize = 64;
    const THREADS: usize = 8;
    const OPS: usize = 4_000;

    let lru = Arc::new(ShardedLru::with_shards(CAPACITY, THREADS));
    let handles: Vec<_> = (0..THREADS as u64)
        .map(|t| {
            let lru = Arc::clone(&lru);
            std::thread::spawn(move || {
                let mut rng = Rng64::seed_from(0x10c0 + t);
                for i in 0..OPS {
                    let key = rng.below(CAPACITY * 8) as u64;
                    if rng.chance(0.6) {
                        lru.insert(key, (t, i));
                    } else {
                        lru.get(key);
                    }
                    if i % 256 == 0 {
                        assert!(
                            lru.len() <= lru.capacity(),
                            "resident {} exceeds capacity {}",
                            lru.len(),
                            lru.capacity()
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread panicked");
    }

    assert!(lru.len() <= lru.capacity());
    assert!(!lru.is_empty(), "the cache retained recent entries");
    // Every resident entry is also reachable through `get`.
    let mut keys = Vec::new();
    lru.for_each(|k, _| keys.push(k));
    assert_eq!(keys.len(), lru.len());
    for k in keys {
        assert!(lru.get(k).is_some());
    }
}

/// `fixtures/three-records.journal` was written by an earlier build. Every
/// record checksum must still verify — the hash behind them is part of the
/// on-disk format, so a journal on disk keeps replaying across upgrades.
#[test]
fn journal_from_an_earlier_build_still_replays() {
    let dir = std::env::temp_dir().join(format!("waco-serve-compat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("old.journal");
    std::fs::write(&path, include_bytes!("fixtures/three-records.journal")).unwrap();

    let (_, recovered, report) = Journal::open(&path, |_| Vec::new()).expect("open");
    assert_eq!(
        recovered,
        vec![
            b"{\"k\":1}".to_vec(),
            Vec::new(),
            "third record, é and all".as_bytes().to_vec(),
        ]
    );
    assert_eq!(report.bytes_truncated, 0);
    assert!(!report.reinitialized);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One matrix per generator family at three sizes, with the fingerprint an
/// earlier build gave it. A fingerprint is a cache key on disk and a shard
/// address on the ring: however the statistics behind it are computed, these
/// must not move (or [`waco_serve::journal::JOURNAL_VERSION`] must).
#[test]
fn fingerprints_from_an_earlier_build_still_match() {
    use waco_tensor::gen::Family;
    const SIZES: [usize; 3] = [64, 256, 1024];
    let golden: [(Family, [&str; 3]); 7] = [
        (
            Family::Uniform,
            [
                "3c0f78a1941d490c:8b9cedc437cbb761",
                "561696204aea2699:367a9fb9518de95c",
                "55714a18c75b6a32:40af953b4767fd0f",
            ],
        ),
        (
            Family::Banded,
            [
                "4fa5de11cf4c7751:e13debc2cbe79fd8",
                "3ad885c955571aad:36c3e1e9b23d9504",
                "4291f11ff5f7e789:ba62fb3c12af6954",
            ],
        ),
        (
            Family::BlockedDense,
            [
                "84266b9d64d3a03c:f418889133794e89",
                "9e92f59c92bc9cd8:53f960c28ea99d2d",
                "577ee0ba4aceb0c6:203d115919edf63f",
            ],
        ),
        (
            Family::BlockedSparse,
            [
                "26f76dddcc1532b8:3df0c409c9d41fb9",
                "05c21e26838b7f50:cac1bf1d1d314279",
                "4701850fb7e8841b:fe05cbd639deea56",
            ],
        ),
        (
            Family::PowerLaw,
            [
                "d08a4da9817dcad0:c309144513250e01",
                "3fedc4969a963374:a502160ae0d46dfd",
                "622ab4be1ce8a751:12eb0d37c2dc7d48",
            ],
        ),
        (
            Family::Kronecker,
            [
                "10b07ab1f7007a3e:105fc9ad7f3d7547",
                "f4d92eb6f5fcb82d:aa899523d3f2a3e8",
                "efe94b12aea5aabf:56a7608f299a1b9a",
            ],
        ),
        (
            Family::Mesh,
            [
                "77172e9719806005:de46cde41de4d648",
                "374669ebe480dfd4:65cfedec0afe23ed",
                "1d67ede59c771c00:59cdf9f5681d3491",
            ],
        ),
    ];
    for (family, fingerprints) in golden {
        for (n, want) in SIZES.into_iter().zip(fingerprints) {
            let mut rng = Rng64::seed_from(0x5eed ^ n as u64);
            let m = family.generate(n, &mut rng);
            let got = Fingerprint::of_matrix(&m).to_string();
            assert_eq!(got, want, "{family:?} at {n}");
        }
    }
}
