//! Property suites for the tuning cache's load-bearing invariants:
//! fingerprint stability and the capacity bound under contention, plus
//! the on-disk formats an earlier build wrote. Journal recovery after torn
//! writes is `waco-verify`'s `fault` suite, at every byte offset.

use std::sync::Arc;

use waco_check::props;
use waco_schedule::{sample, Kernel, Space};
use waco_serve::fingerprint::Fingerprint;
use waco_serve::journal::Journal;
use waco_serve::{Decision, TuningCache};
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
}

/// Eight threads insert into and look up a 64-entry tuning cache over a
/// key space 8x its capacity. Keys that share a fingerprint differ only in
/// kernel or dense extent. The resident count never exceeds the capacity,
/// mid-flight or after, and every hit is the decision inserted under that
/// exact key.
#[test]
fn cache_never_exceeds_capacity_under_contention() {
    const CAPACITY: usize = 64;
    const THREADS: u64 = 8;
    const OPS: usize = 1_500;
    const INSTANCES: [(Kernel, usize); 4] = [
        (Kernel::SpMV, 0),
        (Kernel::SpMM, 32),
        (Kernel::SpMM, 64),
        (Kernel::SDDMM, 32),
    ];

    let dir = std::env::temp_dir().join(format!("waco-serve-contention-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = Arc::new(TuningCache::open(dir.join("tuning.journal"), CAPACITY).unwrap());
    let decisions: Arc<Vec<Decision>> = Arc::new(
        (0..CAPACITY as u64 * 8)
            .map(|k| {
                let (kernel, dense_extent) = INSTANCES[k as usize % INSTANCES.len()];
                let space = Space::new(kernel, vec![64, 64], dense_extent);
                Decision {
                    fingerprint: Fingerprint {
                        hi: k / 4,
                        lo: !(k / 4),
                    },
                    kernel,
                    dense_extent,
                    schedule: sample::sample_indexed(&space, k, 7),
                    kernel_seconds: k as f64 * 1e-6,
                    tuning_seconds: 0.5,
                }
            })
            .collect(),
    );
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (cache, decisions) = (Arc::clone(&cache), Arc::clone(&decisions));
            std::thread::spawn(move || {
                let mut rng = Rng64::seed_from(0x10c0 + t);
                for i in 0..OPS {
                    let d = &decisions[rng.below(decisions.len())];
                    if rng.chance(0.6) {
                        cache.insert(d.clone()).unwrap();
                    } else if let Some(hit) = cache.lookup(d.fingerprint, d.kernel, d.dense_extent)
                    {
                        assert_eq!(&hit, d, "a hit is the decision of its exact key");
                    }
                    if i % 64 == 0 {
                        let resident = cache.stats().resident;
                        assert!(resident <= CAPACITY as u64, "resident {resident}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread panicked");
    }

    assert_eq!(cache.capacity(), CAPACITY);
    let stats = cache.stats();
    assert_eq!(stats.resident, CAPACITY as u64, "a full cache stays full");
    assert!(stats.hits > 0 && stats.misses > 0);
    let _ = std::fs::remove_dir_all(&dir);
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
