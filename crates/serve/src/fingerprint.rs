//! Sparsity fingerprints: a compact, deterministic digest of a matrix's
//! sparsity structure used to key cached tuning decisions.
//!
//! WACO's amortization story (PAPER.md §5–6) relies on one cost-model
//! training run serving many deployment-time queries; BestFormat-style
//! format selection goes further and reuses *decisions* across structurally
//! similar matrices. The fingerprint captures the structure signals the cost
//! model itself consumes — dimensions, nnz, row/column population
//! histograms, and the block-density statistics from
//! [`waco_tensor::MatrixStats`] — and hashes a canonical byte encoding of
//! them with two independent FNV-1a 64 passes, yielding a 128-bit digest.
//!
//! Determinism notes:
//! * [`CooMatrix`] sorts and deduplicates on construction, so the digest is
//!   insensitive to the order triplets were supplied in.
//! * Floating-point statistics are quantized (`QUANT` decimal places) before
//!   encoding so that bit-level noise in alternative computation orders
//!   cannot split structurally identical matrices across cache keys.

use std::fmt;

use waco_tensor::stats::{log2_histogram, HIST_BUCKETS};
use waco_tensor::{CooMatrix, MatrixStats};

/// The workspace's one FNV-1a 64, re-exported at the path the journal and
/// sync checksums, the hash ring and the benchmark import it from.
pub use waco_runtime::hash::{fnv1a64, Fnv64};

/// Offset basis for the second, independent pass (first pass basis hashed
/// through one FNV step so the two streams decorrelate immediately).
const FNV_OFFSET2: u64 = (Fnv64::OFFSET ^ 0xa5a5_a5a5_a5a5_a5a5).wrapping_mul(Fnv64::PRIME);

/// Fixed-point quantization factor for float statistics: 6 decimal places.
const QUANT: f64 = 1e6;

/// A 128-bit sparsity fingerprint.
///
/// Equal fingerprints indicate (up to hash collision, ~2⁻¹²⁸) matrices whose
/// sparsity structure is indistinguishable to the tuning pipeline, so a
/// cached decision for one applies to the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    /// First 64 bits (standard FNV-1a basis).
    pub hi: u64,
    /// Second 64 bits (independent basis over the same canonical bytes).
    pub lo: u64,
}

impl Fingerprint {
    /// Computes the fingerprint of a matrix's sparsity structure.
    ///
    /// Values are ignored: two matrices with the same pattern but different
    /// stored numbers fingerprint identically, which is exactly the reuse
    /// granularity of format/schedule decisions.
    pub fn of_matrix(m: &CooMatrix) -> Self {
        let _span = waco_obs::span("serve.fingerprint");
        let bytes = canonical_bytes(m);
        let mut a = Fnv64::new();
        a.write(&bytes);
        let mut b = Fnv64::with_basis(FNV_OFFSET2);
        b.write(&bytes);
        let fp = Fingerprint {
            hi: a.finish(),
            lo: b.finish(),
        };
        waco_obs::counter("serve.fingerprint.computed", 1);
        fp
    }

    /// Parses the `hi:lo` hex form produced by [`fmt::Display`].
    pub fn parse(text: &str) -> Option<Self> {
        let (hi, lo) = text.split_once(':')?;
        Some(Fingerprint {
            hi: u64::from_str_radix(hi, 16).ok()?,
            lo: u64::from_str_radix(lo, 16).ok()?,
        })
    }

    /// Folds the two halves into one `u64` (shard/bucket selection).
    pub fn fold(&self) -> u64 {
        self.hi ^ self.lo.rotate_left(32)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}:{:016x}", self.hi, self.lo)
    }
}

/// Canonical byte encoding of the structure signals. Field order and widths
/// are part of the cache-key contract — changing them invalidates every
/// journal on disk, so bump [`crate::journal::JOURNAL_VERSION`] if you do.
fn canonical_bytes(m: &CooMatrix) -> Vec<u8> {
    let row_nnz = m.row_nnz();
    let stats = MatrixStats::compute_with_row_nnz(m, &row_nnz);
    let mut out = Vec::with_capacity(64 + HIST_BUCKETS * 16);

    out.extend_from_slice(b"waco-fp-v1");
    push_u64(&mut out, m.nrows() as u64);
    push_u64(&mut out, m.ncols() as u64);
    push_u64(&mut out, m.nnz() as u64);

    for bucket in log2_histogram(&row_nnz) {
        push_u64(&mut out, bucket);
    }
    for bucket in log2_histogram(&m.col_nnz()) {
        push_u64(&mut out, bucket);
    }

    push_u64(&mut out, stats.row_nnz_max as u64);
    push_u64(&mut out, stats.block8_count as u64);
    push_quantized(&mut out, stats.density);
    push_quantized(&mut out, stats.row_cv);
    push_quantized(&mut out, stats.diag_distance_mean);
    push_quantized(&mut out, stats.symmetry);
    push_quantized(&mut out, stats.block8_fill_mean);
    out
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Quantizes a finite statistic to 6 decimal places and encodes the signed
/// fixed-point integer. Non-finite inputs (possible only for degenerate
/// shapes) map to a sentinel.
fn push_quantized(out: &mut Vec<u8>, v: f64) {
    let q: i64 = if v.is_finite() {
        (v * QUANT).round() as i64
    } else {
        i64::MIN
    };
    out.extend_from_slice(&q.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_tensor::gen::{self, Rng64};

    #[test]
    fn deterministic_across_calls() {
        let m = gen::mesh2d(16, 16);
        assert_eq!(Fingerprint::of_matrix(&m), Fingerprint::of_matrix(&m));
    }

    #[test]
    fn entry_order_insensitive() {
        let mut rng = Rng64::seed_from(7);
        let m = gen::uniform_random(64, 64, 0.05, &mut rng);
        let mut trips: Vec<_> = m.iter().collect();
        trips.reverse();
        let shuffled = CooMatrix::from_triplets(m.nrows(), m.ncols(), trips).unwrap();
        assert_eq!(
            Fingerprint::of_matrix(&m),
            Fingerprint::of_matrix(&shuffled)
        );
    }

    #[test]
    fn value_insensitive_pattern_sensitive() {
        let mut rng = Rng64::seed_from(9);
        let m = gen::uniform_random(64, 64, 0.05, &mut rng);
        let rescaled = m.with_uniform_values(42.0);
        assert_eq!(
            Fingerprint::of_matrix(&m),
            Fingerprint::of_matrix(&rescaled)
        );

        let different = gen::uniform_random(64, 64, 0.05, &mut rng);
        assert_ne!(
            Fingerprint::of_matrix(&m),
            Fingerprint::of_matrix(&different),
            "different patterns must not collide"
        );
    }

    #[test]
    fn display_parse_roundtrip() {
        let fp = Fingerprint {
            hi: 0xdead_beef_0000_0001,
            lo: 0x0123_4567_89ab_cdef,
        };
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::parse("nope"), None);
        assert_eq!(Fingerprint::parse("12:zz"), None);
    }
}
