//! Versioned-binary persistence for [`ScheduleIndex`] — warm-start support
//! for long-running servers.
//!
//! Building an index is the expensive part of a cold start: `count` model
//! embeddings plus an HNSW construction. Both are deterministic in
//! `(model, space, count, seed, extras)`, and the schedules themselves are
//! re-derivable from `(space, count, seed)` via
//! [`waco_schedule::sample::sample_indexed`]. So a snapshot stores only
//! what is expensive to recompute — the embeddings and the graph — and the
//! loader re-samples and re-encodes the schedules, which is cheap.
//!
//! Layout (integers little-endian, following the journal conventions of the
//! serving layer):
//!
//! ```text
//! "WACOANNS" | version u32 | tag u64 | count u64 | seed u64 | extras u64
//! | n u64 | dim u64 | embeddings n×dim f32
//! | m u64 | entry u64 | max_level u64 | levels n×u64
//! | links per node: per level: len u64, ids len×u64
//! | checksum u64   (FNV-1a 64 of everything after the magic)
//! ```
//!
//! The `tag` is caller-supplied and must cover everything the embeddings
//! depend on (model weights, space, index configuration); a snapshot whose
//! tag does not match is stale and the caller rebuilds. Corruption is
//! detected by the trailing checksum before any field is trusted.

use std::io::{Read, Write};

use waco_model::CostModel;
use waco_runtime::hash::{fnv1a64, Fnv64};
use waco_schedule::encode;
use waco_schedule::{sample, Space, SuperSchedule};

use crate::hnsw::Hnsw;
use crate::index::ScheduleIndex;

/// Snapshot magic.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"WACOANNS";
/// Snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Upper bound on node/vector counts accepted at load (corruption guard).
const MAX_N: u64 = 1 << 32;

/// Why a snapshot could not be written or used.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The bytes are not a valid snapshot (bad magic/version/checksum or
    /// structurally inconsistent graph).
    Format(String),
    /// The snapshot is valid but was built under a different tag (stale
    /// model weights or configuration); the caller should rebuild.
    TagMismatch {
        /// The tag the caller expected.
        expected: u64,
        /// The tag stored in the snapshot.
        found: u64,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "index snapshot I/O: {e}"),
            Self::Format(msg) => write!(f, "bad index snapshot: {msg}"),
            Self::TagMismatch { expected, found } => write!(
                f,
                "index snapshot tag {found:016x} does not match expected {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Build parameters a snapshot must reproduce exactly; the loader
/// re-samples schedules from these.
#[derive(Debug, Clone)]
pub struct BuildParams {
    /// Number of uniformly sampled schedules.
    pub count: usize,
    /// Sampling seed (also the HNSW build seed, xor'd as in
    /// [`ScheduleIndex::build_with_extras`]).
    pub seed: u64,
    /// Portfolio schedules appended after the samples.
    pub extras: Vec<SuperSchedule>,
}

impl ScheduleIndex {
    /// Writes a snapshot of this index.
    ///
    /// `tag` must cover the model weights and configuration the embeddings
    /// were computed under; `params` must be the arguments this index was
    /// built with (they are stored for validation at load).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`].
    pub fn save_snapshot(
        &self,
        w: &mut impl Write,
        tag: u64,
        params: &BuildParams,
    ) -> Result<(), PersistError> {
        let _span = waco_obs::span("anns.snapshot_save");
        let mut body = Vec::new();
        push_u32(&mut body, SNAPSHOT_VERSION);
        push_u64(&mut body, tag);
        push_u64(&mut body, params.count as u64);
        push_u64(&mut body, params.seed);
        push_u64(&mut body, params.extras.len() as u64);

        let n = self.embeddings.len();
        let dim = self.embeddings.first().map_or(0, Vec::len);
        push_u64(&mut body, n as u64);
        push_u64(&mut body, dim as u64);
        for e in &self.embeddings {
            debug_assert_eq!(e.len(), dim);
            for &x in e {
                body.extend_from_slice(&x.to_le_bytes());
            }
        }

        let (_vectors, links, levels, entry, max_level, m) = self.hnsw.to_parts();
        push_u64(&mut body, m as u64);
        push_u64(&mut body, entry as u64);
        push_u64(&mut body, max_level as u64);
        for &l in levels {
            push_u64(&mut body, l as u64);
        }
        for node_links in links {
            for layer in node_links {
                push_u64(&mut body, layer.len() as u64);
                for &nb in layer {
                    push_u64(&mut body, nb as u64);
                }
            }
        }

        let checksum = fnv1a64(&body);
        w.write_all(SNAPSHOT_MAGIC)?;
        w.write_all(&body)?;
        w.write_all(&checksum.to_le_bytes())?;
        waco_obs::counter("anns.snapshots_saved", 1);
        Ok(())
    }

    /// Loads a snapshot, re-deriving schedules and encodings from `space` +
    /// the stored sampling parameters and skipping the expensive embedding
    /// and graph-construction passes.
    ///
    /// `expected_tag` must be computed exactly as at save time; `extras`
    /// must be the same portfolio (validated by length and by the stored
    /// checksum covering the graph built over them).
    ///
    /// # Errors
    ///
    /// [`PersistError::Format`] on corruption or structural mismatch,
    /// [`PersistError::TagMismatch`] when the snapshot is stale.
    pub fn load_snapshot(
        r: &mut impl Read,
        space: &Space,
        expected_tag: u64,
        extras: Vec<SuperSchedule>,
    ) -> Result<Self, PersistError> {
        let _span = waco_obs::span("anns.snapshot_load");
        let mut all = Vec::new();
        r.read_to_end(&mut all)?;
        if all.len() < 8 + 4 + 8 || &all[..8] != SNAPSHOT_MAGIC {
            return Err(PersistError::Format("missing WACOANNS magic".into()));
        }
        let body = &all[8..all.len() - 8];
        let stored_sum =
            u64::from_le_bytes(all[all.len() - 8..].try_into().expect("8 checksum bytes"));
        if fnv1a64(body) != stored_sum {
            return Err(PersistError::Format("checksum mismatch".into()));
        }

        let mut c = Cursor { buf: body, pos: 0 };
        let version = c.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(PersistError::Format(format!(
                "snapshot version {version}, expected {SNAPSHOT_VERSION}"
            )));
        }
        let tag = c.u64()?;
        if tag != expected_tag {
            return Err(PersistError::TagMismatch {
                expected: expected_tag,
                found: tag,
            });
        }
        let count = c.u64()?;
        let seed = c.u64()?;
        let n_extras = c.u64()?;
        if n_extras != extras.len() as u64 {
            return Err(PersistError::Format(format!(
                "snapshot has {n_extras} extras, caller supplied {}",
                extras.len()
            )));
        }
        let n = c.u64()?;
        let dim = c.u64()?;
        if n > MAX_N || dim > MAX_N || n != count + n_extras || n == 0 {
            return Err(PersistError::Format(format!(
                "inconsistent counts: n={n}, count={count}, extras={n_extras}, dim={dim}"
            )));
        }

        let mut embeddings = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let mut e = Vec::with_capacity(dim as usize);
            for _ in 0..dim {
                e.push(f32::from_le_bytes(c.bytes(4)?.try_into().expect("4")));
            }
            embeddings.push(e);
        }

        let m = c.u64()? as usize;
        let entry = c.u64()? as usize;
        let max_level = c.u64()? as usize;
        let mut levels = Vec::with_capacity(n as usize);
        for _ in 0..n {
            levels.push(c.usize_checked()?);
        }
        let mut links = Vec::with_capacity(n as usize);
        for &level in &levels {
            let mut node_links = Vec::with_capacity(level + 1);
            for _ in 0..=level {
                let len = c.u64()?;
                if len > MAX_N {
                    return Err(PersistError::Format("neighbor list too long".into()));
                }
                let mut layer = Vec::with_capacity(len as usize);
                for _ in 0..len {
                    layer.push(c.usize_checked()?);
                }
                node_links.push(layer);
            }
            links.push(node_links);
        }
        if c.pos != body.len() {
            return Err(PersistError::Format("trailing bytes in snapshot".into()));
        }

        let hnsw = Hnsw::from_parts(embeddings.clone(), links, levels, entry, max_level, m)
            .map_err(PersistError::Format)?;

        // Cheap deterministic re-derivation of what was not stored.
        let mut schedules = Vec::with_capacity(n as usize);
        for i in 0..count {
            schedules.push(sample::sample_indexed(space, i, seed));
        }
        schedules.extend(extras);
        let encodings = schedules
            .iter()
            .map(|s| encode::encode_structured(s, space))
            .collect();

        waco_obs::counter("anns.snapshots_loaded", 1);
        Ok(ScheduleIndex::from_loaded_parts(
            schedules, encodings, embeddings, hnsw, space,
        ))
    }
}

/// Derives a snapshot tag covering the model weights plus the index build
/// configuration. Serializing the model requires `&mut` (it flushes cached
/// scratch buffers), matching [`CostModel::save`].
pub fn snapshot_tag(
    model: &mut CostModel,
    space: &Space,
    count: usize,
    seed: u64,
) -> Result<u64, PersistError> {
    let mut h = Fnv64::new();
    model
        .save(&mut h)
        .map_err(|e| PersistError::Format(format!("serializing model for tag: {e}")))?;
    h.write_u64(count as u64);
    h.write_u64(seed);
    h.write_u64(space.kernel as u64);
    for &d in &space.sparse_dims {
        h.write_u64(d as u64);
    }
    h.write_u64(space.dense_extent as u64);
    for &t in &space.thread_options {
        h.write_u64(t as u64);
    }
    h.write_u64(space.max_split_log2 as u64);
    h.write_u64(space.max_chunk_log2 as u64);
    h.write_u64(SNAPSHOT_VERSION as u64);
    Ok(h.finish())
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| PersistError::Format("snapshot truncated".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    fn usize_checked(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        if v > MAX_N {
            return Err(PersistError::Format(format!("index {v} out of range")));
        }
        Ok(v as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_model::{CostModel, CostModelConfig};
    use waco_schedule::Kernel;
    use waco_tensor::gen::Rng64;

    fn setup() -> (Space, CostModel, ScheduleIndex, BuildParams) {
        let mut rng = Rng64::seed_from(1);
        let space = Space::new(Kernel::SpMV, vec![32, 32], 0);
        let layout = encode::layout(&space);
        let model = CostModel::for_kernel(Kernel::SpMV, &layout, CostModelConfig::tiny(), &mut rng);
        let params = BuildParams {
            count: 80,
            seed: 7,
            extras: waco_schedule::named::portfolio(&space),
        };
        let index = ScheduleIndex::build_with_extras(
            &model,
            &space,
            params.count,
            params.seed,
            params.extras.clone(),
        );
        (space, model, index, params)
    }

    #[test]
    fn snapshot_roundtrip_is_identical() {
        let (space, mut model, index, params) = setup();
        let tag = snapshot_tag(&mut model, &space, params.count, params.seed).unwrap();
        let mut buf = Vec::new();
        index.save_snapshot(&mut buf, tag, &params).unwrap();

        let loaded =
            ScheduleIndex::load_snapshot(&mut &buf[..], &space, tag, params.extras.clone())
                .unwrap();
        assert_eq!(loaded.len(), index.len());
        assert_eq!(loaded.schedules, index.schedules);
        assert_eq!(loaded.embeddings, index.embeddings);
        assert_eq!(loaded.encodings.len(), index.encodings.len());

        // Identical query behavior, not just identical fields.
        let m = waco_tensor::gen::uniform_random(32, 32, 0.1, &mut Rng64::seed_from(5));
        let feat = model.extract_feature(&waco_sparseconv::Pattern::from_matrix(&m));
        let a = index.query_with_feature(&model, &feat, 5, 48);
        let b = loaded.query_with_feature(&model, &feat, 5, 48);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn stale_tag_is_rejected() {
        let (space, mut model, index, params) = setup();
        let tag = snapshot_tag(&mut model, &space, params.count, params.seed).unwrap();
        let mut buf = Vec::new();
        index.save_snapshot(&mut buf, tag, &params).unwrap();
        let err = ScheduleIndex::load_snapshot(&mut &buf[..], &space, tag ^ 1, params.extras)
            .unwrap_err();
        assert!(matches!(err, PersistError::TagMismatch { .. }));
    }

    #[test]
    fn corruption_is_detected() {
        let (space, mut model, index, params) = setup();
        let tag = snapshot_tag(&mut model, &space, params.count, params.seed).unwrap();
        let mut buf = Vec::new();
        index.save_snapshot(&mut buf, tag, &params).unwrap();

        // Flip a byte in the middle: checksum must catch it.
        let mut bad = buf.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(matches!(
            ScheduleIndex::load_snapshot(&mut &bad[..], &space, tag, params.extras.clone()),
            Err(PersistError::Format(_))
        ));

        // Truncation too.
        let cut = &buf[..buf.len() - 9];
        assert!(matches!(
            ScheduleIndex::load_snapshot(&mut &cut[..], &space, tag, params.extras.clone()),
            Err(PersistError::Format(_))
        ));

        // Wrong magic.
        let mut wrong = buf;
        wrong[0] = b'X';
        assert!(matches!(
            ScheduleIndex::load_snapshot(&mut &wrong[..], &space, tag, params.extras),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn tag_tracks_model_and_config() {
        let (space, mut model, _index, params) = setup();
        let t1 = snapshot_tag(&mut model, &space, params.count, params.seed).unwrap();
        let t2 = snapshot_tag(&mut model, &space, params.count, params.seed).unwrap();
        assert_eq!(t1, t2, "tag is deterministic");
        let t3 = snapshot_tag(&mut model, &space, params.count + 1, params.seed).unwrap();
        assert_ne!(t1, t3, "config changes the tag");
        let other_space = Space::new(Kernel::SpMV, vec![64, 32], 0);
        let t4 = snapshot_tag(&mut model, &other_space, params.count, params.seed).unwrap();
        assert_ne!(t1, t4, "space changes the tag");
    }
}
