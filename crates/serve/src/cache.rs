//! The two-tier tuning cache: an in-memory LRU in front of the
//! append-only journal.
//!
//! A [`Decision`] is one tuning outcome — the winning [`SuperSchedule`]
//! plus its simulated costs — keyed by (fingerprint, kernel, dense extent),
//! the exact key of its [`Lru`]. Lookups hit the LRU only; inserts go to
//! both tiers (journal first, so a crash between the two can at worst lose
//! an in-memory entry that the next reload restores). Reload replays the
//! journal into the LRU, compacting superseded records on the way.
//!
//! One `Mutex` guards the LRU, held for one hash probe and a clone, or one
//! insert. In a server, the reactor thread takes it for a memo hit's
//! `tune`/`lookup` and for `stats`, and an executor for every other
//! `tune`/`lookup` (its lookups, and the insert after a tune); a peer's
//! journal is ingested before the server starts. No journal write happens
//! under it.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use waco_core::WacoError;
use waco_format::{Axis, AxisPart, LevelFormat};
use waco_schedule::{FormatSchedule, Kernel, LoopVar, Parallelize, Space, SuperSchedule};

use crate::fingerprint::Fingerprint;
use crate::journal::{Journal, OpenReport};
use crate::json::Json;
use crate::lru::Lru;

/// A cached tuning decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Fingerprint of the matrix the decision was tuned for.
    pub fingerprint: Fingerprint,
    /// Kernel the schedule targets.
    pub kernel: Kernel,
    /// Dense extent (`0` for SpMV) the schedule was tuned with.
    pub dense_extent: usize,
    /// The winning format + schedule.
    pub schedule: SuperSchedule,
    /// Simulated time of one tuned kernel invocation, seconds.
    pub kernel_seconds: f64,
    /// Simulated tuning cost that produced the decision, seconds.
    pub tuning_seconds: f64,
}

/// Cache statistics since the cache was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a decision.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Decisions inserted.
    pub inserts: u64,
    /// Entries currently resident in memory.
    pub resident: u64,
    /// Records replayed from the journal at open.
    pub replayed: u64,
}

/// A decision's exact cache key: (fingerprint, kernel, dense extent).
type Key = (Fingerprint, Kernel, usize);

/// The two-tier tuning cache.
#[derive(Debug)]
pub struct TuningCache {
    lru: Mutex<Lru<Key, Decision>>,
    journal: Mutex<Journal>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    replayed: u64,
}

impl TuningCache {
    /// Opens the cache over a journal file, replaying every recoverable
    /// record into memory. `capacity` bounds the in-memory tier.
    ///
    /// # Errors
    ///
    /// [`WacoError::Io`] on filesystem failure; corruption in the journal is
    /// repaired, not reported as an error.
    pub fn open(journal_path: impl AsRef<Path>, capacity: usize) -> Result<Self, WacoError> {
        let _span = waco_obs::span("serve.cache.open");
        let (journal, records, report) = Journal::open(journal_path, dead_records)?;
        let mut lru = Lru::new(capacity);
        let mut replayed = 0u64;
        for rec in &records {
            if let Some(d) = decode_payload(rec) {
                lru.insert(key(&d), d);
                replayed += 1;
            } else {
                // Checksum-valid but semantically unreadable (e.g. hand
                // edits): skip rather than fail the whole cache.
                waco_obs::counter("serve.cache.replay_skipped", 1);
            }
        }
        waco_obs::counter("serve.cache.replayed", replayed);
        report_open(&report);
        Ok(TuningCache {
            lru: Mutex::new(lru),
            journal: Mutex::new(journal),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            replayed,
        })
    }

    /// Looks up a decision for `(fingerprint, kernel, dense_extent)`,
    /// counting one hit or one miss.
    pub fn lookup(
        &self,
        fingerprint: Fingerprint,
        kernel: Kernel,
        dense_extent: usize,
    ) -> Option<Decision> {
        let found = self.lookup_hit(fingerprint, kernel, dense_extent);
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            waco_obs::counter("serve.cache.misses", 1);
        }
        found
    }

    /// [`Self::lookup`] that counts a hit and leaves a miss uncounted: a
    /// `tune` the loop answers when its decision is resident, and whose
    /// miss the executor's own lookup counts when it is not.
    pub(crate) fn lookup_hit(
        &self,
        fingerprint: Fingerprint,
        kernel: Kernel,
        dense_extent: usize,
    ) -> Option<Decision> {
        let found = self.probe(fingerprint, kernel, dense_extent);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            waco_obs::counter("serve.cache.hits", 1);
        }
        found
    }

    /// [`Self::lookup`] without counting: a second look at a key whose
    /// lookup was already counted once for the same request.
    pub fn probe(
        &self,
        fingerprint: Fingerprint,
        kernel: Kernel,
        dense_extent: usize,
    ) -> Option<Decision> {
        self.lru()
            .get(&(fingerprint, kernel, dense_extent))
            .cloned()
    }

    /// Inserts a decision: journal first, then the in-memory tier.
    ///
    /// # Errors
    ///
    /// [`WacoError::Io`] if the journal append fails (the LRU is then left
    /// untouched so memory never claims more durability than disk has).
    pub fn insert(&self, decision: Decision) -> Result<(), WacoError> {
        let payload = encode_payload(&decision);
        self.journal
            .lock()
            .expect("journal lock poisoned")
            .append(payload.as_bytes())?;
        self.lru().insert(key(&decision), decision);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        waco_obs::counter("serve.cache.inserts", 1);
        Ok(())
    }

    /// Forces journaled decisions to stable storage.
    ///
    /// # Errors
    ///
    /// [`WacoError::Io`].
    pub fn sync(&self) -> Result<(), WacoError> {
        self.journal.lock().expect("journal lock poisoned").sync()
    }

    /// Journal record payloads from record index `from` on, in append order
    /// — what a `sync` response streams to a joining peer. Re-reads the
    /// file, so records appended since open are included.
    ///
    /// # Errors
    ///
    /// [`WacoError::Io`].
    pub fn journal_records(&self, from: usize) -> Result<(Vec<Vec<u8>>, usize), WacoError> {
        let records = self
            .journal
            .lock()
            .expect("journal lock poisoned")
            .read_records()?;
        let total = records.len();
        let tail = records.into_iter().skip(from).collect();
        Ok((tail, total))
    }

    /// Ingests one record payload streamed from a peer: append the exact
    /// bytes to the journal (so a fully-streamed journal is byte-identical
    /// to its source) and insert the decoded decision into memory.
    ///
    /// # Errors
    ///
    /// [`WacoError::Checkpoint`] when the payload does not decode to a
    /// decision — the caller must treat the stream as corrupt;
    /// [`WacoError::Io`] on journal failure. On either, the in-memory tier
    /// is untouched.
    pub fn ingest_record(&self, payload: &[u8]) -> Result<(), WacoError> {
        let Some(decision) = decode_payload(payload) else {
            return Err(WacoError::Checkpoint(
                "sync record payload does not decode to a tuning decision".into(),
            ));
        };
        self.journal
            .lock()
            .expect("journal lock poisoned")
            .append(payload)?;
        self.lru().insert(key(&decision), decision);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        waco_obs::counter("serve.cache.inserts", 1);
        Ok(())
    }

    /// Snapshot of hit/miss/insert counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            resident: self.lru().len() as u64,
            replayed: self.replayed,
        }
    }

    /// Maximum in-memory entries.
    pub fn capacity(&self) -> usize {
        self.lru().capacity()
    }

    fn lru(&self) -> MutexGuard<'_, Lru<Key, Decision>> {
        self.lru.lock().expect("cache lock poisoned")
    }
}

fn key(d: &Decision) -> Key {
    (d.fingerprint, d.kernel, d.dense_extent)
}

fn report_open(report: &OpenReport) {
    if report.bytes_truncated > 0 {
        waco_obs::counter("serve.cache.tail_repairs", 1);
    }
    if report.compacted {
        waco_obs::counter("serve.cache.open_compactions", 1);
    }
}

/// Compaction classifier for [`Journal::open`]: a record is dead when a
/// later record carries the same (fingerprint, kernel, dense extent) key,
/// or when it does not decode at all (replay skips it, so a compaction may
/// as well drop it).
fn dead_records(records: &[Vec<u8>]) -> Vec<usize> {
    use std::collections::HashMap;
    let mut last: HashMap<Key, usize> = HashMap::new();
    let keys: Vec<Option<Key>> = records
        .iter()
        .map(|r| decode_payload(r).map(|d| key(&d)))
        .collect();
    for (i, k) in keys.iter().enumerate() {
        if let Some(k) = k {
            last.insert(*k, i);
        }
    }
    keys.iter()
        .enumerate()
        .filter(|(i, k)| !matches!(k, Some(k) if last[k] == *i))
        .map(|(i, _)| i)
        .collect()
}

// --- JSON payload encoding -------------------------------------------------

/// Serializes a decision to its JSON journal payload / wire form.
pub fn encode_payload(d: &Decision) -> String {
    decision_to_json(d).to_string()
}

/// Decision → JSON value (shared by the journal and the protocol).
pub fn decision_to_json(d: &Decision) -> Json {
    Json::obj([
        ("fingerprint", Json::str(d.fingerprint.to_string())),
        ("kernel", Json::str(d.kernel.wire_name())),
        ("dense_extent", Json::num(d.dense_extent as f64)),
        ("schedule", schedule_to_json(&d.schedule)),
        ("kernel_seconds", Json::num(d.kernel_seconds)),
        ("tuning_seconds", Json::num(d.tuning_seconds)),
    ])
}

/// Parses a journal payload back to a decision; `None` on any mismatch.
pub fn decode_payload(bytes: &[u8]) -> Option<Decision> {
    let text = std::str::from_utf8(bytes).ok()?;
    decision_from_json(&Json::parse(text).ok()?)
}

/// JSON value → decision (shared by the journal, a peer's sync stream and
/// the protocol); `None` on any mismatch, including a schedule
/// [`SuperSchedule::validate`] rejects for its kernel — so no hand-edited
/// journal or peer can plant one. `validate` reads the kernel and the
/// parameter menus, never the extents, so unit extents stand in for them.
pub fn decision_from_json(v: &Json) -> Option<Decision> {
    let kernel = Kernel::from_wire_name(v.get("kernel")?.as_str()?)?;
    let dense_extent = v.get("dense_extent")?.as_u64()? as usize;
    let schedule = schedule_from_json(v.get("schedule")?, kernel)?;
    let space = Space::new(kernel, vec![1; kernel.sparse_ndims()], dense_extent);
    schedule.validate(&space).ok()?;
    Some(Decision {
        fingerprint: Fingerprint::parse(v.get("fingerprint")?.as_str()?)?,
        kernel,
        dense_extent,
        schedule,
        kernel_seconds: v.get("kernel_seconds")?.as_f64()?,
        tuning_seconds: v.get("tuning_seconds")?.as_f64()?,
    })
}

/// SuperSchedule → JSON. Axis/loop-var parts encode as `"o"`/`"i"` pairs,
/// level formats as `"u"`/`"c"`.
pub fn schedule_to_json(s: &SuperSchedule) -> Json {
    let vars = |vars: &[LoopVar]| {
        Json::Arr(
            vars.iter()
                .map(|v| Json::Arr(vec![Json::num(v.dim as f64), Json::str(part_name(v.part))]))
                .collect(),
        )
    };
    let mut obj = vec![
        (
            "splits",
            Json::Arr(s.splits.iter().map(|&x| Json::num(x as f64)).collect()),
        ),
        ("loops", vars(&s.loop_order)),
        (
            "order",
            Json::Arr(
                s.format
                    .order
                    .iter()
                    .map(|a| Json::Arr(vec![Json::num(a.dim as f64), Json::str(part_name(a.part))]))
                    .collect(),
            ),
        ),
        (
            "formats",
            Json::Arr(
                s.format
                    .formats
                    .iter()
                    .map(|f| {
                        Json::str(match f {
                            LevelFormat::Uncompressed => "u",
                            LevelFormat::Compressed => "c",
                        })
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(p) = &s.parallel {
        obj.push((
            "parallel",
            Json::obj([
                ("dim", Json::num(p.var.dim as f64)),
                ("part", Json::str(part_name(p.var.part))),
                ("threads", Json::num(p.threads as f64)),
                ("chunk", Json::num(p.chunk as f64)),
            ]),
        ));
    }
    Json::obj(obj)
}

/// JSON → SuperSchedule for `kernel`; `None` on shape mismatch.
pub fn schedule_from_json(v: &Json, kernel: Kernel) -> Option<SuperSchedule> {
    let splits = v
        .get("splits")?
        .as_arr()?
        .iter()
        .map(|x| x.as_u64().map(|u| u as usize))
        .collect::<Option<Vec<_>>>()?;
    let pair = |item: &Json| -> Option<(usize, AxisPart)> {
        let arr = item.as_arr()?;
        if arr.len() != 2 {
            return None;
        }
        Some((arr[0].as_u64()? as usize, part_from_name(arr[1].as_str()?)?))
    };
    let loop_order = v
        .get("loops")?
        .as_arr()?
        .iter()
        .map(|item| pair(item).map(|(dim, part)| LoopVar { dim, part }))
        .collect::<Option<Vec<_>>>()?;
    let order = v
        .get("order")?
        .as_arr()?
        .iter()
        .map(|item| pair(item).map(|(dim, part)| Axis { dim, part }))
        .collect::<Option<Vec<_>>>()?;
    let formats = v
        .get("formats")?
        .as_arr()?
        .iter()
        .map(|f| match f.as_str()? {
            "u" => Some(LevelFormat::Uncompressed),
            "c" => Some(LevelFormat::Compressed),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    let parallel = match v.get("parallel") {
        None => None,
        Some(p) => Some(Parallelize {
            var: LoopVar {
                dim: p.get("dim")?.as_u64()? as usize,
                part: part_from_name(p.get("part")?.as_str()?)?,
            },
            threads: p.get("threads")?.as_u64()? as usize,
            chunk: p.get("chunk")?.as_u64()? as usize,
        }),
    };
    Some(SuperSchedule {
        kernel,
        splits,
        loop_order,
        parallel,
        format: FormatSchedule { order, formats },
    })
}

fn part_name(p: AxisPart) -> &'static str {
    match p {
        AxisPart::Outer => "o",
        AxisPart::Inner => "i",
    }
}

fn part_from_name(s: &str) -> Option<AxisPart> {
    match s {
        "o" => Some(AxisPart::Outer),
        "i" => Some(AxisPart::Inner),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("waco-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("tuning.journal")
    }

    fn sample_decision(seed: u64) -> Decision {
        let space = Space::new(Kernel::SpMM, vec![512, 512], 32);
        let sched = waco_schedule::sample::sample_indexed(&space, seed, 42);
        Decision {
            fingerprint: Fingerprint {
                hi: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                lo: !seed,
            },
            kernel: Kernel::SpMM,
            dense_extent: 32,
            schedule: sched,
            kernel_seconds: 1.25e-3 + seed as f64 * 1e-6,
            tuning_seconds: 0.5,
        }
    }

    #[test]
    fn decision_json_roundtrip() {
        for seed in 0..50 {
            let d = sample_decision(seed);
            let back = decode_payload(encode_payload(&d).as_bytes()).unwrap();
            assert_eq!(back, d, "seed {seed}");
        }
    }

    #[test]
    fn insert_lookup_hit_miss() {
        let cache = TuningCache::open(tmp("hitmiss"), 64).unwrap();
        let d = sample_decision(1);
        assert!(cache
            .lookup(d.fingerprint, d.kernel, d.dense_extent)
            .is_none());
        cache.insert(d.clone()).unwrap();
        let hit = cache
            .lookup(d.fingerprint, d.kernel, d.dense_extent)
            .unwrap();
        assert_eq!(hit, d);
        // Different dense extent is a different key.
        assert!(cache.lookup(d.fingerprint, d.kernel, 64).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 2, 1));
        // A probe finds what a lookup finds and counts nothing.
        assert!(cache.probe(d.fingerprint, d.kernel, 64).is_none());
        assert_eq!(
            cache.probe(d.fingerprint, d.kernel, d.dense_extent),
            Some(d)
        );
        assert_eq!(cache.stats(), s);
    }

    #[test]
    fn survives_reload() {
        let path = tmp("reload");
        let d = sample_decision(2);
        {
            let cache = TuningCache::open(&path, 64).unwrap();
            cache.insert(d.clone()).unwrap();
            cache.sync().unwrap();
        }
        let cache = TuningCache::open(&path, 64).unwrap();
        assert_eq!(cache.stats().replayed, 1);
        let hit = cache
            .lookup(d.fingerprint, d.kernel, d.dense_extent)
            .unwrap();
        assert_eq!(hit, d);
    }

    #[test]
    fn journal_records_and_ingest_roundtrip() {
        let src_path = tmp("stream-src");
        let dst_path = tmp("stream-dst");
        let src = TuningCache::open(&src_path, 64).unwrap();
        let decisions: Vec<Decision> = (0..4).map(sample_decision).collect();
        for d in &decisions {
            src.insert(d.clone()).unwrap();
        }
        let (all, total) = src.journal_records(0).unwrap();
        assert_eq!((all.len(), total), (4, 4));
        let (tail, total) = src.journal_records(3).unwrap();
        assert_eq!((tail.len(), total), (1, 4));
        assert_eq!(tail[0], all[3]);

        // Ingest into a second cache: decisions become live immediately and
        // the two journals are byte-identical.
        let dst = TuningCache::open(&dst_path, 64).unwrap();
        for rec in &all {
            dst.ingest_record(rec).unwrap();
        }
        for d in &decisions {
            assert_eq!(
                dst.lookup(d.fingerprint, d.kernel, d.dense_extent).as_ref(),
                Some(d)
            );
        }
        dst.sync().unwrap();
        src.sync().unwrap();
        assert_eq!(
            std::fs::read(&src_path).unwrap(),
            std::fs::read(&dst_path).unwrap(),
            "streamed journal must be byte-identical to its source"
        );

        // A payload that is not a decision is a typed error, and the cache
        // (both tiers) stays untouched.
        let before = dst.journal_records(0).unwrap().1;
        let err = dst.ingest_record(b"not a decision").unwrap_err();
        assert!(matches!(err, WacoError::Checkpoint(_)));
        assert_eq!(dst.journal_records(0).unwrap().1, before);
    }

    /// A decision whose schedule's `loops` list is missing a variable: it
    /// encodes, but no kernel can run it.
    fn misshapen_decision(seed: u64) -> Decision {
        let mut d = sample_decision(seed);
        d.schedule.loop_order.pop();
        d
    }

    #[test]
    fn a_schedule_of_the_wrong_shape_does_not_decode() {
        let payload = encode_payload(&misshapen_decision(4));
        assert!(decode_payload(payload.as_bytes()).is_none());
        let mut d = sample_decision(4);
        d.schedule.format.formats.pop();
        assert!(decode_payload(encode_payload(&d).as_bytes()).is_none());
    }

    #[test]
    fn a_peer_cannot_plant_a_misshapen_schedule() {
        let cache = TuningCache::open(tmp("misshapen-ingest"), 64).unwrap();
        let bad = misshapen_decision(5);
        let err = cache
            .ingest_record(encode_payload(&bad).as_bytes())
            .unwrap_err();
        assert!(matches!(err, WacoError::Checkpoint(_)), "{err:?}");
        assert_eq!(cache.journal_records(0).unwrap().1, 0, "journal untouched");
        assert_eq!(cache.stats().resident, 0, "memory untouched");
        assert!(cache
            .probe(bad.fingerprint, bad.kernel, bad.dense_extent)
            .is_none());
    }

    #[test]
    fn replay_skips_a_misshapen_schedule_and_counts_it() {
        let path = tmp("misshapen-replay");
        let (good, bad) = (
            [sample_decision(6), sample_decision(8)],
            misshapen_decision(7),
        );
        {
            // `insert` trusts its caller; a hand edit of the journal would
            // plant the same checksum-valid record.
            let cache = TuningCache::open(&path, 64).unwrap();
            for d in [&good[0], &bad, &good[1]] {
                cache.insert(d.clone()).unwrap();
            }
            cache.sync().unwrap();
        }
        // One dead record beside two live ones does not compact. No other
        // test in this crate installs a subscriber.
        waco_obs::install();
        let cache = TuningCache::open(&path, 64).unwrap();
        let skipped = waco_obs::uninstall().counter("serve.cache.replay_skipped");
        assert_eq!((cache.stats().replayed, skipped), (2, 1));
        let found = |d: &Decision| cache.probe(d.fingerprint, d.kernel, d.dense_extent);
        assert!(good.iter().all(|d| found(d).as_ref() == Some(d)));
        assert!(found(&bad).is_none());
    }

    #[test]
    fn compaction_drops_misshapen_records() {
        let path = tmp("misshapen-compact");
        let good = sample_decision(6);
        {
            let cache = TuningCache::open(&path, 64).unwrap();
            cache.insert(good.clone()).unwrap();
            cache.insert(misshapen_decision(7)).unwrap();
            cache.insert(misshapen_decision(8)).unwrap();
            cache.sync().unwrap();
        }
        // Two undecodable records outnumber the live one: the open compacts
        // them away, so no later open replays (or skips) them again.
        let cache = TuningCache::open(&path, 64).unwrap();
        assert_eq!(cache.stats().replayed, 1);
        assert_eq!(cache.journal_records(0).unwrap().1, 1, "journal compacted");
        let hit = cache.probe(good.fingerprint, good.kernel, good.dense_extent);
        assert_eq!(hit, Some(good));
    }

    #[test]
    fn updated_key_compacts_on_reload() {
        let path = tmp("compact");
        let mut d = sample_decision(3);
        {
            let cache = TuningCache::open(&path, 64).unwrap();
            for i in 0..5 {
                d.kernel_seconds = 1e-3 * (i + 1) as f64;
                cache.insert(d.clone()).unwrap();
            }
            cache.sync().unwrap();
        }
        let cache = TuningCache::open(&path, 64).unwrap();
        assert_eq!(cache.stats().replayed, 1, "dead versions compacted away");
        let hit = cache
            .lookup(d.fingerprint, d.kernel, d.dense_extent)
            .unwrap();
        assert!((hit.kernel_seconds - 5e-3).abs() < 1e-12, "latest wins");
    }
}
