//! Peer warm-up: stream a running shard's journal into a local cache.
//!
//! A shard joining a ring should not pay cold-tune latency for decisions a
//! peer already holds, so before it starts serving it drains the peer's
//! journal over the `sync` protocol op ([`crate::protocol::sync_request`])
//! and replays it locally. Three properties matter more than speed:
//!
//! * **Resumable** — the stream is addressed by record index, so a dropped
//!   connection mid-stream reconnects and continues from the last offset it
//!   confirmed (up to [`MAX_RECONNECTS`] times) instead of starting over.
//! * **Verified** — every record's FNV-1a 64 checksum is recomputed on
//!   ingest and every payload must decode to a [`crate::Decision`] (a
//!   schedule of the wrong shape for its kernel does not); any mismatch is
//!   a typed [`WacoError::Checkpoint`], never a partial record. One such
//!   record in a peer's journal therefore makes that peer unsyncable.
//! * **All-or-nothing** — records are collected and verified in memory
//!   first and committed to the cache only once the peer reports the stream
//!   complete. A truncated or corrupted stream therefore leaves the joiner
//!   exactly as cold as it started, and it falls back to cold tuning —
//!   degraded, never wrong.
//!
//! Because [`crate::cache::TuningCache::ingest_record`] appends the exact
//! payload bytes, a fully-warmed journal is byte-identical to replaying the
//! source journal locally — `waco-verify`'s `sync-warm-rejoin` drill pins this.

use std::time::Duration;

use waco_core::WacoError;

use crate::cache::{decode_payload, TuningCache};
use crate::client::Client;
use crate::fingerprint::fnv1a64;
use crate::json::Json;
use crate::protocol::{sync_batch_from_json, sync_request};

/// Reconnect attempts tolerated across one warm-up before the I/O error is
/// surfaced to the caller.
pub const MAX_RECONNECTS: usize = 3;

/// What a completed warm-up did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// Records streamed, verified, and committed.
    pub records: usize,
    /// Response batches the stream took.
    pub batches: usize,
    /// Times the stream resumed after a dropped connection.
    pub resumes: usize,
}

/// Streams the journal of the shard at `addr` into `cache`.
///
/// # Errors
///
/// * [`WacoError::Io`] — connection/socket failure that survived
///   [`MAX_RECONNECTS`] resume attempts.
/// * [`WacoError::Checkpoint`] — a record failed checksum or decision
///   verification, or the peer sent a malformed/error response. The cache
///   is untouched; the caller serves cold.
pub fn warm_from_peer(
    addr: &str,
    timeout: Duration,
    cache: &TuningCache,
) -> Result<SyncReport, WacoError> {
    let _span = waco_obs::span("serve.sync.warm");
    let mut report = SyncReport {
        records: 0,
        batches: 0,
        resumes: 0,
    };
    let mut verified: Vec<String> = Vec::new();
    let mut offset = 0usize;
    let mut reconnects = 0usize;
    let mut client = Client::connect(addr, timeout)?;
    loop {
        let reply = match client.roundtrip(&sync_request(offset)) {
            Ok(r) => r,
            Err(WacoError::Io { .. }) if reconnects < MAX_RECONNECTS => {
                // The peer (or the network) dropped us mid-stream: resume
                // from the last offset whose batch we fully received.
                reconnects += 1;
                report.resumes += 1;
                waco_obs::counter("serve.sync.resumes", 1);
                client = Client::connect(addr, timeout)?;
                continue;
            }
            Err(e) => return Err(e),
        };
        let Some(batch) = sync_batch_from_json(&reply) else {
            let msg = reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("peer sent a malformed sync response");
            return Err(WacoError::Checkpoint(format!(
                "sync from {addr} failed: {msg}"
            )));
        };
        for (i, rec) in batch.records.iter().enumerate() {
            if fnv1a64(rec.payload.as_bytes()) != rec.crc {
                waco_obs::counter("serve.sync.corrupt", 1);
                return Err(WacoError::Checkpoint(format!(
                    "sync record {} from {addr} failed checksum verification",
                    offset + i
                )));
            }
            if decode_payload(rec.payload.as_bytes()).is_none() {
                waco_obs::counter("serve.sync.corrupt", 1);
                return Err(WacoError::Checkpoint(format!(
                    "sync record {} from {addr} does not decode to a tuning decision",
                    offset + i
                )));
            }
        }
        if !batch.done && batch.records.is_empty() {
            // A compliant peer always makes progress; a stuck cursor would
            // loop forever.
            return Err(WacoError::Checkpoint(format!(
                "sync from {addr} stalled at offset {offset} with no records"
            )));
        }
        report.batches += 1;
        report.records += batch.records.len();
        offset = batch.next_offset;
        verified.extend(batch.records.into_iter().map(|r| r.payload));
        if batch.done {
            break;
        }
    }

    // Every record arrived and verified: commit. Doing this only now is
    // what makes a failed stream leave the cache byte-for-byte cold.
    for payload in &verified {
        cache.ingest_record(payload.as_bytes())?;
    }
    waco_obs::counter("serve.sync.warmed", report.records as u64);
    Ok(report)
}
