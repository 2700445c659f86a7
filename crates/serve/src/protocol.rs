//! The length-prefixed JSON wire protocol spoken by the serve loop.
//!
//! Frame format: a big-endian `u32` byte length followed by exactly that
//! many bytes of UTF-8 JSON. One request frame yields one response frame on
//! the same connection; connections may pipeline sequential requests.
//!
//! Requests (`op` selects the verb):
//! * `{"op":"tune","kernel":"spmm","dense":32,"matrix":"<MatrixMarket>"}` —
//!   fingerprint the matrix, serve from cache or tune and cache. `kernel` is
//!   `spmv`, `spmm` or `sddmm`: the matrix kernels WACO tunes.
//! * `{"op":"lookup",...}` — same key derivation, but never tunes.
//! * `{"op":"stats"}` — cache and server counters.
//! * `{"op":"sync","offset":N}` — stream the shard's journal to a joining
//!   peer: one batch of records starting at record index `N`, each carrying
//!   its FNV-1a 64 checksum (hex, since JSON numbers are `f64`), plus the
//!   cursor for the next batch. Offsets make the stream resumable: a peer
//!   that loses its connection mid-stream reconnects and asks again from
//!   where it stopped.
//! * `{"op":"shutdown"}` — begin graceful drain; the response is sent
//!   before the listener closes.
//!
//! Responses always carry `"ok"`: `true` with verb-specific fields, or
//! `false` with a one-line `"error"` (plus `"busy":true` when the admission
//! queue rejected the request).

use std::io::{Read, Write};

use waco_core::WacoError;
use waco_schedule::Kernel;

use crate::cache::{decision_from_json, decision_to_json, Decision};
use crate::json::Json;

/// Largest accepted frame body (a matrix uploaded inline can be large, but
/// not unbounded).
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Most request-frame bytes one tier's request memo holds resident (the
/// frames themselves; see the `memo` section of `stats`). Room for a few
/// hundred repeated 20 KB requests; a frame larger than this is never
/// memoized.
pub const MEMO_BUDGET: usize = 4 << 20;

/// Largest accepted row or column count of an inline matrix. A size line
/// costs a few bytes to write and the server sizes arrays by what it says
/// (row and column populations, per-row cursors), so it is bounded like the
/// frame is: a [`MAX_FRAME_LEN`] frame cannot populate more than about
/// four million rows, and nothing larger is worth ~32 MiB per such array.
/// Matrices read from files (`waco-cli`) are not subject to it.
pub const MAX_MATRIX_DIM: usize = 1 << 22;

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Tune (or serve from cache) a decision for an inline matrix.
    Tune {
        /// Kernel wire name already resolved.
        kernel: Kernel,
        /// Dense extent (columns of the dense operand; 0 for SpMV).
        dense_extent: usize,
        /// Matrix Market text of the sparse operand.
        matrix: String,
    },
    /// Cache-only lookup for an inline matrix; never tunes.
    Lookup {
        /// Kernel wire name already resolved.
        kernel: Kernel,
        /// Dense extent.
        dense_extent: usize,
        /// Matrix Market text.
        matrix: String,
    },
    /// Counter snapshot.
    Stats,
    /// One batch of journal records starting at this record index
    /// (peer-warmup streaming).
    Sync {
        /// Record index of the first record to return.
        offset: usize,
    },
    /// Begin graceful drain.
    Shutdown,
}

impl Request {
    /// Parses a request frame body.
    ///
    /// # Errors
    ///
    /// [`WacoError::InvalidConfig`] with a one-line message suitable for an
    /// error response, among them a `tune` or `lookup` of any other kernel, so
    /// neither the cache nor the tuner ever sees one.
    pub fn from_json(v: &Json) -> Result<Request, WacoError> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| WacoError::InvalidConfig("request missing `op`".into()))?;
        let matrix_key = |v: &Json| -> Result<(Kernel, usize, String), WacoError> {
            let kernel_name = v.get("kernel").and_then(Json::as_str).unwrap_or("spmm");
            let kernel = Kernel::from_wire_name(kernel_name)
                .filter(|k| k.sparse_ndims() == 2 && !k.uses_workspace());
            let kernel = kernel.ok_or_else(|| {
                WacoError::InvalidConfig(format!("unsupported kernel `{kernel_name}`"))
            })?;
            let dense = match v.get("dense") {
                None => 32,
                Some(d) => d.as_u64().ok_or_else(|| {
                    WacoError::InvalidConfig("`dense` must be a non-negative integer".into())
                })? as usize,
            };
            // SpMV has no dense extent: whatever the wire says, its one
            // cache and pipeline key is 0.
            let dense_extent = if kernel == Kernel::SpMV { 0 } else { dense };
            let matrix = v
                .get("matrix")
                .and_then(Json::as_str)
                .ok_or_else(|| WacoError::InvalidConfig("request missing `matrix`".into()))?
                .to_string();
            Ok((kernel, dense_extent, matrix))
        };
        match op {
            "tune" => {
                let (kernel, dense_extent, matrix) = matrix_key(v)?;
                Ok(Request::Tune {
                    kernel,
                    dense_extent,
                    matrix,
                })
            }
            "lookup" => {
                let (kernel, dense_extent, matrix) = matrix_key(v)?;
                Ok(Request::Lookup {
                    kernel,
                    dense_extent,
                    matrix,
                })
            }
            "stats" => Ok(Request::Stats),
            "sync" => {
                let offset = match v.get("offset") {
                    None => 0,
                    Some(o) => o.as_u64().ok_or_else(|| {
                        WacoError::InvalidConfig("`offset` must be a non-negative integer".into())
                    })? as usize,
                };
                Ok(Request::Sync { offset })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(WacoError::InvalidConfig(format!("unknown op `{other}`"))),
        }
    }

    /// The verb name, for spans and logs.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Tune { .. } => "tune",
            Request::Lookup { .. } => "lookup",
            Request::Stats => "stats",
            Request::Sync { .. } => "sync",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Builds a `tune`/`lookup` request body (client side).
pub fn request_json(op: &str, kernel: &str, dense_extent: usize, matrix: &str) -> Json {
    Json::obj([
        ("op", Json::str(op)),
        ("kernel", Json::str(kernel)),
        ("dense", Json::num(dense_extent as f64)),
        ("matrix", Json::str(matrix)),
    ])
}

/// Builds a success response for `tune`: the decision plus whether it came
/// from cache.
pub fn tune_response(decision: &Decision, cached: bool) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("cached", Json::Bool(cached)),
        ("decision", decision_to_json(decision)),
    ])
}

/// Builds a success response for `lookup`.
pub fn lookup_response(decision: Option<&Decision>) -> Json {
    match decision {
        Some(d) => Json::obj([
            ("ok", Json::Bool(true)),
            ("found", Json::Bool(true)),
            ("decision", decision_to_json(d)),
        ]),
        None => Json::obj([("ok", Json::Bool(true)), ("found", Json::Bool(false))]),
    }
}

/// One journal record on the sync wire: its FNV-1a 64 checksum and the
/// payload text (journal payloads are the UTF-8 JSON decision encoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncRecord {
    /// FNV-1a 64 of the payload bytes, as computed by the source shard.
    pub crc: u64,
    /// The record payload.
    pub payload: String,
}

/// One parsed `sync` response: a batch of records plus the resume cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncBatch {
    /// Records starting at the requested offset, in journal order.
    pub records: Vec<SyncRecord>,
    /// Record index to request next (equals `total` when `done`).
    pub next_offset: usize,
    /// Whether the journal has no records past `next_offset`.
    pub done: bool,
    /// Total records in the source journal at response time.
    pub total: usize,
}

/// Builds a `sync` request body (client side).
pub fn sync_request(offset: usize) -> Json {
    Json::obj([
        ("op", Json::str("sync")),
        ("offset", Json::num(offset as f64)),
    ])
}

/// Builds a success response for `sync`. Checksums travel as 16-digit hex
/// strings: JSON numbers are `f64` and cannot carry a full `u64`.
pub fn sync_response(records: &[SyncRecord], next_offset: usize, done: bool, total: usize) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        (
            "records",
            Json::Arr(
                records
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("crc", Json::str(format!("{:016x}", r.crc))),
                            ("payload", Json::str(&r.payload)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("next_offset", Json::num(next_offset as f64)),
        ("done", Json::Bool(done)),
        ("total", Json::num(total as f64)),
    ])
}

/// Parses a `sync` response body (client side); `None` on any shape
/// mismatch — a peer speaking a different dialect is a sync failure, not a
/// guess.
pub fn sync_batch_from_json(v: &Json) -> Option<SyncBatch> {
    if !v.get("ok")?.as_bool()? {
        return None;
    }
    let records = v
        .get("records")?
        .as_arr()?
        .iter()
        .map(|r| {
            Some(SyncRecord {
                crc: u64::from_str_radix(r.get("crc")?.as_str()?, 16).ok()?,
                payload: r.get("payload")?.as_str()?.to_string(),
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(SyncBatch {
        records,
        next_offset: v.get("next_offset")?.as_u64()? as usize,
        done: v.get("done")?.as_bool()?,
        total: v.get("total")?.as_u64()? as usize,
    })
}

/// Builds an error response; `busy` marks admission-queue rejection so
/// clients can distinguish overload from a bad request.
pub fn error_response(message: &str, busy: bool) -> Json {
    let mut fields = vec![("ok", Json::Bool(false)), ("error", Json::str(message))];
    if busy {
        fields.push(("busy", Json::Bool(true)));
    }
    Json::obj(fields)
}

/// Extracts the decision from a `tune`/`lookup` response body (client side).
pub fn response_decision(v: &Json) -> Option<Decision> {
    decision_from_json(v.get("decision")?)
}

/// Writes one frame: [`encode_frame`], checked against [`MAX_FRAME_LEN`].
///
/// # Errors
///
/// [`WacoError::InvalidConfig`] for a body over the cap, [`WacoError::Io`]
/// when the write fails.
pub fn write_frame(w: &mut impl Write, body: &Json) -> Result<(), WacoError> {
    let frame = encode_frame(body);
    checked_len(frame.len() as u64 - 4).map_err(WacoError::InvalidConfig)?;
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| WacoError::io("writing protocol frame", e))
}

/// A body length, or the over-cap message when it exceeds [`MAX_FRAME_LEN`]
/// — the one cap check of the writer and of both readers
/// ([`read_frame`] and [`frame_extent`]).
fn checked_len(len: u64) -> Result<usize, String> {
    if len > u64::from(MAX_FRAME_LEN) {
        return Err(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_LEN} byte cap"
        ));
    }
    Ok(len as usize)
}

/// One lenient frame decode: distinguishes a body-level problem (the frame
/// was consumed to its advertised length but its bytes are not a JSON
/// document) from framing loss, so a server can answer the former on a
/// still-synchronized connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A parsed JSON body.
    Body(Json),
    /// The body was read in full but is not valid UTF-8 / JSON (this
    /// includes the degenerate zero-length frame). The connection's framing
    /// is intact; the message is suitable for an error response.
    Malformed(String),
}

/// Interprets a frame body that was received in full: the one place the
/// UTF-8 → JSON → [`Frame::Malformed`] ladder is written.
pub fn parse_body(body: &[u8]) -> Frame {
    let Ok(text) = std::str::from_utf8(body) else {
        return Frame::Malformed("frame body is not UTF-8".into());
    };
    match Json::parse(text) {
        Ok(v) => Frame::Body(v),
        Err(e) => Frame::Malformed(format!("frame body is not JSON: {e}")),
    }
}

/// The body of one complete frame `raw` (prefix + body, as [`frame_extent`]
/// measured it and the reactor hands it to a tier), or the `ok:false` reply
/// a malformed body gets: the one place a serving tier turns
/// [`Frame::Malformed`] into an answer. The frame was consumed to its
/// advertised length either way, so the connection keeps serving.
pub fn frame_body(raw: &[u8]) -> Result<Json, Json> {
    match parse_body(&raw[4..]) {
        Frame::Body(v) => Ok(v),
        Frame::Malformed(msg) => Err(error_response(&msg, false)),
    }
}

/// Serializes one frame (`u32` BE length + JSON bytes) to a buffer — the
/// building block for nonblocking writers that cannot use [`write_frame`]'s
/// blocking `Write` contract. Unchecked: the reactor's replies stay far
/// under [`MAX_FRAME_LEN`]; [`write_frame`] checks what a client sends.
pub fn encode_frame(body: &Json) -> Vec<u8> {
    let text = body.to_string();
    let bytes = text.as_bytes();
    let mut buf = Vec::with_capacity(4 + bytes.len());
    buf.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    buf.extend_from_slice(bytes);
    buf
}

/// Outcome of [`decode_frame`] over an accumulation buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Decoded {
    /// The buffer does not yet hold a complete frame; read more bytes.
    Incomplete,
    /// One complete frame: how many bytes it occupied (prefix + body) and
    /// its lenient interpretation (see [`Frame`]).
    Complete(usize, Frame),
    /// The length prefix exceeds [`MAX_FRAME_LEN`]: framing is lost, so the
    /// connection must close after answering with this message.
    Oversized(String),
}

/// How far the first frame of an accumulation buffer reaches, judged from
/// its length prefix alone — all a proxy that forwards frames verbatim
/// needs to know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Extent {
    /// The buffer does not yet hold a complete frame; read more bytes.
    Incomplete,
    /// One complete frame occupies this many bytes (prefix + body).
    Complete(usize),
    /// The length prefix exceeds [`MAX_FRAME_LEN`]; see
    /// [`Decoded::Oversized`].
    Oversized(String),
}

/// Measures the first frame of `buf` without looking at its body.
pub fn frame_extent(buf: &[u8]) -> Extent {
    if buf.len() < 4 {
        return Extent::Incomplete;
    }
    let total = match checked_len(u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]).into()) {
        Ok(len) => 4 + len,
        Err(msg) => return Extent::Oversized(msg),
    };
    if buf.len() < total {
        return Extent::Incomplete;
    }
    Extent::Complete(total)
}

/// Decodes the first frame of `buf` without consuming input — the
/// nonblocking twin of [`read_frame`], keeping the malformed-body vs
/// framing-loss distinction that it folds into one error. Callers drain
/// `consumed` bytes from the buffer on [`Decoded::Complete`].
pub fn decode_frame(buf: &[u8]) -> Decoded {
    match frame_extent(buf) {
        Extent::Incomplete => Decoded::Incomplete,
        Extent::Oversized(msg) => Decoded::Oversized(msg),
        Extent::Complete(total) => Decoded::Complete(total, parse_body(&buf[4..total])),
    }
}

/// Reads one frame. Returns `Ok(None)` on clean EOF before the length
/// prefix (peer closed between requests).
///
/// # Errors
///
/// [`WacoError::Io`] on truncated frames or socket errors,
/// [`WacoError::InvalidConfig`] on an oversized length prefix (framing is
/// lost) or on a malformed body, which is consumed in full, so the next
/// frame still reads.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Json>, WacoError> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) => {
            r.read_exact(&mut len_buf[n..])
                .map_err(|e| WacoError::io("reading frame length", e))?;
        }
        Err(e) => return Err(WacoError::io("reading frame length", e)),
    }
    let len = checked_len(u32::from_be_bytes(len_buf).into()).map_err(WacoError::InvalidConfig)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|e| WacoError::io("reading frame body", e))?;
    match parse_body(&body) {
        Frame::Body(v) => Ok(Some(v)),
        Frame::Malformed(msg) => Err(WacoError::InvalidConfig(msg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let body = request_json(
            "tune",
            "spmm",
            32,
            "%%MatrixMarket matrix\n1 1 1\n1 1 1.0\n",
        );
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).unwrap();
        assert_eq!(&buf[..4], &(buf.len() as u32 - 4).to_be_bytes());
        let mut cursor = &buf[..];
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, body);
        // Clean EOF after the frame.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_frame_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::obj([("op", Json::str("stats"))])).unwrap();
        let mut cursor = &buf[..buf.len() - 3];
        assert!(matches!(read_frame(&mut cursor), Err(WacoError::Io { .. })));
    }

    #[test]
    fn oversized_frame_rejected_on_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WacoError::InvalidConfig(_))
        ));
    }

    #[test]
    fn a_malformed_body_is_consumed_and_named() {
        let malformed = |r: Result<Option<Json>, WacoError>, why: &str| match r {
            Err(WacoError::InvalidConfig(msg)) => assert!(msg.starts_with(why), "{msg}"),
            other => panic!("expected a malformed body, got {other:?}"),
        };
        // Zero-length frame: consumed, malformed, framing intact.
        let buf = 0u32.to_be_bytes();
        let mut cursor = &buf[..];
        malformed(read_frame(&mut cursor), "frame body is not JSON");
        assert!(cursor.is_empty(), "frame fully consumed");

        // Non-JSON body followed by a valid frame: both readable in turn.
        let mut buf = Vec::new();
        let junk = b"{\"op\":\"sta"; // truncated JSON *inside* a whole frame
        buf.extend_from_slice(&(junk.len() as u32).to_be_bytes());
        buf.extend_from_slice(junk);
        let stats = Json::obj([("op", Json::str("stats"))]);
        write_frame(&mut buf, &stats).unwrap();
        let mut cursor = &buf[..];
        malformed(read_frame(&mut cursor), "frame body is not JSON");
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(stats));

        // Non-UTF-8 body.
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        malformed(read_frame(&mut &buf[..]), "frame body is not UTF-8");
    }

    #[test]
    fn buffer_decode_matches_streaming_read() {
        // Pipelined buffer: malformed frame, then a valid one, then a tail.
        let mut buf = Vec::new();
        let junk = b"not json";
        buf.extend_from_slice(&(junk.len() as u32).to_be_bytes());
        buf.extend_from_slice(junk);
        write_frame(&mut buf, &Json::obj([("op", Json::str("stats"))])).unwrap();
        buf.extend_from_slice(&[0, 0]); // partial next prefix

        let Decoded::Complete(n1, Frame::Malformed(_)) = decode_frame(&buf) else {
            panic!("first frame must decode as malformed");
        };
        assert_eq!(n1, 4 + junk.len());
        let Decoded::Complete(n2, Frame::Body(v)) = decode_frame(&buf[n1..]) else {
            panic!("second frame must decode as a body");
        };
        assert_eq!(v.get("op").unwrap().as_str(), Some("stats"));
        assert_eq!(decode_frame(&buf[n1 + n2..]), Decoded::Incomplete);

        // Oversized prefix loses framing.
        let over = (MAX_FRAME_LEN + 1).to_be_bytes();
        assert!(matches!(decode_frame(&over), Decoded::Oversized(_)));

        // encode_frame is byte-identical to write_frame.
        let body = request_json("tune", "spmv", 0, "m");
        let mut streamed = Vec::new();
        write_frame(&mut streamed, &body).unwrap();
        assert_eq!(encode_frame(&body), streamed);
    }

    #[test]
    fn request_parsing() {
        let v = request_json("tune", "spmv", 0, "m");
        let r = Request::from_json(&v).unwrap();
        assert_eq!(r.op(), "tune");
        assert!(matches!(
            r,
            Request::Tune {
                kernel: Kernel::SpMV,
                dense_extent: 0,
                ..
            }
        ));

        // SpMV ignores the dense extent, so the wire value cannot split its
        // cache key: a `dense` of 32 (or none at all) parses as 0.
        for body in [
            request_json("lookup", "spmv", 32, "m"),
            Json::obj([
                ("op", Json::str("tune")),
                ("kernel", Json::str("spmv")),
                ("matrix", Json::str("m")),
            ]),
        ] {
            assert!(matches!(
                Request::from_json(&body).unwrap(),
                Request::Lookup {
                    kernel: Kernel::SpMV,
                    dense_extent: 0,
                    ..
                } | Request::Tune {
                    kernel: Kernel::SpMV,
                    dense_extent: 0,
                    ..
                }
            ));
        }

        let stats = Request::from_json(&Json::obj([("op", Json::str("stats"))])).unwrap();
        assert_eq!(stats, Request::Stats);

        // Defaults: kernel spmm, dense 32.
        let v = Json::obj([("op", Json::str("lookup")), ("matrix", Json::str("m"))]);
        assert!(matches!(
            Request::from_json(&v).unwrap(),
            Request::Lookup {
                kernel: Kernel::SpMM,
                dense_extent: 32,
                ..
            }
        ));

        for bad in [
            Json::obj([]),
            Json::obj([("op", Json::str("fly"))]),
            Json::obj([("op", Json::str("tune"))]),
            Json::obj([
                ("op", Json::str("tune")),
                ("kernel", Json::str("gemm")),
                ("matrix", Json::str("m")),
            ]),
        ] {
            assert!(matches!(
                Request::from_json(&bad),
                Err(WacoError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn sync_request_parsing_and_batch_roundtrip() {
        // Request: explicit offset, default offset, bad offset.
        let r = Request::from_json(&sync_request(17)).unwrap();
        assert_eq!(r, Request::Sync { offset: 17 });
        assert_eq!(r.op(), "sync");
        let r = Request::from_json(&Json::obj([("op", Json::str("sync"))])).unwrap();
        assert_eq!(r, Request::Sync { offset: 0 });
        let bad = Json::obj([("op", Json::str("sync")), ("offset", Json::str("x"))]);
        assert!(matches!(
            Request::from_json(&bad),
            Err(WacoError::InvalidConfig(_))
        ));

        // Batch roundtrip, including a checksum above 2^53 that would be
        // mangled by an f64 JSON number.
        let records = vec![
            SyncRecord {
                crc: 0xffee_ddcc_bbaa_9988,
                payload: "{\"k\":1}".into(),
            },
            SyncRecord {
                crc: 7,
                payload: "{\"k\":2}".into(),
            },
        ];
        let body = sync_response(&records, 2, false, 5);
        let batch = sync_batch_from_json(&body).unwrap();
        assert_eq!(batch.records, records);
        assert_eq!((batch.next_offset, batch.done, batch.total), (2, false, 5));

        // Error responses and shape mismatches parse to None.
        assert!(sync_batch_from_json(&error_response("nope", false)).is_none());
        assert!(sync_batch_from_json(&Json::obj([("ok", Json::Bool(true))])).is_none());
    }

    #[test]
    fn error_response_shape() {
        let e = error_response("server busy", true);
        assert_eq!(e.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(e.get("busy").unwrap().as_bool(), Some(true));
        let e = error_response("bad request", false);
        assert!(e.get("busy").is_none());
    }
}
