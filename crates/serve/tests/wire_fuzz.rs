//! Fuzz for everything that interprets bytes off a socket: `Json::parse`,
//! the frame codec, `Request::from_json` and the Matrix Market text inside
//! a request must turn *any* input into a value or a clean error — never a
//! panic, never an allocation sized by a number the input merely states —
//! and the codec must not care where a read happened to split the stream.

use std::collections::BTreeMap;

use waco_check::props;
use waco_serve::protocol::{
    decode_frame, encode_frame, frame_extent, parse_body, Decoded, Extent, Frame, Request,
};
use waco_serve::protocol::{request_json, MAX_MATRIX_DIM};
use waco_serve::server::parse_and_fingerprint;
use waco_serve::{Fingerprint, Json};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::io::{read_matrix_market, write_matrix_market};

/// Bytes that steer a JSON parser into its corners far more often than
/// uniform noise would.
const JSON_ALPHABET: &[u8] = b"{}[]\",:\\/ \n\t-+.eEu0123456789tfnrualse\x00\x1f\x7f\xc3\xa9\xf0\x9f\x98\x80\xed\xa0\x80\xff";

fn noise(rng: &mut Rng64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            if rng.chance(0.8) {
                *rng.pick(JSON_ALPHABET)
            } else {
                rng.next_u64() as u8
            }
        })
        .collect()
}

fn gen_string(rng: &mut Rng64) -> String {
    const CHARS: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '\u{2028}',
        '\u{fffd}',
        '😀',
        '\u{10ffff}',
    ];
    (0..rng.below(12)).map(|_| *rng.pick(CHARS)).collect()
}

fn gen_num(rng: &mut Rng64) -> f64 {
    match rng.below(4) {
        0 => rng.below(1 << 20) as f64,
        1 => -(rng.below(1 << 20) as f64),
        2 => rng.unit_f64() * 1e6 - 5e5,
        _ => {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                x
            } else {
                0.5
            }
        }
    }
}

fn gen_value(rng: &mut Rng64, depth: usize) -> Json {
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(0.5)),
        2 => Json::Num(gen_num(rng)),
        3 => Json::Str(gen_string(rng)),
        4 => Json::Arr(
            (0..rng.below(5))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(5))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A request-shaped object: the protocol's own keys, each holding either a
/// plausible value or an arbitrary one.
fn gen_request_like(rng: &mut Rng64) -> Json {
    let mut map = BTreeMap::new();
    for key in ["op", "kernel", "dense", "matrix", "offset"] {
        if rng.chance(0.3) {
            continue;
        }
        let plausible = match key {
            "op" => Json::str(*rng.pick(&["tune", "lookup", "stats", "sync", "shutdown", ""])),
            "kernel" => Json::str(*rng.pick(&["spmv", "spmm", "sddmm", "spgemm", "gemm"])),
            "matrix" => Json::Str(gen_string(rng)),
            _ => Json::Num(gen_num(rng)),
        };
        let value = if rng.chance(0.7) {
            plausible
        } else {
            gen_value(rng, 2)
        };
        map.insert(key.to_string(), value);
    }
    Json::Obj(map)
}

/// Tokens a Matrix Market line is made of — keywords, coordinates in and out
/// of range, values, comment marks, the `usize` edge and one past it, stray
/// whitespace of both kinds, and bytes that are not UTF-8.
const MTX_TOKENS: &[&[u8]] = &[
    b"%%MatrixMarket",
    b"matrix",
    b"coordinate",
    b"array",
    b"real",
    b"integer",
    b"pattern",
    b"complex",
    b"general",
    b"symmetric",
    b"skew-symmetric",
    b"%",
    b"% note",
    b"0",
    b"1",
    b"2",
    b"3",
    b"4",
    b"5",
    b"+2",
    b"-1",
    b"1.5",
    b"-2e3",
    b"nan",
    b"1e400",
    b"x",
    b"18446744073709551615",
    b"18446744073709551616",
    b"\r",
    b"\xc2\xa0",
    b"\xff",
    b"",
];

/// Row, column and entry counts no honest request would state.
const HOSTILE_COUNTS: &[&str] = &[
    "0",
    "1152921504606846976",
    "100000000000",
    "1000000000000",
    "18446744073709551615",
    "18446744073709551616",
    "-4",
];

fn mtx_text(m: &waco_tensor::CooMatrix) -> String {
    let mut buf = Vec::new();
    write_matrix_market(&mut buf, m).expect("write to memory");
    String::from_utf8(buf).expect("matrix market output is ASCII")
}

/// Runs both entry points over one piece of matrix text. Neither may panic;
/// when the wire entry accepts, its answer must be the reader's matrix,
/// that matrix's fingerprint, and inside the wire's dimension bound.
fn ingest(bytes: &[u8]) {
    let read = read_matrix_market(bytes);
    let Ok(text) = std::str::from_utf8(bytes) else {
        assert!(read.is_err(), "non-UTF-8 text must not parse");
        return;
    };
    // Shape and entry bits: a `nan` value is not equal to itself.
    let bits = |m: &waco_tensor::CooMatrix| {
        let entries: Vec<_> = m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
        (m.nrows(), m.ncols(), entries)
    };
    match parse_and_fingerprint(text) {
        Ok((m, fp)) => {
            assert_eq!(Some(bits(&m)), read.as_ref().ok().map(bits));
            assert!(m.nrows().max(m.ncols()) <= MAX_MATRIX_DIM);
            assert!(m.nnz() <= 2 * text.lines().count());
            assert_eq!(fp, Fingerprint::of_matrix(&m));
        }
        Err(msg) => assert!(!msg.contains('\n'), "error replies are one line: {msg:?}"),
    }
}

/// Decodes every complete frame at the front of `buf`, removing it.
fn drain_frames(buf: &mut Vec<u8>, out: &mut Vec<Frame>) {
    let mut consumed = 0;
    while let Decoded::Complete(n, frame) = decode_frame(&buf[consumed..]) {
        consumed += n;
        out.push(frame);
    }
    buf.drain(..consumed);
}

props! {
    /// Arbitrary text — noise over a JSON-heavy alphabet, and valid
    /// documents with a few bytes damaged — parses or is rejected.
    cases = 512,
    fn json_parse_never_panics(seed in 0u64..u64::MAX, len in 0usize..96) {
        let mut rng = Rng64::seed_from(seed);
        let raw = noise(&mut rng, len);
        let _ = Json::parse(&String::from_utf8_lossy(&raw));

        let mut doc = gen_value(&mut rng, 3).to_string().into_bytes();
        for _ in 0..rng.below(4) {
            if doc.is_empty() {
                break;
            }
            let at = rng.below(doc.len());
            match rng.below(3) {
                0 => doc[at] = *rng.pick(JSON_ALPHABET),
                1 => doc.truncate(at),
                _ => doc.insert(at, *rng.pick(JSON_ALPHABET)),
            }
        }
        let _ = Json::parse(&String::from_utf8_lossy(&doc));
    }

    /// Whatever value the writer is handed, the parser gives it back.
    cases = 512,
    fn json_roundtrips_through_text(seed in 0u64..u64::MAX) {
        let v = gen_value(&mut Rng64::seed_from(seed), 4);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).as_ref(), Ok(&v), "via {text}");
    }

    /// Strings that alternate plain runs, multibyte runs, every control
    /// byte and the characters that need escaping come back unchanged —
    /// through the writer's spelling and through one that `\u`-escapes
    /// whatever it likes, surrogate pairs included.
    cases = 512,
    fn json_strings_roundtrip_runs_and_escapes(seed in 0u64..u64::MAX, pieces in 0usize..24) {
        let mut rng = Rng64::seed_from(seed);
        let mut s = String::new();
        for _ in 0..pieces {
            match rng.below(5) {
                0 => s.extend((0..rng.below(40)).map(|_| *rng.pick(&['a', 'Z', '7', ' ', '/', '%', '\u{7f}']))),
                1 => s.extend((0..rng.below(12)).map(|_| *rng.pick(&['é', 'ß', '\u{a0}', '\u{2028}', '中', '\u{fffd}', '😀', '\u{10ffff}']))),
                2 => s.push(char::from(rng.below(0x20) as u8)),
                3 => s.push(*rng.pick(&['"', '\\'])),
                _ => s.push_str(rng.pick::<&str>(&["\\u0041", "\\n", "\\\"", "\"\"", "\\ud83d"])),
            }
        }
        let written = Json::Str(s.clone()).to_string();
        assert_eq!(Json::parse(&written), Ok(Json::Str(s.clone())), "via {written}");

        let mut escaped = String::from("\"");
        for c in s.chars() {
            if (c as u32) < 0x20 || c == '"' || c == '\\' || rng.chance(0.3) {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    escaped.push_str(&format!("\\u{unit:04x}"));
                }
            } else {
                escaped.push(c);
            }
        }
        // A surrogate pair at the end is its one character; a high
        // surrogate before anything but a low one is an error, never some
        // other character.
        let ending = |pair: &str| format!("{escaped}{pair}\"");
        assert_eq!(Json::parse(&ending(r"\ud83d\ude00")), Ok(Json::Str(format!("{s}😀"))));
        for pair in [r"\ud83d\ud83d", r"\udbff\u0041"] {
            let err = Json::parse(&ending(pair)).map_err(|e| e.msg);
            assert_eq!(err, Err(r"invalid \u escape".to_string()), "via {}", ending(pair));
        }
        escaped.push('"');
        assert_eq!(Json::parse(&escaped), Ok(Json::Str(s)), "via {escaped}");
    }

    /// Lines of Matrix Market tokens in no particular order — and the same
    /// under a valid header, where the parser gets further — are a matrix
    /// or an error.
    cases = 512,
    fn matrix_text_noise_never_panics(seed in 0u64..u64::MAX, lines in 0usize..24) {
        let mut rng = Rng64::seed_from(seed);
        let mut text = Vec::new();
        if rng.chance(0.7) {
            let field = *rng.pick(&["real", "integer", "pattern"]);
            let symmetry = *rng.pick(&["general", "symmetric", "skew-symmetric", ""]);
            text.extend_from_slice(
                format!("%%MatrixMarket matrix coordinate {field} {symmetry}\n").as_bytes(),
            );
        }
        if rng.chance(0.7) {
            let claimed = (lines + rng.below(3)).saturating_sub(1);
            text.extend_from_slice(format!("4 5 {claimed}\n").as_bytes());
        }
        for _ in 0..lines {
            if rng.chance(0.6) {
                // Shaped like an entry, so some documents get all the way.
                let coords = ["0", "1", "2", "3", "4", "5", "+2"];
                let values = ["1.5", "-2e3", "nan", "1e400", "x", ""];
                let (r, c, v) = (*rng.pick(&coords), *rng.pick(&coords), *rng.pick(&values));
                text.extend_from_slice(format!("{r} {c} {v}").as_bytes());
            } else {
                for _ in 0..rng.below(5) {
                    text.extend_from_slice(rng.pick::<&[u8]>(MTX_TOKENS));
                    text.extend_from_slice(rng.pick::<&[u8]>(&[b" ", b"\t", b"  "]));
                }
            }
            text.extend_from_slice(rng.pick::<&[u8]>(&[b"\n", b"\r\n", b"\n\n"]));
        }
        ingest(&text);
        ingest(&noise(&mut rng, lines * 4));
    }

    /// A document the writer produced, then damaged: bytes overwritten,
    /// inserted, dropped, lines cut off or repeated.
    cases = 256,
    fn damaged_matrix_documents_never_panic(seed in 0u64..u64::MAX, n in 1usize..24) {
        let mut rng = Rng64::seed_from(seed);
        let m = gen::uniform_random(n, n + rng.below(8), 0.2, &mut rng);
        let mut doc = mtx_text(&m).into_bytes();
        ingest(&doc);
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(doc.len());
            match rng.below(5) {
                0 => doc[at] = *rng.pick(b"0123456789 .-+e%\n\r\xff\xc3"),
                1 => doc.insert(at, *rng.pick(b"0123456789 .-+e%\n\r\xff\xc3")),
                2 => drop(doc.remove(at)),
                3 => doc.truncate(at),
                _ => doc.extend_from_within(at..),
            }
            if doc.is_empty() {
                break;
            }
        }
        ingest(&doc);
    }

    /// Size lines that claim the earth over a few honest entries: refused,
    /// with nothing sized by the claim — through the text entry points and
    /// through a real frame.
    cases = 256,
    fn hostile_size_lines_are_refused(seed in 0u64..u64::MAX, entries in 1usize..6) {
        let mut rng = Rng64::seed_from(seed);
        let mut counts = [String::from("4"), String::from("4"), entries.to_string()];
        for _ in 0..1 + rng.below(3) {
            counts[rng.below(3)] = rng.pick(HOSTILE_COUNTS).to_string();
        }
        let field = *rng.pick(&["real", "pattern"]);
        let mut text = format!(
            "%%MatrixMarket matrix coordinate {field} general\n{}\n",
            counts.join(" ")
        );
        for i in 0..entries {
            text.push_str(&format!("{} {} 1.5\n", 1 + i % 4, 1 + (i / 4) % 4));
        }
        ingest(text.as_bytes());
        assert!(parse_and_fingerprint(&text).is_err(), "accepted {text:?}");

        let frame = encode_frame(&request_json("tune", "spmv", 0, &text));
        let Decoded::Complete(_, Frame::Body(body)) = decode_frame(&frame) else {
            panic!("a well-formed frame must decode");
        };
        let Ok(Request::Tune { matrix, .. }) = Request::from_json(&body) else {
            panic!("a well-formed request must parse");
        };
        assert_eq!(matrix, text);
    }

    /// Arbitrary bytes under an arbitrary (usually small) length prefix
    /// decode to one of the three outcomes, and the prefix-only extent
    /// agrees with the full decode about where the frame ends.
    cases = 512,
    fn decode_frame_never_panics(seed in 0u64..u64::MAX, len in 0usize..80) {
        let mut rng = Rng64::seed_from(seed);
        let mut buf = noise(&mut rng, len);
        if buf.len() >= 4 && rng.chance(0.8) {
            let claimed = rng.below(buf.len() + 8) as u32;
            buf[..4].copy_from_slice(&claimed.to_be_bytes());
        }
        let _ = parse_body(&buf);
        match (decode_frame(&buf), frame_extent(&buf)) {
            (Decoded::Incomplete, Extent::Incomplete) => {}
            (Decoded::Oversized(a), Extent::Oversized(b)) => assert_eq!(a, b),
            (Decoded::Complete(n, frame), Extent::Complete(m)) => {
                assert_eq!(n, m);
                assert_eq!(frame, parse_body(&buf[4..n]));
            }
            (d, e) => panic!("decode_frame says {d:?}, frame_extent says {e:?}"),
        }
    }

    /// Any JSON value is a request or a one-line error.
    cases = 512,
    fn request_from_json_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = Rng64::seed_from(seed);
        let v = if rng.chance(0.8) {
            gen_request_like(&mut rng)
        } else {
            gen_value(&mut rng, 3)
        };
        if let Ok(req) = Request::from_json(&v) {
            assert_eq!(v.get("op").and_then(Json::as_str), Some(req.op()));
        }
    }

    /// A pipelined buffer — good bodies, malformed bodies, an incomplete
    /// tail — yields the same frames whether it arrives whole or cut in two
    /// at any byte.
    cases = 48,
    fn every_split_point_decodes_the_same_frames(seed in 0u64..u64::MAX, frames in 1usize..6) {
        let mut rng = Rng64::seed_from(seed);
        let mut stream = Vec::new();
        for _ in 0..frames {
            if rng.chance(0.7) {
                stream.extend_from_slice(&encode_frame(&gen_value(&mut rng, 2)));
            } else {
                let len = rng.below(12);
                let junk = noise(&mut rng, len);
                stream.extend_from_slice(&(junk.len() as u32).to_be_bytes());
                stream.extend_from_slice(&junk);
            }
        }
        stream.extend_from_slice(&[0, 0, 1][..rng.below(4)]); // partial next frame

        let mut whole = Vec::new();
        let mut rest = stream.clone();
        drain_frames(&mut rest, &mut whole);
        assert_eq!(whole.len(), frames);

        for cut in 0..=stream.len() {
            let mut got = Vec::new();
            let mut buf = stream[..cut].to_vec();
            drain_frames(&mut buf, &mut got);
            buf.extend_from_slice(&stream[cut..]);
            drain_frames(&mut buf, &mut got);
            assert_eq!(got, whole, "cut at {cut}");
            assert_eq!(buf, rest, "cut at {cut}");
        }
    }
}

/// The wire's dimension bound is exact, applies to either dimension, and
/// is the wire's alone: the reader behind `waco-cli`'s file commands takes
/// the same text.
#[test]
fn wire_dimension_bound_is_exact() {
    let text = |rows: usize, cols: usize| {
        format!("%%MatrixMarket matrix coordinate pattern general\n{rows} {cols} 1\n1 1\n")
    };
    let (m, _) = parse_and_fingerprint(&text(MAX_MATRIX_DIM, 3)).expect("at the bound");
    assert_eq!((m.nrows(), m.ncols(), m.nnz()), (MAX_MATRIX_DIM, 3, 1));
    for (rows, cols) in [(MAX_MATRIX_DIM + 1, 3), (3, MAX_MATRIX_DIM + 1)] {
        let err = parse_and_fingerprint(&text(rows, cols)).expect_err("past the bound");
        assert!(err.contains(&format!("{rows}x{cols}")), "{err}");
        let m = read_matrix_market(text(rows, cols).as_bytes()).expect("files are not bounded");
        assert_eq!((m.nrows(), m.ncols()), (rows, cols));
    }
}

/// A complexity guard that is not a stopwatch race: one 4 MiB string in one
/// frame. A parser that reads each byte once needs milliseconds; the one
/// that re-validated the rest of the buffer per character needed minutes.
#[test]
fn decoding_a_4_mib_string_is_linear() {
    let mut text = String::with_capacity(4 << 20);
    while text.len() < 4 << 20 {
        text.push_str("512 1024 0.0078125\nrésumé \u{1f600} \"quoted\" back\\slash\t");
    }
    let frame = encode_frame(&request_json("lookup", "spmv", 0, &text));
    let started = std::time::Instant::now();
    let Decoded::Complete(n, Frame::Body(body)) = decode_frame(&frame) else {
        panic!("a well-formed frame must decode");
    };
    let elapsed = started.elapsed();
    assert_eq!(n, frame.len());
    assert_eq!(
        body.get("matrix").and_then(Json::as_str),
        Some(text.as_str())
    );
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "decoding {} bytes took {elapsed:?}",
        frame.len()
    );
}
