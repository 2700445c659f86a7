//! Fuzz for everything that interprets bytes off a socket: `Json::parse`,
//! the frame codec, and `Request::from_json` must turn *any* input into a
//! value or a clean error — never a panic — and the codec must not care
//! where a read happened to split the stream.

use std::collections::BTreeMap;

use waco_check::props;
use waco_serve::protocol::{
    decode_frame, encode_frame, frame_extent, parse_body, Decoded, Extent, Frame, Request,
};
use waco_serve::Json;
use waco_tensor::gen::Rng64;

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
