//! A minimal JSON value, parser, and writer — std-only, no dependencies.
//!
//! The workspace's one JSON codec. It lives in `waco-obs`, the crate under
//! every crate that emits JSON: the trace ([`crate::Snapshot::to_json`]),
//! the serving protocol and journal payloads (`waco-serve` re-exports it as
//! `waco_serve::json`), the micro-bench results, the verify and loadgen
//! reports. The workspace has no external serializer, so this module
//! provides the small subset we need: objects, arrays, strings (with
//! escapes), finite numbers, booleans, and null. Parsing is
//! recursive-descent with a depth limit; writing escapes control characters
//! and emits integers without a fraction so counters round-trip textually —
//! exactly below 2^53, since every number is one `f64`.
//!
//! **Cost.** [`Json::parse`] reads each input byte once. The input is
//! already a `&str`, so nothing is validated again: a string is copied out
//! run by run — up to the next `"`, `\` or control byte, found eight bytes
//! a step (`run_end`), in one slice copy — and an escape appends one
//! character. Time is linear in the bytes and memory is the value being
//! built: a string costs its decoded length (amortized doubling, at most
//! twice that while growing), never a multiple of the document. A request's
//! matrix text is one such string, parsed on the reactor thread, which is
//! why this matters (DESIGN.md §4.6).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Maximum nesting depth accepted by the parser (defense against
/// pathological frames).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (integers survive textually up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (`BTreeMap`), which keeps output
    /// deterministic — important for checksummed journal payloads.
    Obj(BTreeMap<String, Json>),
}

/// JSON parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document; trailing whitespace is allowed, trailing
    /// garbage is not.
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the offending byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// An object builder from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Member access: `Some` when `self` is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string content, when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, when `self` is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean value, when `self` is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, when `self` is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Writes [`to_string()`](ToString::to_string) to `path` — no trailing
    /// newline — creating missing parent directories.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_string())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` prints integers without a fraction and shortest
                    // round-trip decimals otherwise.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serializes the value to compact JSON text (`to_string()`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Where the string run from `pos` ends: at the first `"`, `\` or control
/// byte, or the end of `bytes`. A word at a time while none is in it —
/// `below(w, n)` is non-zero iff a byte of `w` is below `n` (the zero-byte
/// bit trick), and `w ^ b` has a zero byte iff `w` holds `b` — then bytes.
fn run_end(bytes: &[u8], mut pos: usize) -> usize {
    const ONES: u64 = u64::from_ne_bytes([1; 8]);
    let below = |w: u64, n: u8| w.wrapping_sub(ONES * u64::from(n)) & !w & (ONES << 7);
    let holds = |w: u64, b: u8| below(w ^ (ONES * u64::from(b)), 1);
    while let Some(word) = bytes.get(pos..pos + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("an eight-byte slice"));
        let stops = holds(w, b'"') | holds(w, b'\\') | below(w, 0x20);
        if stops != 0 {
            return pos + stops.trailing_zeros() as usize / 8;
        }
        pos += 8;
    }
    let stop = |&c: &u8| c == b'"' || c == b'\\' || c < 0x20;
    let rest = &bytes[pos..];
    pos + rest.iter().position(stop).unwrap_or(rest.len())
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(format!("bad number `{text}`")))?;
        if !n.is_finite() {
            return Err(self.err(format!("non-finite number `{text}`")));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next byte that needs a decision. Runs
            // start after an ASCII byte and stop at one, so both ends are
            // char boundaries of the `&str` the bytes came from.
            let run = self.pos;
            self.pos = run_end(self.text.as_bytes(), run);
            out.push_str(&self.text[run..self.pos]);
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            if c < 0x20 {
                return Err(self.err("unescaped control character"));
            }
            self.pos += 1;
            if c == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000C}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let cp = self.hex4()?;
                    // Surrogate pairs: a high surrogate must be
                    // followed by `\uDC00..`-range low surrogate.
                    let ch = if (0xD800..0xDC00).contains(&cp) {
                        if self.peek() == Some(b'\\') {
                            self.pos += 1;
                            self.expect(b'u')?;
                            let lo = self.hex4()?.checked_sub(0xDC00).filter(|lo| *lo < 0x400);
                            lo.and_then(|lo| char::from_u32(0x10000 + ((cp - 0xD800) << 10) + lo))
                        } else {
                            None
                        }
                    } else {
                        char::from_u32(cp)
                    };
                    out.push(ch.ok_or_else(|| self.err("invalid \\u escape"))?);
                }
                other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(c) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-12", "3.5", "1e3", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            let again = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, again, "{text}");
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let text = r#"{"a": [1, 2, {"b": "x\ny", "c": null}], "d": -0.25}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("d").unwrap().as_f64(), Some(-0.25));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x\ny")
        );
        let again = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""tab\tquote\"u\u00e9\u20ac""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\tquote\"ué€"));
        // Surrogate pair: U+1F600.
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Raw multibyte UTF-8 passes through.
        let v = Json::parse("\"héllo\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo"));
        // Writer escapes control characters so output reparses.
        let s = Json::str("a\u{0001}b").to_string();
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("a\u{0001}b"));
    }

    #[test]
    fn rejects_malformed() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "[1,]",
            "nan",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(text).is_err(), "should reject {text:?}");
        }
    }

    /// Offsets and messages reach clients inside `frame body is not JSON:
    /// json error at byte N: …` replies, so they are wire format. Every row
    /// was produced by the per-character parser this one replaced.
    #[test]
    fn error_offsets_and_messages_are_pinned() {
        let unterminated = format!("\"{}", "x".repeat(10 * 1024));
        for (text, at, msg) in [
            ("\"ab\u{1}cd\"", 3, "unescaped control character"),
            ("\"abc\ndef\"", 4, "unescaped control character"),
            ("{\"k\":\"héé\u{1f}\"}", 11, "unescaped control character"),
            ("[\"ok\",\"bad\u{7}\"]", 10, "unescaped control character"),
            (r#""é\q""#, 5, r"bad escape `\q`"),
            // The escape byte is reported as a byte, not as the character
            // it starts.
            (r#""é\é""#, 5, r"bad escape `\Ã`"),
            (r#""😀\x""#, 7, r"bad escape `\x`"),
            (r#""\ud800""#, 7, r"invalid \u escape"),
            (r#""\ud800x""#, 7, r"invalid \u escape"),
            (r#""a\ud83dz""#, 8, r"invalid \u escape"),
            (r#""\udc00""#, 7, r"invalid \u escape"),
            (r#""\uD83D\uD83D""#, 13, r"invalid \u escape"),
            (r#""\ud800\u0041""#, 13, r"invalid \u escape"),
            (r#""\ud800\n""#, 8, "expected `u`"),
            (r#""\u12""#, 5, r"bad hex digit in \u escape"),
            (r#""ab\u00g0""#, 7, r"bad hex digit in \u escape"),
            (r#""\u00é9""#, 5, r"bad hex digit in \u escape"),
            (r#""\u12"#, 5, r"truncated \u escape"),
            (r#""\u"#, 3, r"truncated \u escape"),
            (r#""\ud83d\u12"#, 11, r"truncated \u escape"),
            (r#""abc\"#, 5, "unterminated escape"),
            (r#""abc"#, 4, "unterminated string"),
            ("\"héllo", 7, "unterminated string"),
            (unterminated.as_str(), 10 * 1024 + 1, "unterminated string"),
        ] {
            let want = JsonError {
                at,
                msg: msg.to_string(),
            };
            assert_eq!(Json::parse(text), Err(want), "{text:?}");
        }
    }

    /// `Parser::string` as it read before runs were found a word at a
    /// time — one bounds-checked byte a step — kept as the oracle.
    fn string_bytewise(p: &mut Parser<'_>) -> Result<String, JsonError> {
        p.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = p.pos;
            while matches!(p.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                p.pos += 1;
            }
            out.push_str(&p.text[run..p.pos]);
            let Some(c) = p.peek() else {
                return Err(p.err("unterminated string"));
            };
            if c < 0x20 {
                return Err(p.err("unescaped control character"));
            }
            p.pos += 1;
            if c == b'"' {
                return Ok(out);
            }
            let Some(esc) = p.peek() else {
                return Err(p.err("unterminated escape"));
            };
            p.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000C}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                // No surrogates among the runs tested.
                b'u' => {
                    let cp = p.hex4()?;
                    out.push(char::from_u32(cp).ok_or_else(|| p.err("invalid \\u escape"))?);
                }
                other => return Err(p.err(format!("bad escape `\\{}`", other as char))),
            }
        }
    }

    /// A stop byte — `"`, `\`, a control byte — or a byte next to one in
    /// value, or a multibyte character, at every offset of the first and
    /// second eight-byte word of a run and at the end of the buffer: the
    /// word test stops where the byte loop stops, with the same string or
    /// the same error at the same byte.
    #[test]
    fn word_runs_stop_where_byte_runs_stop() {
        let specials = [
            "\"", "\\n", "\\u00e9", "\\q", "\\", "\u{0}", "\u{1}", "\n", "\u{1f}", " ", "!", "#",
            "[", "]", "\u{7f}", "é", "😀",
        ];
        for special in specials {
            for before in 0..=17 {
                for after in [0, 1, 6, 7, 8, 9, 16] {
                    let body = format!("{}{special}{}", "a".repeat(before), "z".repeat(after));
                    for closed in [true, false] {
                        let text = format!("\"{body}{}", if closed { "\"" } else { "" });
                        let bytes = text.as_bytes();
                        for start in 0..=bytes.len() {
                            let mut want = start;
                            while matches!(bytes.get(want), Some(&c) if c != b'"' && c != b'\\' && c >= 0x20)
                            {
                                want += 1;
                            }
                            assert_eq!(run_end(bytes, start), want, "{text:?} from {start}");
                        }
                        let mut words = Parser {
                            text: &text,
                            pos: 0,
                        };
                        let mut bytewise = Parser {
                            text: &text,
                            pos: 0,
                        };
                        assert_eq!(words.string(), string_bytewise(&mut bytewise), "{text:?}");
                        assert_eq!(words.pos, bytewise.pos, "{text:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n": 7, "s": "x", "b": true, "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
        assert!(Json::Num(1.5).as_u64().is_none());
        assert!(Json::Num(-1.0).as_u64().is_none());
    }

    #[test]
    fn object_keys_are_sorted_deterministically() {
        let a = Json::obj([("z", Json::num(1.0)), ("a", Json::num(2.0))]);
        assert_eq!(a.to_string(), r#"{"a":2,"z":1}"#);
    }

    #[test]
    fn write_file_creates_missing_parents() {
        let dir = std::env::temp_dir().join(format!("waco-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("a/b/doc.json");
        let doc = Json::obj([("k", Json::str("v"))]);
        doc.write_file(&path).unwrap();
        // Exactly `to_string()`: no trailing newline.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), doc.to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
