//! Matrix Market (`.mtx`) reading and writing.
//!
//! Supports the `coordinate` format with `real`, `integer`, and `pattern`
//! fields and `general` / `symmetric` symmetry — the subset that covers the
//! SuiteSparse collection the paper evaluates on. Pattern matrices receive a
//! value of `1.0` per entry; symmetric matrices are expanded to general form.
//!
//! **Cost.** [`parse_matrix_market`] is also the server's request parser
//! (`waco-serve` hands it the text of every `tune` / `lookup`): one forward
//! pass of a byte scanner (`Scanner`) over text validated as UTF-8 once,
//! nothing allocated per line or token, ≈ 3.3 ns a byte on a 2-vCPU host, a
//! third of it the value parse (`str::parse`). The entry list is reserved from the size
//! line's count *capped by what the unread bytes could spell* (four bytes an
//! entry), so `N` bytes allocate `O(N)` whatever the size line claims.
//! Every accept/reject decision and every [`TensorError::Parse`] line and
//! message is the line-at-a-time reader's this replaced (`accept_reject_table`
//! pins them; `tests/scanner_differential.rs` keeps that reader as oracle).

use crate::{CooMatrix, Result, TensorError, Value};
use std::io::{ErrorKind, Read, Write};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

fn parse_err(line: usize, msg: impl Into<String>) -> TensorError {
    TensorError::Parse {
        line,
        msg: msg.into(),
    }
}

/// The value of a [`Scanner::coord`], or the error that names its token.
/// Inlined: as a call, returning the error by value made the entry loop
/// about a tenth slower.
#[inline(always)]
fn value_of((tok, n): (&str, Option<usize>), line: usize, what: &str) -> Result<usize> {
    n.ok_or_else(|| parse_err(line, format!("bad {what} `{tok}`")))
}

/// The ASCII bytes `char::is_whitespace` accepts: `' '` and `\t`…`\r`.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// One forward pass over text: lines split as `BufRead::lines` splits them
/// (at `\n`, one `\r` before it dropped, an unterminated tail kept), tokens
/// as `str::split_whitespace` does — but only a byte ≥ 0x80 is decoded.
#[derive(Default)]
struct Scanner<'a> {
    /// The input up to its first invalid UTF-8 sequence (or its end).
    text: &'a str,
    /// When the input holds bytes that are not UTF-8, the start of the line
    /// holding them: reaching it is an i/o error, so an earlier error wins.
    bad_line: Option<usize>,
    pos: usize,
    /// Start and 1-based number of the line handed out last.
    line_start: usize,
    lineno: usize,
}

impl<'a> Scanner<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        let (text, bad_line) = match std::str::from_utf8(bytes) {
            Ok(text) => (text, None),
            Err(e) => {
                let text = std::str::from_utf8(&bytes[..e.valid_up_to()]).expect("valid prefix");
                (text, Some(text.rfind('\n').map_or(0, |i| i + 1)))
            }
        };
        Scanner {
            text,
            bad_line,
            ..Scanner::default()
        }
    }

    /// Skips what is left of the current line and starts the next one:
    /// `Ok(false)` past the last line.
    fn next_line(&mut self) -> Result<bool> {
        if self.lineno > 0 {
            // Tokens stop at the `\n`, so the search is usually one byte.
            let rest = &self.text.as_bytes()[self.pos..];
            let newline = rest.iter().position(|&b| b == b'\n');
            self.pos += newline.map_or(rest.len(), |i| i + 1);
        }
        if self.bad_line.is_some_and(|bad| self.pos >= bad) {
            let e =
                std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8");
            return Err(e.into());
        }
        if self.pos >= self.text.len() {
            return Ok(false);
        }
        self.lineno += 1;
        self.line_start = self.pos;
        Ok(true)
    }

    /// Whether the character at `pos` is whitespace, and its length in
    /// bytes; the scanner calls it for a byte ≥ 0x80 only.
    fn class(&self) -> (bool, usize) {
        let c = self.text[self.pos..].chars().next();
        c.map_or((false, 1), |c| (c.is_whitespace(), c.len_utf8()))
    }

    /// Moves to the next token of the current line: whether there is one.
    fn skip_space(&mut self) -> bool {
        let bytes = self.text.as_bytes();
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return false;
            };
            // `!`…DEL: ASCII that is neither whitespace nor a control byte.
            if b.wrapping_sub(b'!') <= 0x7f - b'!' {
                return true;
            }
            let (space, len) = match b {
                b'\n' => return false,
                0..=0x7f => (is_ascii_space(b), 1),
                _ => self.class(),
            };
            if !space {
                return true;
            }
            self.pos += len;
        }
    }

    /// Moves to the end of the token under `pos`: eight bytes a step while
    /// all are `!`…DEL, then a character at a time. In `stops`, a byte
    /// below `!` sets its high bit through the subtraction (the zero-byte
    /// bit trick: a borrow only flags bytes after the first) and a byte from
    /// 0x80 has it already, so the lowest set bit is the first stop.
    fn skip_token(&mut self) {
        const ONES: u64 = u64::from_ne_bytes([1; 8]);
        let bytes = self.text.as_bytes();
        while let Some(word) = bytes.get(self.pos..self.pos + 8) {
            let w = u64::from_le_bytes(word.try_into().expect("an eight-byte slice"));
            let stops = (w.wrapping_sub(ONES * 0x21) & !w | w) & ONES << 7;
            self.pos += stops.trailing_zeros() as usize / 8;
            if stops != 0 {
                break;
            }
        }
        while let Some(&b) = bytes.get(self.pos) {
            let (space, len) = match b {
                0..=0x7f => (is_ascii_space(b), 1),
                _ => self.class(),
            };
            if space {
                return;
            }
            self.pos += len;
        }
    }

    /// The next token of the current line, `None` at its end.
    fn token(&mut self) -> Option<&'a str> {
        let start = self.skip_space().then_some(self.pos)?;
        self.skip_token();
        Some(&self.text[start..self.pos])
    }

    /// The next token read as a coordinate while it is scanned: the token,
    /// and its value by `usize::from_str`'s rules — an optional `+`, then
    /// decimal digits only, overflow an error — if it has one.
    fn coord(&mut self) -> Option<(&'a str, Option<usize>)> {
        let start = self.skip_space().then_some(self.pos)?;
        let bytes = self.text.as_bytes();
        self.pos += usize::from(bytes[start] == b'+');
        let (digits, mut n) = (self.pos, Some(0usize));
        while let Some(d @ 0..=9) = bytes.get(self.pos).map(|b| b.wrapping_sub(b'0')) {
            n = n.and_then(|n| n.checked_mul(10)?.checked_add(usize::from(d)));
            self.pos += 1;
        }
        let end = self.pos;
        if bytes.get(end).is_some_and(|&b| !is_ascii_space(b)) {
            self.skip_token();
        }
        let whole = end > digits && end == self.pos;
        Some((&self.text[start..self.pos], n.filter(|_| whole)))
    }

    /// The current line as `BufRead::lines` hands it out, for messages.
    fn line(&self) -> &'a str {
        let rest = &self.text[self.line_start..];
        match rest.find('\n') {
            Some(i) => rest[..i].strip_suffix('\r').unwrap_or(&rest[..i]),
            None => rest,
        }
    }
}

/// Reads a Matrix Market stream into a [`CooMatrix`].
///
/// A `&mut` reference may be passed for any `R: Read`.
///
/// # Errors
///
/// Returns [`TensorError::Parse`] on malformed input, [`TensorError::Io`] on
/// read failures, and the usual bound errors for out-of-range coordinates.
pub fn read_matrix_market<R: Read>(mut reader: R) -> Result<CooMatrix> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_mtx(Scanner::new(&bytes))
}

/// Parses Matrix Market text already in memory: [`read_matrix_market`]
/// without the copy into a buffer.
///
/// # Errors
///
/// See [`read_matrix_market`].
pub fn parse_matrix_market(text: &str) -> Result<CooMatrix> {
    parse_mtx(Scanner::new(text.as_bytes()))
}

fn parse_mtx(mut sc: Scanner<'_>) -> Result<CooMatrix> {
    // Header line.
    let toks: [Option<&str>; 5] = loop {
        if !sc.next_line()? {
            return Err(parse_err(1, "empty stream"));
        }
        let toks = std::array::from_fn(|_| sc.token());
        if toks[0].is_some() {
            break toks;
        }
    };
    let lineno = sc.lineno;
    let bad_header = || parse_err(lineno, format!("bad header: {}", sc.line()));
    let [Some(banner), Some(object), Some(format), Some(field), symmetry] = toks else {
        return Err(bad_header());
    };
    if !banner.eq_ignore_ascii_case("%%matrixmarket") || !object.eq_ignore_ascii_case("matrix") {
        return Err(bad_header());
    }
    let lower = |tok: &str| tok.to_ascii_lowercase();
    if !format.eq_ignore_ascii_case("coordinate") {
        return Err(parse_err(lineno, "only `coordinate` format is supported"));
    }
    let pattern = match lower(field).as_str() {
        "real" | "integer" => false,
        "pattern" => true,
        other => return Err(parse_err(lineno, format!("unsupported field `{other}`"))),
    };
    let symmetry = match symmetry.map_or("general".into(), lower).as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return Err(parse_err(lineno, format!("unsupported symmetry `{other}`"))),
    };

    // Size line (skipping comments).
    let (nrows, ncols, nnz) = loop {
        if !sc.next_line()? {
            return Err(parse_err(sc.lineno, "missing size line"));
        }
        let lineno = sc.lineno;
        let [Some(r), c, n, extra] = std::array::from_fn(|_| sc.coord()) else {
            continue;
        };
        if r.0.starts_with('%') {
            continue;
        }
        let (Some(c), Some(n), None) = (c, n, extra) else {
            let line = sc.line().trim();
            return Err(parse_err(lineno, format!("bad size line: {line}")));
        };
        let count = |coord| value_of(coord, lineno, "integer");
        break (count(r)?, count(c)?, count(n)?);
    };

    // The size line is a claim, not a budget: reserve no more entries than
    // the bytes still unread could spell (`1 1` and a newline at least).
    let mut triplets: Vec<(usize, usize, Value)> =
        Vec::with_capacity(nnz.min((sc.text.len() - sc.pos) / 4 + 1));
    let mut seen = 0usize;
    while sc.next_line()? {
        let lineno = sc.lineno;
        // Blank and comment lines.
        let row = match sc.coord() {
            Some(row) if !row.0.starts_with('%') => row,
            _ => continue,
        };
        let col = sc.coord();
        // A pattern entry has no value column: anything there is ignored.
        let val = if pattern { Some("") } else { sc.token() };
        let (Some(col), Some(val)) = (col, val) else {
            let line = sc.line().trim();
            return Err(parse_err(lineno, format!("entry line too short: {line}")));
        };
        let r = value_of(row, lineno, "row")?;
        let c = value_of(col, lineno, "col")?;
        if r == 0 || c == 0 {
            return Err(parse_err(lineno, "matrix market coordinates are 1-based"));
        }
        let v: Value = match pattern {
            true => 1.0,
            // Parse directly at `Value` precision: the writer emits
            // shortest-round-trip `Value` decimals, and a correctly rounded
            // parse at the same width makes write→read bit-exact (parsing
            // as f64 and narrowing would double-round).
            false => val
                .parse()
                .map_err(|_| parse_err(lineno, format!("bad value `{val}`")))?,
        };
        let (r, c) = (r - 1, c - 1);
        triplets.push((r, c, v));
        if r != c {
            match symmetry {
                Symmetry::General => {}
                Symmetry::Symmetric => triplets.push((c, r, v)),
                Symmetry::SkewSymmetric => triplets.push((c, r, -v)),
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(
            sc.lineno,
            format!("expected {nnz} entries, found {seen}"),
        ));
    }
    CooMatrix::from_triplets(nrows, ncols, triplets)
}

/// Reads a `.mtx` file from disk.
///
/// # Errors
///
/// See [`read_matrix_market`].
pub fn read_matrix_market_file(path: impl AsRef<Path>) -> Result<CooMatrix> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Writes a matrix in Matrix Market `coordinate real general` form.
///
/// A `&mut` reference may be passed for any `W: Write`.
///
/// # Errors
///
/// Returns [`TensorError::Io`] on write failures.
pub fn write_matrix_market<W: Write>(mut writer: W, m: &CooMatrix) -> Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% generated by waco-tensor")?;
    writeln!(writer, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

/// Writes a matrix to a `.mtx` file on disk.
///
/// # Errors
///
/// See [`write_matrix_market`].
pub fn write_matrix_market_file(path: impl AsRef<Path>, m: &CooMatrix) -> Result<()> {
    write_matrix_market(std::fs::File::create(path)?, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_general_real() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   % comment\n\
                   3 4 2\n\
                   1 1 1.5\n\
                   3 4 -2.0\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (3, 4, 2));
        assert_eq!(m.get(0, 0), Some(1.5));
        assert_eq!(m.get(2, 3), Some(-2.0));
    }

    #[test]
    fn parse_pattern_symmetric() {
        let src = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                   3 3 2\n\
                   2 1\n\
                   3 3\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 3); // (1,0), (0,1) expanded, (2,2) diagonal
        assert_eq!(m.get(0, 1), Some(1.0));
        assert_eq!(m.get(1, 0), Some(1.0));
        assert_eq!(m.get(2, 2), Some(1.0));
    }

    #[test]
    fn parse_skew_symmetric() {
        let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                   2 2 1\n\
                   2 1 3.0\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.get(1, 0), Some(3.0));
        assert_eq!(m.get(0, 1), Some(-3.0));
    }

    #[test]
    fn roundtrip() {
        let mut rng = crate::gen::Rng64::seed_from(1);
        let m = crate::gen::uniform_random(20, 30, 0.1, &mut rng);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &m).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(back.nrows(), m.nrows());
        assert_eq!(back.ncols(), m.ncols());
        assert_eq!(back.pattern(), m.pattern());
        for ((_, _, a), (_, _, b)) in m.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market("garbage\n1 1 0\n".as_bytes()).is_err());
        assert!(read_matrix_market(
            "%%MatrixMarket matrix array real general\n1 1 1\n1.0\n".as_bytes()
        )
        .is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(matches!(
            read_matrix_market(src.as_bytes()),
            Err(TensorError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_zero_based() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn integer_field_parses() {
        let src = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 7\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), Some(7.0));
    }

    /// What the reader accepts, what it rejects, and at which line — pinned
    /// against the line-at-a-time reader this one replaced.
    #[test]
    fn accept_reject_table() {
        const REAL: &str = "%%MatrixMarket matrix coordinate real general\n";
        let real = |rest: &str| format!("{REAL}{rest}").into_bytes();
        type Accept = (
            &'static str,
            Vec<u8>,
            (usize, usize),
            &'static [(usize, usize, Value)],
        );
        let accepts: Vec<Accept> = vec![
            (
                "crlf line ends",
                b"%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1 1 1.5\r\n2 2 -2\r\n"
                    .to_vec(),
                (2, 2),
                &[(0, 0, 1.5), (1, 1, -2.0)],
            ),
            (
                "a lone CR is whitespace, the last line needs no newline",
                real("2 2 1\n1\r1\r1.5"),
                (2, 2),
                &[(0, 0, 1.5)],
            ),
            (
                "comments and blanks anywhere after the header",
                real("% c\n\n2 2 2\n1 1 1.5\n% mid\n\n2 2 -2\n\n"),
                (2, 2),
                &[(0, 0, 1.5), (1, 1, -2.0)],
            ),
            (
                "trailing tokens on header and entry lines",
                b"%%MatrixMarket matrix coordinate real general extra tokens\n2 2 1\n1 1 1.5 9 junk\n"
                    .to_vec(),
                (2, 2),
                &[(0, 0, 1.5)],
            ),
            (
                "pattern ignores a value column",
                b"%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 1 ignored\n"
                    .to_vec(),
                (2, 2),
                &[(0, 0, 1.0), (1, 0, 1.0)],
            ),
            (
                "symmetric mirrors off-diagonal entries only",
                b"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 4\n3 3 5\n".to_vec(),
                (3, 3),
                &[(0, 1, 4.0), (1, 0, 4.0), (2, 2, 5.0)],
            ),
            (
                "skew-symmetric negates the mirror",
                b"%%MatrixMarket matrix coordinate integer skew-symmetric\n3 3 1\n3 1 4\n".to_vec(),
                (3, 3),
                &[(0, 2, -4.0), (2, 0, 4.0)],
            ),
            (
                "header keywords in any case, blank lines before it",
                b"\n  \n%%matrixmarket MATRIX Coordinate REAL General\n1 1 1\n1 1 2\n".to_vec(),
                (1, 1),
                &[(0, 0, 2.0)],
            ),
            (
                "tabs and a leading plus sign",
                b"%%MatrixMarket\tmatrix\tcoordinate\treal\tgeneral\n+2\t2\t1\n +1\t+2\t+3.5 \n"
                    .to_vec(),
                (2, 2),
                &[(0, 1, 3.5)],
            ),
            (
                "unicode whitespace separates tokens",
                real("2 2 1\n1\u{a0}1\u{a0}1.5\n"),
                (2, 2),
                &[(0, 0, 1.5)],
            ),
            (
                "duplicates are summed",
                real("2 2 2\n1 1 1\n1 1 2\n"),
                (2, 2),
                &[(0, 0, 3.0)],
            ),
        ];
        for (what, bytes, dims, trips) in accepts {
            let m = read_matrix_market(bytes.as_slice()).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!((m.nrows(), m.ncols()), dims, "{what}");
            assert_eq!(m.iter().collect::<Vec<_>>(), trips, "{what}");
        }

        let rejects: Vec<(&str, Vec<u8>, usize, &str)> = vec![
            (
                "crlf counts lines the same",
                b"%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1 1 1.5\r\n2 2 x\r\n"
                    .to_vec(),
                4,
                "bad value `x`",
            ),
            (
                "too few entries: the last line read",
                real("2 2 3\n1 1 1.5\n% mid\n\n2 2 -2\n\n"),
                7,
                "expected 3 entries, found 2",
            ),
            (
                "too many entries",
                real("2 2 1\n1 1 1.5\n2 2 -2\n"),
                4,
                "expected 1 entries, found 2",
            ),
            (
                "a claim of more entries than bytes",
                real("4 4 1152921504606846976\n1 1 1\n"),
                3,
                "expected 1152921504606846976 entries, found 1",
            ),
            (
                "four tokens on the size line",
                real("2 2 1 7\n1 1 1.5\n"),
                2,
                "bad size line: 2 2 1 7",
            ),
            (
                "two tokens on the size line",
                real("2 2\n"),
                2,
                "bad size line: 2 2",
            ),
            ("negative size", real("2 -2 1\n"), 2, "bad integer `-2`"),
            (
                "pattern entry with one token",
                b"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n".to_vec(),
                3,
                "entry line too short: 1",
            ),
            (
                "real entry with two tokens, checked before the tokens are",
                real("2 2 1\n x 1 \n"),
                3,
                "entry line too short: x 1",
            ),
            ("bad row", real("2 2 1\nx 1 1\n"), 3, "bad row `x`"),
            ("bad col", real("2 2 1\n1 1.0 1\n"), 3, "bad col `1.0`"),
            (
                "zero-based",
                real("2 2 1\n\n1 0 1\n"),
                4,
                "matrix market coordinates are 1-based",
            ),
            (
                "hermitian",
                b"%%MatrixMarket matrix coordinate real hermitian\n3 3 1\n3 1 4\n".to_vec(),
                1,
                "unsupported symmetry `hermitian`",
            ),
            (
                "complex",
                b"%%MatrixMarket matrix coordinate COMPLEX general\n3 3 1\n3 1 4 0\n".to_vec(),
                1,
                "unsupported field `complex`",
            ),
            (
                "array",
                b"%%MatrixMarket matrix array real general\n1 1\n1.0\n".to_vec(),
                1,
                "only `coordinate` format is supported",
            ),
            (
                "header after blanks keeps its line and its spelling",
                b"\n\nGarbage here\n".to_vec(),
                3,
                "bad header: Garbage here",
            ),
            (
                "three-token header",
                b"%%MatrixMarket matrix coordinate\n1 1 0\n".to_vec(),
                1,
                "bad header: %%MatrixMarket matrix coordinate",
            ),
            ("empty", b"".to_vec(), 1, "empty stream"),
            ("only blank lines", b"\n\n \n".to_vec(), 1, "empty stream"),
            (
                "no size line: the last line read",
                real("% a\n% b\n"),
                3,
                "missing size line",
            ),
            (
                "no size line, no newline",
                REAL.trim_end().as_bytes().to_vec(),
                1,
                "missing size line",
            ),
            (
                "an earlier error wins over later bad bytes",
                [real("2 2 1\nx 1 1\n").as_slice(), b"\xff\n"].concat(),
                3,
                "bad row `x`",
            ),
        ];
        for (what, bytes, line, msg) in rejects {
            match read_matrix_market(bytes.as_slice()) {
                Err(TensorError::Parse { line: l, msg: m }) => {
                    assert_eq!((l, m.as_str()), (line, msg), "{what}");
                }
                other => panic!("{what}: expected a parse error, got {other:?}"),
            }
        }

        // Bytes that are not UTF-8 are an I/O-class error wherever they sit
        // — entry, comment or header — and never a panic.
        for bytes in [
            [real("2 2 1\n1 1 ").as_slice(), b"\xff\n"].concat(),
            b"%%MatrixMarket matrix coordinate real general\n% \xc3\x28\n2 2 0\n".to_vec(),
            b"\xff\xfe\n".to_vec(),
        ] {
            match read_matrix_market(bytes.as_slice()) {
                Err(TensorError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                    assert_eq!(e.to_string(), "stream did not contain valid UTF-8");
                }
                other => panic!("expected an i/o error, got {other:?}"),
            }
        }
        // Errors that are not about the text keep their own variants.
        assert!(matches!(
            read_matrix_market(real("2 2 1\n3 1 1\n").as_slice()),
            Err(TensorError::CoordOutOfBounds { .. })
        ));
        assert!(matches!(
            read_matrix_market(real("0 2 0\n").as_slice()),
            Err(TensorError::InvalidDims(_))
        ));
    }
}
