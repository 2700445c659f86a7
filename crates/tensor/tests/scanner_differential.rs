//! The byte scanner behind `read_matrix_market` and `parse_matrix_market`,
//! held to the line-at-a-time reader it replaced. That reader
//! (`BufRead::lines`-style splitting, `str::split_whitespace`,
//! `str::parse::<usize>`) lives on here, in `reference`, as the oracle: over
//! seeded token soups — every ASCII whitespace byte, lone CR and CRLF,
//! Unicode spaces, signs, leading zeros, `usize` overflow, exponents,
//! `NaN` / `inf`, comments, blank lines, every header variant, a missing
//! final newline, bytes that are not UTF-8 — and every truncation of each,
//! both must give the same matrix bits or the same error, line and message.

use waco_check::props;
use waco_tensor::gen::Rng64;
use waco_tensor::io::{parse_matrix_market, read_matrix_market};
use waco_tensor::{CooMatrix, Result, TensorError};

/// The reader as it stood before the byte scanner.
mod reference {
    use waco_tensor::{CooMatrix, Result, TensorError, Value};

    fn parse_err(line: usize, msg: impl Into<String>) -> TensorError {
        TensorError::Parse {
            line,
            msg: msg.into(),
        }
    }

    /// The lines of a buffer, split exactly as `BufRead::lines` would split
    /// the same bytes: at `\n`, one `\r` before it dropped, an unterminated
    /// tail kept.
    struct Lines<'a> {
        rest: &'a str,
        cut_short: bool,
        lineno: usize,
    }

    impl<'a> Lines<'a> {
        fn new(bytes: &'a [u8]) -> Self {
            let (rest, cut_short) = match std::str::from_utf8(bytes) {
                Ok(text) => (text, false),
                Err(e) => {
                    let valid = &bytes[..e.valid_up_to()];
                    (std::str::from_utf8(valid).expect("valid prefix"), true)
                }
            };
            Lines {
                rest,
                cut_short,
                lineno: 0,
            }
        }

        fn next(&mut self) -> Option<Result<&'a str>> {
            let line = match self.rest.split_once('\n') {
                Some((line, rest)) => {
                    self.rest = rest;
                    line.strip_suffix('\r').unwrap_or(line)
                }
                None if self.cut_short => {
                    return Some(Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8",
                    )
                    .into()));
                }
                None if self.rest.is_empty() => return None,
                None => std::mem::take(&mut self.rest),
            };
            self.lineno += 1;
            Some(Ok(line))
        }
    }

    pub fn read_matrix_market(bytes: &[u8]) -> Result<CooMatrix> {
        let mut lines = Lines::new(bytes);
        let header = loop {
            match lines.next() {
                Some(line) => {
                    let line = line?;
                    if !line.trim().is_empty() {
                        break line;
                    }
                }
                None => return Err(parse_err(1, "empty stream")),
            }
        };
        let lineno = lines.lineno;
        let header_lc = header.to_ascii_lowercase();
        let mut toks = header_lc.split_whitespace();
        let (Some("%%matrixmarket"), Some("matrix"), Some(format), Some(field)) =
            (toks.next(), toks.next(), toks.next(), toks.next())
        else {
            return Err(parse_err(lineno, format!("bad header: {header}")));
        };
        if format != "coordinate" {
            return Err(parse_err(lineno, "only `coordinate` format is supported"));
        }
        let pattern = match field {
            "real" | "integer" => false,
            "pattern" => true,
            other => return Err(parse_err(lineno, format!("unsupported field `{other}`"))),
        };
        // 0: general, 1: symmetric, 2: skew-symmetric.
        let symmetry = match toks.next().unwrap_or("general") {
            "general" => 0,
            "symmetric" => 1,
            "skew-symmetric" => 2,
            other => return Err(parse_err(lineno, format!("unsupported symmetry `{other}`"))),
        };

        let (nrows, ncols, nnz) = loop {
            let line = lines
                .next()
                .ok_or_else(|| parse_err(lines.lineno, "missing size line"))??;
            let lineno = lines.lineno;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            let mut parts = t.split_whitespace();
            let (Some(r), Some(c), Some(n), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(parse_err(lineno, format!("bad size line: {t}")));
            };
            let parse = |s: &str| -> Result<usize> {
                s.parse()
                    .map_err(|_| parse_err(lineno, format!("bad integer `{s}`")))
            };
            break (parse(r)?, parse(c)?, parse(n)?);
        };

        let mut triplets: Vec<(usize, usize, Value)> =
            Vec::with_capacity(nnz.min(lines.rest.len() / 4 + 1));
        let mut seen = 0usize;
        while let Some(line) = lines.next() {
            let (line, lineno) = (line?, lines.lineno);
            let mut parts = line.split_whitespace();
            let row = match parts.next() {
                Some(tok) if !tok.starts_with('%') => tok,
                _ => continue,
            };
            let too_short = || parse_err(lineno, format!("entry line too short: {}", line.trim()));
            let col = parts.next().ok_or_else(too_short)?;
            let val = match pattern {
                true => None,
                false => Some(parts.next().ok_or_else(too_short)?),
            };
            let r: usize = row
                .parse()
                .map_err(|_| parse_err(lineno, format!("bad row `{row}`")))?;
            let c: usize = col
                .parse()
                .map_err(|_| parse_err(lineno, format!("bad col `{col}`")))?;
            if r == 0 || c == 0 {
                return Err(parse_err(lineno, "matrix market coordinates are 1-based"));
            }
            let v: Value = match val {
                None => 1.0,
                Some(val) => val
                    .parse()
                    .map_err(|_| parse_err(lineno, format!("bad value `{val}`")))?,
            };
            let (r, c) = (r - 1, c - 1);
            triplets.push((r, c, v));
            if r != c {
                match symmetry {
                    0 => {}
                    1 => triplets.push((c, r, v)),
                    _ => triplets.push((c, r, -v)),
                }
            }
            seen += 1;
        }
        if seen != nnz {
            return Err(parse_err(
                lines.lineno,
                format!("expected {nnz} entries, found {seen}"),
            ));
        }
        CooMatrix::from_triplets(nrows, ncols, triplets)
    }
}

/// An error as its variant, line and message (an i/o error as its kind and
/// message: std spells the same error two ways under `Debug`).
fn error_digest(e: TensorError) -> String {
    match e {
        TensorError::Io(e) => format!("Io({:?}, {e})", e.kind()),
        e => format!("{e:?}"),
    }
}

/// A matrix as its shape and entry bits (`NaN` is a value here).
fn matrix_digest(r: Result<CooMatrix>) -> String {
    match r {
        Ok(m) => {
            let bits: Vec<_> = m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
            format!("{}x{} {bits:?}", m.nrows(), m.ncols())
        }
        Err(e) => error_digest(e),
    }
}

/// Every separator the scanner classifies: each ASCII whitespace byte but
/// `\n` (VT and FF included), runs of them, and three Unicode spaces of
/// two and three bytes.
const SPACES: &[&str] = &[
    " ", " ", " ", "\t", "\x0b", "\x0c", "\r", "  ", " \t ", "\u{a0}", "\u{2003}", "\u{3000}",
];

/// Line ends, some with a blank or comment line after them.
const ENDS: &[&str] = &["\n", "\n", "\n", "\r\n", "\n\n", "\r\r\n", "\n \n", "\n%\n"];

/// Coordinates every reader accepts: signs and leading zeros included.
const COORDS: &[&str] = &["1", "2", "3", "4", "+2", "03", "0004"];

/// Coordinate-shaped tokens that are not coordinates: zero, signs alone,
/// the `usize` edge and past it, fractions, letters, a trailing U+00A0
/// (a separator, so `2` is the token), a comment mark.
const BAD_COORDS: &[&str] = &[
    "0",
    "+",
    "-1",
    "++1",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "1.0",
    "x",
    "2\u{a0}",
    "é",
    "%",
];

/// Values, including exponents, overflow to `inf`, `NaN` and `inf`.
const VALUES: &[&str] = &[
    "1.5",
    "-2",
    "7",
    "0.25",
    "+.5",
    "-2e3",
    "1E-7",
    "3.4028236e38",
    "1e400",
    "NaN",
    "nan",
    "inf",
    "-infinity",
];

const BAD_VALUES: &[&str] = &["1e", "0x1", "x", "1,5", "ß", "--1"];

/// One of `good`, or — with probability `damage` — one of `bad`.
fn draw<'a>(rng: &mut Rng64, damage: f64, good: &[&'a str], bad: &[&'a str]) -> &'a str {
    match rng.chance(damage) {
        true => rng.pick::<&str>(bad),
        false => rng.pick::<&str>(good),
    }
}

/// Tokens joined by separators drawn from [`SPACES`], with a separator
/// before the first one now and then.
fn join(rng: &mut Rng64, doc: &mut String, toks: &[&str]) {
    for (i, tok) in toks.iter().enumerate() {
        if i > 0 || rng.chance(0.1) {
            doc.push_str(rng.pick::<&str>(SPACES));
        }
        doc.push_str(tok);
    }
}

/// A missing final newline now and then, and with probability `damage` a
/// byte that is not UTF-8 somewhere.
fn finish(rng: &mut Rng64, damage: f64, doc: String) -> Vec<u8> {
    let mut bytes = doc.into_bytes();
    if rng.chance(0.3) {
        while bytes.last() == Some(&b'\n') {
            bytes.pop();
        }
    }
    if rng.chance(damage / 2.0) && !bytes.is_empty() {
        let at = rng.below(bytes.len());
        bytes.insert(at, *rng.pick(&[0xff, 0xc3, 0x80]));
    }
    bytes
}

/// One Matrix Market document from the soup. Half the documents are well
/// formed in every token, so the entry loop runs to its end; the other half
/// take damage in any token, line or byte.
fn mtx_soup(rng: &mut Rng64, lines: usize) -> Vec<u8> {
    let damage = if rng.chance(0.5) { 0.0 } else { 0.2 };
    let mut doc = String::new();
    for _ in 0..rng.below(2) {
        doc.push_str(rng.pick::<&str>(&["\n", " \n", "\u{3000}\r\n"]));
    }
    let mut header = vec![
        draw(
            rng,
            damage,
            &["%%MatrixMarket", "%%matrixmarket", "%%MATRIXMARKET"],
            &["%MatrixMarket", "garbage"],
        ),
        draw(rng, damage, &["matrix", "MATRIX"], &["tensor"]),
        draw(rng, damage, &["coordinate", "Coordinate"], &["array"]),
        draw(
            rng,
            damage,
            &["real", "integer", "pattern", "REAL"],
            &["complex"],
        ),
        draw(
            rng,
            damage,
            &["", "general", "symmetric", "skew-symmetric", "Symmetric"],
            &["hermitian"],
        ),
    ];
    header.retain(|t| !t.is_empty());
    if rng.chance(damage) {
        header.truncate(3);
    }
    if rng.chance(0.2) {
        header.push("extra");
    }
    join(rng, &mut doc, &header);
    doc.push_str(rng.pick::<&str>(ENDS));
    for _ in 0..rng.below(3) {
        doc.push_str(rng.pick::<&str>(&["% comment", "", "\t", "  % indented", "%", "\u{a0}"]));
        doc.push_str(rng.pick::<&str>(ENDS));
    }
    let dims = (
        &["4", "+4", "04", "5"][..],
        &["0", "18446744073709551616", "-4", "x"][..],
    );
    let claimed = match rng.chance(damage) {
        true => (lines + rng.below(3)).saturating_sub(1),
        false => lines,
    }
    .to_string();
    let mut size = vec![
        draw(rng, damage, dims.0, dims.1),
        draw(rng, damage, dims.0, dims.1),
        &claimed,
    ];
    match (rng.chance(damage), rng.chance(0.5)) {
        (true, true) => size.push("7"),
        (true, false) => drop(size.pop()),
        _ => {}
    }
    join(rng, &mut doc, &size);
    doc.push_str(rng.pick::<&str>(ENDS));
    for _ in 0..lines {
        if rng.chance(0.15) {
            doc.push_str(rng.pick::<&str>(&["% entry comment", "", "%", " %x", "\u{a0}"]));
            doc.push_str(rng.pick::<&str>(ENDS));
        }
        let mut entry = vec![
            draw(rng, damage, COORDS, BAD_COORDS),
            draw(rng, damage, COORDS, BAD_COORDS),
            draw(rng, damage, VALUES, BAD_VALUES),
        ];
        if rng.chance(damage) {
            entry.truncate(rng.below(3));
        }
        if rng.chance(0.1) {
            entry.push(*rng.pick(&["9", "junk", "%"]));
        }
        join(rng, &mut doc, &entry);
        if rng.chance(0.1) {
            doc.push_str(rng.pick::<&str>(SPACES));
        }
        doc.push_str(rng.pick::<&str>(ENDS));
    }
    finish(rng, damage, doc)
}

fn assert_same_matrix(bytes: &[u8]) {
    let want = matrix_digest(reference::read_matrix_market(bytes));
    let what = String::from_utf8_lossy(bytes);
    assert_eq!(matrix_digest(read_matrix_market(bytes)), want, "{what:?}");
    if let Ok(text) = std::str::from_utf8(bytes) {
        assert_eq!(matrix_digest(parse_matrix_market(text)), want, "{what:?}");
    }
}

props! {
    /// Whole soups, and every prefix of each: a cut lands inside tokens,
    /// inside CRLF pairs and inside multibyte characters.
    cases = 256,
    fn matrix_market_soups_read_as_the_line_reader_read_them(seed in 0u64..u64::MAX, lines in 0usize..12) {
        let doc = mtx_soup(&mut Rng64::seed_from(seed), lines);
        for cut in 0..=doc.len() {
            assert_same_matrix(&doc[..cut]);
        }
    }

}

/// The soups must reach the end of the entry loop, not just its errors.
#[test]
fn the_soups_reach_accepted_matrices() {
    let mut rng = Rng64::seed_from(7);
    let accepted = (0..400)
        .filter(|_| {
            let lines = rng.below(12);
            reference::read_matrix_market(&mtx_soup(&mut rng, lines)).is_ok()
        })
        .count();
    assert!(accepted >= 150, "only {accepted} of 400 soups parse");
}
