//! Checkpointing: a small self-describing text format for matrices.
//!
//! The workspace avoids external serialization dependencies; checkpoints are
//! line-oriented ASCII: a `mat <rows> <cols>` header followed by one
//! whitespace-separated row per line. Values round-trip through `f32`'s
//! shortest-exact `Display`.

use crate::mat::Mat;
use std::io::{BufRead, BufReader, Read, Write};

/// Serialization error.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed checkpoint content.
    Parse(String),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "i/o error: {e}"),
            SerializeError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for SerializeError {}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> Self {
        SerializeError::Io(e)
    }
}

/// Writes one matrix.
///
/// A `&mut` reference may be passed for any `W: Write`.
///
/// # Errors
///
/// I/O failures.
pub fn write_mat<W: Write>(w: &mut W, m: &Mat) -> Result<(), SerializeError> {
    writeln!(w, "mat {} {}", m.rows(), m.cols())?;
    for r in 0..m.rows() {
        let row: Vec<String> = m.row(r).iter().map(|v| format!("{v}")).collect();
        writeln!(w, "{}", row.join(" "))?;
    }
    Ok(())
}

/// Reads one matrix written by [`write_mat`].
///
/// # Errors
///
/// I/O failures and malformed content.
pub fn read_mat<R: BufRead>(r: &mut R) -> Result<Mat, SerializeError> {
    let mut header = String::new();
    loop {
        header.clear();
        if r.read_line(&mut header)? == 0 {
            return Err(SerializeError::Parse("unexpected end of checkpoint".into()));
        }
        if !header.trim().is_empty() {
            break;
        }
    }
    let toks: Vec<&str> = header.split_whitespace().collect();
    if toks.len() != 3 || toks[0] != "mat" {
        return Err(SerializeError::Parse(format!(
            "bad matrix header: {header}"
        )));
    }
    let rows: usize = toks[1]
        .parse()
        .map_err(|_| SerializeError::Parse("bad row count".into()))?;
    let cols: usize = toks[2]
        .parse()
        .map_err(|_| SerializeError::Parse("bad col count".into()))?;
    let total = rows
        .checked_mul(cols)
        .ok_or_else(|| SerializeError::Parse(format!("{rows} x {cols} matrix overflows")))?;
    // The header is a claim, not a budget: reserve no more values than the
    // unread bytes could spell (a digit and a separator each).
    let mut data = Vec::with_capacity(total.min(r.fill_buf()?.len() / 2 + 1));
    let mut line = String::new();
    for _ in 0..rows {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(SerializeError::Parse("truncated matrix body".into()));
        }
        for tok in line.split_whitespace() {
            let v: f32 = tok
                .parse()
                .map_err(|_| SerializeError::Parse(format!("bad value `{tok}`")))?;
            data.push(v);
        }
    }
    if data.len() != total {
        return Err(SerializeError::Parse(format!(
            "expected {total} values, found {}",
            data.len()
        )));
    }
    Ok(Mat::from_vec(rows, cols, data))
}

/// Writes a named sequence of matrices (a whole model checkpoint).
///
/// # Errors
///
/// I/O failures.
pub fn write_checkpoint<W: Write>(
    w: &mut W,
    name: &str,
    mats: &[&Mat],
) -> Result<(), SerializeError> {
    writeln!(w, "waco-checkpoint {name} {}", mats.len())?;
    for m in mats {
        write_mat(w, m)?;
    }
    Ok(())
}

/// Reads a checkpoint written by [`write_checkpoint`]; returns the name and
/// the matrices.
///
/// # Errors
///
/// I/O failures and malformed content.
pub fn read_checkpoint<R: Read>(r: R) -> Result<(String, Vec<Mat>), SerializeError> {
    let mut br = BufReader::new(r);
    let mut header = String::new();
    br.read_line(&mut header)?;
    let toks: Vec<&str> = header.split_whitespace().collect();
    if toks.len() != 3 || toks[0] != "waco-checkpoint" {
        return Err(SerializeError::Parse(format!(
            "bad checkpoint header: {header}"
        )));
    }
    let name = toks[1].to_string();
    let count: usize = toks[2]
        .parse()
        .map_err(|_| SerializeError::Parse("bad matrix count".into()))?;
    // As in `read_mat`: a matrix takes at least a `mat r c` header line.
    let mut mats = Vec::with_capacity(count.min(br.fill_buf()?.len() / 8 + 1));
    for _ in 0..count {
        mats.push(read_mat(&mut br)?);
    }
    Ok((name, mats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_tensor::gen::Rng64;

    #[test]
    fn mat_roundtrip_exact() {
        let mut rng = Rng64::seed_from(1);
        let m = Mat::xavier(7, 5, &mut rng);
        let mut buf = Vec::new();
        write_mat(&mut buf, &m).unwrap();
        let back = read_mat(&mut BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back, m, "f32 Display round-trips exactly");
    }

    #[test]
    fn checkpoint_roundtrip() {
        let mut rng = Rng64::seed_from(2);
        let a = Mat::xavier(3, 4, &mut rng);
        let b = Mat::zeros(1, 2);
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, "testmodel", &[&a, &b]).unwrap();
        let (name, mats) = read_checkpoint(buf.as_slice()).unwrap();
        assert_eq!(name, "testmodel");
        assert_eq!(mats.len(), 2);
        assert_eq!(mats[0], a);
        assert_eq!(mats[1], b);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_checkpoint("nonsense".as_bytes()).is_err());
        assert!(read_mat(&mut BufReader::new("mat 2 2\n1 2\n".as_bytes())).is_err());
        assert!(read_mat(&mut BufReader::new("mat x 2\n".as_bytes())).is_err());
    }

    fn is_parse_error<T>(r: Result<T, SerializeError>) -> bool {
        matches!(r, Err(SerializeError::Parse(_)))
    }

    #[test]
    fn a_huge_row_count_does_not_size_the_allocation() {
        let text = "mat 1000000000000 1\n1\n";
        assert!(is_parse_error(read_mat(&mut text.as_bytes())));
    }

    #[test]
    fn an_overflowing_shape_is_a_parse_error() {
        let text = "mat 4294967296 4294967297\n1 2\n";
        assert!(is_parse_error(read_mat(&mut text.as_bytes())));
    }

    #[test]
    fn a_huge_matrix_count_does_not_size_the_allocation() {
        let text = "waco-checkpoint m 1000000000000\nmat 1 1\n1\n";
        assert!(is_parse_error(read_checkpoint(text.as_bytes())));
    }

    #[test]
    fn special_values_roundtrip() {
        let m = Mat::from_vec(1, 4, vec![0.0, -0.0, f32::MIN_POSITIVE, 1e38]);
        let mut buf = Vec::new();
        write_mat(&mut buf, &m).unwrap();
        let back = read_mat(&mut BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.as_slice(), m.as_slice());
    }
}
