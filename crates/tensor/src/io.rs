//! FROSTT `.tns` text format I/O.
//!
//! The FROSTT repository (Smith, Choi, et al., reference [29] of the paper)
//! distributes sparse tensors as whitespace-separated text: one nonzero per
//! line, `N` 1-based coordinates followed by the value. Comment lines start
//! with `#`. This reader accepts exactly 3-mode files, matching the rest of
//! the crate; dimensions are inferred as the per-mode coordinate maxima
//! unless given explicitly.

use crate::coo::{CooTensor, Entry};
use crate::persist::AtomicFile;
use crate::{Idx, NMODES};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use tenblock_faults::FaultPolicy;

/// Errors produced by the `.tns` reader.
#[derive(Debug)]
pub enum TnsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number and a description.
    Parse { line: usize, msg: String },
}

impl std::fmt::Display for TnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TnsError::Io(e) => write!(f, "I/O error: {e}"),
            TnsError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for TnsError {}

impl From<std::io::Error> for TnsError {
    fn from(e: std::io::Error) -> Self {
        TnsError::Io(e)
    }
}

/// Reads a 3-mode tensor from `.tns` text.
///
/// Coordinates in the file are 1-based (FROSTT convention) and converted to
/// 0-based. Dimensions are the per-mode maxima of the coordinates.
///
/// Input is validated, never trusted: zero or `Idx`-overflowing
/// coordinates, non-finite values (`nan`/`inf`), missing fields, and
/// trailing fields are all rejected with a [`TnsError::Parse`] naming the
/// line. Lines repeating a coordinate triple are coalesced by summing
/// their values (the [`CooTensor`] duplicate semantics).
pub fn read_tns<R: Read>(reader: R) -> Result<CooTensor, TnsError> {
    let reader = BufReader::new(reader);
    let mut entries: Vec<Entry> = Vec::new();
    let mut dims = [0usize; NMODES];
    for (ln, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = ln + 1;
        let s = line.trim();
        if s.is_empty() || s.starts_with('#') {
            continue;
        }
        let mut it = s.split_ascii_whitespace();
        let mut idx = [0 as Idx; NMODES];
        for (m, slot) in idx.iter_mut().enumerate() {
            let tok = it.next().ok_or_else(|| TnsError::Parse {
                line: line_no,
                msg: format!(
                    "expected {} coordinates + value, found fewer fields",
                    NMODES
                ),
            })?;
            let c: u64 = tok.parse().map_err(|_| TnsError::Parse {
                line: line_no,
                msg: format!("invalid coordinate `{tok}`"),
            })?;
            if c == 0 {
                return Err(TnsError::Parse {
                    line: line_no,
                    msg: "coordinates are 1-based; found 0".into(),
                });
            }
            // A plain `as Idx` cast here would silently truncate huge
            // coordinates (wrapping them onto valid slices); reject instead.
            *slot = Idx::try_from(c - 1).map_err(|_| TnsError::Parse {
                line: line_no,
                msg: format!(
                    "coordinate {c} exceeds the index limit {}",
                    Idx::MAX as u64 + 1
                ),
            })?;
            if let Some(d) = dims.get_mut(m) {
                *d = (*d).max(*slot as usize + 1);
            }
        }
        let vtok = it.next().ok_or_else(|| TnsError::Parse {
            line: line_no,
            msg: "missing value field".into(),
        })?;
        let val: f64 = vtok.parse().map_err(|_| TnsError::Parse {
            line: line_no,
            msg: format!("invalid value `{vtok}`"),
        })?;
        if !val.is_finite() {
            return Err(TnsError::Parse {
                line: line_no,
                msg: format!("non-finite value `{vtok}` (kernels require finite data)"),
            });
        }
        if it.next().is_some() {
            return Err(TnsError::Parse {
                line: line_no,
                msg: "trailing fields after value (only 3-mode tensors are supported)".into(),
            });
        }
        entries.push(Entry { idx, val });
    }
    // Coordinates were bounds-checked against the running maxima above and
    // values are finite, so construction cannot fail — but route through the
    // fallible constructor anyway so a future invariant change surfaces as a
    // parse error, not a panic on user input.
    CooTensor::try_from_entries(dims, entries).map_err(|e| TnsError::Parse {
        line: 0,
        msg: e.to_string(),
    })
}

/// Reads a `.tns` file from disk.
pub fn read_tns_file<P: AsRef<Path>>(path: P) -> Result<CooTensor, TnsError> {
    read_tns(std::fs::File::open(path)?)
}

/// Writes a tensor as `.tns` text (1-based coordinates).
pub fn write_tns<W: Write>(tensor: &CooTensor, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    for e in tensor.entries() {
        writeln!(
            w,
            "{} {} {} {}",
            e.idx[0] as u64 + 1,
            e.idx[1] as u64 + 1,
            e.idx[2] as u64 + 1,
            e.val
        )?;
    }
    w.flush()
}

/// Writes a `.tns` file to disk, atomically: a crash mid-write never
/// leaves a partial file under the final name (see [`crate::persist`]).
pub fn write_tns_file<P: AsRef<Path>>(tensor: &CooTensor, path: P) -> std::io::Result<()> {
    let mut out = AtomicFile::create(path, FaultPolicy::none())?;
    write_tns(tensor, &mut out)?;
    out.commit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_frostt_text() {
        let text = "# a comment\n1 1 1 5.0\n\n2 3 1 -2.5\n";
        let t = read_tns(text.as_bytes()).unwrap();
        assert_eq!(t.dims(), [2, 3, 1]);
        assert_eq!(t.nnz(), 2);
        let e = t.entries();
        assert_eq!(e[0].idx, [0, 0, 0]);
        assert_eq!(e[0].val, 5.0);
        assert_eq!(e[1].idx, [1, 2, 0]);
        assert_eq!(e[1].val, -2.5);
    }

    #[test]
    fn roundtrip_through_text() {
        let t = CooTensor::from_triples(
            [4, 2, 3],
            &[0, 3, 1],
            &[1, 0, 1],
            &[2, 0, 1],
            &[1.5, 2.5, -3.0],
        );
        let mut buf = Vec::new();
        write_tns(&t, &mut buf).unwrap();
        let back = read_tns(buf.as_slice()).unwrap();
        assert_eq!(back.nnz(), t.nnz());
        assert_eq!(back.entries(), t.entries());
    }

    #[test]
    fn rejects_zero_based() {
        let err = read_tns("0 1 1 2.0".as_bytes()).unwrap_err();
        assert!(matches!(err, TnsError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_short_lines_and_bad_values() {
        assert!(read_tns("1 1 1".as_bytes()).is_err());
        assert!(read_tns("1 1 1 abc".as_bytes()).is_err());
        assert!(read_tns("1 1 1 1 1".as_bytes()).is_err());
    }

    #[test]
    fn rejects_non_finite_values_naming_the_line() {
        for bad in ["nan", "NaN", "inf", "-inf", "infinity"] {
            let text = format!("1 1 1 2.0\n2 2 2 {bad}\n");
            let err = read_tns(text.as_bytes()).unwrap_err();
            match err {
                TnsError::Parse { line, msg } => {
                    assert_eq!(line, 2, "{bad}");
                    assert!(msg.contains("non-finite"), "{msg}");
                }
                other => panic!("expected Parse, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_coordinates_overflowing_idx() {
        // 2^32 + 1 (1-based) would wrap to slice 0 under a silent cast.
        let text = format!("{} 1 1 2.0\n", (1u64 << 32) + 1);
        let err = read_tns(text.as_bytes()).unwrap_err();
        match err {
            TnsError::Parse { line: 1, msg } => {
                assert!(msg.contains("index limit"), "{msg}")
            }
            other => panic!("expected Parse at line 1, got {other:?}"),
        }
        // The largest representable coordinate is fine.
        let ok = format!("{} 1 1 2.0\n", 1u64 << 32);
        let t = read_tns(ok.as_bytes()).unwrap();
        assert_eq!(t.dims()[0], 1usize << 32);
        assert_eq!(t.entries()[0].idx[0], u32::MAX);
    }

    #[test]
    fn duplicate_coordinates_coalesce_by_summing() {
        let text = "2 1 1 1.5\n2 1 1 2.5\n2 1 1 -1.0\n1 1 1 4.0\n";
        let t = read_tns(text.as_bytes()).unwrap();
        assert_eq!(t.nnz(), 2);
        let merged = t
            .entries()
            .iter()
            .find(|e| e.idx == [1, 0, 0])
            .expect("coalesced entry present");
        assert_eq!(merged.val, 3.0);
    }

    #[test]
    fn file_roundtrip() {
        let t = CooTensor::from_triples([2, 2, 2], &[0, 1], &[0, 1], &[0, 1], &[1.0, 2.0]);
        let dir = std::env::temp_dir().join("tenblock_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tns");
        write_tns_file(&t, &path).unwrap();
        let back = read_tns_file(&path).unwrap();
        assert_eq!(back.entries(), t.entries());
        // An overwrite replaces the whole file and leaves no temp sibling.
        let u = CooTensor::from_triples([3, 1, 1], &[2], &[0], &[0], &[-4.5]);
        write_tns_file(&u, &path).unwrap();
        assert_eq!(read_tns_file(&path).unwrap().entries(), u.entries());
        assert!(!dir.join("t.tns.tmp").exists());
    }
}
