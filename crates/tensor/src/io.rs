//! FROSTT `.tns` text format I/O.
//!
//! The FROSTT repository (Smith, Choi, et al., reference [29] of the paper)
//! distributes sparse tensors as whitespace-separated text: one nonzero per
//! line, `N` 1-based coordinates followed by the value. Comment lines start
//! with `#`. This reader accepts exactly 3-mode files, matching the rest of
//! the crate; dimensions are inferred as the per-mode coordinate maxima
//! unless given explicitly.

// Untrusted input: a malformed file is a typed error, never a panic.
#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable
)]

use crate::coo::{CooTensor, Entry, TensorError};
use crate::persist::AtomicFile;
use crate::{Idx, NMODES};
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use tenblock_faults::FaultPolicy;

/// Errors produced by the `.tns` reader.
#[derive(Debug)]
pub enum TnsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number and a description.
    Parse { line: usize, msg: String },
    /// Well-formed lines whose duplicates of one coordinate, 1-based as the
    /// file writes it, sum past `f64::MAX`.
    DuplicateOverflow { coord: [u64; NMODES] },
}

impl std::fmt::Display for TnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TnsError::Io(e) => write!(f, "I/O error: {e}"),
            TnsError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            TnsError::DuplicateOverflow { coord: [i, j, k] } => write!(
                f,
                "duplicates of coordinate {i} {j} {k} sum to a non-finite value"
            ),
        }
    }
}

impl std::error::Error for TnsError {}

impl From<std::io::Error> for TnsError {
    fn from(e: std::io::Error) -> Self {
        TnsError::Io(e)
    }
}

/// Bytes asked of the reader per fill. A fill is cut after its last
/// newline, and the partial line after the cut opens the next fill.
const CHUNK_BYTES: usize = 1 << 20;

/// The smallest piece of a fill worth a thread of its own.
const MIN_PIECE_BYTES: usize = 64 << 10;

/// The message of a line whose bytes are not UTF-8.
const NOT_UTF8: &str = "line is not valid UTF-8";

/// How [`read_entries`] cuts its input: `chunk` bytes per fill, split into
/// at most `threads` pieces of at least `min_piece` bytes each.
#[derive(Debug, Clone, Copy)]
struct Split {
    chunk: usize,
    threads: usize,
    min_piece: usize,
}

/// Reads a 3-mode tensor from `.tns` text.
///
/// Coordinates in the file are 1-based (FROSTT convention) and converted to
/// 0-based. Dimensions are the per-mode maxima of the coordinates.
///
/// Input is validated, never trusted: zero or `Idx`-overflowing
/// coordinates, non-finite values (`nan`/`inf`), missing fields, trailing
/// fields and bytes that are not UTF-8 are all rejected with a
/// [`TnsError::Parse`] naming the line; of several bad lines, the first
/// in the file is named. Lines repeating a coordinate triple are coalesced
/// by summing their values (the [`CooTensor`] duplicate semantics); a sum
/// that overflows to infinity is a [`TnsError::DuplicateOverflow`] naming
/// the coordinate as the file writes it.
///
/// The text is read in chunks of whole lines, and each chunk is parsed on
/// every available core; the entries keep file order, so the result does
/// not depend on the thread count.
pub fn read_tns<R: Read>(reader: R) -> Result<CooTensor, TnsError> {
    let split = Split {
        chunk: CHUNK_BYTES,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        min_piece: MIN_PIECE_BYTES,
    };
    let (dims, entries) = read_entries(reader, split)?;
    // Coordinates were bounds-checked against the running maxima and
    // values are finite; construction fails only if duplicates sum past
    // `f64::MAX`.
    CooTensor::try_from_entries(dims, entries).map_err(|e| match e {
        TensorError::NonFiniteSum { idx } => TnsError::DuplicateOverflow {
            coord: idx.map(|c| u64::from(c) + 1),
        },
        other => TnsError::Parse {
            line: 0,
            msg: other.to_string(),
        },
    })
}

/// The entries of `.tns` text in file order, and the per-mode coordinate
/// maxima: [`read_tns`] before the [`CooTensor`] is built.
fn read_entries<R: Read>(
    mut reader: R,
    split: Split,
) -> Result<([usize; NMODES], Vec<Entry>), TnsError> {
    let chunk = split.chunk.max(1);
    let mut buf: Vec<u8> = Vec::new();
    let mut entries: Vec<Entry> = Vec::new();
    let mut dims = [0usize; NMODES];
    let mut lines_before = 0usize;
    loop {
        let mut filled = fill(&mut reader, &mut buf, chunk);
        let mut cut = last_newline(&buf);
        // A line longer than the chunk: read on until it ends.
        while cut.is_none() && matches!(filled, Ok(false)) {
            let want = buf.len().saturating_add(chunk);
            filled = fill(&mut reader, &mut buf, want);
            cut = last_newline(&buf);
        }
        // At the end of the input the last line needs no newline. After a
        // read error the whole lines still parse first, so a bad line
        // before the failure is the error reported, as it would be from a
        // line-at-a-time reader.
        let cut = match filled {
            Ok(true) => buf.len(),
            _ => cut.unwrap_or(0),
        };
        let text = buf.get(..cut).unwrap_or_default();
        lines_before += parse_chunk(text, lines_before, split, &mut entries, &mut dims)?;
        if filled? {
            return Ok((dims, entries));
        }
        buf.drain(..cut);
    }
}

/// Reads until `buf` holds `want` bytes or the input ends; `Ok(true)` at
/// the end of the input.
fn fill<R: Read>(reader: &mut R, buf: &mut Vec<u8>, want: usize) -> std::io::Result<bool> {
    let need = want.saturating_sub(buf.len());
    buf.reserve_exact(need);
    let limit = u64::try_from(need).unwrap_or(u64::MAX);
    let got = reader.by_ref().take(limit).read_to_end(buf)?;
    Ok(got < need)
}

/// The length of `buf` up to and including its last newline.
fn last_newline(buf: &[u8]) -> Option<usize> {
    buf.iter().rposition(|&b| b == b'\n').map(|p| p + 1)
}

/// One piece's outcome: how many entries it wrote to the front of its
/// slots, its coordinate maxima, and its first bad line.
struct Piece {
    filled: usize,
    dims: [usize; NMODES],
    err: Option<TnsError>,
}

/// Parses `text`, whole lines whose first is line `lines_before + 1`, and
/// appends its entries to `entries` in file order. Returns its line count.
///
/// The text is cut at newlines into pieces that parse on their own
/// threads, each into its own run of slots (one per line) at the end of
/// `entries`; the runs are then closed up over the lines that held no
/// entry. `entries` grows by doubling from 4, through the capacities a
/// `push` loop gives it, so its reallocations are a line-at-a-time
/// reader's.
fn parse_chunk(
    text: &[u8],
    lines_before: usize,
    split: Split,
    entries: &mut Vec<Entry>,
    dims: &mut [usize; NMODES],
) -> Result<usize, TnsError> {
    let pieces = pieces(text, split);
    let lines: usize = pieces.iter().map(|&(_, n)| n).sum();
    let base = entries.len();
    let need = base.saturating_add(lines);
    while entries.capacity() < need {
        let cap = entries.capacity().saturating_mul(2).max(4);
        entries.reserve_exact(cap - base);
    }
    entries.resize(need, Entry::new(0, 0, 0, 0.0));
    let (_, mut slots) = entries.split_at_mut(base);
    let mut work = Vec::with_capacity(pieces.len());
    let mut first_line = lines_before;
    for &(piece, n) in &pieces {
        let take = n.min(slots.len());
        let (mine, rest) = std::mem::take(&mut slots).split_at_mut(take);
        slots = rest;
        work.push((piece, first_line, mine));
        first_line += n;
    }
    let outcomes = run_pieces(work);
    let (mut to, mut from) = (base, base);
    for (out, &(_, n)) in outcomes.into_iter().zip(&pieces) {
        let out = out?;
        if let Some(e) = out.err {
            return Err(e);
        }
        if from != to {
            entries.copy_within(from..from + out.filled, to);
        }
        for (d, &m) in dims.iter_mut().zip(&out.dims) {
            *d = (*d).max(m);
        }
        to += out.filled;
        from += n;
    }
    entries.truncate(to);
    Ok(lines)
}

/// Cuts `text` after newlines into at most `split.threads` non-empty
/// pieces of about equal bytes, each with its line count.
fn pieces(text: &[u8], split: Split) -> Vec<(&[u8], usize)> {
    let n = split
        .threads
        .min(text.len() / split.min_piece.max(1))
        .max(1);
    let mut out = Vec::with_capacity(n);
    let mut rest = text;
    for left in (1..=n).rev() {
        let target = rest.len() / left;
        let cut = rest
            .get(target..)
            .and_then(|t| t.iter().position(|&b| b == b'\n'))
            .map_or(rest.len(), |p| target + p + 1);
        let (piece, tail) = rest.split_at_checked(cut).unwrap_or((rest, &[]));
        if !piece.is_empty() {
            out.push((
                piece,
                newlines(piece) + usize::from(!piece.ends_with(b"\n")),
            ));
        }
        rest = tail;
    }
    out
}

/// Runs the first piece on this thread and the others on their own, and
/// returns their outcomes in file order. A thread that cannot start or
/// that panics is an I/O error of its piece.
fn run_pieces(work: Vec<(&[u8], usize, &mut [Entry])>) -> Vec<Result<Piece, TnsError>> {
    std::thread::scope(|s| {
        let mut work = work.into_iter();
        let first = work.next();
        let others: Vec<_> = work
            .map(|(text, line, slots)| {
                std::thread::Builder::new()
                    .name("tns-parse".into())
                    .spawn_scoped(s, move || parse_piece(text, line, slots))
            })
            .collect();
        let mut out = Vec::with_capacity(others.len() + 1);
        out.extend(first.map(|(text, line, slots)| Ok(parse_piece(text, line, slots))));
        for handle in others {
            out.push(match handle {
                Ok(h) => h.join().map_err(|p| {
                    TnsError::Io(std::io::Error::other(format!(
                        "a .tns parse thread panicked: {}",
                        panic_message(p.as_ref())
                    )))
                }),
                Err(e) => Err(TnsError::Io(e)),
            });
        }
        out
    })
}

/// The text of a panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> &str {
    p.downcast_ref::<&str>()
        .copied()
        .or_else(|| p.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)")
}

/// The newlines in `text`. Counted in blocks of 64 bytes into a `u8`, a
/// loop the compiler vectorizes (a plain `filter().count()` runs at a
/// seventh of its speed).
fn newlines(text: &[u8]) -> usize {
    text.chunks(64)
        .map(|block| {
            let n: u8 = block.iter().map(|&b| u8::from(b == b'\n')).sum();
            usize::from(n)
        })
        .sum()
}

/// Parses one piece of whole lines, the first being line
/// `lines_before + 1`, writing its entries in order into `slots` (one
/// slot per line). Stops at the first bad line.
fn parse_piece(text: &[u8], lines_before: usize, slots: &mut [Entry]) -> Piece {
    let mut out = Piece {
        filled: 0,
        dims: [0; NMODES],
        err: None,
    };
    let mut slots = slots.iter_mut();
    let mut rest = text;
    let mut line_no = lines_before;
    while !rest.is_empty() {
        line_no += 1;
        let entry = match fast_entry(rest) {
            Some((e, tail)) => {
                rest = tail;
                e
            }
            None => {
                let len = rest
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(rest.len(), |p| p + 1);
                let (raw, tail) = rest.split_at_checked(len).unwrap_or((rest, &[]));
                rest = tail;
                match line_entry(raw, line_no) {
                    Ok(Some(e)) => e,
                    Ok(None) => continue,
                    Err(e) => {
                        out.err = Some(e);
                        break;
                    }
                }
            }
        };
        // One slot per line, so every entry has one.
        if let Some(slot) = slots.next() {
            *slot = entry;
            out.filled += 1;
        }
        for (d, &c) in out.dims.iter_mut().zip(&entry.idx) {
            *d = (*d).max(c as usize + 1);
        }
    }
    out
}

/// The common line at the start of `text`, read as bytes: three
/// coordinates of ASCII digits and a value token of `[0-9+-.eE]`,
/// separated by spaces or tabs, then optional spaces or tabs and a `\r\n`,
/// `\n` or (at the end of the text) `\r` or nothing. Returns the entry and
/// the text after the line. `None` for any other line, including a zero
/// or too-large coordinate and a value that does not parse or is not
/// finite: [`line_entry`] reads those, to accept them or to reject them
/// with its message. A line this accepts, [`line_entry`] accepts with the
/// same entry.
#[inline]
fn fast_entry(text: &[u8]) -> Option<(Entry, &[u8])> {
    let mut rest = text;
    let mut idx = [0 as Idx; NMODES];
    for slot in &mut idx {
        let (c, tail) = coordinate(skip_blanks(rest))?;
        if !tail.first().is_some_and(|&b| is_blank(b)) {
            return None;
        }
        *slot = Idx::try_from(c.checked_sub(1)?).ok()?;
        rest = tail;
    }
    let rest = skip_blanks(rest);
    let len = rest
        .iter()
        .position(|&b| !is_value_byte(b))
        .unwrap_or(rest.len());
    let (tok, tail) = rest.split_at_checked(len)?;
    let next: &[u8] = match skip_blanks(tail) {
        [] | [b'\r'] => &[],
        [b'\n', next @ ..] | [b'\r', b'\n', next @ ..] => next,
        _ => return None,
    };
    let val: f64 = std::str::from_utf8(tok).ok()?.parse().ok()?;
    val.is_finite().then_some((Entry { idx, val }, next))
}

/// A run of ASCII digits at the start of `s` as a `u64`, and the bytes
/// after it; `None` without a digit or above `u64::MAX`.
#[inline]
fn coordinate(s: &[u8]) -> Option<(u64, &[u8])> {
    let mut c = 0u64;
    let mut rest = s;
    while let Some((&b, tail)) = rest.split_first() {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        c = c.checked_mul(10)?.checked_add(u64::from(d))?;
        rest = tail;
    }
    (rest.len() < s.len()).then_some((c, rest))
}

#[inline]
fn is_blank(b: u8) -> bool {
    b == b' ' || b == b'\t'
}

#[inline]
fn is_value_byte(b: u8) -> bool {
    b.is_ascii_digit() || matches!(b, b'+' | b'-' | b'.' | b'e' | b'E')
}

#[inline]
fn skip_blanks(s: &[u8]) -> &[u8] {
    let len = s.iter().position(|&b| !is_blank(b)).unwrap_or(s.len());
    s.split_at_checked(len).map_or(s, |(_, tail)| tail)
}

/// One line (with its newline, if any) read as text: `Ok(None)` for a
/// blank or `#` line. The newline goes, and a `\r` before it, as
/// `BufRead::lines` drops them.
fn line_entry(raw: &[u8], line_no: usize) -> Result<Option<Entry>, TnsError> {
    let bytes = match raw.strip_suffix(b"\n") {
        Some(l) => l.strip_suffix(b"\r").unwrap_or(l),
        None => raw,
    };
    let line = std::str::from_utf8(bytes).map_err(|_| TnsError::Parse {
        line: line_no,
        msg: NOT_UTF8.into(),
    })?;
    parse_line(line, line_no)
}

/// One line of text: `Ok(None)` for a blank or `#` line, else its entry,
/// or the reason it is malformed.
fn parse_line(line: &str, line_no: usize) -> Result<Option<Entry>, TnsError> {
    let s = line.trim();
    if s.is_empty() || s.starts_with('#') {
        return Ok(None);
    }
    let mut it = s.split_ascii_whitespace();
    let mut idx = [0 as Idx; NMODES];
    for slot in idx.iter_mut() {
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
    Ok(Some(Entry { idx, val }))
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
    use proptest::prelude::*;

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
    fn duplicates_summing_past_f64_max_name_the_coordinate_as_written() {
        let err = read_tns("2 1 1 1.0\n1 3 2 1e308\n1 3 2 1e308\n".as_bytes()).unwrap_err();
        assert!(
            matches!(err, TnsError::DuplicateOverflow { coord: [1, 3, 2] }),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "duplicates of coordinate 1 3 2 sum to a non-finite value"
        );
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

    /// The line-at-a-time reader this module had before the chunked one,
    /// kept as the oracle of the equivalence tests. One change: a line
    /// that is not UTF-8 is a parse error naming it, where `lines()` alone
    /// makes it an I/O error.
    fn oracle<R: Read>(reader: R) -> Result<([usize; NMODES], Vec<Entry>), TnsError> {
        use std::io::{BufRead, BufReader};
        let reader = BufReader::new(reader);
        let mut entries: Vec<Entry> = Vec::new();
        let mut dims = [0usize; NMODES];
        for (ln, line) in reader.lines().enumerate() {
            let line_no = ln + 1;
            let line = line.map_err(|e| match e.kind() {
                std::io::ErrorKind::InvalidData => TnsError::Parse {
                    line: line_no,
                    msg: NOT_UTF8.into(),
                },
                _ => TnsError::Io(e),
            })?;
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
        Ok((dims, entries))
    }

    /// A reader handing out 1 to 7 bytes per call, then failing with an
    /// I/O error if `fail` is set instead of ending.
    struct ShortReads<'a> {
        data: &'a [u8],
        calls: usize,
        fail: bool,
    }

    impl<'a> ShortReads<'a> {
        fn new(data: &'a [u8]) -> Self {
            ShortReads {
                data,
                calls: 0,
                fail: false,
            }
        }

        fn failing(data: &'a [u8]) -> Self {
            ShortReads {
                fail: true,
                ..Self::new(data)
            }
        }
    }

    impl Read for ShortReads<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.data.is_empty() && self.fail {
                return Err(std::io::Error::other("the disk went away"));
            }
            self.calls += 1;
            let n = (1 + self.calls % 7).min(out.len()).min(self.data.len());
            let (head, tail) = self.data.split_at(n);
            out[..n].copy_from_slice(head);
            self.data = tail;
            Ok(n)
        }
    }

    /// Tiny fills and pieces: every line boundary case in a few bytes.
    const TINY: Split = Split {
        chunk: 5,
        threads: 3,
        min_piece: 1,
    };

    type Parsed = Result<([usize; NMODES], Vec<Entry>), TnsError>;

    /// Same dims, same entries in the same order with the same value bits,
    /// or the same error variant, line and message.
    fn assert_same(got: &Parsed, want: &Parsed, text: &[u8]) {
        let shown = String::from_utf8_lossy(text);
        match (got, want) {
            (Ok((gd, ge)), Ok((wd, we))) => {
                assert_eq!(gd, wd, "dims of {shown:?}");
                assert_eq!(ge.len(), we.len(), "entries of {shown:?}");
                for (g, w) in ge.iter().zip(we) {
                    assert_eq!(g.idx, w.idx, "{shown:?}");
                    assert_eq!(g.val.to_bits(), w.val.to_bits(), "{shown:?}");
                }
            }
            (
                Err(TnsError::Parse { line: gl, msg: gm }),
                Err(TnsError::Parse { line: wl, msg: wm }),
            ) => {
                assert_eq!((gl, gm), (wl, wm), "{shown:?}");
            }
            (Err(TnsError::Io(g)), Err(TnsError::Io(w))) => {
                assert_eq!(g.to_string(), w.to_string(), "{shown:?}");
            }
            _ => panic!("{shown:?}: got {got:?}, want {want:?}"),
        }
    }

    /// The oracle against the reader over a slice, short reads, and tiny
    /// fills and pieces (over a slice and over short reads).
    fn assert_matches_oracle(text: &[u8]) {
        let want = oracle(text);
        let full = Split {
            chunk: CHUNK_BYTES,
            threads: 2,
            min_piece: MIN_PIECE_BYTES,
        };
        assert_same(&read_entries(text, full), &want, text);
        assert_same(&read_entries(ShortReads::new(text), full), &want, text);
        assert_same(&read_entries(text, TINY), &want, text);
        assert_same(&read_entries(ShortReads::new(text), TINY), &want, text);
        for chunk in [1, 2, 3, 8, 13] {
            for threads in [1, 2, 4] {
                let split = Split {
                    chunk,
                    threads,
                    min_piece: 1,
                };
                assert_same(&read_entries(text, split), &want, text);
            }
        }
    }

    /// One line of generated `.tns` text, from a menu of well-formed and
    /// malformed shapes.
    fn arb_line() -> impl Strategy<Value = Vec<u8>> {
        (
            0usize..26,
            (0u32..4, 0u32..4, 0u32..4),
            -100.0f64..100.0,
            0usize..6,
            0usize..3,
        )
            .prop_map(|(kind, (i, j, k), v, sep, end)| {
                let sep = ["\t", " ", "  ", " \t ", "\t\t", " "][sep];
                let c = |x: u32| (x + 1).to_string();
                let coords = format!("{}{sep}{}{sep}{}", c(i), c(j), c(k));
                let line = match kind {
                    0..=7 => format!("{coords}{sep}{v}"),
                    8 => format!("  {coords}{sep}{v}  "),
                    9 => format!("+{}{sep}00{}{sep}{}{sep}+{v}", c(i), c(j), c(k)),
                    10 => String::new(),
                    11 => format!("# comment {v}"),
                    12 => format!(" \t# indented {coords}"),
                    13 => " \t ".to_string(),
                    14 => format!("0{sep}{}{sep}{}{sep}{v}", c(j), c(k)),
                    15 => format!("{}{sep}{}", c(i), c(j)),
                    16 => coords,
                    17 => format!("{coords}{sep}{v}{sep}7"),
                    18 => format!(
                        "{coords}{sep}{}",
                        ["nan", "inf", "-inf", "abc", "1e", "1.0.0"][k as usize % 6]
                    ),
                    19 => format!("{}{sep}{}{sep}1{sep}{v}", (1u64 << 32) + u64::from(i), c(j)),
                    20 => format!("99999999999999999999999{sep}1{sep}1{sep}{v}"),
                    21 => format!(
                        "{coords}{sep}{}",
                        ["1e3", "-0.0", ".5", "5.", "+2.5", "1E-3"][k as usize % 6]
                    ),
                    22 => format!("\u{a0}{coords}{sep}{v}\u{2003}"),
                    23 => format!("{}\x0b{}{sep}{}{sep}{v}", c(i), c(j), c(k)),
                    24 => format!("{coords}\x0c{v}"),
                    _ => format!("{coords}{sep}{v}\x0b\x0c"),
                };
                let mut bytes = line.into_bytes();
                bytes.extend_from_slice([&b"\n"[..], b"\r\n", b"\r\n"][end]);
                bytes
            })
    }

    /// Generated text: lines of [`arb_line`], a last line with or without
    /// its newline, and now and then bytes that are not UTF-8.
    fn arb_text() -> impl Strategy<Value = Vec<u8>> {
        (
            proptest::collection::vec(arb_line(), 0..40),
            0usize..3,
            0usize..50,
            0usize..8,
        )
            .prop_map(|(lines, last, at, bad)| {
                let mut text: Vec<u8> = lines.concat();
                if last == 0 && text.ends_with(b"\n") {
                    text.pop();
                    if text.ends_with(b"\r") {
                        text.pop();
                    }
                }
                if bad == 0 {
                    let at = at.min(text.len());
                    text.splice(at..at, [0xff, 0xfe]);
                }
                text
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn chunked_reader_matches_the_line_reader(text in arb_text()) {
            assert_matches_oracle(&text);
        }
    }

    #[test]
    fn line_boundaries_around_fills_and_pieces() {
        let long = format!("1 2 3 {}\n", "1".repeat(40));
        let cases: Vec<Vec<u8>> = vec![
            // A line longer than the chunk, and one straddling two fills.
            format!("1 1 1 1.5\n{long}2 2 2 -3.25\n").into_bytes(),
            b"1 1 1 1.5\n2 2 2 2.5\n3 3 3 3.5".to_vec(),
            b"1 1 1 1.5\r\n\r\n# x\r\n2 2 2 2.5\r".to_vec(),
            // An error on the first line of a later piece: its global number.
            b"1 1 1 1\n2 2 2 2\n3 3 3 3\n4 4 4 4\n0 1 1 1\n6 6 6 6\n".to_vec(),
            // Two failing pieces: the first bad line in the file wins.
            b"1 1 1 1\n1 1 1 x\n3 3 3 3\n4 4 4 4\n5 5 5 5\n6 6 0 6\n".to_vec(),
            // Bytes that are not UTF-8, after and before a bad line.
            b"1 1 1 1\n\xff 1 1 1\n0 1 1 1\n".to_vec(),
            b"1 1 1 1\n0 1 1 1\n# \xff\n".to_vec(),
            Vec::new(),
            b"\n".to_vec(),
            b"\n\n\n1 1 1 1".to_vec(),
        ];
        for text in &cases {
            assert_matches_oracle(text);
        }
        let err = read_entries(&cases[3][..], TINY).unwrap_err();
        assert!(matches!(err, TnsError::Parse { line: 5, .. }), "{err}");
        let err = read_entries(&cases[4][..], TINY).unwrap_err();
        assert!(matches!(err, TnsError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn non_utf8_bytes_are_a_parse_error_naming_the_line() {
        let err = read_tns(&b"1 1 1 1\n# caf\xe9\n2 2 2 2\n"[..]).unwrap_err();
        match err {
            TnsError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert_eq!(msg, NOT_UTF8);
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn a_bad_line_before_a_failing_read_is_the_error() {
        for split in [
            TINY,
            Split {
                chunk: CHUNK_BYTES,
                threads: 2,
                min_piece: 1,
            },
        ] {
            let text = b"1 1 1 1\n2 2 2 nan\n3 3 3 3\n";
            let err = read_entries(ShortReads::failing(text), split).unwrap_err();
            assert!(matches!(err, TnsError::Parse { line: 2, .. }), "{err}");
            assert_same(
                &read_entries(ShortReads::failing(text), split),
                &oracle(ShortReads::failing(text)),
                text,
            );
            // With every line good the read error is the error, as is a
            // failure in the middle of a line.
            for text in [&b"1 1 1 1\n2 2 2 2\n"[..], b"1 1 1 1\n2 2 2 nan"] {
                let err = read_entries(ShortReads::failing(text), split).unwrap_err();
                assert!(matches!(err, TnsError::Io(_)), "{err}");
            }
        }
    }

    #[test]
    fn a_million_lines_match_the_line_reader() {
        let x = crate::gen::uniform_tensor([3_000, 2_000, 1_000], 1_000_000, 5);
        let mut text = Vec::new();
        write_tns(&x, &mut text).unwrap();
        // A few duplicates, comments and CRLF lines among them.
        text.extend_from_slice(b"# tail\r\n1 1 1 0.25\r\n\n1 1 1 -0.125\n");
        let want = oracle(&text[..]);
        assert_same(
            &read_entries(
                &text[..],
                Split {
                    chunk: CHUNK_BYTES,
                    threads: 2,
                    min_piece: MIN_PIECE_BYTES,
                },
            ),
            &want,
            b"(a million lines)",
        );
        assert_same(
            &read_entries(
                &text[..],
                Split {
                    chunk: 4_099,
                    threads: 3,
                    min_piece: 100,
                },
            ),
            &want,
            b"(a million lines)",
        );
        let t = read_tns(&text[..]).unwrap();
        let (dims, entries) = want.unwrap();
        let u = CooTensor::try_from_entries(dims, entries).unwrap();
        assert_eq!(t.dims(), u.dims());
        assert!(t
            .entries()
            .iter()
            .zip(u.entries())
            .all(|(a, b)| a.idx == b.idx && a.val.to_bits() == b.val.to_bits()));
        assert_eq!(t.nnz(), u.nnz());
    }

    #[test]
    fn entries_grow_to_powers_of_two() {
        for lines in [1usize, 3, 4, 5, 1000, 70_000] {
            let text: String = (0..lines).map(|n| format!("{} 1 1 1.0\n", n + 1)).collect();
            let (_, entries) = read_entries(
                text.as_bytes(),
                Split {
                    chunk: 1 << 12,
                    threads: 2,
                    min_piece: 1 << 10,
                },
            )
            .unwrap();
            assert_eq!(entries.len(), lines);
            assert_eq!(
                entries.capacity(),
                lines.next_power_of_two().max(4),
                "{lines}"
            );
        }
    }
}
