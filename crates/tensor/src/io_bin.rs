//! A compact binary tensor container with a shared versioned header.
//!
//! FROSTT text files parse slowly at hundreds of millions of nonzeros
//! (Table II scale); this little-endian binary container loads with one
//! pass and no number parsing. Every `.tnsb` file — whatever its payload —
//! starts with the same header:
//!
//! ```text
//! magic  "TNSB"          4 bytes
//! version u32            1 = COO payload, 2 = tile-store payload
//! order   u32
//! dims    u64 * order
//! nnz     u64            total nonzeros in the file
//! ```
//!
//! Version 1 follows the header with a flat COO payload of a 3-mode
//! tensor (`coords u32 * 3 * nnz` entry-major, then `vals f64 * nnz`), read
//! straight into a [`CooTensor`]'s entries; the version-2 tile framing
//! lives in [`crate::tile_store`] and reuses [`read_header`]/
//! [`write_header`] plus the integer codecs here. [`read_bin_file`] reads
//! either version into a [`CooTensor`].

// Untrusted input: a malformed file is a typed error, never a panic.
#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable
)]

use crate::coo::CooTensor;
use crate::tile_store::TileStore;
use crate::{Entry, NMODES};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

pub(crate) const MAGIC: &[u8; 4] = b"TNSB";
/// Header version for the flat COO payload.
pub const VERSION_COO: u32 = 1;
/// Header version for the tile-store payload ([`crate::tile_store`]).
pub const VERSION_TILES: u32 = 2;

/// Errors from the binary reader.
#[derive(Debug)]
pub enum BinError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid file.
    Format(String),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Io(e) => write!(f, "I/O error: {e}"),
            BinError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for BinError {}

impl From<std::io::Error> for BinError {
    fn from(e: std::io::Error) -> Self {
        BinError::Io(e)
    }
}

pub(crate) fn write_u32<W: Write>(w: &mut W, v: u32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn write_u64<W: Write>(w: &mut W, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// A count or length read from a file, as a `usize`.
pub(crate) fn to_usize(v: u64, what: &str) -> Result<usize, BinError> {
    usize::try_from(v).map_err(|_| BinError::Format(format!("{what} {v} does not fit usize")))
}

pub(crate) fn read_u32<R: Read>(r: &mut R) -> Result<u32, BinError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn read_u64<R: Read>(r: &mut R) -> Result<u64, BinError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// The header every `.tnsb` file starts with, independent of payload
/// version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinHeader {
    /// Payload version ([`VERSION_COO`] or [`VERSION_TILES`]).
    pub version: u32,
    /// Mode lengths.
    pub dims: Vec<usize>,
    /// Total nonzeros stored in the file.
    pub nnz: u64,
}

impl BinHeader {
    /// Byte length of the encoded header.
    pub fn encoded_len(&self) -> usize {
        4 + 4 + 4 + 8 * self.dims.len() + 8
    }
}

/// Writes the shared versioned header.
pub fn write_header<W: Write>(w: &mut W, h: &BinHeader) -> std::io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, h.version)?;
    let order = u32::try_from(h.dims.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "tensor order overflows u32",
        )
    })?;
    write_u32(w, order)?;
    for &d in &h.dims {
        write_u64(w, d as u64)?;
    }
    write_u64(w, h.nnz)
}

/// Reads and validates the shared header: magic, a plausible order, and
/// `nnz` within the tensor's cell count. Version dispatch is the caller's
/// job — every payload reader checks for the version it understands.
pub fn read_header<R: Read>(r: &mut R) -> Result<BinHeader, BinError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(BinError::Format("bad magic (not a TNSB file)".into()));
    }
    let version = read_u32(r)?;
    let order = read_u32(r)? as usize;
    if order == 0 || order > 64 {
        return Err(BinError::Format(format!("implausible order {order}")));
    }
    let mut dims = Vec::with_capacity(order);
    for _ in 0..order {
        dims.push(to_usize(read_u64(r)?, "dimension")?);
    }
    let nnz = read_u64(r)?;
    // Three u64 lengths can multiply past u128: saturate, never wrap.
    let cells = dims.iter().fold(1u128, |n, &d| n.saturating_mul(d as u128));
    if (nnz as u128) > cells {
        return Err(BinError::Format(format!("nnz {nnz} exceeds tensor cells")));
    }
    Ok(BinHeader { version, dims, nnz })
}

/// Reads just the header of a `.tnsb` file, whatever its payload version —
/// enough to size buffers or pick a tile grid without loading the tensor.
pub fn read_bin_header_file<P: AsRef<Path>>(path: P) -> Result<BinHeader, BinError> {
    read_header(&mut BufReader::new(std::fs::File::open(path)?))
}

/// Bytes a version-1 payload stores per nonzero's coordinates: three `u32`.
const COORD_BYTES: usize = 4 * NMODES;

/// Bytes a version-1 payload stores per nonzero: its coordinates and one
/// `f64` value.
const COO_ENTRY_BYTES: u64 = COORD_BYTES as u64 + 8;

/// Entries [`read_bin`] reserves before the payload arrives (1.5 MiB); a
/// longer payload grows the vector as its bytes are read.
const STREAM_RESERVE: usize = 1 << 16;

/// Entries decoded per `read_exact`.
const DECODE_CHUNK: usize = 4096;

/// Writes a 3-mode tensor in the binary format.
pub fn write_bin<W: Write>(t: &CooTensor, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    write_header(
        &mut w,
        &BinHeader {
            version: VERSION_COO,
            dims: t.dims().to_vec(),
            nnz: t.nnz() as u64,
        },
    )?;
    for e in t.entries() {
        for c in e.idx {
            write_u32(&mut w, c)?;
        }
    }
    for e in t.entries() {
        w.write_all(&e.val.to_le_bytes())?;
    }
    w.flush()
}

/// Reads a 3-mode tensor from the binary format.
///
/// Fails with [`BinError::Format`] if the header is not version 1 or the
/// order is not 3, before any payload is allocated. At most
/// [`STREAM_RESERVE`] entries are reserved up front and the rest as their
/// bytes arrive, so a header claiming more entries than the stream holds
/// ends in `BinError::Io(UnexpectedEof)`, not in an allocation sized by
/// the claim.
pub fn read_bin<R: Read>(reader: R) -> Result<CooTensor, BinError> {
    let mut r = BufReader::new(reader);
    let (dims, nnz, _) = coo_header(read_header(&mut r)?)?;
    read_payload(&mut r, dims, nnz, nnz.min(STREAM_RESERVE))
}

/// Writes a 3-mode binary tensor file, atomically: bytes go to a
/// same-directory temp file that a post-`sync_all` rename publishes, so a
/// crash mid-write never leaves a partial `.tnsb` under the final name.
pub fn write_bin_file<P: AsRef<Path>>(t: &CooTensor, path: P) -> std::io::Result<()> {
    let mut out = crate::persist::AtomicFile::create(path, tenblock_faults::FaultPolicy::none())?;
    write_bin(t, &mut out)?;
    out.commit()
}

/// Reads a 3-mode binary tensor file, of either payload version.
///
/// A version-2 file is a tile store: it is opened and validated by
/// [`TileStore::open`] and reassembled by [`TileStore::to_coo`]. A
/// version-1 payload has a fixed size, so the file must be exactly the
/// header plus 20 bytes a nonzero long. That is checked before the
/// entries are reserved, and a mismatch is a [`BinError::Format`].
pub fn read_bin_file<P: AsRef<Path>>(path: P) -> Result<CooTensor, BinError> {
    let file = std::fs::File::open(&path)?;
    let len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let h = read_header(&mut r)?;
    if h.version == VERSION_TILES {
        return TileStore::open(path)?.to_coo();
    }
    let (dims, nnz, header_len) = coo_header(h)?;
    let want = header_len as u128 + u128::from(COO_ENTRY_BYTES) * nnz as u128;
    if u128::from(len) != want {
        return Err(BinError::Format(format!(
            "file is {len} bytes, but a header claiming {nnz} entries needs {want}"
        )));
    }
    read_payload(&mut r, dims, nnz, nnz)
}

/// Checks that a header describes a 3-mode COO payload, and returns its
/// dims, its nonzero count and its encoded length.
fn coo_header(h: BinHeader) -> Result<([usize; NMODES], usize, usize), BinError> {
    if h.version != VERSION_COO {
        return Err(BinError::Format(format!(
            "unsupported version {}",
            h.version
        )));
    }
    let dims: [usize; NMODES] = h.dims.as_slice().try_into().map_err(|_| {
        BinError::Format(format!(
            "expected a 3-mode tensor, file has order {}",
            h.dims.len()
        ))
    })?;
    Ok((dims, to_usize(h.nnz, "nnz")?, h.encoded_len()))
}

/// Reads `nnz` entry-major coordinate triples, then their `nnz` values,
/// straight into the entries of a [`CooTensor`], reserving `reserve`
/// entries first.
fn read_payload<R: Read>(
    r: &mut R,
    dims: [usize; NMODES],
    nnz: usize,
    reserve: usize,
) -> Result<CooTensor, BinError> {
    let mut entries = Vec::with_capacity(reserve);
    let mut buf = Vec::new();
    let mut left = nnz;
    while left > 0 {
        let n = left.min(DECODE_CHUNK);
        buf.resize(n * COORD_BYTES, 0);
        r.read_exact(&mut buf)?;
        entries.extend(buf.as_chunks::<COORD_BYTES>().0.iter().map(|&coord| {
            let [a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3] = coord;
            Entry::new(
                u32::from_le_bytes([a0, a1, a2, a3]),
                u32::from_le_bytes([b0, b1, b2, b3]),
                u32::from_le_bytes([c0, c1, c2, c3]),
                0.0,
            )
        }));
        left -= n;
    }
    for chunk in entries.chunks_mut(DECODE_CHUNK) {
        buf.resize(chunk.len() * 8, 0);
        r.read_exact(&mut buf)?;
        for (e, &val) in chunk.iter_mut().zip(buf.as_chunks::<8>().0) {
            e.val = f64::from_le_bytes(val);
        }
    }
    // A file value can be NaN or infinite, and duplicates can sum past
    // `f64::MAX`: both are typed errors, not the panicking constructor.
    CooTensor::try_from_entries(dims, entries).map_err(|e| BinError::Format(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::uniform_tensor;

    /// A fresh scratch directory for one test's files.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tenblock_bin_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_3mode() {
        let t = uniform_tensor([20, 30, 40], 500, 7);
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        let back = read_bin(buf.as_slice()).unwrap();
        assert_eq!(back.entries(), t.entries());
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            read_bin(b"NOPE".as_slice()),
            Err(BinError::Format(_)) | Err(BinError::Io(_))
        ));
        let mut buf = Vec::new();
        write_bin(&uniform_tensor([4, 4, 4], 10, 1), &mut buf).unwrap();
        buf[4] = 99; // version
        assert!(matches!(read_bin(buf.as_slice()), Err(BinError::Format(_))));
        // truncated payload
        let mut buf2 = Vec::new();
        write_bin(&uniform_tensor([4, 4, 4], 10, 1), &mut buf2).unwrap();
        buf2.truncate(buf2.len() - 4);
        assert!(read_bin(buf2.as_slice()).is_err());
    }

    #[test]
    fn order_mismatch_is_reported() {
        for order in [2, 4] {
            let mut buf = Vec::new();
            write_header(
                &mut buf,
                &BinHeader {
                    version: VERSION_COO,
                    dims: vec![4; order],
                    nnz: 1,
                },
            )
            .unwrap();
            // A well-formed payload of that order follows the header.
            buf.extend(std::iter::repeat_n(0u8, 4 * order + 8));
            match read_bin(buf.as_slice()) {
                Err(BinError::Format(m)) => assert!(m.contains(&format!("order {order}")), "{m}"),
                other => panic!("order {order}: {other:?}"),
            }
        }
    }

    #[test]
    fn v1_bytes_follow_the_documented_layout() {
        let t = CooTensor::from_triples([3, 5, 7], &[0, 2], &[4, 1], &[6, 0], &[1.5, -0.25]);
        let mut want = Vec::new();
        want.extend_from_slice(b"TNSB");
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&3u32.to_le_bytes());
        for d in [3u64, 5, 7] {
            want.extend_from_slice(&d.to_le_bytes());
        }
        want.extend_from_slice(&2u64.to_le_bytes());
        for c in [0u32, 4, 6, 2, 1, 0] {
            want.extend_from_slice(&c.to_le_bytes());
        }
        for v in [1.5f64, -0.25] {
            want.extend_from_slice(&v.to_le_bytes());
        }
        let mut got = Vec::new();
        write_bin(&t, &mut got).unwrap();
        assert_eq!(got, want);
        assert_eq!(read_bin(want.as_slice()).unwrap(), t);
    }

    #[test]
    fn a_header_claiming_more_than_the_payload_is_a_typed_error() {
        // A v1 header claiming 2^40 entries of a tensor whose modes are
        // 2^32 long, and no payload.
        let mut bytes = Vec::new();
        write_header(
            &mut bytes,
            &BinHeader {
                version: VERSION_COO,
                dims: vec![1 << 32; 3],
                nnz: 1 << 40,
            },
        )
        .unwrap();
        assert_eq!(bytes.len(), 44);
        match read_bin(bytes.as_slice()) {
            Err(BinError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("stream: {other:?}"),
        }
        let path = scratch("claim").join("evil.tnsb");
        crate::persist::atomic_write(&path, &bytes).unwrap();
        match read_bin_file(&path) {
            Err(BinError::Format(m)) => assert!(m.contains("44 bytes"), "{m}"),
            other => panic!("file: {other:?}"),
        }
        // One byte too many is refused as well as one too few.
        let mut long = Vec::new();
        write_bin(&uniform_tensor([4, 4, 4], 10, 1), &mut long).unwrap();
        long.push(0);
        crate::persist::atomic_write(&path, &long).unwrap();
        assert!(matches!(read_bin_file(&path), Err(BinError::Format(_))));
    }

    #[test]
    fn duplicates_summing_past_f64_max_are_refused() {
        // Two entries at one coordinate of a two-cell tensor.
        let mut dup = Vec::new();
        write_header(
            &mut dup,
            &BinHeader {
                version: VERSION_COO,
                dims: vec![2, 1, 1],
                nnz: 2,
            },
        )
        .unwrap();
        for _ in 0..2 {
            dup.extend_from_slice(&[0u8; 12]);
        }
        for _ in 0..2 {
            dup.extend_from_slice(&1e308f64.to_le_bytes());
        }
        match read_bin(dup.as_slice()) {
            Err(BinError::Format(m)) => assert!(m.contains("non-finite"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn file_roundtrip_and_size() {
        let t = uniform_tensor([50, 50, 50], 1_000, 9);
        let path = scratch("roundtrip").join("t.tnsb");
        write_bin_file(&t, &path).unwrap();
        let back = read_bin_file(&path).unwrap();
        assert_eq!(back.entries(), t.entries());
        let size = usize::try_from(std::fs::metadata(&path).unwrap().len()).unwrap();
        // header + 12 bytes coords + 8 bytes value per entry
        assert_eq!(size, 4 + 4 + 4 + 3 * 8 + 8 + 1_000 * (12 + 8));
    }

    #[test]
    fn a_tile_store_reads_as_the_tensor_its_v1_file_holds() {
        let t = uniform_tensor([30, 20, 10], 500, 11);
        let dir = scratch("v2");
        let (v1, v2) = (dir.join("t.tnsb"), dir.join("t.tiles.tnsb"));
        write_bin_file(&t, &v1).unwrap();
        TileStore::create_from_coo(&t, [3, 2, 2], &v2).unwrap();
        assert_eq!(read_bin_header_file(&v2).unwrap().version, VERSION_TILES);
        assert_eq!(read_bin_file(&v1).unwrap(), t);
        assert_eq!(read_bin_file(&v2).unwrap(), t);
        // A malformed store is the tile store's typed error.
        let mut bytes = std::fs::read(&v2).unwrap();
        bytes.truncate(bytes.len() - 1);
        let cut = dir.join("cut.tnsb");
        crate::persist::atomic_write(&cut, &bytes).unwrap();
        assert!(matches!(read_bin_file(&cut), Err(BinError::Format(_))));
        // The stream reader takes version 1 only.
        let err = read_bin(std::fs::File::open(&v2).unwrap()).unwrap_err();
        assert!(err.to_string().contains("unsupported version 2"), "{err}");
    }

    #[test]
    fn header_roundtrip_and_peek() {
        let h = BinHeader {
            version: VERSION_TILES,
            dims: vec![100, 20, 3],
            nnz: 77,
        };
        let mut buf = Vec::new();
        write_header(&mut buf, &h).unwrap();
        assert_eq!(buf.len(), h.encoded_len());
        let back = read_header(&mut buf.as_slice()).unwrap();
        assert_eq!(back, h);

        // File peek sees the header of a v1 file without reading the body.
        let t = uniform_tensor([9, 8, 7], 40, 5);
        let path = scratch("peek").join("peek.tnsb");
        write_bin_file(&t, &path).unwrap();
        let peek = read_bin_header_file(&path).unwrap();
        assert_eq!(peek.version, VERSION_COO);
        assert_eq!(peek.dims, vec![9, 8, 7]);
        assert_eq!(peek.nnz, t.nnz() as u64);
    }

    #[test]
    fn header_rejects_overflowing_nnz() {
        let mut buf = Vec::new();
        write_header(
            &mut buf,
            &BinHeader {
                version: VERSION_COO,
                dims: vec![2, 2, 2],
                nnz: 9,
            },
        )
        .unwrap();
        assert!(matches!(
            read_header(&mut buf.as_slice()),
            Err(BinError::Format(_))
        ));
    }

    #[test]
    fn a_cell_count_past_u128_saturates_instead_of_overflowing() {
        // 2^189 cells: the product used to overflow (a panic in a debug
        // build, a wrapped bound of 0 in a release one).
        let h = BinHeader {
            version: VERSION_COO,
            dims: vec![1 << 63; 3],
            nnz: 5,
        };
        let mut buf = Vec::new();
        write_header(&mut buf, &h).unwrap();
        assert_eq!(read_header(&mut buf.as_slice()).unwrap(), h);
    }
}
