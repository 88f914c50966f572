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
//! Version 1 follows the header with a flat COO payload
//! (`coords u32 * order * nnz` entry-major, then `vals f64 * nnz`); the
//! version-2 tile framing lives in [`crate::tile_store`] and reuses
//! [`read_header`]/[`write_header`] plus the integer codecs here. Tensor
//! types plug into the container through [`BinCodec`], so the
//! stream/file entry points are written once and shared.

use crate::coo::CooTensor;
use crate::nd::NdCooTensor;
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
    let cells: u128 = dims.iter().map(|&d| d as u128).product();
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

/// A tensor type that can live in the `.tnsb` container. Implementations
/// define the payload; the header and the stream/file plumbing are shared.
pub trait BinCodec: Sized {
    /// Writes the header and payload.
    fn encode<W: Write>(&self, writer: W) -> std::io::Result<()>;
    /// Reads the header and payload, failing typed on anything malformed.
    fn decode<R: Read>(reader: R) -> Result<Self, BinError>;
}

impl BinCodec for NdCooTensor {
    fn encode<W: Write>(&self, writer: W) -> std::io::Result<()> {
        let mut w = BufWriter::new(writer);
        write_header(
            &mut w,
            &BinHeader {
                version: VERSION_COO,
                dims: self.dims().to_vec(),
                nnz: self.nnz() as u64,
            },
        )?;
        for n in 0..self.nnz() {
            for &c in self.coord(n) {
                write_u32(&mut w, c)?;
            }
        }
        for &v in self.values() {
            w.write_all(&v.to_le_bytes())?;
        }
        w.flush()
    }

    fn decode<R: Read>(reader: R) -> Result<Self, BinError> {
        let mut r = BufReader::new(reader);
        let h = read_header(&mut r)?;
        if h.version != VERSION_COO {
            return Err(BinError::Format(format!(
                "unsupported version {}",
                h.version
            )));
        }
        let (order, nnz) = (h.dims.len(), to_usize(h.nnz, "nnz")?);
        // The header is untrusted: a wrapped nnz·order would make the
        // coordinate count disagree with the value count silently.
        let n_coords = nnz.checked_mul(order).ok_or_else(|| {
            BinError::Format(format!(
                "header claims {nnz} entries x {order} modes, which overflows"
            ))
        })?;
        let mut coords = Vec::with_capacity(n_coords);
        for _ in 0..n_coords {
            coords.push(read_u32(&mut r)?);
        }
        let mut vals = Vec::with_capacity(nnz);
        let mut b = [0u8; 8];
        for _ in 0..nnz {
            r.read_exact(&mut b)?;
            vals.push(f64::from_le_bytes(b));
        }
        NdCooTensor::try_from_flat(h.dims, coords, vals)
            .map_err(|e| BinError::Format(e.to_string()))
    }
}

impl BinCodec for CooTensor {
    fn encode<W: Write>(&self, writer: W) -> std::io::Result<()> {
        NdCooTensor::from_coo3(self).encode(writer)
    }

    fn decode<R: Read>(reader: R) -> Result<Self, BinError> {
        let nd = NdCooTensor::decode(reader)?;
        let dims: [usize; NMODES] = nd.dims().try_into().map_err(|_| {
            BinError::Format(format!(
                "expected a 3-mode tensor, file has order {}",
                nd.order()
            ))
        })?;
        let entries = (0..nd.nnz())
            .map(|n| {
                let c = nd.coord(n);
                // coord slices have len == order == 3, established above — lint: allow(panic-reach)
                Entry::new(c[0], c[1], c[2], nd.value(n))
            })
            .collect();
        // A file value can be NaN/infinite; that must surface as a typed
        // error, not the panicking constructor.
        CooTensor::try_from_entries(dims, entries).map_err(|e| BinError::Format(e.to_string()))
    }
}

/// Writes any [`BinCodec`] tensor to a file path, atomically: bytes go
/// to a same-directory temp file that a post-`sync_all` rename
/// publishes, so a crash mid-write never leaves a partial `.tnsb` under
/// the final name.
pub fn write_file<T: BinCodec, P: AsRef<Path>>(t: &T, path: P) -> std::io::Result<()> {
    let mut out = crate::persist::AtomicFile::create(path, tenblock_faults::FaultPolicy::none())?;
    t.encode(&mut out)?;
    out.commit()
}

/// Reads any [`BinCodec`] tensor from a file path.
pub fn read_file<T: BinCodec, P: AsRef<Path>>(path: P) -> Result<T, BinError> {
    T::decode(std::fs::File::open(path)?)
}

/// Writes an N-mode tensor in the binary format.
pub fn write_bin_nd<W: Write>(t: &NdCooTensor, writer: W) -> std::io::Result<()> {
    t.encode(writer)
}

/// Reads an N-mode tensor from the binary format.
pub fn read_bin_nd<R: Read>(reader: R) -> Result<NdCooTensor, BinError> {
    NdCooTensor::decode(reader)
}

/// Writes a 3-mode tensor in the binary format.
pub fn write_bin<W: Write>(t: &CooTensor, writer: W) -> std::io::Result<()> {
    t.encode(writer)
}

/// Reads a 3-mode tensor from the binary format.
///
/// Fails if the file's order is not 3.
pub fn read_bin<R: Read>(reader: R) -> Result<CooTensor, BinError> {
    CooTensor::decode(reader)
}

/// Writes a 3-mode binary tensor file.
pub fn write_bin_file<P: AsRef<Path>>(t: &CooTensor, path: P) -> std::io::Result<()> {
    write_file(t, path)
}

/// Reads a 3-mode binary tensor file.
pub fn read_bin_file<P: AsRef<Path>>(path: P) -> Result<CooTensor, BinError> {
    read_file(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::uniform_tensor;
    use crate::nd::uniform_nd;

    #[test]
    fn roundtrip_3mode() {
        let t = uniform_tensor([20, 30, 40], 500, 7);
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        let back = read_bin(buf.as_slice()).unwrap();
        assert_eq!(back.entries(), t.entries());
    }

    #[test]
    fn roundtrip_nd() {
        let t = uniform_nd(&[5, 6, 7, 8, 9], 300, 3);
        let mut buf = Vec::new();
        write_bin_nd(&t, &mut buf).unwrap();
        let back = read_bin_nd(buf.as_slice()).unwrap();
        assert_eq!(back, t);
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
        let t = uniform_nd(&[4, 4], 8, 2);
        let mut buf = Vec::new();
        write_bin_nd(&t, &mut buf).unwrap();
        assert!(matches!(read_bin(buf.as_slice()), Err(BinError::Format(_))));
        // but the nd reader accepts it
        assert_eq!(read_bin_nd(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn file_roundtrip_and_size() {
        let t = uniform_tensor([50, 50, 50], 1_000, 9);
        let dir = std::env::temp_dir().join("tenblock_bin_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tnsb");
        write_bin_file(&t, &path).unwrap();
        let back = read_bin_file(&path).unwrap();
        assert_eq!(back.entries(), t.entries());
        let size = usize::try_from(std::fs::metadata(&path).unwrap().len()).unwrap();
        // header + 12 bytes coords + 8 bytes value per entry
        assert_eq!(size, 4 + 4 + 4 + 3 * 8 + 8 + 1_000 * (12 + 8));
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
        let dir = std::env::temp_dir().join("tenblock_bin_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("peek.tnsb");
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
}
