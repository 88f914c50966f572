//! Crash-safe persistence primitives shared by every module that writes
//! files meant to be reopened later: tile stores, the serve spill tier,
//! the plan cache, and bench records.
//!
//! The contract is the classic write-temp → `sync_all` → rename →
//! sync-parent-dir sequence: a reader either sees the old file, no file,
//! or the complete new file — never a partial write — because the only
//! step that makes the data visible under the final name is an atomic
//! `rename` of an already-durable temp file. [`AtomicFile`] implements
//! the sequence as a writer handle; [`atomic_write`] is the one-shot
//! convenience over it.
//!
//! Every operation routes through a [`FaultPolicy`]
//! (no-op by default), which is how `tenblock chaos` and the
//! fault-injection tests prove the guarantee instead of assuming it:
//! an injected errno, short write, or simulated crash at any operation
//! must leave the final path either absent or fully valid. After a
//! simulated crash the temp file is deliberately *not* cleaned up — a
//! dead process could not have removed it either, and the recovery path
//! must tolerate stale `*.tmp` litter.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tenblock_faults::{FaultOp, FaultPolicy, IoOutcome};

/// Temp-file name for `path`: same directory (a rename must not cross
/// filesystems), `.tmp` suffix.
fn tmp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_string());
    path.with_file_name(format!("{name}.tmp"))
}

/// A file being written for atomic replacement of `final_path`. Bytes go
/// to a same-directory temp file; [`AtomicFile::commit`] makes them
/// durable and visible in one rename. Dropping without committing
/// removes the temp file (unless a simulated crash says the process died
/// first).
#[derive(Debug)]
pub struct AtomicFile {
    file: Option<std::fs::File>,
    tmp: PathBuf,
    final_path: PathBuf,
    faults: FaultPolicy,
    committed: bool,
}

impl AtomicFile {
    /// Starts an atomic write of `path`, routing every operation through
    /// `faults`.
    pub fn create<P: AsRef<Path>>(path: P, faults: FaultPolicy) -> std::io::Result<AtomicFile> {
        let final_path = path.as_ref().to_path_buf();
        let tmp = tmp_path(&final_path);
        #[expect(
            clippy::disallowed_methods,
            reason = "the only sanctioned direct create: it targets the temp name the rename makes atomic"
        )]
        let file = std::fs::File::create(&tmp)?;
        Ok(AtomicFile {
            file: Some(file),
            tmp,
            final_path,
            faults,
            committed: false,
        })
    }

    /// The temp path bytes are accumulating in (test hook).
    pub fn tmp_path(&self) -> &Path {
        &self.tmp
    }

    #[expect(
        clippy::expect_used,
        reason = "Some until commit/drop by construction: `commit` consumes `self`, \
                  so no caller can reach this afterwards"
    )]
    fn file(&mut self) -> &mut std::fs::File {
        self.file.as_mut().expect("AtomicFile used after commit")
    }

    /// Syncs the temp file, renames it over the final path, and syncs
    /// the parent directory so the rename itself is durable.
    pub fn commit(mut self) -> std::io::Result<()> {
        match self.faults.before(FaultOp::Sync, 0) {
            IoOutcome::Err(e) => return Err(e),
            _ => self.file().sync_all()?,
        }
        drop(self.file.take());
        if let IoOutcome::Err(e) = self.faults.before(FaultOp::Rename, 0) {
            return Err(e);
        }
        std::fs::rename(&self.tmp, &self.final_path)?;
        self.committed = true;
        if let IoOutcome::Err(e) = self.faults.before(FaultOp::Sync, 0) {
            return Err(e);
        }
        if let Some(parent) = self.final_path.parent() {
            // Directory sync is what makes the *name* durable; platforms
            // that refuse to open directories just skip it.
            if let Ok(dir) = std::fs::File::open(parent) {
                dir.sync_all()?;
            }
        }
        Ok(())
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.faults.before(FaultOp::Write, buf.len()) {
            IoOutcome::Ok => self.file().write(buf),
            IoOutcome::Short(n) => {
                // A partial write lands (crash: the last bytes the process
                // ever wrote). Report it so `write_all` continues — the
                // next operation decides whether the process is "dead".
                let n = n.max(1).min(buf.len());
                self.file().write_all(&buf[..n])?;
                Ok(n)
            }
            IoOutcome::Corrupt(off) => {
                let mut copy = buf.to_vec();
                if let Some(b) = copy.get_mut(off) {
                    *b ^= 0x40;
                }
                self.file().write_all(&copy)?;
                Ok(buf.len())
            }
            IoOutcome::Err(e) => Err(e),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file().flush()
    }
}

impl Seek for AtomicFile {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.file().seek(pos)
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed && !self.faults.crashed() {
            drop(self.file.take());
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Atomically replaces `path` with `bytes`: write temp, `sync_all`,
/// rename, sync parent dir. The reader-visible file is never partial.
pub fn atomic_write<P: AsRef<Path>>(path: P, bytes: &[u8]) -> std::io::Result<()> {
    atomic_write_with(path, bytes, &FaultPolicy::none())
}

/// [`atomic_write`] with fault injection.
pub fn atomic_write_with<P: AsRef<Path>>(
    path: P,
    bytes: &[u8],
    faults: &FaultPolicy,
) -> std::io::Result<()> {
    let mut f = AtomicFile::create(path, faults.clone())?;
    f.write_all(bytes)?;
    f.commit()
}

/// A [`Read`] adapter routing every read through a [`FaultPolicy`]: an
/// injected short read behaves like a truncated file (the remainder of
/// the stream reads as EOF), a flipped byte corrupts the delivered
/// buffer, an errno fails the call. Wraps the store readers so `open`
/// and `load_tile` face the same failures a real disk produces.
#[derive(Debug)]
pub struct FaultRead<R> {
    inner: R,
    faults: FaultPolicy,
    truncated: bool,
}

impl<R: Read> FaultRead<R> {
    /// Wraps `inner`.
    pub fn new(inner: R, faults: FaultPolicy) -> Self {
        FaultRead {
            inner,
            faults,
            truncated: false,
        }
    }
}

impl<R: Read> Read for FaultRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.truncated {
            return Ok(0);
        }
        match self.faults.before(FaultOp::Read, buf.len()) {
            IoOutcome::Ok => self.inner.read(buf),
            IoOutcome::Short(n) => {
                // From here on the stream looks truncated, exactly like a
                // file cut off mid-payload.
                self.truncated = true;
                let n = n.min(buf.len());
                self.inner.read(&mut buf[..n])
            }
            IoOutcome::Corrupt(off) => {
                let n = self.inner.read(buf)?;
                if let Some(b) = buf[..n].get_mut(off.min(n.saturating_sub(1))) {
                    *b ^= 0x40;
                }
                Ok(n)
            }
            IoOutcome::Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_faults::{FaultAction, Trigger};

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tenblock_persist_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_and_never_leaves_tmp() {
        let dir = tmpdir("replace");
        let path = dir.join("data.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer payload");
        assert!(!tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_leaves_old_contents_intact() {
        let dir = tmpdir("fail");
        let path = dir.join("data.bin");
        atomic_write(&path, b"old").unwrap();
        let faults = FaultPolicy::new(
            FaultOp::Write,
            FaultAction::Errno(28), // ENOSPC
            Trigger::Nth(0),
            1,
        );
        let err = atomic_write_with(&path, b"new", &faults).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        assert_eq!(std::fs::read(&path).unwrap(), b"old", "old file untouched");
        assert!(!tmp_path(&path).exists(), "temp cleaned up after error");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_leaves_tmp_but_not_the_final_path() {
        let dir = tmpdir("crash");
        let path = dir.join("data.bin");
        let faults = FaultPolicy::new(FaultOp::Write, FaultAction::Crash, Trigger::Nth(0), 9);
        assert!(atomic_write_with(&path, b"doomed payload", &faults).is_err());
        assert!(!path.exists(), "final path never sees a partial file");
        assert!(
            tmp_path(&path).exists(),
            "crash leaves the temp file, like a real dead process"
        );
        // Recovery: a clean rewrite succeeds over the litter.
        atomic_write(&path, b"recovered").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"recovered");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_at_rename_keeps_old_file() {
        let dir = tmpdir("rename");
        let path = dir.join("data.bin");
        atomic_write(&path, b"old").unwrap();
        let faults = FaultPolicy::new(FaultOp::Rename, FaultAction::Crash, Trigger::Nth(0), 2);
        assert!(atomic_write_with(&path, b"new", &faults).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_read_truncates_like_a_short_file() {
        let data = [7u8; 100];
        let faults = FaultPolicy::new(FaultOp::Read, FaultAction::ShortRead, Trigger::Nth(0), 3);
        let mut r = FaultRead::new(&data[..], faults);
        let mut out = Vec::new();
        let n = r.read_to_end(&mut out).unwrap();
        assert!(n < 100, "short read sticks as EOF");
        assert!(out.iter().all(|&b| b == 7));
    }

    #[test]
    fn fault_read_flips_exactly_one_byte() {
        let data = [0u8; 64];
        let faults = FaultPolicy::new(FaultOp::Read, FaultAction::FlipByte, Trigger::Nth(0), 5);
        let mut r = FaultRead::new(&data[..], faults);
        let mut out = vec![0u8; 64];
        r.read_exact(&mut out).unwrap();
        assert_eq!(out.iter().filter(|&&b| b != 0).count(), 1);
    }
}
