//! The storage-backend seam: byte-level files behind [`DiskManager`] and
//! [`Wal`](crate::wal::Wal).
//!
//! Paper §3.1 puts "the physical specification of non-volatile devices"
//! in the storage layer; this module makes the *device* itself a
//! substitutable service. A [`StorageBackend`] hands out named
//! [`BackendFile`]s — positional-I/O handles with an explicit `sync`
//! durability barrier. Two implementations exist:
//!
//! * [`FileBackend`]: real files on the local filesystem (the seed
//!   behaviour, unchanged), and
//! * [`SimBackend`](crate::sim::SimBackend): a deterministic in-memory
//!   device with seeded fault injection (I/O errors, torn writes, bit
//!   flips, simulated power loss) for the crash-recovery torture suite.
//!
//! The explicit `sync` boundary is the contract the torture harness
//! exercises: bytes written but not yet covered by a `sync` may vanish —
//! or partially persist — at a simulated power loss.

use std::fs::{File, OpenOptions};
use std::path::PathBuf;
use std::sync::Arc;

use sbdms_kernel::error::Result;

/// A byte-addressable file with positional I/O and an explicit
/// durability barrier. All methods take `&self`: implementations are
/// internally synchronised, so one handle can be shared by concurrent
/// readers and writers.
pub trait BackendFile: Send + Sync {
    /// Read `buf.len()` bytes at `offset`. Bytes past the end of the
    /// file read as zero (disk-manager semantics for never-written
    /// pages).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Write `data` at `offset`, extending the file as needed. The write
    /// is *not* durable until [`BackendFile::sync`] returns.
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()>;

    /// Current file length in bytes.
    fn len(&self) -> Result<u64>;

    /// Whether the file is empty.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Truncate (or zero-extend) to exactly `len` bytes.
    fn set_len(&self, len: u64) -> Result<()>;

    /// Durability barrier: all preceding writes survive a power loss
    /// once this returns.
    fn sync(&self) -> Result<()>;
}

/// A device that opens named [`BackendFile`]s. Opening the same name
/// twice returns handles onto the same underlying bytes.
pub trait StorageBackend: Send + Sync {
    /// Open (or create) the file called `name`.
    fn open(&self, name: &str) -> Result<Arc<dyn BackendFile>>;
}

/// The real-filesystem backend: files under a root directory.
pub struct FileBackend {
    root: PathBuf,
}

impl FileBackend {
    /// A backend rooted at `root` (created if missing).
    pub fn new(root: impl Into<PathBuf>) -> FileBackend {
        FileBackend { root: root.into() }
    }
}

impl StorageBackend for FileBackend {
    fn open(&self, name: &str) -> Result<Arc<dyn BackendFile>> {
        std::fs::create_dir_all(&self.root)?;
        Ok(Arc::new(RealFile::open(self.root.join(name))?))
    }
}

/// A [`BackendFile`] over a real [`File`], using positional I/O so no
/// seek state is shared between concurrent callers.
pub struct RealFile {
    file: File,
}

impl RealFile {
    /// Open (or create) the file at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Result<RealFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path.into())?;
        Ok(RealFile { file })
    }
}

#[cfg(unix)]
impl BackendFile for RealFile {
    /// One `pread` in the common case: no `fstat` first. A short read
    /// means end of file, and the rest of `buf` reads as zero.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        let mut filled = 0;
        while filled < buf.len() {
            match self.file.read_at(&mut buf[filled..], offset + filled as u64) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        buf[filled..].fill(0);
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(data, offset)?;
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend(name: &str) -> FileBackend {
        let dir = std::env::temp_dir()
            .join("sbdms-backend-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        FileBackend::new(dir)
    }

    #[test]
    fn positional_roundtrip() {
        let f = backend("roundtrip").open("x.bin").unwrap();
        f.write_at(10, b"hello").unwrap();
        let mut buf = [0u8; 5];
        f.read_at(10, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(f.len().unwrap(), 15);
    }

    #[test]
    fn reads_past_eof_are_zero() {
        let f = backend("eof").open("x.bin").unwrap();
        f.write_at(0, b"ab").unwrap();
        let mut buf = [9u8; 6];
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ab\0\0\0\0");
        // Entirely past EOF.
        let mut far = [7u8; 4];
        f.read_at(100, &mut far).unwrap();
        assert_eq!(&far, &[0u8; 4]);
    }

    #[test]
    fn set_len_truncates() {
        let f = backend("trunc").open("x.bin").unwrap();
        f.write_at(0, b"abcdef").unwrap();
        f.set_len(3).unwrap();
        assert_eq!(f.len().unwrap(), 3);
        let mut buf = [0u8; 6];
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc\0\0\0");
    }

    #[test]
    fn same_name_shares_bytes() {
        let b = backend("shared");
        let f1 = b.open("x.bin").unwrap();
        f1.write_at(0, b"one").unwrap();
        f1.sync().unwrap();
        let f2 = b.open("x.bin").unwrap();
        let mut buf = [0u8; 3];
        f2.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"one");
    }
}
