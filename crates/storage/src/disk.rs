//! The disk manager: page storage over a [`BackendFile`].
//!
//! Paper §3.1 puts "the physical specification of non-volatile devices" in
//! the storage layer. `DiskManager` owns one file of [`PAGE_SIZE`] pages:
//! page 0 is a metadata page (page counter + free list), pages 1.. are
//! user pages. Allocation reuses freed pages before extending the file.
//!
//! The file itself comes from the [`backend`](crate::backend) seam: real
//! files in production, the deterministic [`sim`](crate::sim) device in
//! the torture suite. Allocations are made durable (metadata write +
//! sync) before the page id is handed out, so a crash can never lead the
//! allocator to hand an already-linked page to a second owner.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sbdms_kernel::error::{Result, ServiceError};

use crate::backend::{BackendFile, RealFile};
use crate::page::{PageId, PAGE_SIZE};

/// Which I/O a [`DiskManager`] hook observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// A page read.
    Read,
    /// A page write.
    Write,
}

/// Observer invoked before each page I/O, *outside* the file lock.
/// Tests use it to stall a chosen page's I/O and prove that no pool- or
/// shard-wide lock is held across disk operations.
pub type IoHook = Arc<dyn Fn(IoKind, PageId) + Send + Sync>;

/// Maximum free-list entries the metadata page can hold.
/// Layout of page 0: next_page_id u64 | free_count u64 | free entries u64…
const MAX_FREE_LIST: usize = (PAGE_SIZE - 16) / 8;

/// Page storage with allocate/free and read/write over a backend file.
pub struct DiskManager {
    file: Arc<dyn BackendFile>,
    path: PathBuf,
    next_page_id: AtomicU64,
    free_list: Mutex<Vec<PageId>>,
    reads: AtomicU64,
    writes: AtomicU64,
    io_hook: Mutex<Option<IoHook>>,
    /// Serialises metadata persistence (allocate/free).
    meta_lock: Mutex<()>,
}

impl DiskManager {
    /// Open (or create) the database file at `path` on the real
    /// filesystem, restoring the page counter and free list from the
    /// metadata page.
    pub fn open(path: impl AsRef<Path>) -> Result<DiskManager> {
        let path = path.as_ref().to_path_buf();
        let file: Arc<dyn BackendFile> = Arc::new(RealFile::open(&path)?);
        DiskManager::open_backend_at(file, path)
    }

    /// Open over an already-opened backend file (the sim seam).
    pub fn open_backend(file: Arc<dyn BackendFile>) -> Result<DiskManager> {
        DiskManager::open_backend_at(file, PathBuf::from("<backend>"))
    }

    fn open_backend_at(file: Arc<dyn BackendFile>, path: PathBuf) -> Result<DiskManager> {
        let len = file.len()?;
        let (next_page_id, free_list) = if len >= PAGE_SIZE as u64 {
            let mut meta = [0u8; PAGE_SIZE];
            file.read_at(0, &mut meta)?;
            let next = u64::from_le_bytes(meta[0..8].try_into().unwrap());
            let count = u64::from_le_bytes(meta[8..16].try_into().unwrap()) as usize;
            if count > MAX_FREE_LIST {
                return Err(ServiceError::Storage("corrupt metadata page".into()));
            }
            let mut free = Vec::with_capacity(count);
            for i in 0..count {
                let base = 16 + i * 8;
                free.push(u64::from_le_bytes(meta[base..base + 8].try_into().unwrap()));
            }
            // A crash may persist a page image past the last durable
            // metadata write; never re-allocate under such a page.
            let by_len = len.div_ceil(PAGE_SIZE as u64);
            (next.max(1).max(by_len), free)
        } else {
            (1, Vec::new())
        };

        let dm = DiskManager {
            file,
            path,
            next_page_id: AtomicU64::new(next_page_id),
            free_list: Mutex::new(free_list),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            io_hook: Mutex::new(None),
            meta_lock: Mutex::new(()),
        };
        dm.persist_meta()?;
        Ok(dm)
    }

    /// Path of the backing file (informational; `<backend>` when opened
    /// over a non-filesystem backend).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Install (or clear) the per-I/O observer. The hook runs before the
    /// file I/O, so it may block without serialising other I/O.
    pub fn set_io_hook(&self, hook: Option<IoHook>) {
        *self.io_hook.lock() = hook;
    }

    fn observe(&self, kind: IoKind, id: PageId) {
        let hook = self.io_hook.lock().clone();
        if let Some(hook) = hook {
            hook(kind, id);
        }
    }

    /// Allocate a page id, reusing freed pages first. The allocation is
    /// durable (metadata synced) before the id is returned: a page id
    /// handed out after a crash is never one a pre-crash structure may
    /// still reference.
    pub fn allocate_page(&self) -> Result<PageId> {
        let guard = self.meta_lock.lock();
        let reused = self.free_list.lock().pop();
        let id = match reused {
            Some(id) => id,
            None => self.next_page_id.fetch_add(1, Ordering::SeqCst),
        };
        self.persist_meta_locked()?;
        self.file.sync()?;
        drop(guard);
        Ok(id)
    }

    /// Return a page to the free list. Excess entries beyond the metadata
    /// page's capacity are leaked (space, not correctness).
    pub fn free_page(&self, id: PageId) -> Result<()> {
        if id == 0 {
            return Err(ServiceError::Storage("page 0 is reserved".into()));
        }
        let guard = self.meta_lock.lock();
        {
            let mut free = self.free_list.lock();
            if free.len() < MAX_FREE_LIST {
                free.push(id);
            }
        }
        let out = self.persist_meta_locked();
        drop(guard);
        out
    }

    /// Read a page image into a fresh buffer. Reading a never-written
    /// page yields zeroes.
    pub fn read_page(&self, id: PageId) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; PAGE_SIZE];
        self.read_page_into(id, &mut buf)?;
        Ok(buf)
    }

    /// Read a page image into `buf` (one [`PAGE_SIZE`] page), with no
    /// allocation: the buffer pool's miss path reads straight into the
    /// claimed frame.
    pub fn read_page_into(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if id == 0 {
            return Err(ServiceError::Storage("page 0 is reserved".into()));
        }
        if buf.len() != PAGE_SIZE {
            return Err(ServiceError::Storage(format!(
                "page buffer must be {PAGE_SIZE} bytes, got {}",
                buf.len()
            )));
        }
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.observe(IoKind::Read, id);
        self.file.read_at(id * PAGE_SIZE as u64, buf)
    }

    /// Write a page image.
    pub fn write_page(&self, id: PageId, data: &[u8]) -> Result<()> {
        if id == 0 {
            return Err(ServiceError::Storage("page 0 is reserved".into()));
        }
        if data.len() != PAGE_SIZE {
            return Err(ServiceError::Storage(format!(
                "page image must be {PAGE_SIZE} bytes, got {}",
                data.len()
            )));
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.observe(IoKind::Write, id);
        self.file.write_at(id * PAGE_SIZE as u64, data)
    }

    /// Flush file contents to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.file.sync()
    }

    /// Highest page id ever allocated (exclusive bound on user pages).
    pub fn page_count(&self) -> u64 {
        self.next_page_id.load(Ordering::SeqCst)
    }

    /// I/O counters: (reads, writes) since open.
    pub fn io_counts(&self) -> (u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
        )
    }

    fn persist_meta(&self) -> Result<()> {
        let _guard = self.meta_lock.lock();
        self.persist_meta_locked()
    }

    fn persist_meta_locked(&self) -> Result<()> {
        let mut meta = [0u8; PAGE_SIZE];
        let next = self.next_page_id.load(Ordering::SeqCst);
        meta[0..8].copy_from_slice(&next.to_le_bytes());
        let free = self.free_list.lock();
        meta[8..16].copy_from_slice(&(free.len() as u64).to_le_bytes());
        for (i, id) in free.iter().enumerate() {
            let base = 16 + i * 8;
            meta[base..base + 8].copy_from_slice(&id.to_le_bytes());
        }
        drop(free);
        self.file.write_at(0, &meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;
    use crate::sim::{SimBackend, SimConfig};
    use crate::backend::StorageBackend;

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sbdms-disk-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let dm = DiskManager::open(tmpfile("rw")).unwrap();
        let id = dm.allocate_page().unwrap();
        assert!(id >= 1);
        let mut page = Page::new();
        page.insert(b"on disk").unwrap();
        dm.write_page(id, page.as_bytes()).unwrap();
        let back = dm.read_page(id).unwrap();
        let restored = Page::from_bytes(&back).unwrap();
        assert_eq!(restored.get(0).unwrap(), b"on disk");
        let (reads, writes) = dm.io_counts();
        assert_eq!((reads, writes), (1, 1));
    }

    #[test]
    fn page_zero_is_reserved() {
        let dm = DiskManager::open(tmpfile("reserved")).unwrap();
        assert!(dm.read_page(0).is_err());
        assert!(dm.write_page(0, &[0u8; PAGE_SIZE]).is_err());
        assert!(dm.free_page(0).is_err());
    }

    #[test]
    fn wrong_size_write_rejected() {
        let dm = DiskManager::open(tmpfile("size")).unwrap();
        let id = dm.allocate_page().unwrap();
        assert!(dm.write_page(id, &[0u8; 10]).is_err());
    }

    #[test]
    fn free_pages_are_reused() {
        let dm = DiskManager::open(tmpfile("reuse")).unwrap();
        let a = dm.allocate_page().unwrap();
        let b = dm.allocate_page().unwrap();
        assert_ne!(a, b);
        dm.free_page(a).unwrap();
        let c = dm.allocate_page().unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn unwritten_page_reads_zeroes() {
        let dm = DiskManager::open(tmpfile("zeroes")).unwrap();
        let id = dm.allocate_page().unwrap();
        let data = dm.read_page(id).unwrap();
        assert!(data.iter().all(|&b| b == 0));
    }

    #[test]
    fn state_survives_reopen() {
        let path = tmpfile("reopen");
        let (a, freed) = {
            let dm = DiskManager::open(&path).unwrap();
            let a = dm.allocate_page().unwrap();
            let b = dm.allocate_page().unwrap();
            let mut page = Page::new();
            page.insert(b"durable").unwrap();
            dm.write_page(a, page.as_bytes()).unwrap();
            dm.free_page(b).unwrap();
            dm.sync().unwrap();
            (a, b)
        };
        let dm = DiskManager::open(&path).unwrap();
        // Data still readable.
        let restored = Page::from_bytes(&dm.read_page(a).unwrap()).unwrap();
        assert_eq!(restored.get(0).unwrap(), b"durable");
        // Free list restored: the freed page is handed out again.
        assert_eq!(dm.allocate_page().unwrap(), freed);
        // Page counter restored: fresh pages do not collide with `a`.
        let fresh = dm.allocate_page().unwrap();
        assert!(fresh > a);
    }

    #[test]
    fn concurrent_allocation_yields_distinct_ids() {
        let dm = std::sync::Arc::new(DiskManager::open(tmpfile("concurrent")).unwrap());
        let mut handles = vec![];
        for _ in 0..4 {
            let dm = dm.clone();
            handles.push(std::thread::spawn(move || {
                (0..50).map(|_| dm.allocate_page().unwrap()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<PageId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 200);
    }

    #[test]
    fn works_over_sim_backend() {
        let sim = SimBackend::new(SimConfig::seeded(7));
        let dm = DiskManager::open_backend(sim.open("data.db").unwrap()).unwrap();
        let id = dm.allocate_page().unwrap();
        let mut page = Page::new();
        page.insert(b"simulated").unwrap();
        dm.write_page(id, page.as_bytes()).unwrap();
        let restored = Page::from_bytes(&dm.read_page(id).unwrap()).unwrap();
        assert_eq!(restored.get(0).unwrap(), b"simulated");
    }

    #[test]
    fn allocations_survive_power_loss() {
        // An allocation is synced before the id is handed out: after a
        // power loss the allocator never reissues it.
        let sim = SimBackend::new(SimConfig::seeded(8));
        let file = sim.open("data.db").unwrap();
        let issued = {
            let dm = DiskManager::open_backend(file.clone()).unwrap();
            dm.allocate_page().unwrap()
        };
        sim.power_cycle();
        let dm = DiskManager::open_backend(file).unwrap();
        let next = dm.allocate_page().unwrap();
        assert!(next > issued, "page {issued} was reissued as {next}");
    }
}
