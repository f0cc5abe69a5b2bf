//! The buffer pool: cached page frames over a disk manager, sharded for
//! concurrency.
//!
//! Paper Fig. 6 stars the "Buffer Manager" as the service that adapts to
//! resource pressure; §4 lists "work load, buffer size, page size, and
//! data fragmentation" as the monitorable state of a storage service. The
//! pool exposes exactly those statistics.
//!
//! Access is closure-scoped (`with_page` / `with_page_mut`): no guard
//! lifetimes leak across the service boundary. Internally the pool is
//! split into lock-striped *shards* (page-id hash → shard), each with its
//! own frame table, free list, and replacement-policy instance, so N
//! threads touching different pages proceed in parallel. Each frame
//! carries its own latch, and the shard lock is never held across disk
//! I/O: a cold read on one shard cannot stall a hot hit on another, and
//! even within a shard a miss only blocks accesses to the same frame.
//!
//! Eviction write-back runs outside the shard lock too. The dirty
//! victim's bytes are snapshotted into a per-shard `flushing` map while
//! the shard lock is held; a re-fetch of that page loads from the
//! snapshot instead of racing the in-flight disk write, and exactly one
//! writer per page drains the map (later evictions of the same page swap
//! the snapshot and the active writer picks it up).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sbdms_kernel::error::{Result, ServiceError};

use crate::disk::DiskManager;
use crate::page::{Page, PageId};
use crate::replacement::{FrameId, PolicyKind, ReplacementPolicy};

/// Frame contents, protected by the per-frame latch.
struct FrameData {
    page: Page,
    /// The page this frame currently holds *loaded* data for. `None`
    /// while a newly claimed frame awaits its first load.
    page_id: Option<PageId>,
    dirty: bool,
}

/// A buffer frame: the latch guards the page image during access and
/// during the disk read that fills it, so the shard lock never covers I/O.
struct Frame {
    data: Mutex<FrameData>,
}

impl Frame {
    fn empty() -> Arc<Frame> {
        Arc::new(Frame {
            data: Mutex::new(FrameData {
                page: Page::new(),
                page_id: None,
                dirty: false,
            }),
        })
    }
}

/// Shard-lock-side frame bookkeeping (never touched without the shard lock).
struct FrameMeta {
    page_id: Option<PageId>,
    pins: u32,
}

struct ShardInner {
    frames: Vec<Arc<Frame>>,
    metas: Vec<FrameMeta>,
    page_table: HashMap<PageId, FrameId>,
    /// Dirty pages evicted but not yet written back: page id → snapshot
    /// of the bytes in flight. An entry exists iff a writer is draining it.
    flushing: HashMap<PageId, Arc<Vec<u8>>>,
    policy: Box<dyn ReplacementPolicy>,
    free_frames: Vec<FrameId>,
}

impl ShardInner {
    fn new(capacity: usize, policy: PolicyKind) -> ShardInner {
        ShardInner {
            frames: (0..capacity).map(|_| Frame::empty()).collect(),
            metas: (0..capacity)
                .map(|_| FrameMeta {
                    page_id: None,
                    pins: 0,
                })
                .collect(),
            page_table: HashMap::with_capacity(capacity),
            flushing: HashMap::new(),
            policy: policy.build(capacity),
            free_frames: (0..capacity).rev().collect(),
        }
    }

    fn pin(&mut self, frame: FrameId) {
        self.metas[frame].pins += 1;
        if self.metas[frame].pins == 1 {
            self.policy.on_pinned(frame);
        }
    }

    fn unpin(&mut self, frame: FrameId) {
        debug_assert!(self.metas[frame].pins > 0, "unpin without pin");
        self.metas[frame].pins -= 1;
        if self.metas[frame].pins == 0 {
            self.policy.on_unpinned(frame);
        }
    }

    /// Take a frame for a new occupant: the free list first, then a
    /// policy victim. Returns the frame and the page it displaced, with
    /// the old mapping already removed. `None` when every frame is pinned.
    fn claim(&mut self) -> Option<(FrameId, Option<PageId>)> {
        if let Some(frame) = self.free_frames.pop() {
            return Some((frame, None));
        }
        let victim = self.policy.evict()?;
        debug_assert_eq!(self.metas[victim].pins, 0, "policy evicted a pinned frame");
        let old = self.metas[victim].page_id.take();
        if let Some(old_id) = old {
            self.page_table.remove(&old_id);
        }
        Some((victim, old))
    }
}

struct Shard {
    inner: Mutex<ShardInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Shard {
    fn new(capacity: usize, policy: PolicyKind) -> Shard {
        Shard {
            inner: Mutex::new(ShardInner::new(capacity, policy)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

/// Point-in-time buffer statistics (the §4 monitoring example).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferStats {
    /// Configured frame count ("buffer size").
    pub capacity: usize,
    /// Frames currently holding a page.
    pub resident: usize,
    /// Dirty frames awaiting flush.
    pub dirty: usize,
    /// Frames pinned by in-flight accesses.
    pub pinned: usize,
    /// Cache hits since creation ("work load").
    pub hits: u64,
    /// Cache misses since creation.
    pub misses: u64,
    /// Frames whose resident page was displaced to admit another.
    pub evictions: u64,
    /// Number of lock-striped shards.
    pub shards: usize,
    /// Mean fragmentation across resident pages.
    pub mean_fragmentation: f64,
}

impl BufferStats {
    /// Hit ratio in 0.0..=1.0.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-shard counters, for inspecting stripe balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Frames in this shard.
    pub capacity: usize,
    /// Frames holding a page.
    pub resident: usize,
    /// Hits against this shard.
    pub hits: u64,
    /// Misses against this shard.
    pub misses: u64,
    /// Evictions performed by this shard.
    pub evictions: u64,
}

/// Hook invoked before every dirty-page write-back. The transaction
/// layer installs `wal.sync` here so the write-ahead rule holds even for
/// evictions: no data page reaches disk before the undo records that
/// would revert it are durable. Must be cheap when there is nothing to
/// do — it runs on every write-back.
pub type WriteHook = Arc<dyn Fn() -> Result<()> + Send + Sync>;

/// A fixed-capacity page cache with pluggable replacement, striped into
/// independently locked shards.
pub struct BufferPool {
    disk: Arc<DiskManager>,
    shards: Vec<Shard>,
    policy: PolicyKind,
    write_hook: Mutex<Option<WriteHook>>,
}

/// Retries of the claim loop before giving up on a fully pinned shard.
const CLAIM_ATTEMPTS: usize = 100_000;

fn split_capacity(capacity: usize, shards: usize) -> Vec<usize> {
    let base = capacity / shards;
    let extra = capacity % shards;
    (0..shards).map(|i| base + usize::from(i < extra)).collect()
}

impl BufferPool {
    /// Create a pool of `capacity` frames over a disk manager, with a
    /// shard count scaled (conservatively) to the capacity. Deployments
    /// that know their concurrency pick the stripe count explicitly via
    /// [`BufferPool::new_sharded`].
    pub fn new(disk: Arc<DiskManager>, capacity: usize, policy: PolicyKind) -> BufferPool {
        let shards = (capacity / 8).clamp(1, 4);
        BufferPool::new_sharded(disk, capacity, policy, shards)
    }

    /// Create a pool with an explicit shard count (`shards = 1` degrades
    /// to the classic single-mutex pool, which E9 uses as its baseline).
    pub fn new_sharded(
        disk: Arc<DiskManager>,
        capacity: usize,
        policy: PolicyKind,
        shards: usize,
    ) -> BufferPool {
        let shards = shards.clamp(1, capacity.max(1));
        let caps = split_capacity(capacity, shards);
        BufferPool {
            disk,
            shards: caps.into_iter().map(|c| Shard::new(c, policy)).collect(),
            policy,
            write_hook: Mutex::new(None),
        }
    }

    /// The underlying disk manager.
    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.disk
    }

    /// Install (or clear) the pre-write-back hook (see [`WriteHook`]).
    pub fn set_write_hook(&self, hook: Option<WriteHook>) {
        *self.write_hook.lock() = hook;
    }

    /// Write a page image to disk, running the write-ahead hook first.
    /// Every dirty write-back path funnels through here.
    fn write_back(&self, id: PageId, bytes: &[u8]) -> Result<()> {
        let hook = self.write_hook.lock().clone();
        if let Some(hook) = hook {
            hook()?;
        }
        self.disk.write_page(id, bytes)
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, id: PageId) -> &Shard {
        // Fibonacci multiply-shift spreads sequential page ids evenly.
        let h = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        &self.shards[h % self.shards.len()]
    }

    /// Allocate a fresh page on disk and cache it zeroed. Returns its id.
    pub fn new_page(&self) -> Result<PageId> {
        let id = self.disk.allocate_page()?;
        let shard = self.shard_for(id);
        let mut attempts = 0usize;
        loop {
            let mut inner = shard.inner.lock();
            let Some((frame_id, displaced)) = inner.claim() else {
                drop(inner);
                backoff(&mut attempts)?;
                continue;
            };
            let frame = inner.frames[frame_id].clone();
            // An unpinned frame's latch is always free (latch holders keep
            // a pin for the duration), so this cannot block the shard.
            let mut data = frame
                .data
                .try_lock()
                .expect("claimed frame latch must be free");
            let writeback = self.displace(shard, &mut inner, &mut data, displaced);
            data.page = Page::new();
            data.page_id = Some(id);
            data.dirty = true;
            inner.page_table.insert(id, frame_id);
            inner.metas[frame_id].page_id = Some(id);
            inner.policy.on_access(frame_id);
            // Pin while the latch is held, like any access: an unpinned
            // frame must never be latched, or an evictor's try_lock fails.
            inner.pin(frame_id);
            drop(inner);
            drop(data);
            let drained = match writeback {
                Some((old_id, snap)) => self.drain_writeback(shard, old_id, snap),
                None => Ok(()),
            };
            shard.inner.lock().unpin(frame_id);
            drained?;
            return Ok(id);
        }
    }

    /// Drop a page: evict it from the cache (without write-back) and
    /// return it to the disk free list.
    pub fn free_page(&self, id: PageId) -> Result<()> {
        let shard = self.shard_for(id);
        let mut attempts = 0usize;
        loop {
            let mut inner = shard.inner.lock();
            // Wait out any in-flight write-back so a stale writer cannot
            // clobber this id after the disk reuses it.
            if inner.flushing.contains_key(&id) {
                drop(inner);
                backoff(&mut attempts)?;
                continue;
            }
            if let Some(&frame_id) = inner.page_table.get(&id) {
                if inner.metas[frame_id].pins > 0 {
                    drop(inner);
                    backoff(&mut attempts)?;
                    continue;
                }
                let frame = inner.frames[frame_id].clone();
                let mut data = frame
                    .data
                    .try_lock()
                    .expect("unpinned frame latch must be free");
                data.page_id = None;
                data.dirty = false;
                inner.page_table.remove(&id);
                inner.metas[frame_id].page_id = None;
                inner.policy.on_freed(frame_id);
                inner.free_frames.push(frame_id);
            }
            break;
        }
        self.disk.free_page(id)
    }

    /// Run `f` over an immutable view of the page.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        self.with_frame(id, |data| f(&data.page))
    }

    /// Run `f` over a mutable view of the page, marking it dirty.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        self.with_frame(id, |data| {
            data.dirty = true;
            f(&mut data.page)
        })
    }

    /// Like [`BufferPool::with_page_mut`] but propagates the closure's own
    /// result; the page is marked dirty only on success.
    pub fn try_with_page_mut<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut Page) -> Result<R>,
    ) -> Result<R> {
        self.with_frame(id, |data| {
            let out = f(&mut data.page);
            if out.is_ok() {
                data.dirty = true;
            }
            out
        })?
    }

    /// Write one page back if dirty.
    pub fn flush_page(&self, id: PageId) -> Result<()> {
        let shard = self.shard_for(id);
        let mut attempts = 0usize;
        loop {
            let mut inner = shard.inner.lock();
            // An in-flight eviction write-back *is* the flush; wait for it.
            if inner.flushing.contains_key(&id) {
                drop(inner);
                backoff(&mut attempts)?;
                continue;
            }
            let Some(&frame_id) = inner.page_table.get(&id) else {
                return Ok(());
            };
            inner.pin(frame_id);
            let frame = inner.frames[frame_id].clone();
            drop(inner);

            let mut data = frame.data.lock();
            let out = if data.dirty && data.page_id == Some(id) {
                let r = self.write_back(id, data.page.as_bytes());
                if r.is_ok() {
                    data.dirty = false;
                }
                r
            } else {
                Ok(())
            };
            drop(data);
            shard.inner.lock().unpin(frame_id);
            return out;
        }
    }

    /// Write back every dirty page and sync the file.
    pub fn flush_all(&self) -> Result<()> {
        for shard in &self.shards {
            let resident: Vec<PageId> = {
                let inner = shard.inner.lock();
                inner
                    .metas
                    .iter()
                    .filter_map(|m| m.page_id)
                    .chain(inner.flushing.keys().copied())
                    .collect()
            };
            for id in resident {
                self.flush_page(id)?;
            }
        }
        self.disk.sync()
    }

    /// Current statistics, rolled up across shards.
    pub fn stats(&self) -> BufferStats {
        let mut stats = BufferStats {
            capacity: 0,
            resident: 0,
            dirty: 0,
            pinned: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            shards: self.shards.len(),
            mean_fragmentation: 0.0,
        };
        let mut frag_sum = 0.0;
        let mut frag_n = 0usize;
        for shard in &self.shards {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            stats.evictions += shard.evictions.load(Ordering::Relaxed);
            let inner = shard.inner.lock();
            stats.capacity += inner.frames.len();
            for (meta, frame) in inner.metas.iter().zip(&inner.frames) {
                if meta.page_id.is_none() {
                    continue;
                }
                stats.resident += 1;
                if meta.pins > 0 {
                    stats.pinned += 1;
                }
                // Latch with try_lock only: a holder may be mid-I/O, and
                // blocking here while holding the shard lock could deadlock
                // against its unpin. Busy frames are skipped.
                if let Some(data) = frame.data.try_lock() {
                    if data.dirty {
                        stats.dirty += 1;
                    }
                    if data.page_id == meta.page_id {
                        frag_sum += data.page.fragmentation();
                        frag_n += 1;
                    }
                }
            }
        }
        if frag_n > 0 {
            stats.mean_fragmentation = frag_sum / frag_n as f64;
        }
        stats
    }

    /// Per-shard counters (stripe balance).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|shard| {
                let inner = shard.inner.lock();
                ShardStats {
                    capacity: inner.frames.len(),
                    resident: inner.metas.iter().filter(|m| m.page_id.is_some()).count(),
                    hits: shard.hits.load(Ordering::Relaxed),
                    misses: shard.misses.load(Ordering::Relaxed),
                    evictions: shard.evictions.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Shrink or grow the pool to `capacity` frames, flushing evicted
    /// pages. Used when the architecture adapts to resource pressure
    /// (paper Fig. 6: the Buffer Coordinator "advises the Buffer Manager
    /// to adapt to the new situation"). The shard count is fixed at
    /// construction; capacity is redistributed across the stripes, each
    /// keeping at least one frame.
    pub fn resize(&self, capacity: usize) -> Result<()> {
        self.flush_all()?;
        let caps = split_capacity(capacity.max(self.shards.len()), self.shards.len());
        for (shard, new_cap) in self.shards.iter().zip(caps) {
            let mut attempts = 0usize;
            loop {
                let mut inner = shard.inner.lock();
                if inner.metas.iter().any(|m| m.pins > 0) || !inner.flushing.is_empty() {
                    drop(inner);
                    backoff(&mut attempts)?;
                    continue;
                }
                let mut frames = Vec::with_capacity(new_cap);
                let mut metas = Vec::with_capacity(new_cap);
                let mut page_table = HashMap::with_capacity(new_cap);
                for (frame, meta) in inner.frames.iter().zip(&inner.metas) {
                    let Some(id) = meta.page_id else { continue };
                    let mut data = frame
                        .data
                        .try_lock()
                        .expect("unpinned frame latch must be free");
                    if frames.len() < new_cap {
                        page_table.insert(id, frames.len());
                        frames.push(frame.clone());
                        metas.push(FrameMeta {
                            page_id: Some(id),
                            pins: 0,
                        });
                    } else {
                        // Dropped resident page: write back if it re-dirtied
                        // after flush_all (shard is quiesced, so this rare
                        // I/O under the shard lock cannot stall peers).
                        if data.dirty && data.page_id == Some(id) {
                            self.write_back(id, data.page.as_bytes())?;
                        }
                        data.page_id = None;
                        data.dirty = false;
                    }
                }
                let mut policy = self.policy.build(new_cap);
                for idx in 0..frames.len() {
                    policy.on_access(idx);
                }
                let free_frames: Vec<FrameId> = (frames.len()..new_cap).rev().collect();
                while frames.len() < new_cap {
                    frames.push(Frame::empty());
                    metas.push(FrameMeta {
                        page_id: None,
                        pins: 0,
                    });
                }
                *inner = ShardInner {
                    frames,
                    metas,
                    page_table,
                    flushing: HashMap::new(),
                    policy,
                    free_frames,
                };
                break;
            }
        }
        Ok(())
    }

    /// The core access path: pin the page's frame, latch it outside the
    /// shard lock, load the page image if needed, run `f`, unpin.
    fn with_frame<R>(&self, id: PageId, f: impl FnOnce(&mut FrameData) -> R) -> Result<R> {
        let shard = self.shard_for(id);
        let mut attempts = 0usize;
        loop {
            // Phase 1 (shard lock): map the page to a pinned frame.
            let frame;
            let frame_id;
            let snapshot;
            let mut writeback = None;
            let mut latch = None;
            {
                let mut inner = shard.inner.lock();
                if let Some(&hit) = inner.page_table.get(&id) {
                    shard.hits.fetch_add(1, Ordering::Relaxed);
                    inner.policy.on_access(hit);
                    inner.pin(hit);
                    frame_id = hit;
                    frame = inner.frames[hit].clone();
                } else {
                    let Some((claimed, displaced)) = inner.claim() else {
                        drop(inner);
                        backoff(&mut attempts)?;
                        continue;
                    };
                    shard.misses.fetch_add(1, Ordering::Relaxed);
                    frame_id = claimed;
                    frame = inner.frames[claimed].clone();
                    // Latch while still holding the shard lock so no later
                    // pinner observes the frame before its load completes.
                    // Never blocks: unpinned frames' latches are free.
                    let mut data = frame
                        .data
                        .try_lock()
                        .expect("claimed frame latch must be free");
                    writeback = self.displace(shard, &mut inner, &mut data, displaced);
                    data.page_id = None;
                    inner.page_table.insert(id, claimed);
                    inner.metas[claimed].page_id = Some(id);
                    inner.policy.on_access(claimed);
                    inner.pin(claimed);
                    latch = Some(data);
                }
                snapshot = inner.flushing.get(&id).cloned();
            }

            // Phase 2 (no shard lock): drain the victim, load, run `f`.
            let result = (|| {
                if let Some((old_id, snap)) = writeback.take() {
                    self.drain_writeback(shard, old_id, snap)?;
                }
                let mut data = match latch {
                    Some(data) => data,
                    None => frame.data.lock(),
                };
                if data.page_id != Some(id) {
                    // First load, or a previous loader failed: any latch
                    // holder may (re)load. The in-flight eviction snapshot,
                    // when present, is newer than the disk image. Either
                    // lands in the frame's own page buffer.
                    match &snapshot {
                        Some(snap) => data.page.load(|buf| {
                            buf.copy_from_slice(snap);
                            Ok(())
                        })?,
                        None => data.page.load(|buf| self.disk.read_page_into(id, buf))?,
                    }
                    data.page_id = Some(id);
                    data.dirty = false;
                }
                Ok(f(&mut data))
            })();
            shard.inner.lock().unpin(frame_id);
            return result;
        }
    }

    /// Record the eviction of `displaced` from a claimed frame, while the
    /// shard lock and the frame latch are both held. Dirty bytes are
    /// snapshotted into `flushing`; the caller must drain the returned
    /// write-back *after* releasing the shard lock.
    fn displace(
        &self,
        shard: &Shard,
        inner: &mut ShardInner,
        data: &mut FrameData,
        displaced: Option<PageId>,
    ) -> Option<(PageId, Arc<Vec<u8>>)> {
        let old_id = displaced?;
        shard.evictions.fetch_add(1, Ordering::Relaxed);
        if !data.dirty || data.page_id != Some(old_id) {
            return None;
        }
        data.dirty = false;
        let snap = Arc::new(data.page.as_bytes().to_vec());
        match inner.flushing.entry(old_id) {
            // A writer is already draining this page: swap in the newer
            // snapshot; that writer will notice and write again.
            Entry::Occupied(mut e) => {
                *e.get_mut() = snap;
                None
            }
            Entry::Vacant(e) => {
                e.insert(snap.clone());
                Some((old_id, snap))
            }
        }
    }

    /// Write `snap` back to disk, re-checking the `flushing` map until our
    /// write was the newest snapshot. Exactly one writer runs per page.
    fn drain_writeback(&self, shard: &Shard, id: PageId, mut snap: Arc<Vec<u8>>) -> Result<()> {
        loop {
            let result = self.write_back(id, &snap);
            let mut inner = shard.inner.lock();
            if result.is_err() {
                // Don't strand waiters on a permanently failed entry.
                inner.flushing.remove(&id);
                return result;
            }
            match inner.flushing.get(&id) {
                Some(current) if Arc::ptr_eq(current, &snap) => {
                    inner.flushing.remove(&id);
                    return Ok(());
                }
                Some(current) => snap = current.clone(),
                None => return Ok(()),
            }
        }
    }
}

/// Yield-then-sleep retry for transiently exhausted shards (more
/// concurrent pins than frames). Errors out after [`CLAIM_ATTEMPTS`].
fn backoff(attempts: &mut usize) -> Result<()> {
    *attempts += 1;
    if *attempts >= CLAIM_ATTEMPTS {
        return Err(ServiceError::Storage("buffer pool exhausted".into()));
    }
    if (*attempts).is_multiple_of(64) {
        std::thread::sleep(std::time::Duration::from_micros(50));
    } else {
        std::thread::yield_now();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(name: &str, capacity: usize, policy: PolicyKind) -> BufferPool {
        let dir = std::env::temp_dir().join("sbdms-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        BufferPool::new(Arc::new(DiskManager::open(path).unwrap()), capacity, policy)
    }

    #[test]
    fn new_page_insert_read() {
        let pool = pool("basic", 4, PolicyKind::Lru);
        let id = pool.new_page().unwrap();
        let slot = pool
            .with_page_mut(id, |p| p.insert(b"cached").unwrap())
            .unwrap();
        let data = pool.with_page(id, |p| p.get(slot).unwrap().to_vec()).unwrap();
        assert_eq!(data, b"cached");
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let pool = pool("evict", 2, PolicyKind::Lru);
        let ids: Vec<PageId> = (0..5)
            .map(|i| {
                let id = pool.new_page().unwrap();
                pool.with_page_mut(id, |p| p.insert(format!("page-{i}").as_bytes()).unwrap())
                    .unwrap();
                id
            })
            .collect();
        // All five pages must read back correctly through refetch.
        for (i, id) in ids.iter().enumerate() {
            let data = pool.with_page(*id, |p| p.get(0).unwrap().to_vec()).unwrap();
            assert_eq!(data, format!("page-{i}").as_bytes());
        }
        let stats = pool.stats();
        assert!(stats.misses >= 3, "capacity 2 must evict: {stats:?}");
        assert!(stats.evictions >= 3, "displacements are counted: {stats:?}");
    }

    #[test]
    fn hit_ratio_reflects_locality() {
        let pool = pool("hits", 4, PolicyKind::Clock);
        let id = pool.new_page().unwrap();
        for _ in 0..99 {
            pool.with_page(id, |_| ()).unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.hits, 99); // page resident since new_page; every read hits
        assert_eq!(stats.misses, 0);
        assert!(stats.hit_ratio() > 0.99);
    }

    #[test]
    fn flush_all_persists() {
        let dir = std::env::temp_dir().join("sbdms-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("persist-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let id = {
            let pool = BufferPool::new(
                Arc::new(DiskManager::open(&path).unwrap()),
                4,
                PolicyKind::Lru,
            );
            let id = pool.new_page().unwrap();
            pool.with_page_mut(id, |p| p.insert(b"durable").unwrap()).unwrap();
            pool.flush_all().unwrap();
            id
        };
        let pool2 = BufferPool::new(
            Arc::new(DiskManager::open(&path).unwrap()),
            4,
            PolicyKind::Lru,
        );
        let data = pool2.with_page(id, |p| p.get(0).unwrap().to_vec()).unwrap();
        assert_eq!(data, b"durable");
    }

    #[test]
    fn free_page_recycles() {
        let pool = pool("free", 4, PolicyKind::Lru);
        let id = pool.new_page().unwrap();
        pool.free_page(id).unwrap();
        let id2 = pool.new_page().unwrap();
        assert_eq!(id2, id);
        // And the recycled page is empty, not stale.
        let live = pool.with_page(id2, |p| p.live_records()).unwrap();
        assert_eq!(live, 0);
    }

    #[test]
    fn stats_track_dirty_and_fragmentation() {
        let pool = pool("stats", 4, PolicyKind::Lru);
        let id = pool.new_page().unwrap();
        let slot = pool
            .with_page_mut(id, |p| {
                p.insert(&[0u8; 500]).unwrap();
                p.insert(&[1u8; 500]).unwrap()
            })
            .unwrap();
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().dirty, 0);
        pool.with_page_mut(id, |p| p.delete(slot).unwrap()).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.dirty, 1);
        assert!(stats.mean_fragmentation > 0.0);
    }

    #[test]
    fn resize_shrinks_and_grows() {
        let pool = pool("resize", 8, PolicyKind::Lru);
        let ids: Vec<PageId> = (0..6).map(|_| pool.new_page().unwrap()).collect();
        for id in &ids {
            pool.with_page_mut(*id, |p| p.insert(b"x").unwrap()).unwrap();
        }
        pool.resize(2).unwrap();
        assert_eq!(pool.stats().capacity, 2);
        // All pages still reachable (from disk).
        for id in &ids {
            let n = pool.with_page(*id, |p| p.live_records()).unwrap();
            assert_eq!(n, 1);
        }
        pool.resize(16).unwrap();
        assert_eq!(pool.stats().capacity, 16);
    }

    #[test]
    fn pool_exhaustion_impossible_with_closure_api() {
        // With closure-scoped access every fetch releases the frame, so a
        // capacity-1 pool still serves many pages.
        let pool = pool("tiny", 1, PolicyKind::Clock);
        let ids: Vec<PageId> = (0..10).map(|_| pool.new_page().unwrap()).collect();
        for id in ids {
            pool.with_page(id, |_| ()).unwrap();
        }
    }

    #[test]
    fn try_with_page_mut_only_dirties_on_success() {
        let pool = pool("trymut", 2, PolicyKind::Lru);
        let id = pool.new_page().unwrap();
        pool.flush_all().unwrap();
        let r = pool.try_with_page_mut(id, |p| p.get(42).map(|_| ()));
        assert!(r.is_err());
        assert_eq!(pool.stats().dirty, 0);
        pool.try_with_page_mut(id, |p| p.insert(b"ok").map(|_| ())).unwrap();
        assert_eq!(pool.stats().dirty, 1);
    }

    #[test]
    fn sharded_pool_spreads_pages_and_preserves_data() {
        let dir = std::env::temp_dir().join("sbdms-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("sharded-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let pool = BufferPool::new_sharded(
            Arc::new(DiskManager::open(path).unwrap()),
            32,
            PolicyKind::Lru,
            4,
        );
        assert_eq!(pool.shard_count(), 4);
        assert_eq!(pool.stats().capacity, 32);
        let ids: Vec<PageId> = (0..64)
            .map(|i| {
                let id = pool.new_page().unwrap();
                pool.with_page_mut(id, |p| p.insert(format!("s{i}").as_bytes()).unwrap())
                    .unwrap();
                id
            })
            .collect();
        for (i, id) in ids.iter().enumerate() {
            let data = pool.with_page(*id, |p| p.get(0).unwrap().to_vec()).unwrap();
            assert_eq!(data, format!("s{i}").as_bytes());
        }
        // 64 pages over 32 frames: more than one stripe must be in use.
        let used = pool.shard_stats().iter().filter(|s| s.resident > 0).count();
        assert!(used > 1, "pages should spread across shards: {:?}", pool.shard_stats());
    }

    #[test]
    fn write_hook_runs_before_every_write_back() {
        let pool = Arc::new(pool("hook", 2, PolicyKind::Lru));
        let hook_calls = Arc::new(AtomicU64::new(0));
        let calls = hook_calls.clone();
        pool.set_write_hook(Some(Arc::new(move || {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(())
        })));
        // Dirty more pages than frames: evictions must invoke the hook.
        let ids: Vec<PageId> = (0..6)
            .map(|i| {
                let id = pool.new_page().unwrap();
                pool.with_page_mut(id, |p| p.insert(format!("h{i}").as_bytes()).unwrap())
                    .unwrap();
                id
            })
            .collect();
        assert!(
            hook_calls.load(Ordering::SeqCst) > 0,
            "eviction write-back skipped the hook"
        );
        let before_flush = hook_calls.load(Ordering::SeqCst);
        pool.flush_page(ids[5]).unwrap();
        assert!(hook_calls.load(Ordering::SeqCst) > before_flush);
        // The hook's writes-so-far never lag the disk's: at every moment
        // hook calls >= page writes (ignoring the disk's metadata page).
        let (_, writes) = pool.disk().io_counts();
        assert!(hook_calls.load(Ordering::SeqCst) <= writes * 2);
    }

    #[test]
    fn write_hook_failure_aborts_write_back() {
        let pool = pool("hookfail", 4, PolicyKind::Lru);
        let id = pool.new_page().unwrap();
        pool.with_page_mut(id, |p| p.insert(b"x").unwrap()).unwrap();
        pool.set_write_hook(Some(Arc::new(|| {
            Err(ServiceError::Storage("wal not durable".into()))
        })));
        assert!(pool.flush_page(id).is_err());
        pool.set_write_hook(None);
        pool.flush_page(id).unwrap();
    }

    #[test]
    fn single_shard_matches_seed_semantics() {
        let dir = std::env::temp_dir().join("sbdms-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("oneshard-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let pool = BufferPool::new_sharded(
            Arc::new(DiskManager::open(path).unwrap()),
            2,
            PolicyKind::Lru,
            1,
        );
        assert_eq!(pool.shard_count(), 1);
        let ids: Vec<PageId> = (0..6).map(|_| pool.new_page().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            pool.with_page_mut(*id, |p| p.insert(format!("v{i}").as_bytes()).unwrap())
                .unwrap();
        }
        for (i, id) in ids.iter().enumerate() {
            let data = pool.with_page(*id, |p| p.get(0).unwrap().to_vec()).unwrap();
            assert_eq!(data, format!("v{i}").as_bytes());
        }
    }
}
