//! Heap files: unordered record storage over the buffer pool.
//!
//! A heap file is a *directory* of data pages. The directory itself uses
//! slotted pages: slot 0 of every directory page holds the next directory
//! page id (0 = none), later slots hold data page ids. Records live in
//! slotted data pages and are addressed by a stable [`Rid`].
//!
//! Records larger than a page spill to an *overflow chain*: the inline
//! record stores only a pointer, and the payload lives in dedicated
//! chained pages (each holding one `[next: u64][chunk]` record). The tag
//! byte prefix (`TAG_INLINE`/`TAG_OVERFLOW`) is internal — callers always
//! see their original bytes.

use std::sync::Arc;

use parking_lot::Mutex;
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_storage::buffer::BufferPool;
use sbdms_storage::page::{PageId, SlotId, HEADER_SIZE, PAGE_SIZE, SLOT_SIZE};

/// Inline records above this spill to overflow pages (leave room for the
/// tag byte and slot bookkeeping in a fresh page).
const MAX_INLINE: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE - 16;

/// Overflow chunk capacity per dedicated page: one record of
/// `[next: u64][chunk]`.
const OVERFLOW_CHUNK: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE - 8;

const TAG_INLINE: u8 = 0;
const TAG_OVERFLOW: u8 = 1;

/// Record identifier: page + slot. Stable across updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// The data page holding the record.
    pub page: PageId,
    /// The slot within the page.
    pub slot: SlotId,
}

impl Rid {
    /// Construct a rid.
    pub fn new(page: PageId, slot: SlotId) -> Rid {
        Rid { page, slot }
    }
}

/// An unordered collection of variable-length records.
pub struct HeapFile {
    buffer: Arc<BufferPool>,
    dir_page: PageId,
    /// Cache of the data page most likely to have space, to avoid
    /// rescanning the directory on every insert.
    last_insert_page: Mutex<Option<PageId>>,
}

impl HeapFile {
    /// Create a new heap file; returns it with a fresh directory page.
    pub fn create(buffer: Arc<BufferPool>) -> Result<HeapFile> {
        let dir_page = buffer.new_page()?;
        // Slot 0: next-directory pointer (0 = none).
        buffer.try_with_page_mut(dir_page, |p| p.insert(&0u64.to_le_bytes()))?;
        Ok(HeapFile {
            buffer,
            dir_page,
            last_insert_page: Mutex::new(None),
        })
    }

    /// Open an existing heap file rooted at `dir_page`.
    pub fn open(buffer: Arc<BufferPool>, dir_page: PageId) -> HeapFile {
        HeapFile {
            buffer,
            dir_page,
            last_insert_page: Mutex::new(None),
        }
    }

    /// The root directory page id (persist this to reopen the file).
    pub fn dir_page(&self) -> PageId {
        self.dir_page
    }

    /// The buffer pool this file lives in.
    pub fn buffer(&self) -> &Arc<BufferPool> {
        &self.buffer
    }

    /// Insert a record, returning its rid. Records larger than a page
    /// transparently spill to an overflow chain.
    pub fn insert(&self, record: &[u8]) -> Result<Rid> {
        let stored = Self::encode_stored(&self.buffer, record)?;
        self.insert_raw(&stored)
    }

    fn insert_raw(&self, stored: &[u8]) -> Result<Rid> {
        // Fast path: retry the last page that had space.
        if let Some(page) = *self.last_insert_page.lock() {
            if let Ok(slot) = self.buffer.try_with_page_mut(page, |p| p.insert(stored)) {
                return Ok(Rid::new(page, slot));
            }
        }
        // Slow path: try every data page, then extend.
        for page in self.data_pages()? {
            if let Ok(slot) = self.buffer.try_with_page_mut(page, |p| p.insert(stored)) {
                *self.last_insert_page.lock() = Some(page);
                return Ok(Rid::new(page, slot));
            }
        }
        let page = self.extend()?;
        let slot = self.buffer.try_with_page_mut(page, |p| p.insert(stored))?;
        *self.last_insert_page.lock() = Some(page);
        Ok(Rid::new(page, slot))
    }

    /// Read a record (following any overflow chain).
    pub fn get(&self, rid: Rid) -> Result<Vec<u8>> {
        Self::read_record(&self.buffer, rid)
    }

    /// Update a record in place (the rid stays valid). Old overflow pages
    /// are freed; the payload may move between inline and overflow form.
    pub fn update(&self, rid: Rid, record: &[u8]) -> Result<()> {
        Self::update_record(&self.buffer, rid, record)
    }

    /// Delete a record (freeing any overflow chain).
    pub fn delete(&self, rid: Rid) -> Result<()> {
        Self::delete_record(&self.buffer, rid)
    }

    /// Put a record back under `rid`, whose slot a delete left dead —
    /// the inverse of [`HeapFile::delete`], so the rid survives.
    pub fn restore(&self, rid: Rid, record: &[u8]) -> Result<()> {
        let stored = Self::encode_stored(&self.buffer, record)?;
        self.buffer
            .try_with_page_mut(rid.page, |p| p.restore(rid.slot, &stored))
    }

    /// Read a record by rid without a heap handle (rids are
    /// heap-agnostic: overflow resolution only needs the buffer pool).
    pub fn read_record(buffer: &Arc<BufferPool>, rid: Rid) -> Result<Vec<u8>> {
        let stored = buffer.with_page(rid.page, |p| p.get(rid.slot).map(|r| r.to_vec()))??;
        Self::decode_stored(buffer, &stored)
    }

    /// Update a record by rid without a heap handle.
    pub fn update_record(buffer: &Arc<BufferPool>, rid: Rid, record: &[u8]) -> Result<()> {
        let old = buffer.with_page(rid.page, |p| p.get(rid.slot).map(|r| r.to_vec()))??;
        let stored = Self::encode_stored(buffer, record)?;
        buffer.try_with_page_mut(rid.page, |p| p.update(rid.slot, &stored))?;
        Self::free_overflow(buffer, &old)?;
        Ok(())
    }

    /// Delete a record by rid without a heap handle.
    pub fn delete_record(buffer: &Arc<BufferPool>, rid: Rid) -> Result<()> {
        let old = buffer.with_page(rid.page, |p| p.get(rid.slot).map(|r| r.to_vec()))??;
        buffer.try_with_page_mut(rid.page, |p| p.delete(rid.slot))?;
        Self::free_overflow(buffer, &old)?;
        Ok(())
    }

    /// Encode a user record into its stored form, building an overflow
    /// chain when it does not fit inline.
    fn encode_stored(buffer: &Arc<BufferPool>, record: &[u8]) -> Result<Vec<u8>> {
        if record.len() <= MAX_INLINE {
            let mut stored = Vec::with_capacity(record.len() + 1);
            stored.push(TAG_INLINE);
            stored.extend_from_slice(record);
            return Ok(stored);
        }
        // Build the chain back-to-front so each page knows its successor.
        let mut next: PageId = 0;
        for chunk in record.chunks(OVERFLOW_CHUNK).rev() {
            let page = buffer.new_page()?;
            let mut payload = Vec::with_capacity(8 + chunk.len());
            payload.extend_from_slice(&next.to_le_bytes());
            payload.extend_from_slice(chunk);
            buffer.try_with_page_mut(page, |p| p.insert(&payload).map(|_| ()))?;
            next = page;
        }
        let mut stored = Vec::with_capacity(17);
        stored.push(TAG_OVERFLOW);
        stored.extend_from_slice(&next.to_le_bytes());
        stored.extend_from_slice(&(record.len() as u64).to_le_bytes());
        Ok(stored)
    }

    /// Decode a stored record, reassembling overflow chains.
    fn decode_stored(buffer: &Arc<BufferPool>, stored: &[u8]) -> Result<Vec<u8>> {
        match stored.first() {
            Some(&TAG_INLINE) => Ok(stored[1..].to_vec()),
            Some(&TAG_OVERFLOW) if stored.len() == 17 => {
                let mut page = u64::from_le_bytes(stored[1..9].try_into().unwrap());
                let total = u64::from_le_bytes(stored[9..17].try_into().unwrap()) as usize;
                let mut out = Vec::with_capacity(total);
                while page != 0 {
                    let payload =
                        buffer.with_page(page, |p| p.get(0).map(|r| r.to_vec()))??;
                    if payload.len() < 8 {
                        return Err(ServiceError::Storage("corrupt overflow page".into()));
                    }
                    page = u64::from_le_bytes(payload[0..8].try_into().unwrap());
                    out.extend_from_slice(&payload[8..]);
                }
                if out.len() != total {
                    return Err(ServiceError::Storage(format!(
                        "overflow chain length mismatch: expected {total}, got {}",
                        out.len()
                    )));
                }
                Ok(out)
            }
            _ => Err(ServiceError::Storage("corrupt heap record tag".into())),
        }
    }

    /// Free the overflow chain referenced by a stored record, if any.
    fn free_overflow(buffer: &Arc<BufferPool>, stored: &[u8]) -> Result<()> {
        if stored.first() != Some(&TAG_OVERFLOW) || stored.len() != 17 {
            return Ok(());
        }
        let mut page = u64::from_le_bytes(stored[1..9].try_into().unwrap());
        while page != 0 {
            let payload = buffer.with_page(page, |p| p.get(0).map(|r| r.to_vec()))??;
            let next = u64::from_le_bytes(payload[0..8].try_into().unwrap());
            buffer.free_page(page)?;
            page = next;
        }
        Ok(())
    }

    /// Number of live records (scans every page).
    pub fn len(&self) -> Result<usize> {
        let mut n = 0;
        for page in self.data_pages()? {
            n += self.buffer.with_page(page, |p| p.live_records())?;
        }
        Ok(n)
    }

    /// Whether the file holds no records.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Visit the live records of one data page in slot order, each
    /// passed to `visit` as the caller's original bytes. Inline records
    /// are borrowed straight from the page frame, inside the page
    /// access, so a caller that decodes them copies nothing. An overflow
    /// record ends the access: its chain is reassembled outside it
    /// (chains must not nest inside a page access), visited, and the
    /// walk resumes at the next slot. An associated function (not a
    /// method) so `'static` scans can capture only the `Arc`'d buffer
    /// pool and a page list, not a heap handle.
    pub fn walk_page(
        buffer: &Arc<BufferPool>,
        page: PageId,
        mut visit: impl FnMut(Rid, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let mut from: SlotId = 0;
        loop {
            let spilled = buffer.with_page(page, |p| -> Result<Option<(SlotId, Vec<u8>)>> {
                for (slot, stored) in p.iter().filter(|(slot, _)| *slot >= from) {
                    match stored.split_first() {
                        Some((&TAG_INLINE, record)) => visit(Rid::new(page, slot), record)?,
                        _ => return Ok(Some((slot, stored.to_vec()))),
                    }
                }
                Ok(None)
            })??;
            let Some((slot, stored)) = spilled else {
                return Ok(());
            };
            visit(Rid::new(page, slot), &Self::decode_stored(buffer, &stored)?)?;
            from = slot + 1;
        }
    }

    /// [`HeapFile::walk_page`] over every data page, in storage order.
    pub fn walk(&self, mut visit: impl FnMut(Rid, &[u8]) -> Result<()>) -> Result<()> {
        for page in self.data_pages()? {
            Self::walk_page(&self.buffer, page, &mut visit)?;
        }
        Ok(())
    }

    /// Materialised scan of all live records in storage order (one copy
    /// of each record).
    pub fn scan(&self) -> Result<Vec<(Rid, Vec<u8>)>> {
        let mut out = Vec::new();
        self.walk(|rid, record| {
            out.push((rid, record.to_vec()));
            Ok(())
        })?;
        Ok(out)
    }

    /// All data page ids in directory order.
    pub fn data_pages(&self) -> Result<Vec<PageId>> {
        let mut pages = Vec::new();
        let mut dir = self.dir_page;
        loop {
            let (next, mut data): (u64, Vec<PageId>) = self.buffer.with_page(dir, |p| {
                let next = p
                    .get(0)
                    .ok()
                    .and_then(|b| b.try_into().ok().map(u64::from_le_bytes))
                    .unwrap_or(0);
                let data = p
                    .iter()
                    .filter(|(slot, _)| *slot != 0)
                    .filter_map(|(_, rec)| rec.try_into().ok().map(u64::from_le_bytes))
                    .collect();
                (next, data)
            })?;
            pages.append(&mut data);
            if next == 0 {
                break;
            }
            dir = next;
        }
        Ok(pages)
    }

    /// Drop the whole file, freeing every data, overflow, and directory
    /// page.
    pub fn destroy(self) -> Result<()> {
        for page in self.data_pages()? {
            let mut stored_records = Vec::new();
            self.buffer.with_page(page, |p| {
                for (_, record) in p.iter() {
                    stored_records.push(record.to_vec());
                }
            })?;
            for stored in stored_records {
                Self::free_overflow(&self.buffer, &stored)?;
            }
            self.buffer.free_page(page)?;
        }
        let mut dir = self.dir_page;
        loop {
            let next: u64 = self.buffer.with_page(dir, |p| {
                p.get(0)
                    .ok()
                    .and_then(|b| b.try_into().ok().map(u64::from_le_bytes))
                    .unwrap_or(0)
            })?;
            self.buffer.free_page(dir)?;
            if next == 0 {
                break;
            }
            dir = next;
        }
        Ok(())
    }

    /// Allocate a data page and register it in the directory, chaining a
    /// new directory page when the current one is full.
    fn extend(&self) -> Result<PageId> {
        let data_page = self.buffer.new_page()?;
        let entry = data_page.to_le_bytes();

        // Find the tail directory page.
        let mut dir = self.dir_page;
        loop {
            let next: u64 = self.buffer.with_page(dir, |p| {
                p.get(0)
                    .ok()
                    .and_then(|b| b.try_into().ok().map(u64::from_le_bytes))
                    .unwrap_or(0)
            })?;
            if next == 0 {
                break;
            }
            dir = next;
        }

        if self
            .buffer
            .try_with_page_mut(dir, |p| p.insert(&entry))
            .is_ok()
        {
            return Ok(data_page);
        }

        // Tail directory full: chain a new one.
        let new_dir = self.buffer.new_page()?;
        self.buffer.try_with_page_mut(new_dir, |p| {
            p.insert(&0u64.to_le_bytes())?;
            p.insert(&entry)
        })?;
        self.buffer
            .try_with_page_mut(dir, |p| p.update(0, &new_dir.to_le_bytes()))?;
        Ok(data_page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbdms_storage::replacement::PolicyKind;
    use sbdms_storage::services::StorageEngine;

    fn heap(name: &str, frames: usize) -> HeapFile {
        let dir = std::env::temp_dir()
            .join("sbdms-heap-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, frames, PolicyKind::Lru).unwrap();
        HeapFile::create(engine.buffer).unwrap()
    }

    #[test]
    fn insert_get_update_delete() {
        let h = heap("crud", 16);
        let rid = h.insert(b"alpha").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"alpha");
        h.update(rid, b"beta").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"beta");
        h.delete(rid).unwrap();
        assert!(h.get(rid).is_err());
        assert!(h.is_empty().unwrap());
    }

    #[test]
    fn many_records_span_pages() {
        let h = heap("span", 16);
        let rids: Vec<Rid> = (0..500)
            .map(|i| h.insert(format!("record-{i:04}-{}", "x".repeat(50)).as_bytes()).unwrap())
            .collect();
        assert!(h.data_pages().unwrap().len() > 1, "must span multiple pages");
        assert_eq!(h.len().unwrap(), 500);
        for (i, rid) in rids.iter().enumerate() {
            let rec = h.get(*rid).unwrap();
            assert!(rec.starts_with(format!("record-{i:04}").as_bytes()));
        }
    }

    #[test]
    fn scan_returns_all_live_records() {
        let h = heap("scan", 16);
        let a = h.insert(b"a").unwrap();
        let _b = h.insert(b"b").unwrap();
        let _c = h.insert(b"c").unwrap();
        h.delete(a).unwrap();
        let scanned = h.scan().unwrap();
        assert_eq!(scanned.len(), 2);
        let payloads: Vec<&[u8]> = scanned.iter().map(|(_, r)| r.as_slice()).collect();
        assert!(payloads.contains(&b"b".as_slice()));
        assert!(payloads.contains(&b"c".as_slice()));
    }

    #[test]
    fn walk_visits_slots_in_order_around_overflow_records() {
        let h = heap("walk", 16);
        let big: Vec<u8> = (0..9000).map(|i| (i % 249) as u8).collect();
        let mut want = Vec::new();
        for i in 0..40u32 {
            let record = if i % 13 == 5 {
                big.clone()
            } else {
                format!("row-{i}").into_bytes()
            };
            want.push((h.insert(&record).unwrap(), record));
        }
        // Deleted slots are skipped, inline and overflow alike.
        for i in [0usize, 5, 17, 39] {
            h.delete(want[i].0).unwrap();
        }
        for i in [39usize, 17, 5, 0] {
            want.remove(i);
        }
        let mut walked = Vec::new();
        h.walk(|rid, record| {
            walked.push((rid, record.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(walked, want);
        assert_eq!(h.scan().unwrap(), want);
    }

    #[test]
    fn reopen_by_dir_page() {
        let dir = std::env::temp_dir()
            .join("sbdms-heap-tests")
            .join(format!("reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, 16, PolicyKind::Lru).unwrap();
        let buffer = engine.buffer.clone();

        let h = HeapFile::create(buffer.clone()).unwrap();
        let root = h.dir_page();
        let rid = h.insert(b"persisted").unwrap();
        buffer.flush_all().unwrap();
        drop(h);

        let h2 = HeapFile::open(buffer, root);
        assert_eq!(h2.get(rid).unwrap(), b"persisted");
        assert_eq!(h2.len().unwrap(), 1);
    }

    #[test]
    fn works_with_tiny_buffer() {
        // 2 frames force constant eviction; correctness must not depend on
        // residency.
        let h = heap("tiny", 2);
        let rids: Vec<Rid> = (0..200)
            .map(|i| h.insert(format!("{i}-{}", "y".repeat(100)).as_bytes()).unwrap())
            .collect();
        for (i, rid) in rids.iter().enumerate() {
            assert!(h.get(*rid).unwrap().starts_with(format!("{i}-").as_bytes()));
        }
    }

    #[test]
    fn directory_chains_when_full() {
        // Each directory page holds ~340 entries; force > 400 data pages
        // with large records (3 KiB each fills a page quickly).
        let h = heap("chain", 8);
        let big = vec![7u8; 3000];
        for _ in 0..450 {
            h.insert(&big).unwrap();
        }
        let pages = h.data_pages().unwrap();
        assert!(pages.len() >= 450, "3KB records: one per page");
        assert_eq!(h.len().unwrap(), 450);
    }

    #[test]
    fn destroy_frees_pages_for_reuse() {
        let h = heap("destroy", 16);
        for i in 0..50 {
            h.insert(format!("{i}").as_bytes()).unwrap();
        }
        let buffer = h.buffer().clone();
        let used_before = buffer.disk().page_count();
        h.destroy().unwrap();
        // New allocations reuse freed pages instead of growing the file.
        let p = buffer.new_page().unwrap();
        assert!(p < used_before);
    }

    #[test]
    fn update_grows_record() {
        let h = heap("grow", 16);
        let rid = h.insert(b"small").unwrap();
        let big = vec![9u8; 2000];
        h.update(rid, &big).unwrap();
        assert_eq!(h.get(rid).unwrap(), big);
    }

    #[test]
    fn oversized_records_use_overflow_chains() {
        let h = heap("overflow", 16);
        // Three pages' worth of payload.
        let big: Vec<u8> = (0..11_000).map(|i| (i % 251) as u8).collect();
        let rid = h.insert(&big).unwrap();
        assert_eq!(h.get(rid).unwrap(), big);
        assert_eq!(h.len().unwrap(), 1);
        // Scan reassembles too.
        let scanned = h.scan().unwrap();
        assert_eq!(scanned[0].1, big);
    }

    #[test]
    fn overflow_pages_freed_on_delete() {
        let h = heap("overflow-free", 16);
        let buffer = h.buffer().clone();
        let rid = h.insert(&vec![5u8; 20_000]).unwrap();
        let high_water = buffer.disk().page_count();
        h.delete(rid).unwrap();
        // Freed chain pages are reused: inserting again must not grow the
        // file past the previous high-water mark.
        h.insert(&vec![6u8; 20_000]).unwrap();
        assert!(buffer.disk().page_count() <= high_water + 1);
    }

    #[test]
    fn update_transitions_between_inline_and_overflow() {
        let h = heap("overflow-update", 16);
        let rid = h.insert(b"tiny").unwrap();
        let big = vec![1u8; 9_000];
        h.update(rid, &big).unwrap();
        assert_eq!(h.get(rid).unwrap(), big);
        h.update(rid, b"tiny again").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"tiny again");
        // And back to huge.
        let bigger = vec![2u8; 15_000];
        h.update(rid, &bigger).unwrap();
        assert_eq!(h.get(rid).unwrap(), bigger);
    }

    #[test]
    fn boundary_sizes_round_trip() {
        let h = heap("boundary", 16);
        for size in [MAX_INLINE - 1, MAX_INLINE, MAX_INLINE + 1, OVERFLOW_CHUNK, OVERFLOW_CHUNK + 1]
        {
            let payload = vec![7u8; size];
            let rid = h.insert(&payload).unwrap();
            assert_eq!(h.get(rid).unwrap().len(), size, "size {size}");
            h.delete(rid).unwrap();
        }
    }

    #[test]
    fn destroy_frees_overflow_chains_too() {
        let h = heap("destroy-overflow", 16);
        let buffer = h.buffer().clone();
        h.insert(&vec![1u8; 30_000]).unwrap();
        let high_water = buffer.disk().page_count();
        h.destroy().unwrap();
        // Everything is reusable.
        let p = buffer.new_page().unwrap();
        assert!(p < high_water);
    }
}
