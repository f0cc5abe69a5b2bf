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

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_storage::buffer::BufferPool;
use sbdms_storage::page::{Page, PageId, SlotId, HEADER_SIZE, PAGE_SIZE, SLOT_SIZE};

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
///
/// Inserts find room through the handle's [`FreeSpaceMap`], built by one
/// walk of the data pages the first time an insert needs it (a created
/// heap starts with an empty one). The map lives in memory only: it is
/// a hint over the pages, which stay the truth, so it needs no WAL
/// records and a crash cannot leave it wrong. Writes through this
/// handle keep it current; a second handle on the same heap keeps its
/// own map and sees the other's changes only as failed tries (stale
/// room) or unused room.
pub struct HeapFile {
    buffer: Arc<BufferPool>,
    dir_page: PageId,
    space: Mutex<Option<FreeSpaceMap>>,
}

/// Free space of a heap as its [`FreeSpaceMap`] bounds it, read without
/// touching a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapSpace {
    /// Data pages in the heap's directory.
    pub data_pages: usize,
    /// Sum over those pages of the longest record each still accepts
    /// (an upper bound: exact after a build, stale-high after writes the
    /// map did not see).
    pub free_bytes: usize,
}

/// Per-heap free-space map: the data pages in directory order, each
/// with an *upper bound* on the longest record [`Page::insert`] accepts
/// there ([`Page::insert_room`]).
///
/// The invariant is one-sided. An insert through the map holds the
/// map's lock across its page write and leaves that page's bound exact.
/// Delete and update raise a bound to the room the page reports after
/// the write and never lower it; restore only takes room and leaves the
/// bound alone. So racing writers can leave a bound stale-high, never
/// stale-low. A stale-high page costs one failed try, after which its
/// bound is corrected. Hence the first page in directory order whose
/// bound fits is exactly the first page a walk trying every page would
/// find to accept the record.
///
/// First fit is a leftmost search in a max segment tree over the
/// bounds: O(log pages) per insert, where the walk it replaces fetched
/// every data page whenever the last insert page filled.
///
/// [`Page::insert`]: sbdms_storage::page::Page::insert
/// [`Page::insert_room`]: sbdms_storage::page::Page::insert_room
struct FreeSpaceMap {
    pages: Vec<PageId>,
    position: HashMap<PageId, usize>,
    /// Max segment tree: leaf `i` of `pages` sits at `leaves + i`, node
    /// `n` holds the max of nodes `2n` and `2n + 1`; node 0 is unused.
    tree: Vec<u16>,
    leaves: usize,
    /// Last directory page, where [`HeapFile::extend`] appends.
    tail_dir: PageId,
}

impl FreeSpaceMap {
    fn new(pages: Vec<PageId>, rooms: &[usize], tail_dir: PageId) -> FreeSpaceMap {
        // At least one spare leaf, so `push` can grow by rebuilding.
        let leaves = (pages.len() + 1).next_power_of_two();
        let mut tree = vec![0u16; 2 * leaves];
        for (i, &room) in rooms.iter().enumerate() {
            tree[leaves + i] = room as u16;
        }
        for n in (1..leaves).rev() {
            tree[n] = tree[2 * n].max(tree[2 * n + 1]);
        }
        let position = pages.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        FreeSpaceMap {
            pages,
            position,
            tree,
            leaves,
            tail_dir,
        }
    }

    /// The first page (in directory order) whose bound admits `need`
    /// bytes, as an index into `pages`.
    fn first_fit(&self, need: usize) -> Option<usize> {
        if (self.tree[1] as usize) < need {
            return None;
        }
        let mut n = 1;
        while n < self.leaves {
            n = if self.tree[2 * n] as usize >= need { 2 * n } else { 2 * n + 1 };
        }
        Some(n - self.leaves)
    }

    fn room(&self, i: usize) -> usize {
        self.tree[self.leaves + i] as usize
    }

    fn set(&mut self, i: usize, room: usize) {
        let mut n = self.leaves + i;
        self.tree[n] = room as u16;
        while n > 1 {
            n /= 2;
            self.tree[n] = self.tree[2 * n].max(self.tree[2 * n + 1]);
        }
    }

    /// Raise `page`'s bound to at least `room` (a write freed space).
    fn raise(&mut self, page: PageId, room: usize) {
        if let Some(&i) = self.position.get(&page) {
            if room > self.room(i) {
                self.set(i, room);
            }
        }
    }

    /// Append a freshly extended page.
    fn push(&mut self, page: PageId, room: usize) {
        if self.pages.len() == self.leaves {
            let rooms: Vec<usize> = (0..self.pages.len()).map(|i| self.room(i)).collect();
            *self = FreeSpaceMap::new(std::mem::take(&mut self.pages), &rooms, self.tail_dir);
        }
        self.position.insert(page, self.pages.len());
        self.pages.push(page);
        self.set(self.pages.len() - 1, room);
    }

    fn space(&self) -> HeapSpace {
        HeapSpace {
            data_pages: self.pages.len(),
            free_bytes: (0..self.pages.len()).map(|i| self.room(i)).sum(),
        }
    }
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
            space: Mutex::new(Some(FreeSpaceMap::new(Vec::new(), &[], dir_page))),
        })
    }

    /// Open an existing heap file rooted at `dir_page`. Reads nothing:
    /// the free-space map is built by the first insert.
    pub fn open(buffer: Arc<BufferPool>, dir_page: PageId) -> HeapFile {
        HeapFile {
            buffer,
            dir_page,
            space: Mutex::new(None),
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

    /// Data pages and free bytes from the free-space map, or `None`
    /// while no insert has built it since the heap was opened. Touches
    /// no page.
    pub fn space(&self) -> Option<HeapSpace> {
        self.space.lock().as_ref().map(FreeSpaceMap::space)
    }

    /// Insert a record, returning its rid. Records larger than a page
    /// transparently spill to an overflow chain.
    pub fn insert(&self, record: &[u8]) -> Result<Rid> {
        let stored = Self::encode_stored(&self.buffer, record)?;
        self.insert_raw(&stored)
    }

    /// Put `stored` on the first page in directory order that accepts
    /// it, extending the heap when none does. The map's lock is held
    /// across the page write, so inserts through this handle leave
    /// exact bounds.
    fn insert_raw(&self, stored: &[u8]) -> Result<Rid> {
        let mut guard = self.space.lock();
        if guard.is_none() {
            *guard = Some(self.build_map()?);
        }
        let map = guard.as_mut().expect("built above");
        while let Some(i) = map.first_fit(stored.len()) {
            let page = map.pages[i];
            let tried = self.buffer.try_with_page_mut(page, |p| {
                let slot = p.insert(stored)?;
                Ok((slot, p.insert_room()))
            });
            match tried {
                Ok((slot, room)) => {
                    map.set(i, room);
                    return Ok(Rid::new(page, slot));
                }
                // A stale-high bound: correct it (below this record, so
                // the search moves on) and look further on.
                Err(_) => {
                    let room = self.buffer.with_page(page, |p| p.insert_room())?;
                    map.set(i, room.min(stored.len() - 1));
                }
            }
        }
        let page = self.extend(&mut map.tail_dir)?;
        let (slot, room) = self.buffer.try_with_page_mut(page, |p| {
            let slot = p.insert(stored)?;
            Ok((slot, p.insert_room()))
        })?;
        map.push(page, room);
        Ok(Rid::new(page, slot))
    }

    /// One walk of the directory and its data pages.
    fn build_map(&self) -> Result<FreeSpaceMap> {
        let (pages, tail_dir) = self.directory()?;
        let rooms = pages
            .iter()
            .map(|&page| self.buffer.with_page(page, |p| p.insert_room()))
            .collect::<Result<Vec<_>>>()?;
        Ok(FreeSpaceMap::new(pages, &rooms, tail_dir))
    }

    /// Record that a write left `page` with `room` (raise only).
    fn note_room(&self, page: PageId, room: usize) {
        if let Some(map) = self.space.lock().as_mut() {
            map.raise(page, room);
        }
    }

    /// Read a record (following any overflow chain).
    pub fn get(&self, rid: Rid) -> Result<Vec<u8>> {
        Self::read_record(&self.buffer, rid)
    }

    /// Update a record in place (the rid stays valid). Old overflow pages
    /// are freed; the payload may move between inline and overflow form.
    pub fn update(&self, rid: Rid, record: &[u8]) -> Result<()> {
        let old = self.stored(rid)?;
        let stored = Self::encode_stored(&self.buffer, record)?;
        let room = self.buffer.try_with_page_mut(rid.page, |p| {
            p.update(rid.slot, &stored)?;
            Ok(p.insert_room())
        })?;
        self.note_room(rid.page, room);
        Self::free_overflow(&self.buffer, &old)
    }

    /// Delete a record (freeing any overflow chain).
    pub fn delete(&self, rid: Rid) -> Result<()> {
        let old = self.stored(rid)?;
        let room = self.buffer.try_with_page_mut(rid.page, |p| {
            p.delete(rid.slot)?;
            Ok(p.insert_room())
        })?;
        self.note_room(rid.page, room);
        Self::free_overflow(&self.buffer, &old)
    }

    /// Put a record back under `rid`, whose slot a delete left dead —
    /// the inverse of [`HeapFile::delete`], so the rid survives.
    pub fn restore(&self, rid: Rid, record: &[u8]) -> Result<()> {
        // Restoring only takes room, so the map's bound for the page
        // stays an upper bound untouched.
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

    /// The stored form of the record at `rid` (tag byte and inline
    /// payload or overflow pointer).
    fn stored(&self, rid: Rid) -> Result<Vec<u8>> {
        self.buffer
            .with_page(rid.page, |p| p.get(rid.slot).map(|r| r.to_vec()))?
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
        Ok(self.directory()?.0)
    }

    /// Walk the directory chain: the data page ids in directory order
    /// and the last directory page.
    fn directory(&self) -> Result<(Vec<PageId>, PageId)> {
        let mut pages = Vec::new();
        let mut dir = self.dir_page;
        loop {
            let next = self.buffer.with_page(dir, |p| {
                pages.extend(
                    p.iter()
                        .filter(|(slot, _)| *slot != 0)
                        .filter_map(|(_, rec)| rec.try_into().ok().map(u64::from_le_bytes)),
                );
                next_dir(p)
            })?;
            if next == 0 {
                return Ok((pages, dir));
            }
            dir = next;
        }
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
            let next = self.buffer.with_page(dir, next_dir)?;
            self.buffer.free_page(dir)?;
            if next == 0 {
                break;
            }
            dir = next;
        }
        Ok(())
    }

    /// Allocate a data page and register it in the last directory page,
    /// `tail_dir`, chaining a new directory page (and moving `tail_dir`
    /// to it) when that one is full. `tail_dir` first follows the chain,
    /// in case another handle on the heap chained pages past it.
    fn extend(&self, tail_dir: &mut PageId) -> Result<PageId> {
        loop {
            match self.buffer.with_page(*tail_dir, next_dir)? {
                0 => break,
                next => *tail_dir = next,
            }
        }
        let data_page = self.buffer.new_page()?;
        let entry = data_page.to_le_bytes();
        if self
            .buffer
            .try_with_page_mut(*tail_dir, |p| p.insert(&entry))
            .is_ok()
        {
            return Ok(data_page);
        }
        let new_dir = self.buffer.new_page()?;
        self.buffer.try_with_page_mut(new_dir, |p| {
            p.insert(&0u64.to_le_bytes())?;
            p.insert(&entry)
        })?;
        self.buffer
            .try_with_page_mut(*tail_dir, |p| p.update(0, &new_dir.to_le_bytes()))?;
        *tail_dir = new_dir;
        Ok(data_page)
    }
}

/// The next-directory pointer in slot 0 of a directory page (0 = none).
fn next_dir(p: &Page) -> u64 {
    p.get(0)
        .ok()
        .and_then(|b| b.try_into().ok().map(u64::from_le_bytes))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sbdms_storage::services::StorageEngine;

    impl HeapFile {
        /// The placement rule the free-space map must reproduce: try
        /// every data page in directory order, then extend.
        fn insert_by_walk(&self, record: &[u8]) -> Result<Rid> {
            let stored = Self::encode_stored(&self.buffer, record)?;
            let (pages, mut tail_dir) = self.directory()?;
            for page in pages {
                if let Ok(slot) = self.buffer.try_with_page_mut(page, |p| p.insert(&stored)) {
                    return Ok(Rid::new(page, slot));
                }
            }
            let page = self.extend(&mut tail_dir)?;
            let slot = self.buffer.try_with_page_mut(page, |p| p.insert(&stored))?;
            Ok(Rid::new(page, slot))
        }

        /// Free bytes and data pages by a walk of every page.
        fn walked_space(&self) -> HeapSpace {
            let pages = self.data_pages().unwrap();
            HeapSpace {
                data_pages: pages.len(),
                free_bytes: pages
                    .iter()
                    .map(|&page| self.buffer.with_page(page, |p| p.insert_room()).unwrap())
                    .sum(),
            }
        }
    }

    fn heap(name: &str, frames: usize) -> HeapFile {
        let dir = std::env::temp_dir()
            .join("sbdms-heap-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, frames).unwrap();
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
        let engine = StorageEngine::open(&dir, 16).unwrap();
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
    fn a_stale_tail_directory_page_is_followed_not_overwritten() {
        let h = heap("chain-two-handles", 8);
        let other = HeapFile::open(h.buffer().clone(), h.dir_page());
        let big = vec![7u8; 3000];
        other.insert(&big).unwrap(); // `other`'s map: tail = root
        for _ in 0..450 {
            h.insert(&big).unwrap(); // chains a second directory page
        }
        for _ in 0..10 {
            other.insert(&big).unwrap();
        }
        assert_eq!(h.len().unwrap(), 461, "no data page was cut off the chain");
        assert_eq!(h.data_pages().unwrap().len(), 461);
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

    #[test]
    fn space_comes_from_the_map_and_matches_a_walk() {
        let dir = std::env::temp_dir()
            .join("sbdms-heap-tests")
            .join(format!("space-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, 16).unwrap();
        let h = HeapFile::create(engine.buffer.clone()).unwrap();
        assert_eq!(h.space(), Some(HeapSpace { data_pages: 0, free_bytes: 0 }));
        let rids: Vec<Rid> = (0..300)
            .map(|i| h.insert(format!("{i:04}-{}", "s".repeat(60)).as_bytes()).unwrap())
            .collect();
        for rid in rids.iter().step_by(3) {
            h.delete(*rid).unwrap();
        }
        assert_eq!(h.space(), Some(h.walked_space()));
        assert!(h.space().unwrap().data_pages > 1);

        // A reopened heap has no map until its first insert builds one.
        let h2 = HeapFile::open(engine.buffer.clone(), h.dir_page());
        assert_eq!(h2.space(), None);
        h2.insert(b"x").unwrap();
        assert_eq!(h2.space(), Some(h2.walked_space()));
    }

    #[test]
    fn stale_room_from_a_second_handle_costs_one_try() {
        let h = heap("stale", 16);
        let other = HeapFile::open(h.buffer().clone(), h.dir_page());
        let first = h.insert(&[1u8; 100]).unwrap();
        other.insert(&[2u8; 100]).unwrap(); // builds `other`'s map
        // `h` fills the first page behind `other`'s back.
        while h.insert(&[3u8; 100]).unwrap().page == first.page {}
        // `other` still believes the first page has room: it tries it,
        // corrects the bound and lands on a page that accepts.
        let rid = other.insert(&[4u8; 100]).unwrap();
        assert_ne!(rid.page, first.page);
        assert_eq!(other.get(rid).unwrap(), vec![4u8; 100]);
        let room = h.buffer().with_page(first.page, |p| p.insert_room()).unwrap();
        assert!(room < 101, "the first page is really full");
    }

    #[test]
    fn churn_of_a_fixed_row_count_keeps_the_page_count_bounded() {
        let h = heap("churn", 32);
        let record = |i: usize| format!("{i:06}-{}", "c".repeat(90)).into_bytes();
        let mut live: Vec<Rid> = (0..600).map(|i| h.insert(&record(i)).unwrap()).collect();
        let pages = h.data_pages().unwrap().len();
        for round in 0..30 {
            // Delete every other row, then insert as many back.
            let mut kept = Vec::with_capacity(live.len());
            for (i, rid) in live.into_iter().enumerate() {
                if (i + round) % 2 == 0 {
                    h.delete(rid).unwrap();
                } else {
                    kept.push(rid);
                }
            }
            live = kept;
            for i in live.len()..600 {
                live.push(h.insert(&record(round * 1_000 + i)).unwrap());
            }
            assert_eq!(h.len().unwrap(), 600);
        }
        assert_eq!(h.data_pages().unwrap().len(), pages, "freed space was reused");
    }

    /// One step of the placement differential.
    #[derive(Debug, Clone)]
    enum Step {
        Insert(usize),
        Delete(prop::sample::Index),
        Update(prop::sample::Index, usize),
        Restore(prop::sample::Index),
    }

    fn step() -> impl Strategy<Value = Step> {
        let len = prop_oneof![1usize..120, 120usize..1_500, Just(5_000usize)];
        prop_oneof![
            4 => len.clone().prop_map(Step::Insert),
            2 => any::<prop::sample::Index>().prop_map(Step::Delete),
            1 => (any::<prop::sample::Index>(), len).prop_map(|(i, n)| Step::Update(i, n)),
            1 => any::<prop::sample::Index>().prop_map(Step::Restore),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// A seeded insert/delete/update/restore workload places every
        /// insert on the same rid through the free-space map as through
        /// a walk that tries every page in directory order.
        #[test]
        fn prop_map_places_rids_like_the_walk(
            steps in proptest::collection::vec(step(), 1..200),
            seed in any::<u32>(),
        ) {
            let open = |side: &str| {
                let dir = std::env::temp_dir().join("sbdms-heap-tests").join(format!(
                    "fsm-{side}-{}-{seed:x}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let engine = StorageEngine::open(&dir, 8).unwrap();
                (HeapFile::create(engine.buffer).unwrap(), dir)
            };
            let ((mapped, dir_a), (walked, dir_b)) = (open("map"), open("walk"));
            let mut live: Vec<(Rid, Vec<u8>)> = Vec::new();
            let mut dead: Vec<(Rid, Vec<u8>)> = Vec::new();
            for (n, step) in steps.iter().enumerate() {
                let payload = |len: usize| vec![(n % 251) as u8; len];
                match step {
                    Step::Insert(len) => {
                        let record = payload(*len);
                        let rid = mapped.insert(&record).unwrap();
                        prop_assert_eq!(rid, walked.insert_by_walk(&record).unwrap(), "step {}", n);
                        // A reused dead slot can no longer be restored.
                        dead.retain(|(r, _)| *r != rid);
                        live.push((rid, record));
                    }
                    Step::Delete(i) if !live.is_empty() => {
                        let (rid, record) = live.swap_remove(i.index(live.len()));
                        mapped.delete(rid).unwrap();
                        walked.delete(rid).unwrap();
                        dead.push((rid, record));
                    }
                    Step::Update(i, len) if !live.is_empty() => {
                        let at = i.index(live.len());
                        let record = payload(*len);
                        let rid = live[at].0;
                        let (a, b) = (mapped.update(rid, &record), walked.update(rid, &record));
                        prop_assert_eq!(a.is_ok(), b.is_ok());
                        if a.is_ok() {
                            live[at].1 = record;
                        }
                    }
                    Step::Restore(i) if !dead.is_empty() => {
                        let (rid, record) = dead.swap_remove(i.index(dead.len()));
                        let (a, b) = (mapped.restore(rid, &record), walked.restore(rid, &record));
                        prop_assert_eq!(a.is_ok(), b.is_ok());
                        if a.is_ok() {
                            live.push((rid, record));
                        }
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(mapped.data_pages().unwrap(), walked.data_pages().unwrap());
            for (rid, record) in &live {
                prop_assert_eq!(&mapped.get(*rid).unwrap(), record);
            }
            prop_assert_eq!(mapped.len().unwrap(), live.len());
            let _ = std::fs::remove_dir_all(dir_a);
            let _ = std::fs::remove_dir_all(dir_b);
        }
    }
}
