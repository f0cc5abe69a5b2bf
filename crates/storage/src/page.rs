//! Slotted pages: the on-disk unit of the storage layer.
//!
//! Paper §3.1: "Storage services work at byte level and handle the
//! physical specification of non-volatile devices. This includes services
//! for updating and finding data." The slotted-page layout is the
//! classical one: a header, a slot directory growing forward, and record
//! payloads growing backward from the end of the page.
//!
//! Layout (little-endian):
//! ```text
//! [0..2)   slot_count: u16
//! [2..4)   free_end:   u16   (offset one past the last free byte)
//! [4..)    slot directory: per slot { offset: u16, len: u16 }
//! ...      free space
//! [free_end..PAGE_SIZE) record payloads
//! ```
//! A slot with `offset == 0` is dead (page offsets < HEADER_SIZE are
//! impossible for live records). Deleting leaves a dead slot so record ids
//! remain stable; `compact` rewrites payloads to defragment free space.

use std::ops::Range;

use sbdms_kernel::error::{Result, ServiceError};

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Bytes used by the fixed page header.
pub const HEADER_SIZE: usize = 4;

/// Bytes per slot directory entry.
pub const SLOT_SIZE: usize = 4;

/// Identifies a page within a disk file.
pub type PageId = u64;

/// Identifies a record slot within a page.
pub type SlotId = u16;

/// An in-memory page image with slotted-record operations.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Page {
        let mut page = Page {
            data: Box::new([0u8; PAGE_SIZE]),
        };
        page.set_slot_count(0);
        page.set_free_end(PAGE_SIZE as u16);
        page
    }

    /// Wrap an existing page image. Fails if the header is inconsistent.
    pub fn from_bytes(bytes: &[u8]) -> Result<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(ServiceError::Storage(format!(
                "page image must be {PAGE_SIZE} bytes, got {}",
                bytes.len()
            )));
        }
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(bytes);
        let page = Page { data };
        if !page.header_ok() {
            return Err(ServiceError::Storage("corrupt page header".into()));
        }
        Ok(page)
    }

    /// Replace the image in place: `fill` writes raw bytes (a disk read)
    /// into the page's own buffer, then the header is checked where it
    /// lies, with no second copy. An all-zero image (a never-written
    /// page) becomes an empty page, as [`Page::new`]. On an error the
    /// contents are unspecified.
    pub fn load(&mut self, fill: impl FnOnce(&mut [u8]) -> Result<()>) -> Result<()> {
        fill(&mut self.data[..])?;
        if self.header_ok() {
            return Ok(());
        }
        if self.data.iter().all(|&b| b == 0) {
            self.set_free_end(PAGE_SIZE as u16);
            return Ok(());
        }
        Err(ServiceError::Storage("corrupt page header".into()))
    }

    /// Whether the slot directory fits below the payload heap.
    fn header_ok(&self) -> bool {
        let slots = self.slot_count() as usize;
        let free_end = self.free_end() as usize;
        HEADER_SIZE + slots * SLOT_SIZE <= free_end && free_end <= PAGE_SIZE
    }

    /// The raw page image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..]
    }

    /// Number of slots (live + dead).
    pub fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.data[0], self.data[1]])
    }

    fn set_slot_count(&mut self, n: u16) {
        self.data[0..2].copy_from_slice(&n.to_le_bytes());
    }

    fn free_end(&self) -> u16 {
        u16::from_le_bytes([self.data[2], self.data[3]])
    }

    fn set_free_end(&mut self, n: u16) {
        self.data[2..4].copy_from_slice(&n.to_le_bytes());
    }

    fn slot(&self, slot: SlotId) -> Option<(u16, u16)> {
        if slot >= self.slot_count() {
            return None;
        }
        let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
        let offset = u16::from_le_bytes([self.data[base], self.data[base + 1]]);
        let len = u16::from_le_bytes([self.data[base + 2], self.data[base + 3]]);
        Some((offset, len))
    }

    fn set_slot(&mut self, slot: SlotId, offset: u16, len: u16) {
        let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
        self.data[base..base + 2].copy_from_slice(&offset.to_le_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Contiguous free bytes between the slot directory and the payload
    /// heap (compaction may recover more; see [`Page::reclaimable`]).
    pub fn contiguous_free(&self) -> usize {
        let dir_end = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        self.free_end() as usize - dir_end
    }

    /// Bytes held by dead slots, recoverable through [`Page::compact`].
    /// (Shrunk/moved records can strand further bytes that only
    /// [`Page::recoverable_free`] accounts for.)
    pub fn reclaimable(&self) -> usize {
        (0..self.slot_count())
            .filter_map(|s| self.slot(s))
            .filter(|(offset, _)| *offset == 0)
            .map(|(_, len)| len as usize)
            .sum()
    }

    /// Payload bytes of live records.
    pub fn live_payload_bytes(&self) -> usize {
        (0..self.slot_count())
            .filter_map(|s| self.slot(s))
            .filter(|(offset, _)| *offset != 0)
            .map(|(_, len)| len as usize)
            .sum()
    }

    /// Free bytes available after a full compaction: everything that is
    /// not the header, the slot directory, or live payloads.
    pub fn recoverable_free(&self) -> usize {
        let dir_end = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        PAGE_SIZE - dir_end - self.live_payload_bytes()
    }

    /// The longest record [`Page::insert`] accepts: the free bytes a
    /// compaction would leave, less a new slot entry unless a dead slot
    /// can be reused. Exactly `insert`'s acceptance rule.
    pub fn insert_room(&self) -> usize {
        let dead_slot = (0..self.slot_count()).any(|s| matches!(self.slot(s), Some((0, _))));
        let need_dir = if dead_slot { 0 } else { SLOT_SIZE };
        self.recoverable_free().saturating_sub(need_dir)
    }

    /// Number of live records.
    pub fn live_records(&self) -> usize {
        (0..self.slot_count())
            .filter_map(|s| self.slot(s))
            .filter(|(offset, _)| *offset != 0)
            .count()
    }

    /// Fragmentation ratio: reclaimable bytes over total payload bytes
    /// (the §4 monitoring example reads "data fragmentation" from storage
    /// services).
    pub fn fragmentation(&self) -> f64 {
        let reclaimable = self.reclaimable() as f64;
        let used = (PAGE_SIZE - self.free_end() as usize) as f64;
        if used == 0.0 {
            0.0
        } else {
            reclaimable / used
        }
    }

    /// Insert a record, first reusing a dead slot, then appending a new
    /// one. Compacts automatically when fragmented space would satisfy the
    /// request. Returns the slot id.
    pub fn insert(&mut self, record: &[u8]) -> Result<SlotId> {
        if record.len() > u16::MAX as usize {
            return Err(ServiceError::Storage("record larger than 64KiB".into()));
        }
        // Reuse a dead slot if any exists (its directory entry is free).
        let dead_slot = (0..self.slot_count()).find(|s| matches!(self.slot(*s), Some((0, _))));
        let need_dir = if dead_slot.is_some() { 0 } else { SLOT_SIZE };

        if self.contiguous_free() < record.len() + need_dir {
            if self.recoverable_free() >= record.len() + need_dir {
                self.compact();
            } else {
                return Err(ServiceError::Storage("page full".into()));
            }
        }
        if self.contiguous_free() < record.len() + need_dir {
            return Err(ServiceError::Storage("page full".into()));
        }

        let new_end = self.free_end() as usize - record.len();
        self.data[new_end..new_end + record.len()].copy_from_slice(record);
        self.set_free_end(new_end as u16);

        let slot = match dead_slot {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                self.set_slot_count(s + 1);
                s
            }
        };
        self.set_slot(slot, new_end as u16, record.len() as u16);
        Ok(slot)
    }

    /// Read a live record.
    pub fn get(&self, slot: SlotId) -> Result<&[u8]> {
        match self.slot(slot) {
            Some((offset, len)) if offset != 0 => {
                Ok(&self.data[offset as usize..offset as usize + len as usize])
            }
            Some(_) => Err(ServiceError::Storage(format!("slot {slot} is deleted"))),
            None => Err(ServiceError::Storage(format!("slot {slot} out of range"))),
        }
    }

    /// Delete a record; the slot becomes dead (reusable) and its payload
    /// bytes become reclaimable.
    pub fn delete(&mut self, slot: SlotId) -> Result<()> {
        match self.slot(slot) {
            Some((offset, len)) if offset != 0 => {
                self.set_slot(slot, 0, len);
                Ok(())
            }
            Some(_) => Err(ServiceError::Storage(format!("slot {slot} already deleted"))),
            None => Err(ServiceError::Storage(format!("slot {slot} out of range"))),
        }
    }

    /// Put a record back in the dead slot `slot` — the inverse of
    /// [`Page::delete`], so a reverted delete keeps its slot id.
    /// Compacts when fragmented space would satisfy the request.
    pub fn restore(&mut self, slot: SlotId, record: &[u8]) -> Result<()> {
        match self.slot(slot) {
            Some((0, _)) => {}
            Some(_) => return Err(ServiceError::Storage(format!("slot {slot} is live"))),
            None => return Err(ServiceError::Storage(format!("slot {slot} out of range"))),
        }
        if self.contiguous_free() < record.len() {
            if self.recoverable_free() < record.len() {
                return Err(ServiceError::Storage("page full".into()));
            }
            self.compact();
        }
        let new_end = self.free_end() as usize - record.len();
        self.data[new_end..new_end + record.len()].copy_from_slice(record);
        self.set_free_end(new_end as u16);
        self.set_slot(slot, new_end as u16, record.len() as u16);
        Ok(())
    }

    /// Update a record in place when it fits, otherwise delete + reinsert
    /// into the same slot (payload moves, slot id is stable).
    pub fn update(&mut self, slot: SlotId, record: &[u8]) -> Result<()> {
        let (offset, len) = match self.slot(slot) {
            Some((offset, len)) if offset != 0 => (offset, len),
            Some(_) => return Err(ServiceError::Storage(format!("slot {slot} is deleted"))),
            None => return Err(ServiceError::Storage(format!("slot {slot} out of range"))),
        };
        if record.len() <= len as usize {
            let start = offset as usize;
            self.data[start..start + record.len()].copy_from_slice(record);
            // Shrink: dead bytes at the tail of the old payload are lost
            // until compaction; record the new length.
            self.set_slot(slot, offset, record.len() as u16);
            return Ok(());
        }
        // Grow: the record moves. Check feasibility before tombstoning so
        // failure leaves the page untouched (compaction is destructive to
        // the tombstone, so a post-compact rollback would be impossible).
        let after_compact_free =
            self.recoverable_free() + len as usize; // old payload becomes free
        if after_compact_free < record.len() {
            return Err(ServiceError::Storage("page full".into()));
        }
        self.set_slot(slot, 0, len);
        if self.contiguous_free() < record.len() {
            self.compact();
        }
        let new_end = self.free_end() as usize - record.len();
        self.data[new_end..new_end + record.len()].copy_from_slice(record);
        self.set_free_end(new_end as u16);
        self.set_slot(slot, new_end as u16, record.len() as u16);
        Ok(())
    }

    /// Iterate over `(slot, record)` pairs of live records.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> {
        self.records().map(|(s, range)| (s, &self.data[range]))
    }

    /// Iterate over the slot and byte range (in [`Page::as_bytes`]) of
    /// each live record, in slot order.
    pub fn records(&self) -> impl Iterator<Item = (SlotId, Range<usize>)> + '_ {
        (0..self.slot_count()).filter_map(move |s| match self.slot(s) {
            Some((offset, len)) if offset != 0 => {
                Some((s, offset as usize..(offset + len) as usize))
            }
            _ => None,
        })
    }

    /// Rewrite live payloads contiguously at the end of the page,
    /// recovering all reclaimable bytes. Slot ids are preserved.
    pub fn compact(&mut self) {
        let live: Vec<(SlotId, Vec<u8>)> = self
            .iter()
            .map(|(s, rec)| (s, rec.to_vec()))
            .collect();
        let mut end = PAGE_SIZE;
        // Zero the payload region to keep page images deterministic.
        let dir_end = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        for b in &mut self.data[dir_end..] {
            *b = 0;
        }
        for (slot, record) in &live {
            end -= record.len();
            self.data[end..end + record.len()].copy_from_slice(record);
            self.set_slot(*slot, end as u16, record.len() as u16);
        }
        // Re-mark dead slots (zeroing wiped nothing in the directory, but
        // their reclaimable length is now truly gone).
        for s in 0..self.slot_count() {
            if let Some((0, _)) = self.slot(s) {
                self.set_slot(s, 0, 0);
            }
        }
        self.set_free_end(end as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_page_has_full_free_space() {
        let p = Page::new();
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.contiguous_free(), PAGE_SIZE - HEADER_SIZE);
        assert_eq!(p.live_records(), 0);
        assert_eq!(p.fragmentation(), 0.0);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a).unwrap(), b"hello");
        assert_eq!(p.get(b).unwrap(), b"world!");
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut p = Page::new();
        let a = p.insert(b"first").unwrap();
        p.insert(b"second").unwrap();
        p.delete(a).unwrap();
        assert!(p.get(a).is_err());
        assert_eq!(p.live_records(), 1);
        // Reuse the dead slot.
        let c = p.insert(b"third").unwrap();
        assert_eq!(c, a);
        assert_eq!(p.get(c).unwrap(), b"third");
    }

    #[test]
    fn restore_refills_the_dead_slot_only() {
        let mut p = Page::new();
        let a = p.insert(&[7u8; 1500]).unwrap();
        let b = p.insert(&[8u8; 1500]).unwrap();
        assert!(p.restore(b, b"x").is_err(), "live slot");
        assert!(p.restore(9, b"x").is_err(), "out of range");
        p.delete(a).unwrap();
        // Another record passes through the slot, so the free bytes are
        // fragmented: restore has to compact.
        assert_eq!(p.insert(&[9u8; 1000]).unwrap(), a);
        p.delete(a).unwrap();
        assert!(p.contiguous_free() < 1500);
        p.restore(a, &[7u8; 1500]).unwrap();
        assert_eq!(p.get(a).unwrap(), &[7u8; 1500][..]);
        assert_eq!(p.get(b).unwrap(), &[8u8; 1500][..]);
        assert!(p.restore(a, b"x").is_err(), "slot is live again");
    }

    #[test]
    fn double_delete_rejected() {
        let mut p = Page::new();
        let a = p.insert(b"x").unwrap();
        p.delete(a).unwrap();
        assert!(p.delete(a).is_err());
        assert!(p.delete(99).is_err());
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = Page::new();
        let a = p.insert(b"aaaa").unwrap();
        p.update(a, b"bb").unwrap();
        assert_eq!(p.get(a).unwrap(), b"bb");
        p.update(a, b"cccccccc").unwrap();
        assert_eq!(p.get(a).unwrap(), b"cccccccc");
        assert!(p.update(77, b"x").is_err());
    }

    #[test]
    fn page_fills_and_rejects() {
        let mut p = Page::new();
        let record = vec![7u8; 1000];
        let mut inserted = 0;
        while p.insert(&record).is_ok() {
            inserted += 1;
        }
        assert_eq!(inserted, 4); // 4 * 1004 < 4092, 5th doesn't fit
        assert!(p.insert(&record).is_err());
        // But a small record still fits.
        assert!(p.insert(b"tiny").is_ok());
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut p = Page::new();
        let a = p.insert(&vec![1u8; 1500]).unwrap();
        let b = p.insert(&vec![2u8; 1500]).unwrap();
        p.delete(a).unwrap();
        assert!(p.reclaimable() >= 1500);
        // 2000 doesn't fit contiguously but does after compaction; insert
        // triggers it automatically.
        let c = p.insert(&vec![3u8; 2000]).unwrap();
        assert_eq!(p.get(b).unwrap(), &vec![2u8; 1500][..]);
        assert_eq!(p.get(c).unwrap(), &vec![3u8; 2000][..]);
        assert_eq!(p.reclaimable(), 0);
    }

    #[test]
    fn serialisation_roundtrip() {
        let mut p = Page::new();
        p.insert(b"persist me").unwrap();
        let restored = Page::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(restored.get(0).unwrap(), b"persist me");
        assert!(Page::from_bytes(&[0u8; 10]).is_err());
    }

    #[test]
    fn corrupt_header_rejected() {
        let mut bytes = vec![0u8; PAGE_SIZE];
        // slot_count = huge, free_end = 0 -> inconsistent
        bytes[0] = 0xFF;
        bytes[1] = 0xFF;
        assert!(Page::from_bytes(&bytes).is_err());
    }

    #[test]
    fn fragmentation_reported() {
        let mut p = Page::new();
        let a = p.insert(&vec![0u8; 500]).unwrap();
        p.insert(&vec![0u8; 500]).unwrap();
        assert_eq!(p.fragmentation(), 0.0);
        p.delete(a).unwrap();
        assert!(p.fragmentation() > 0.4 && p.fragmentation() <= 0.5);
        p.compact();
        assert_eq!(p.fragmentation(), 0.0);
    }

    proptest! {
        /// Insert/delete/update sequences never corrupt live records.
        #[test]
        fn prop_model_consistency(ops in proptest::collection::vec(
            prop_oneof![
                (1usize..200).prop_map(|n| (0u8, n)),   // insert n bytes
                (0usize..30).prop_map(|i| (1u8, i)),    // delete slot i
                (0usize..30).prop_map(|i| (2u8, i)),    // update slot i
            ],
            0..60,
        )) {
            let mut page = Page::new();
            let mut model: std::collections::HashMap<SlotId, Vec<u8>> =
                std::collections::HashMap::new();
            let mut counter = 0u8;
            for (kind, arg) in ops {
                counter = counter.wrapping_add(1);
                match kind {
                    0 => {
                        let rec = vec![counter; arg];
                        if let Ok(slot) = page.insert(&rec) {
                            model.insert(slot, rec);
                        }
                    }
                    1 => {
                        let slot = arg as SlotId;
                        let expected = model.remove(&slot);
                        let actual = page.delete(slot);
                        prop_assert_eq!(expected.is_some(), actual.is_ok());
                    }
                    _ => {
                        let slot = arg as SlotId;
                        let rec = vec![counter; (arg % 100) + 1];
                        if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(slot) {
                            if page.update(slot, &rec).is_ok() {
                                e.insert(rec);
                            }
                        } else {
                            prop_assert!(page.update(slot, &rec).is_err());
                        }
                    }
                }
                // Every live model record must be readable and equal.
                for (slot, rec) in &model {
                    prop_assert_eq!(page.get(*slot).unwrap(), &rec[..]);
                }
                prop_assert_eq!(page.live_records(), model.len());
            }
            // `insert_room` is exactly insert's acceptance rule.
            let room = page.insert_room();
            prop_assert!(page.clone().insert(&vec![0u8; room]).is_ok());
            prop_assert!(page.clone().insert(&vec![0u8; room + 1]).is_err());
            // Survives a serialisation roundtrip at any point.
            let restored = Page::from_bytes(page.as_bytes()).unwrap();
            for (slot, rec) in &model {
                prop_assert_eq!(restored.get(*slot).unwrap(), &rec[..]);
            }
        }
    }
}
