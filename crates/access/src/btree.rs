//! Page-backed B+tree index over composite keys.
//!
//! Paper §3.1: "Access Services manage ... access path structure, such as
//! B-trees". Each node occupies one slotted page (the serialised node is
//! the page's single record), so all index I/O flows through the buffer
//! pool like every other page access.
//!
//! Keys are *composite*: an ordered tuple of datums, one per indexed
//! column, compared lexicographically component-by-component with
//! [`Datum::order`]. The on-page encoding is the record codec's tuple
//! format (count-prefixed, each datum length-delimited). The tree never
//! compares raw bytes: probes ([`BTree::search`], [`BTree::range`],
//! [`BTree::scan_range`]) walk the node bytes in place on the buffer
//! pool's frame and compare each encoded key against the bound through
//! the borrowed [`DatumRef::order`](crate::record::DatumRef::order), the
//! one comparator behind `Datum::order`, so numeric cross-type order
//! (`2 = 2.0`) and NULL-sorts-first survive composition and nothing is
//! copied or allocated per entry. Only keys a caller keeps (covering
//! scans) are decoded; only insert and delete, which rewrite a node, and
//! the structural [`BTree::validate`] build an owned copy of one.
//! Reading in place keeps the validation contract: every key of every
//! node a probe visits is checked as `decode_tuple` would check it
//! (field count, tags, lengths, UTF-8, no trailing bytes), so a corrupt
//! node is a storage error, never a wrong rid list. A single-column
//! index is simply a composite key of arity one.
//!
//! Entries are `(key, rid)` composites ordered by key then rid, which
//! makes duplicate keys unambiguous: separators in internal nodes carry
//! the rid too, so equal keys never straddle a split boundary ambiguously.
//! Deletion removes entries without rebalancing (underfull nodes are
//! tolerated; classic simplification, noted in DESIGN.md).
//!
//! Search and range bounds may be *prefixes* of the key: a bound of
//! `[a]` against an `(a, b)` index matches every key whose first
//! component equals `a` — the basis of the planner's prefix-range and
//! composite-probe access paths.

use std::cmp::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_storage::buffer::BufferPool;
use sbdms_storage::page::PageId;

use crate::heap::Rid;
use crate::record::{decode_tuple, encode_tuple, for_each_field, Datum};

/// Serialised nodes above this size split. Leaves headroom under the
/// single-record page capacity (~4084 bytes).
const MAX_NODE_BYTES: usize = 3500;

/// How full [`BTree::build`] packs a node: half of [`MAX_NODE_BYTES`],
/// what a split leaves in each half, so a built tree is as dense as one
/// that sequential inserts grew. Denser nodes would save index pages
/// but slow every probe, which validates each key of each node it
/// visits (measured in DESIGN.md §4n).
const BUILD_FILL_BYTES: usize = MAX_NODE_BYTES / 2;

/// Serialised header of either node kind ([`leaf_head`],
/// [`internal_head`]).
const NODE_HEADER_BYTES: usize = 1 + 8 + 2;

/// Lexicographic order of two composite keys: component-by-component
/// [`Datum::order`], a shorter tuple sorting before any extension of it.
pub fn key_order(a: &[Datum], b: &[Datum]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        match x.order(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

/// Order of an *encoded* key (the [`encode_tuple`] bytes on the node)
/// against each of `bounds`, compared in place. One pass over the key
/// validates every field exactly as [`decode_tuple`] would and compares
/// the leading components through
/// [`DatumRef::order`](crate::record::DatumRef::order). Only a bound's
/// own components participate, so `Equal` means "the key starts with
/// the bound": this is what makes a bound of `[5]` select every
/// `(5, _, ...)` key in a multi-column index, and an empty bound match
/// every key.
fn prefix_orders<const N: usize>(key: &[u8], bounds: [&[Datum]; N]) -> Result<[Ordering; N]> {
    let mut ords = [Ordering::Equal; N];
    let fields = for_each_field(key, |i, d| {
        for (ord, bound) in ords.iter_mut().zip(bounds) {
            if *ord == Ordering::Equal {
                if let Some(b) = bound.get(i) {
                    *ord = d.order(&b.as_ref());
                }
            }
        }
    })?;
    for (ord, bound) in ords.iter_mut().zip(bounds) {
        if *ord == Ordering::Equal && fields < bound.len() {
            *ord = Ordering::Less;
        }
    }
    Ok(ords)
}

/// An entry as [`BTree::build`] takes it: composite key and rid.
pub type IndexEntry = (Vec<Datum>, Rid);

/// One index entry: composite key plus the rid it points at.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    key: Vec<Datum>,
    rid: Rid,
}

impl Entry {
    fn cmp(&self, other: &Entry) -> Ordering {
        key_order(&self.key, &other.key).then(self.rid.cmp(&other.rid))
    }
}

enum Node {
    Leaf { entries: Vec<Entry>, next: PageId },
    Internal { seps: Vec<Entry>, children: Vec<PageId> },
}

impl Node {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        match self {
            Node::Leaf { entries, next } => {
                leaf_head(&mut out, *next, entries.len());
                for e in entries {
                    encode_entry(&mut out, e);
                }
            }
            Node::Internal { seps, children } => {
                internal_head(&mut out, seps.len(), children[0]);
                for (e, child) in seps.iter().zip(&children[1..]) {
                    encode_entry(&mut out, e);
                    out.extend_from_slice(&child.to_le_bytes());
                }
            }
        }
        out
    }

    /// Build the owned node a rewrite edits (insert, delete, validate).
    fn decode(data: &[u8]) -> Result<Node> {
        let (head, entries) = parse_node(data)?;
        match head {
            NodeHead::Leaf { next } => Ok(Node::Leaf {
                entries: entries.map(|e| e?.decode()).collect::<Result<_>>()?,
                next,
            }),
            NodeHead::Internal { child0 } => {
                let mut children = vec![child0];
                let mut seps = Vec::new();
                for e in entries {
                    let e = e?;
                    children.push(e.right);
                    seps.push(e.decode()?);
                }
                Ok(Node::Internal { seps, children })
            }
        }
    }
}

/// Start a serialised leaf: tag, next leaf, entry count
/// ([`NODE_HEADER_BYTES`]).
fn leaf_head(out: &mut Vec<u8>, next: PageId, entries: usize) {
    out.push(1);
    out.extend_from_slice(&next.to_le_bytes());
    out.extend_from_slice(&(entries as u16).to_le_bytes());
}

/// Start a serialised internal node: tag, separator count, first child
/// ([`NODE_HEADER_BYTES`]). Each separator follows with the child right
/// of it.
fn internal_head(out: &mut Vec<u8>, seps: usize, child0: PageId) {
    out.push(0);
    out.extend_from_slice(&(seps as u16).to_le_bytes());
    out.extend_from_slice(&child0.to_le_bytes());
}

fn encode_entry(out: &mut Vec<u8>, e: &Entry) {
    encode_raw_entry(out, &encode_tuple(&e.key), e.rid);
}

/// An entry whose key is already encoded: `[klen][key][page][slot]`.
fn encode_raw_entry(out: &mut Vec<u8>, key: &[u8], rid: Rid) {
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&rid.page.to_le_bytes());
    out.extend_from_slice(&rid.slot.to_le_bytes());
}

/// Serialised size of an entry with a `key_len`-byte encoded key.
fn raw_entry_bytes(key_len: usize) -> usize {
    2 + key_len + 8 + 2
}

/// Cut `sizes` (the bytes each item adds to a node) into consecutive
/// groups of at most [`BUILD_FILL_BYTES`] including the header, each
/// of at least `min` items. A last group left short of `min` takes
/// items from its predecessor, or joins it when that one would drop
/// below `min` too.
fn pack(sizes: &[usize], min: usize) -> Vec<std::ops::Range<usize>> {
    let mut groups = Vec::new();
    let (mut start, mut bytes) = (0, NODE_HEADER_BYTES);
    for (i, &size) in sizes.iter().enumerate() {
        if i - start >= min && bytes + size > BUILD_FILL_BYTES {
            groups.push(start..i);
            start = i;
            bytes = NODE_HEADER_BYTES;
        }
        bytes += size;
    }
    groups.push(start..sizes.len());
    if let [.., prev, last] = &mut groups[..] {
        if last.len() < min {
            let want = min - last.len();
            if prev.len() >= min + want {
                prev.end -= want;
                last.start -= want;
            } else {
                prev.end = last.end;
                groups.pop();
            }
        }
    }
    groups
}

/// A serialized node's header, read in place.
enum NodeHead {
    Leaf { next: PageId },
    Internal { child0: PageId },
}

/// One entry of a serialized node, read in place on the page frame:
/// the encoded key (validated by whoever compares or decodes it), the
/// rid, and for an internal node the child right of this separator.
struct RawEntry<'a> {
    key: &'a [u8],
    rid: Rid,
    right: PageId,
}

impl RawEntry<'_> {
    fn decode(&self) -> Result<Entry> {
        Ok(Entry {
            key: decode_tuple(self.key)?,
            rid: self.rid,
        })
    }
}

/// The entries of a serialized node in order (separators, for an
/// internal node), framed in place: one parser behind both the in-place
/// probes and [`Node::decode`].
struct RawEntries<'a> {
    data: &'a [u8],
    pos: usize,
    left: usize,
    internal: bool,
}

impl<'a> RawEntries<'a> {
    fn read(&mut self) -> Result<RawEntry<'a>> {
        let klen = read_u16(self.data, &mut self.pos)? as usize;
        let key = self
            .data
            .get(self.pos..self.pos + klen)
            .ok_or_else(|| ServiceError::Storage("corrupt btree entry".into()))?;
        self.pos += klen;
        let page = read_u64(self.data, &mut self.pos)?;
        let slot = read_u16(self.data, &mut self.pos)?;
        let right = if self.internal {
            read_u64(self.data, &mut self.pos)?
        } else {
            0
        };
        Ok(RawEntry {
            key,
            rid: Rid::new(page, slot),
            right,
        })
    }
}

impl<'a> Iterator for RawEntries<'a> {
    type Item = Result<RawEntry<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let entry = self.read();
        if entry.is_err() {
            self.left = 0;
        }
        Some(entry)
    }
}

fn parse_node(data: &[u8]) -> Result<(NodeHead, RawEntries<'_>)> {
    let corrupt = || ServiceError::Storage("corrupt btree node".into());
    let mut pos = 1usize;
    let (head, count) = match *data.first().ok_or_else(corrupt)? {
        1 => {
            let next = read_u64(data, &mut pos)?;
            (NodeHead::Leaf { next }, read_u16(data, &mut pos)?)
        }
        0 => {
            let count = read_u16(data, &mut pos)?;
            let child0 = read_u64(data, &mut pos)?;
            (NodeHead::Internal { child0 }, count)
        }
        _ => return Err(corrupt()),
    };
    let internal = matches!(head, NodeHead::Internal { .. });
    Ok((
        head,
        RawEntries {
            data,
            pos,
            left: count as usize,
            internal,
        },
    ))
}

/// The child of an internal node to descend into for `bound`: left of
/// the first separator whose key is `>=` the bound (prefix compare), so
/// leftmost duplicates are not skipped. Every separator key is
/// validated, including those after the chosen child.
fn route(child0: PageId, entries: RawEntries<'_>, bound: &[Datum]) -> Result<PageId> {
    let mut child = child0;
    let mut routed = false;
    for e in entries {
        let e = e?;
        let [ord] = prefix_orders(e.key, [bound])?;
        if !routed {
            if ord == Ordering::Less {
                child = e.right;
            } else {
                routed = true;
            }
        }
    }
    Ok(child)
}

fn read_u64(data: &[u8], pos: &mut usize) -> Result<u64> {
    let bytes = data
        .get(*pos..*pos + 8)
        .ok_or_else(|| ServiceError::Storage("corrupt btree node".into()))?;
    *pos += 8;
    Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
}

fn read_u16(data: &[u8], pos: &mut usize) -> Result<u16> {
    let bytes = data
        .get(*pos..*pos + 2)
        .ok_or_else(|| ServiceError::Storage("corrupt btree node".into()))?;
    *pos += 2;
    Ok(u16::from_le_bytes(bytes.try_into().unwrap()))
}

/// A persistent B+tree mapping composite datum keys to rids (duplicates
/// allowed).
pub struct BTree {
    buffer: Arc<BufferPool>,
    meta_page: PageId,
    /// Cached root id; the authoritative copy lives in the meta page.
    root: Mutex<PageId>,
}

impl BTree {
    /// Create an empty index; returns it with a fresh meta page (persist
    /// [`BTree::meta_page`] to reopen).
    pub fn create(buffer: Arc<BufferPool>) -> Result<BTree> {
        let root = buffer.new_page()?;
        Self::write_node(
            &buffer,
            root,
            &Node::Leaf {
                entries: Vec::new(),
                next: 0,
            },
            true,
        )?;
        let meta_page = buffer.new_page()?;
        buffer.try_with_page_mut(meta_page, |p| p.insert(&root.to_le_bytes()))?;
        Ok(BTree {
            buffer,
            meta_page,
            root: Mutex::new(root),
        })
    }

    /// Build an index over `entries` bottom-up: sort them by (key, rid),
    /// drop exact duplicates, pack leaves left to right to
    /// [`BUILD_FILL_BYTES`], then build each internal level over the
    /// one below, separating children by their first entries. Every
    /// node is written once, where inserting the entries one by one
    /// would rewrite each node on the path per entry. The result is a
    /// tree like any other: later inserts and deletes work on it as
    /// usual.
    pub fn build(buffer: Arc<BufferPool>, mut entries: Vec<IndexEntry>) -> Result<BTree> {
        entries.sort_by(|a, b| key_order(&a.0, &b.0).then(a.1.cmp(&b.1)));
        entries.dedup_by(|a, b| a.1 == b.1 && key_order(&a.0, &b.0) == Ordering::Equal);
        if entries.is_empty() {
            return BTree::create(buffer);
        }
        let entries: Vec<(Vec<u8>, Rid)> = entries
            .into_iter()
            .map(|(key, rid)| (encode_tuple(&key), rid))
            .collect();

        // Leaves: each `(first entry index, page)` feeds the level above.
        let sizes: Vec<usize> = entries.iter().map(|(k, _)| raw_entry_bytes(k.len())).collect();
        let groups = pack(&sizes, 1);
        let pages = (0..groups.len())
            .map(|_| buffer.new_page())
            .collect::<Result<Vec<PageId>>>()?;
        let mut level: Vec<(usize, PageId)> = Vec::with_capacity(groups.len());
        for (n, range) in groups.into_iter().enumerate() {
            let next = pages.get(n + 1).copied().unwrap_or(0);
            let mut out = Vec::with_capacity(BUILD_FILL_BYTES);
            leaf_head(&mut out, next, range.len());
            for i in range.clone() {
                encode_raw_entry(&mut out, &entries[i].0, entries[i].1);
            }
            write_fresh(&buffer, pages[n], &out)?;
            level.push((range.start, pages[n]));
        }

        // Internal levels until one node remains: each child past a
        // node's first is separated by its first entry. (Sizing counts
        // a node's first child as a separator too, so internal nodes
        // stay a little under the fill.)
        while level.len() > 1 {
            let sizes: Vec<usize> = level
                .iter()
                .map(|&(first, _)| raw_entry_bytes(entries[first].0.len()) + 8)
                .collect();
            let mut above = Vec::new();
            for range in pack(&sizes, 2) {
                let children = &level[range];
                let mut out = Vec::with_capacity(BUILD_FILL_BYTES);
                internal_head(&mut out, children.len() - 1, children[0].1);
                for &(first, child) in &children[1..] {
                    encode_raw_entry(&mut out, &entries[first].0, entries[first].1);
                    out.extend_from_slice(&child.to_le_bytes());
                }
                let page = buffer.new_page()?;
                write_fresh(&buffer, page, &out)?;
                above.push((children[0].0, page));
            }
            level = above;
        }
        let root = level[0].1;
        let meta_page = buffer.new_page()?;
        buffer.try_with_page_mut(meta_page, |p| p.insert(&root.to_le_bytes()))?;
        Ok(BTree {
            buffer,
            meta_page,
            root: Mutex::new(root),
        })
    }

    /// Open an existing index rooted at `meta_page`.
    pub fn open(buffer: Arc<BufferPool>, meta_page: PageId) -> Result<BTree> {
        let root = buffer.with_page(meta_page, |p| {
            p.get(0)
                .ok()
                .and_then(|b| b.try_into().ok().map(u64::from_le_bytes))
        })?;
        let root = root.ok_or_else(|| ServiceError::Storage("corrupt index meta page".into()))?;
        Ok(BTree {
            buffer,
            meta_page,
            root: Mutex::new(root),
        })
    }

    /// The meta page id to persist for [`BTree::open`].
    pub fn meta_page(&self) -> PageId {
        self.meta_page
    }

    /// Insert an entry (duplicate keys allowed; the (key, rid) pair must
    /// be unique, duplicates of the exact pair are ignored).
    pub fn insert(&self, key: &[Datum], rid: Rid) -> Result<()> {
        let root_guard = self.root.lock();
        let root = *root_guard;
        drop(root_guard);
        let entry = Entry {
            key: key.to_vec(),
            rid,
        };
        if let Some((sep, new_right)) = self.insert_rec(root, &entry)? {
            // Root split: grow the tree by one level.
            let new_root = self.buffer.new_page()?;
            Self::write_node(
                &self.buffer,
                new_root,
                &Node::Internal {
                    seps: vec![sep],
                    children: vec![root, new_right],
                },
                true,
            )?;
            *self.root.lock() = new_root;
            self.buffer
                .try_with_page_mut(self.meta_page, |p| p.update(0, &new_root.to_le_bytes()))?;
        }
        Ok(())
    }

    /// All rids stored under `key`. The key may be a *prefix* of the
    /// index key: `search(&[a])` on an `(a, b)` index returns every rid
    /// whose first component equals `a`.
    pub fn search(&self, key: &[Datum]) -> Result<Vec<Rid>> {
        let mut out = Vec::new();
        self.scan_range(Some(key), Some(key), true, true, |_, rid| {
            out.push(rid);
            Ok(())
        })?;
        Ok(out)
    }

    /// Range scan over composite keys. Bounds may be key *prefixes*:
    /// a bound compares only its own components, so `lo = [5]` starts at
    /// the first `(5, ...)` key and `hi = [5]` (inclusive) ends after the
    /// last one. `lo_inclusive` / `hi_inclusive` decide whether keys
    /// prefix-equal to the bound are kept. Returns `(key, rid)` pairs in
    /// key order — the key tuples feed covering index-only scans.
    pub fn range(
        &self,
        lo: Option<&[Datum]>,
        hi: Option<&[Datum]>,
        lo_inclusive: bool,
        hi_inclusive: bool,
    ) -> Result<Vec<(Vec<Datum>, Rid)>> {
        let mut out = Vec::new();
        self.scan_range(lo, hi, lo_inclusive, hi_inclusive, |key, rid| {
            out.push((decode_tuple(key)?, rid));
            Ok(())
        })?;
        Ok(out)
    }

    /// The entries of [`BTree::range`] in key order, handed to `visit`
    /// as `(encoded key, rid)` straight from the page frame: keys are
    /// compared in place and decoded only by a visitor that keeps them.
    /// Every key of every node visited is validated as [`decode_tuple`]
    /// would, so a corrupt node is a storage error, never a wrong
    /// answer. `visit` runs under the leaf's frame latch and must not
    /// touch the buffer pool.
    pub fn scan_range(
        &self,
        lo: Option<&[Datum]>,
        hi: Option<&[Datum]>,
        lo_inclusive: bool,
        hi_inclusive: bool,
        mut visit: impl FnMut(&[u8], Rid) -> Result<()>,
    ) -> Result<()> {
        let (mut page, _) = self.descend(lo.unwrap_or(&[]))?;
        let bounds = [lo.unwrap_or(&[]), hi.unwrap_or(&[])];
        loop {
            let next = self.buffer.with_page(page, |p| -> Result<Option<PageId>> {
                let (NodeHead::Leaf { next }, entries) = parse_node(p.get(0)?)? else {
                    return Err(ServiceError::Storage("expected leaf".into()));
                };
                let mut past_hi = false;
                for e in entries {
                    let e = e?;
                    let [lo_ord, hi_ord] = prefix_orders(e.key, bounds)?;
                    if past_hi {
                        continue; // still validated
                    }
                    let below_lo = lo.is_some()
                        && (lo_ord == Ordering::Less || (lo_ord == Ordering::Equal && !lo_inclusive));
                    past_hi = hi.is_some()
                        && (hi_ord == Ordering::Greater
                            || (hi_ord == Ordering::Equal && !hi_inclusive));
                    if !below_lo && !past_hi {
                        visit(e.key, e.rid)?;
                    }
                }
                Ok((!past_hi && next != 0).then_some(next))
            })??;
            match next {
                Some(next) => page = next,
                None => return Ok(()),
            }
        }
    }

    /// Remove one `(key, rid)` entry (full key). Returns whether it
    /// existed.
    pub fn delete(&self, key: &[Datum], rid: Rid) -> Result<bool> {
        let target = Entry {
            key: key.to_vec(),
            rid,
        };
        let (mut page, _) = self.descend(key)?;
        loop {
            let node = self.read_node(page)?;
            let Node::Leaf { mut entries, next } = node else {
                return Err(ServiceError::Storage("expected leaf".into()));
            };
            if let Some(idx) = entries.iter().position(|e| e.cmp(&target) == Ordering::Equal) {
                entries.remove(idx);
                Self::write_node(&self.buffer, page, &Node::Leaf { entries, next }, false)?;
                return Ok(true);
            }
            // Entry may live in a later leaf when duplicates span nodes.
            let continue_scan = entries
                .last()
                .map(|e| key_order(&e.key, key) != Ordering::Greater)
                .unwrap_or(true);
            if !continue_scan || next == 0 {
                return Ok(false);
            }
            page = next;
        }
    }

    /// Total number of entries (full leaf walk).
    pub fn len(&self) -> Result<usize> {
        let mut n = 0;
        self.scan_range(None, None, true, true, |_, _| {
            n += 1;
            Ok(())
        })?;
        Ok(n)
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Tree height (1 = just a leaf). Useful for experiments and tests.
    pub fn height(&self) -> Result<usize> {
        Ok(self.descend(&[])?.1)
    }

    /// Structural validation, for crash-recovery checks: every node
    /// decodes, entries are sorted within nodes and bounded by their
    /// parent separators, all leaves sit at the same depth, and the leaf
    /// sibling chain visits exactly the leaves of the tree in order.
    pub fn validate(&self) -> Result<()> {
        let root = *self.root.lock();
        let mut leaves: Vec<(PageId, PageId)> = Vec::new();
        self.validate_rec(root, None, None, &mut leaves)?;
        for pair in leaves.windows(2) {
            if pair[0].1 != pair[1].0 {
                return Err(ServiceError::Storage(format!(
                    "btree leaf chain broken: leaf {} links to {}, expected {}",
                    pair[0].0, pair[0].1, pair[1].0
                )));
            }
        }
        if let Some(&(last, next)) = leaves.last() {
            if next != 0 {
                return Err(ServiceError::Storage(format!(
                    "btree leaf chain unterminated: last leaf {last} links to {next}"
                )));
            }
        }
        Ok(())
    }

    /// Returns the subtree depth; collects `(leaf page, next)` pairs
    /// left-to-right. `lo`/`hi` are the separator bounds inherited from
    /// ancestors: every entry must satisfy `lo <= e < hi`.
    fn validate_rec(
        &self,
        page: PageId,
        lo: Option<&Entry>,
        hi: Option<&Entry>,
        leaves: &mut Vec<(PageId, PageId)>,
    ) -> Result<usize> {
        let in_bounds = |e: &Entry| {
            lo.map(|b| b.cmp(e) != Ordering::Greater).unwrap_or(true)
                && hi.map(|b| e.cmp(b) == Ordering::Less).unwrap_or(true)
        };
        let sorted = |entries: &[Entry]| {
            entries
                .windows(2)
                .all(|w| w[0].cmp(&w[1]) == Ordering::Less)
        };
        match self.read_node(page)? {
            Node::Leaf { entries, next } => {
                if !sorted(&entries) {
                    return Err(ServiceError::Storage(format!(
                        "btree leaf {page}: entries out of order"
                    )));
                }
                if !entries.iter().all(in_bounds) {
                    return Err(ServiceError::Storage(format!(
                        "btree leaf {page}: entry violates separator bounds"
                    )));
                }
                leaves.push((page, next));
                Ok(1)
            }
            Node::Internal { seps, children } => {
                if children.len() != seps.len() + 1 || seps.is_empty() {
                    return Err(ServiceError::Storage(format!(
                        "btree node {page}: {} separators / {} children",
                        seps.len(),
                        children.len()
                    )));
                }
                if !sorted(&seps) || !seps.iter().all(in_bounds) {
                    return Err(ServiceError::Storage(format!(
                        "btree node {page}: separators out of order or out of bounds"
                    )));
                }
                let mut depth = None;
                for (i, &child) in children.iter().enumerate() {
                    let child_lo = if i == 0 { lo } else { Some(&seps[i - 1]) };
                    let child_hi = if i == seps.len() { hi } else { Some(&seps[i]) };
                    let d = self.validate_rec(child, child_lo, child_hi, leaves)?;
                    if *depth.get_or_insert(d) != d {
                        return Err(ServiceError::Storage(format!(
                            "btree node {page}: leaves at unequal depth"
                        )));
                    }
                }
                Ok(depth.unwrap_or(0) + 1)
            }
        }
    }

    fn insert_rec(&self, page: PageId, entry: &Entry) -> Result<Option<(Entry, PageId)>> {
        match self.read_node(page)? {
            Node::Leaf { mut entries, next } => {
                match entries.binary_search_by(|e| e.cmp(entry)) {
                    Ok(_) => return Ok(None), // exact duplicate: idempotent
                    Err(idx) => entries.insert(idx, entry.clone()),
                }
                let node = Node::Leaf { entries, next };
                if node.encode().len() <= MAX_NODE_BYTES {
                    Self::write_node(&self.buffer, page, &node, false)?;
                    return Ok(None);
                }
                // Split the leaf.
                let Node::Leaf { mut entries, next } = node else {
                    unreachable!()
                };
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0].clone();
                let right_page = self.buffer.new_page()?;
                Self::write_node(
                    &self.buffer,
                    right_page,
                    &Node::Leaf {
                        entries: right_entries,
                        next,
                    },
                    true,
                )?;
                Self::write_node(
                    &self.buffer,
                    page,
                    &Node::Leaf {
                        entries,
                        next: right_page,
                    },
                    false,
                )?;
                Ok(Some((sep, right_page)))
            }
            Node::Internal { mut seps, mut children } => {
                let idx = seps.partition_point(|s| s.cmp(entry) != Ordering::Greater);
                let child = children[idx];
                let Some((sep, new_child)) = self.insert_rec(child, entry)? else {
                    return Ok(None);
                };
                seps.insert(idx, sep);
                children.insert(idx + 1, new_child);
                let node = Node::Internal { seps, children };
                if node.encode().len() <= MAX_NODE_BYTES {
                    Self::write_node(&self.buffer, page, &node, false)?;
                    return Ok(None);
                }
                // Split the internal node: middle separator moves up.
                let Node::Internal { mut seps, mut children } = node else {
                    unreachable!()
                };
                let mid = seps.len() / 2;
                let up = seps[mid].clone();
                let right_seps = seps.split_off(mid + 1);
                seps.pop(); // `up` moves to the parent
                let right_children = children.split_off(mid + 1);
                let right_page = self.buffer.new_page()?;
                Self::write_node(
                    &self.buffer,
                    right_page,
                    &Node::Internal {
                        seps: right_seps,
                        children: right_children,
                    },
                    true,
                )?;
                Self::write_node(&self.buffer, page, &Node::Internal { seps, children }, false)?;
                Ok(Some((up, right_page)))
            }
        }
    }

    /// Walk from the root to the leaf that may contain the *leftmost*
    /// key starting with `bound` (the leftmost leaf for an empty bound),
    /// reading each internal node in place. Returns the leaf and the
    /// number of levels walked (the tree height).
    fn descend(&self, bound: &[Datum]) -> Result<(PageId, usize)> {
        let mut page = *self.root.lock();
        let mut height = 1;
        loop {
            let child = self.buffer.with_page(page, |p| -> Result<Option<PageId>> {
                match parse_node(p.get(0)?)? {
                    (NodeHead::Leaf { .. }, _) => Ok(None),
                    (NodeHead::Internal { child0 }, seps) => route(child0, seps, bound).map(Some),
                }
            })??;
            match child {
                Some(child) => {
                    page = child;
                    height += 1;
                }
                None => return Ok((page, height)),
            }
        }
    }

    /// The owned node at `page`, for the paths that rewrite a node
    /// (insert, delete) and for structural validation.
    fn read_node(&self, page: PageId) -> Result<Node> {
        self.buffer.with_page(page, |p| Node::decode(p.get(0)?))?
    }

    fn write_node(buffer: &BufferPool, page: PageId, node: &Node, fresh: bool) -> Result<()> {
        let bytes = node.encode();
        if fresh {
            return write_fresh(buffer, page, &bytes);
        }
        buffer.try_with_page_mut(page, |p| p.update(0, &bytes))
    }
}

/// Write serialised node bytes as the single record of a new page.
fn write_fresh(buffer: &BufferPool, page: PageId, bytes: &[u8]) -> Result<()> {
    buffer.try_with_page_mut(page, |p| p.insert(bytes).map(|_| ()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sbdms_storage::services::StorageEngine;

    fn btree(name: &str) -> BTree {
        let dir = std::env::temp_dir()
            .join("sbdms-btree-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, 64).unwrap();
        BTree::create(engine.buffer).unwrap()
    }

    fn rid(n: u64) -> Rid {
        Rid::new(n, (n % 100) as u16)
    }

    fn k1(v: i64) -> Vec<Datum> {
        vec![Datum::Int(v)]
    }

    #[test]
    fn insert_and_search() {
        let t = btree("basic");
        t.insert(&k1(5), rid(1)).unwrap();
        t.insert(&k1(3), rid(2)).unwrap();
        t.insert(&k1(7), rid(3)).unwrap();
        assert_eq!(t.search(&k1(3)).unwrap(), vec![rid(2)]);
        assert_eq!(t.search(&k1(5)).unwrap(), vec![rid(1)]);
        assert!(t.search(&k1(4)).unwrap().is_empty());
        assert_eq!(t.len().unwrap(), 3);
    }

    #[test]
    fn duplicate_keys_supported() {
        let t = btree("dups");
        for i in 0..10 {
            t.insert(&k1(42), rid(i)).unwrap();
        }
        let found = t.search(&k1(42)).unwrap();
        assert_eq!(found.len(), 10);
        // Exact duplicate (key, rid) is idempotent.
        t.insert(&k1(42), rid(0)).unwrap();
        assert_eq!(t.search(&k1(42)).unwrap().len(), 10);
    }

    #[test]
    fn splits_grow_the_tree() {
        let t = btree("split");
        for i in 0..2000i64 {
            t.insert(&k1(i), rid(i as u64)).unwrap();
        }
        assert!(t.height().unwrap() >= 2, "2000 entries must split");
        assert_eq!(t.len().unwrap(), 2000);
        for i in (0..2000i64).step_by(97) {
            assert_eq!(t.search(&k1(i)).unwrap(), vec![rid(i as u64)]);
        }
    }

    #[test]
    fn reverse_and_random_insert_orders() {
        let t = btree("orders");
        let mut keys: Vec<i64> = (0..1000).collect();
        // Deterministic shuffle.
        for i in 0..keys.len() {
            let j = (i * 7919) % keys.len();
            keys.swap(i, j);
        }
        for &k in &keys {
            t.insert(&k1(k), rid(k as u64)).unwrap();
        }
        let all = t.range(None, None, true, true).unwrap();
        assert_eq!(all.len(), 1000);
        // Range output is sorted.
        for w in all.windows(2) {
            assert_ne!(key_order(&w[0].0, &w[1].0), Ordering::Greater);
        }
    }

    #[test]
    fn range_bounds() {
        let t = btree("range");
        for i in 0..100i64 {
            t.insert(&k1(i), rid(i as u64)).unwrap();
        }
        let r = t
            .range(Some(&k1(10)), Some(&k1(20)), true, true)
            .unwrap();
        assert_eq!(r.len(), 11);
        assert_eq!(r[0].0, k1(10));
        assert_eq!(r[10].0, k1(20));

        let r = t
            .range(Some(&k1(10)), Some(&k1(20)), true, false)
            .unwrap();
        assert_eq!(r.len(), 10);

        // Exclusive lower bound: 10 < x <= 20.
        let r = t
            .range(Some(&k1(10)), Some(&k1(20)), false, true)
            .unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].0, k1(11));

        let r = t.range(None, Some(&k1(5)), true, true).unwrap();
        assert_eq!(r.len(), 6);
        let r = t.range(Some(&k1(95)), None, true, true).unwrap();
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn composite_keys_order_and_probe() {
        let t = btree("composite");
        // (region, score) pairs; several rows per region.
        for region in 0..20i64 {
            for score in 0..30i64 {
                t.insert(
                    &[Datum::Int(region), Datum::Int(score)],
                    rid((region * 100 + score) as u64),
                )
                .unwrap();
            }
        }
        assert_eq!(t.len().unwrap(), 600);
        assert!(t.height().unwrap() >= 2, "600 two-column entries split");

        // Full-key probe: exactly one row.
        assert_eq!(
            t.search(&[Datum::Int(7), Datum::Int(13)]).unwrap(),
            vec![rid(713)]
        );
        // Prefix probe: the whole region.
        assert_eq!(t.search(&[Datum::Int(7)]).unwrap().len(), 30);

        // Prefix range: region 7, score in [10, 20).
        let r = t
            .range(
                Some(&[Datum::Int(7), Datum::Int(10)]),
                Some(&[Datum::Int(7), Datum::Int(20)]),
                true,
                false,
            )
            .unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].0, vec![Datum::Int(7), Datum::Int(10)]);

        // Prefix-only bounds: everything in regions [3, 5].
        let r = t
            .range(Some(&[Datum::Int(3)]), Some(&[Datum::Int(5)]), true, true)
            .unwrap();
        assert_eq!(r.len(), 90);
        // Exclusive prefix hi bound stops before region 5.
        let r = t
            .range(Some(&[Datum::Int(3)]), Some(&[Datum::Int(5)]), true, false)
            .unwrap();
        assert_eq!(r.len(), 60);
    }

    #[test]
    fn composite_keys_with_nulls() {
        let t = btree("composite-null");
        t.insert(&[Datum::Null, Datum::Int(1)], rid(1)).unwrap();
        t.insert(&[Datum::Int(1), Datum::Null], rid(2)).unwrap();
        t.insert(&[Datum::Int(1), Datum::Int(0)], rid(3)).unwrap();
        t.insert(&[Datum::Int(2), Datum::Int(0)], rid(4)).unwrap();
        // NULL sorts first in each component.
        let all = t.range(None, None, true, true).unwrap();
        let keys: Vec<Vec<Datum>> = all.into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                vec![Datum::Null, Datum::Int(1)],
                vec![Datum::Int(1), Datum::Null],
                vec![Datum::Int(1), Datum::Int(0)],
                vec![Datum::Int(2), Datum::Int(0)],
            ]
        );
        // Probing the NULL prefix finds the NULL-keyed entry (index
        // maintenance stores NULLs; SQL-level filters exclude them).
        assert_eq!(t.search(&[Datum::Null]).unwrap(), vec![rid(1)]);
        // Delete with a full composite key.
        assert!(t.delete(&[Datum::Int(1), Datum::Null], rid(2)).unwrap());
        assert_eq!(t.len().unwrap(), 3);
    }

    #[test]
    fn mixed_type_composite_keys() {
        let t = btree("composite-mixed");
        for (i, name) in ["ash", "birch", "cedar", "fir"].iter().enumerate() {
            t.insert(&[Datum::Str(name.to_string()), Datum::Int(i as i64)], rid(i as u64))
                .unwrap();
        }
        assert_eq!(
            t.search(&[Datum::Str("cedar".into())]).unwrap(),
            vec![rid(2)]
        );
        let r = t
            .range(
                Some(&[Datum::Str("birch".into())]),
                Some(&[Datum::Str("cedar".into())]),
                true,
                true,
            )
            .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn string_keys() {
        let t = btree("strings");
        for name in ["mercury", "venus", "earth", "mars", "jupiter"] {
            t.insert(&[Datum::Str(name.into())], rid(name.len() as u64))
                .unwrap();
        }
        assert_eq!(
            t.search(&[Datum::Str("earth".into())]).unwrap(),
            vec![rid(5)]
        );
        let r = t
            .range(
                Some(&[Datum::Str("earth".into())]),
                Some(&[Datum::Str("mercury".into())]),
                true,
                true,
            )
            .unwrap();
        let keys: Vec<String> = r.iter().map(|(k, _)| k[0].to_string()).collect();
        assert_eq!(keys, vec!["earth", "jupiter", "mars", "mercury"]);
    }

    #[test]
    fn delete_specific_entries() {
        let t = btree("delete");
        for i in 0..50i64 {
            t.insert(&k1(i % 10), rid(i as u64)).unwrap();
        }
        assert_eq!(t.search(&k1(3)).unwrap().len(), 5);
        assert!(t.delete(&k1(3), rid(3)).unwrap());
        assert_eq!(t.search(&k1(3)).unwrap().len(), 4);
        assert!(!t.delete(&k1(3), rid(3)).unwrap(), "already gone");
        assert!(!t.delete(&k1(99), rid(0)).unwrap(), "never existed");
        assert_eq!(t.len().unwrap(), 49);
    }

    #[test]
    fn validate_accepts_live_trees() {
        let t = btree("validate-ok");
        t.validate().unwrap(); // empty tree
        for i in 0..2000i64 {
            t.insert(&k1(i), rid(i as u64)).unwrap();
        }
        assert!(t.height().unwrap() >= 2);
        t.validate().unwrap();
        for i in (0..2000i64).step_by(3) {
            t.delete(&k1(i), rid(i as u64)).unwrap();
        }
        t.validate().unwrap();
    }

    #[test]
    fn validate_rejects_corrupt_root() {
        let dir = std::env::temp_dir()
            .join("sbdms-btree-tests")
            .join(format!("validate-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, 64).unwrap();
        let t = BTree::create(engine.buffer.clone()).unwrap();
        for i in 0..100i64 {
            t.insert(&k1(i), rid(i as u64)).unwrap();
        }
        // Clobber the root node's record with garbage.
        let root = {
            let meta = t.meta_page();
            engine
                .buffer
                .with_page(meta, |p| {
                    u64::from_le_bytes(p.get(0).unwrap().try_into().unwrap())
                })
                .unwrap()
        };
        engine
            .buffer
            .try_with_page_mut(root, |p| p.update(0, &[9u8; 16]))
            .unwrap();
        assert!(t.validate().is_err());
    }

    #[test]
    fn persists_across_reopen() {
        let dir = std::env::temp_dir()
            .join("sbdms-btree-tests")
            .join(format!("reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, 64).unwrap();
        let buffer = engine.buffer.clone();

        let meta = {
            let t = BTree::create(buffer.clone()).unwrap();
            for i in 0..500i64 {
                t.insert(&k1(i), rid(i as u64)).unwrap();
            }
            buffer.flush_all().unwrap();
            t.meta_page()
        };
        let t = BTree::open(buffer, meta).unwrap();
        assert_eq!(t.len().unwrap(), 500);
        assert_eq!(t.search(&k1(123)).unwrap(), vec![rid(123)]);
    }

    #[test]
    fn large_string_keys_split_correctly() {
        let t = btree("bigkeys");
        for i in 0..200 {
            let key = format!("{:03}-{}", i, "k".repeat(200));
            t.insert(&[Datum::Str(key)], rid(i)).unwrap();
        }
        assert!(t.height().unwrap() >= 2);
        assert_eq!(t.len().unwrap(), 200);
        let key = format!("{:03}-{}", 150, "k".repeat(200));
        assert_eq!(t.search(&[Datum::Str(key)]).unwrap(), vec![rid(150)]);
    }

    /// The owned-datum comparator the in-place [`prefix_orders`] must
    /// agree with: component-by-component [`Datum::order`] over the
    /// bound's own components, a key shorter than the bound sorting
    /// first.
    fn prefix_order(key: &[Datum], bound: &[Datum]) -> Ordering {
        for (x, y) in key.iter().zip(bound.iter()) {
            match x.order(y) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        if key.len() < bound.len() {
            Ordering::Less
        } else {
            Ordering::Equal
        }
    }

    /// Datums biased toward the comparator's edges: NULL, equal Int and
    /// Float values, both zeros, and multibyte UTF-8.
    fn edge_datum() -> impl Strategy<Value = Datum> {
        prop_oneof![
            Just(Datum::Null),
            any::<bool>().prop_map(Datum::Bool),
            (-3i64..3).prop_map(Datum::Int),
            (-3i64..3).prop_map(|i| Datum::Float(i as f64)),
            Just(Datum::Float(0.0)),
            Just(Datum::Float(-0.0)),
            (-1e3f64..1e3).prop_map(Datum::Float),
            any::<i64>().prop_map(Datum::Int),
            (0usize..8).prop_map(|i| {
                let s = ["", "a", "ab", "é", "日本", "日本語", "\u{1F600}", "z"][i];
                Datum::Str(s.to_string())
            }),
        ]
    }

    /// The rid lists a probe may return once a node on its path is
    /// damaged: none. Every key of every visited node is validated.
    #[test]
    fn damaged_keys_on_the_probe_path_are_storage_errors() {
        let dir = std::env::temp_dir()
            .join("sbdms-btree-tests")
            .join(format!("damaged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, 256).unwrap();
        let t = BTree::create(engine.buffer.clone()).unwrap();
        let key = |i: i64| vec![Datum::Int(i), Datum::Str(format!("name-{i:05}-{}", "x".repeat(40)))];
        for i in 0..6000i64 {
            t.insert(&key(i), rid(i as u64)).unwrap();
        }
        assert!(t.height().unwrap() >= 3, "the probe must cross internal levels");
        let probe = [Datum::Int(4321)];
        let want = t.search(&probe).unwrap();
        assert_eq!(want, vec![rid(4321)]);

        // The pages the probe visits, root to leaf.
        let mut path = Vec::new();
        let mut page = *t.root.lock();
        loop {
            path.push(page);
            match t.read_node(page).unwrap() {
                Node::Leaf { .. } => break,
                Node::Internal { seps, children } => {
                    let idx = seps.partition_point(|s| prefix_order(&s.key, &probe) == Ordering::Less);
                    page = children[idx];
                }
            }
        }
        // Each way of damaging one key's bytes, as (node bytes, key
        // offset, key length) -> damaged node bytes.
        type Damage = fn(&[u8], usize, usize) -> Vec<u8>;
        let damages: [(&str, Damage); 5] = [
            ("bad tag", |n, at, _| {
                let mut n = n.to_vec();
                n[at + 2] = 0xEE; // first field's tag
                n
            }),
            ("field count too high", |n, at, _| {
                let mut n = n.to_vec();
                n[at] += 1;
                n
            }),
            ("truncated key", |n, at, klen| {
                let mut out = n[..at - 2].to_vec();
                out.extend_from_slice(&((klen - 1) as u16).to_le_bytes());
                out.extend_from_slice(&n[at..at + klen - 1]);
                out.extend_from_slice(&n[at + klen..]);
                out
            }),
            ("trailing byte", |n, at, klen| {
                let mut out = n[..at - 2].to_vec();
                out.extend_from_slice(&((klen + 1) as u16).to_le_bytes());
                out.extend_from_slice(&n[at..at + klen]);
                out.push(0);
                out.extend_from_slice(&n[at + klen..]);
                out
            }),
            ("invalid UTF-8", |n, at, klen| {
                let mut n = n.to_vec();
                n[at + klen - 1] = 0xFF; // last byte of the string field
                n
            }),
        ];
        for &page in &path {
            let pristine = engine.buffer.with_page(page, |p| p.get(0).unwrap().to_vec()).unwrap();
            let (_, entries) = parse_node(&pristine).unwrap();
            let offsets: Vec<(usize, usize)> = entries
                .map(|e| {
                    let e = e.unwrap();
                    (e.key.as_ptr() as usize - pristine.as_ptr() as usize, e.key.len())
                })
                .collect();
            let picks = [0, offsets.len() / 2, offsets.len() - 1];
            for &i in &picks {
                let (at, klen) = offsets[i];
                for (what, damage) in &damages {
                    let damaged = damage(&pristine, at, klen);
                    engine
                        .buffer
                        .try_with_page_mut(page, |p| p.update(0, &damaged))
                        .unwrap();
                    match t.search(&probe) {
                        Err(ServiceError::Storage(_)) => {}
                        other => panic!("{what} on key {i} of page {page}: got {other:?}"),
                    }
                    assert!(t.range(Some(&probe), Some(&probe), true, true).is_err());
                }
                engine
                    .buffer
                    .try_with_page_mut(page, |p| p.update(0, &pristine))
                    .unwrap();
            }
        }
        assert_eq!(t.search(&probe).unwrap(), want, "restored tree answers again");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_matches_btreemap_model(
            keys in proptest::collection::vec(-500i64..500, 1..400),
            deletions in proptest::collection::vec(any::<prop::sample::Index>(), 0..50),
        ) {
            let dir = std::env::temp_dir().join("sbdms-btree-tests").join(format!(
                "prop-{}-{:x}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let engine = StorageEngine::open(&dir, 32).unwrap();
            let t = BTree::create(engine.buffer).unwrap();

            let mut model: std::collections::BTreeSet<(i64, u64)> = Default::default();
            for (i, &k) in keys.iter().enumerate() {
                t.insert(&k1(k), rid(i as u64)).unwrap();
                model.insert((k, i as u64));
            }
            for idx in &deletions {
                if model.is_empty() {
                    break;
                }
                let &(k, r) = idx.get(&model.iter().copied().collect::<Vec<_>>());
                t.delete(&k1(k), rid(r)).unwrap();
                model.remove(&(k, r));
            }

            prop_assert_eq!(t.len().unwrap(), model.len());
            // Point lookups agree.
            for &k in keys.iter().take(20) {
                let got: std::collections::BTreeSet<u64> = t
                    .search(&k1(k))
                    .unwrap()
                    .into_iter()
                    .map(|r| r.page)
                    .collect();
                let want: std::collections::BTreeSet<u64> = model
                    .iter()
                    .filter(|(mk, _)| *mk == k)
                    .map(|(_, r)| rid(*r).page)
                    .collect();
                prop_assert_eq!(got, want);
            }
            // Full range agrees and is sorted.
            let all = t.range(None, None, true, true).unwrap();
            prop_assert_eq!(all.len(), model.len());
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn prop_in_place_prefix_order_matches_datums(
            key in proptest::collection::vec(edge_datum(), 0..5),
            bound in proptest::collection::vec(edge_datum(), 0..5),
            lo_len in 0usize..5,
        ) {
            let encoded = encode_tuple(&key);
            // An arbitrary bound, and a prefix of the key itself (the
            // common equality-probe shape).
            let prefix = &key[..lo_len.min(key.len())];
            let [a, b] = prefix_orders(&encoded, [&bound, prefix]).unwrap();
            prop_assert_eq!(a, prefix_order(&key, &bound));
            prop_assert_eq!(b, prefix_order(&key, prefix));
            prop_assert_eq!(b, Ordering::Equal);
        }

        #[test]
        fn prop_composite_prefix_agrees_with_model(
            pairs in proptest::collection::vec((-20i64..20, -20i64..20), 1..200),
            probe in -20i64..20,
        ) {
            let dir = std::env::temp_dir().join("sbdms-btree-tests").join(format!(
                "prop2-{}-{:x}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let engine = StorageEngine::open(&dir, 32).unwrap();
            let t = BTree::create(engine.buffer).unwrap();
            let mut model: std::collections::BTreeSet<(i64, i64, u64)> = Default::default();
            for (i, &(a, b)) in pairs.iter().enumerate() {
                t.insert(&[Datum::Int(a), Datum::Int(b)], rid(i as u64)).unwrap();
                model.insert((a, b, i as u64));
            }
            // Prefix probe on the first component.
            let got = t.search(&[Datum::Int(probe)]).unwrap().len();
            let want = model.iter().filter(|(a, _, _)| *a == probe).count();
            prop_assert_eq!(got, want);
            // Prefix range [probe, probe+3] inclusive.
            let r = t.range(
                Some(&[Datum::Int(probe)]),
                Some(&[Datum::Int(probe + 3)]),
                true,
                true,
            ).unwrap();
            let want = model.iter().filter(|(a, _, _)| *a >= probe && *a <= probe + 3).count();
            prop_assert_eq!(r.len(), want);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn build_packs_levels_and_answers_like_inserts() {
        let dir = std::env::temp_dir()
            .join("sbdms-btree-tests")
            .join(format!("build-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, 64).unwrap();
        let key = |i: i64| {
            let name = format!("{i:05}-{}", "p".repeat(30));
            vec![Datum::Int(i % 700), Datum::Str(name)]
        };
        // Reverse order with every entry twice: build sorts and dedups.
        let entries: Vec<(Vec<Datum>, Rid)> = (0..6_000i64)
            .rev()
            .flat_map(|i| [(key(i), rid(i as u64)), (key(i), rid(i as u64))])
            .collect();
        let built = BTree::build(engine.buffer.clone(), entries).unwrap();
        built.validate().unwrap();
        assert!(built.height().unwrap() >= 3, "the build must stack internal levels");
        assert_eq!(built.len().unwrap(), 6_000);
        let inserted = BTree::create(engine.buffer.clone()).unwrap();
        for i in 0..6_000i64 {
            inserted.insert(&key(i), rid(i as u64)).unwrap();
        }
        for probe in [0i64, 1, 350, 699] {
            assert_eq!(
                built.search(&[Datum::Int(probe)]).unwrap(),
                inserted.search(&[Datum::Int(probe)]).unwrap()
            );
        }
        // Every leaf but the last is packed to the fill target.
        let (mut page, mut sizes) = (built.descend(&[]).unwrap().0, Vec::new());
        loop {
            sizes.push(engine.buffer.with_page(page, |p| p.get(0).unwrap().len()).unwrap());
            match built.read_node(page).unwrap() {
                Node::Leaf { next, .. } if next != 0 => page = next,
                _ => break,
            }
        }
        sizes.pop();
        let packed = |n: usize| n <= BUILD_FILL_BYTES && n + 100 > BUILD_FILL_BYTES;
        assert!(sizes.iter().all(|&n| packed(n)), "{sizes:?}");

        let empty = BTree::build(engine.buffer.clone(), Vec::new()).unwrap();
        empty.validate().unwrap();
        assert!(empty.is_empty().unwrap());
        empty.insert(&k1(3), rid(3)).unwrap();
        assert_eq!(empty.search(&k1(3)).unwrap(), vec![rid(3)]);
    }

    #[test]
    fn pack_respects_fill_and_minimum_group_size() {
        let room = BUILD_FILL_BYTES - NODE_HEADER_BYTES;
        // A lone last child joins its predecessor, or takes one from it.
        assert_eq!(pack(&[room / 2; 7], 2), vec![0..2, 2..4, 4..7]);
        assert_eq!(pack(&[room / 3; 7], 2), vec![0..3, 3..5, 5..7]);
        // A lone leaf entry stays; an oversized item gets its own node.
        assert_eq!(pack(&[room / 3; 7], 1), vec![0..3, 3..6, 6..7]);
        assert_eq!(pack(&[2 * room; 2], 1), vec![0..1, 1..2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// A bottom-up build answers every probe shape like a tree
        /// built by inserting the same entries, stays structurally
        /// valid, and keeps doing both under later inserts and deletes.
        #[test]
        fn prop_build_matches_insert_built_tree(
            pairs in proptest::collection::vec((-30i64..30, -4i64..4, 0u64..500), 0..500),
            composite in any::<bool>(),
            pad in 0usize..160,
            later in proptest::collection::vec(
                (-35i64..35, -4i64..4, 0u64..500, any::<bool>()),
                0..60,
            ),
            probe in -32i64..32,
        ) {
            let dir = std::env::temp_dir().join("sbdms-btree-tests").join(format!(
                "prop-build-{}-{:x}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let engine = StorageEngine::open(&dir, 64).unwrap();
            let key = |a: i64, b: i64| {
                let mut key = vec![Datum::Int(a)];
                if composite {
                    key.push(Datum::Str(format!("{b:+}{}", "x".repeat(pad))));
                }
                key
            };
            let entries: Vec<(Vec<Datum>, Rid)> =
                pairs.iter().map(|&(a, b, r)| (key(a, b), rid(r))).collect();
            let built = BTree::build(engine.buffer.clone(), entries.clone()).unwrap();
            let inserted = BTree::create(engine.buffer.clone()).unwrap();
            for (k, r) in &entries {
                inserted.insert(k, *r).unwrap();
            }
            let agree = |built: &BTree, inserted: &BTree| {
                built.validate().unwrap();
                prop_assert_eq!(
                    built.range(None, None, true, true).unwrap(),
                    inserted.range(None, None, true, true).unwrap()
                );
                let p = [Datum::Int(probe)];
                prop_assert_eq!(built.search(&p).unwrap(), inserted.search(&p).unwrap());
                let full = key(probe, 0);
                prop_assert_eq!(built.search(&full).unwrap(), inserted.search(&full).unwrap());
                let hi = [Datum::Int(probe + 6)];
                for (lo_incl, hi_incl) in [(true, true), (false, false)] {
                    prop_assert_eq!(
                        built.range(Some(&p), Some(&hi), lo_incl, hi_incl).unwrap(),
                        inserted.range(Some(&p), Some(&hi), lo_incl, hi_incl).unwrap()
                    );
                }
                let scan = |t: &BTree| {
                    let mut out = Vec::new();
                    t.scan_range(Some(&full), None, false, true, |k, r| {
                        out.push((k.to_vec(), r));
                        Ok(())
                    })
                    .unwrap();
                    out
                };
                prop_assert_eq!(scan(built), scan(inserted));
            };
            agree(&built, &inserted);
            for &(a, b, r, insert) in &later {
                if insert {
                    built.insert(&key(a, b), rid(r)).unwrap();
                    inserted.insert(&key(a, b), rid(r)).unwrap();
                } else {
                    prop_assert_eq!(
                        built.delete(&key(a, b), rid(r)).unwrap(),
                        inserted.delete(&key(a, b), rid(r)).unwrap()
                    );
                }
            }
            agree(&built, &inserted);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
