//! Columnar open-addressing hash table for the vectorized hash join,
//! and the key hash the grouping table uses.
//!
//! A row hash map (`HashMap<Key, Vec<Tuple>>`) pays SipHash, a
//! heap-allocated key, and a `Vec` per distinct key. This table is the
//! columnar alternative: keys are normalised to a raw fixed-width
//! `(tag, u64)` pair in one batched pass, slots are computed with a
//! branch-free multiply-shift kernel over the whole `u64` column (a
//! fixed-width loop the compiler autovectorizes — `std::simd` is not
//! stable on our toolchain), and duplicates hang off a `next` chain
//! array indexed by build row. Probing walks a power-of-two slot
//! directory with linear probing and compares raw `u64`s; only the
//! final verification (needed because normalisation collapses e.g.
//! large `i64`s onto shared `f64` bit patterns) reads the key values.
//!
//! Equivalence classes are SQL equality's: NULL never enters the table,
//! `Int` and `Float` normalise through `f64` bits so `2 = 2.0` matches,
//! strings hash their bytes. Chains preserve build insertion order
//! (rows are inserted in reverse, each at its chain head), so probe
//! output lists a key's matches in build order.

use super::column::Column;
use crate::record::DatumRef;

/// Key tag for NULL: never matches, never inserted.
pub(super) const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_NUM: u8 = 2;
const TAG_STR: u8 = 3;

/// Empty-slot / end-of-chain sentinel.
const NONE: u32 = u32::MAX;

/// FNV-1a over the string bytes: cheap, decent spread, and collisions
/// are harmless (the probe verifies every candidate with `sql_eq`).
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fold one value into a running group-key hash: its type tag, then its
/// value (bits for a FLOAT, the bytes for a string). Values with equal
/// encodings hash equal; the best-mixed bits are the top ones, where the
/// grouping table takes its slot from.
#[inline]
fn hash_ref(h: u64, d: DatumRef) -> u64 {
    match d {
        DatumRef::Null => mix(h, 0, 0),
        DatumRef::Bool(b) => mix(h, 1, b as u64),
        DatumRef::Int(i) => mix(h, 2, i as u64),
        DatumRef::Float(x) => mix(h, 3, x.to_bits()),
        DatumRef::Str(s) => mix(h, 4, hash_bytes(s.as_bytes())),
    }
}

#[inline(always)]
fn mix(h: u64, tag: u64, value: u64) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    ((h.rotate_left(23) ^ tag).wrapping_mul(K) ^ value).wrapping_mul(K)
}

/// Fold row `p` of `col` into `hashes[r]` for the `r`-th of `rows`, as
/// [`hash_ref`] would: an INT or TEXT column without NULLs hashes its
/// `i64`s or string slices directly.
pub(super) fn hash_column(hashes: &mut [u64], col: &Column, rows: impl Iterator<Item = usize>) {
    let pairs = hashes.iter_mut().zip(rows);
    match col {
        Column::Int(vals, valid) if valid.all_valid() => {
            pairs.for_each(|(h, p)| *h = mix(*h, 2, vals[p] as u64));
        }
        Column::Text(text, valid) if valid.all_valid() => {
            pairs.for_each(|(h, p)| *h = mix(*h, 4, hash_bytes(text.get(p).as_bytes())));
        }
        col => pairs.for_each(|(h, p)| *h = hash_ref(*h, col.get(p))),
    }
}

/// Word-at-a-time multiplicative hash of a string key: eight bytes per
/// multiply instead of FNV's one.
fn hash_bytes(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, word: u64| (h.rotate_left(23) ^ word).wrapping_mul(K);
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(last));
    }
    h
}

/// Normalise one value to `(tag, raw fixed-width key)`: equal keys
/// under `sql_eq` share a normal form (INT 2 and FLOAT 2.0 both become
/// the bits of `2.0f64`).
#[inline]
fn norm(d: DatumRef) -> (u8, u64) {
    match d {
        DatumRef::Null => (TAG_NULL, 0),
        DatumRef::Bool(b) => (TAG_BOOL, b as u64),
        DatumRef::Int(i) => (TAG_NUM, (i as f64).to_bits()),
        DatumRef::Float(x) => (TAG_NUM, x.to_bits()),
        DatumRef::Str(s) => (TAG_STR, fnv1a(s.as_bytes())),
    }
}

/// Whether an `Int` key survives the f64 round trip exactly. Only
/// inexact integers (|i| > 2^53) can collapse onto another integer's
/// bit pattern, which is the one numeric case where normalised-key
/// equality does not imply `sql_eq`.
#[inline]
fn int_exact(i: i64) -> bool {
    (i as f64) as i64 == i
}

/// Batched key normalisation, dense or through a selection vector.
/// Appends one `(tag, key)` per logical row into the scratch columns; a
/// non-NULL INT column runs a loop over its `i64`s. Returns whether
/// every `Int` key round-tripped through f64 exactly — when both sides
/// of a join report true, numeric chains can skip the per-candidate
/// `sql_eq` verification (bit equality is then exact for every
/// non-string type).
pub(super) fn norm_keys(
    col: &Column,
    sel: Option<&[u32]>,
    tags: &mut Vec<u8>,
    keys: &mut Vec<u64>,
) -> bool {
    tags.clear();
    keys.clear();
    let n = sel.map_or(col.len(), <[u32]>::len);
    tags.reserve(n);
    keys.reserve(n);
    let rows = (0..n).map(|r| sel.map_or(r, |sel| sel[r] as usize));
    match col {
        Column::Int(vals, valid) if valid.all_valid() => {
            let mut ints_exact = true;
            for p in rows {
                let i = vals[p];
                ints_exact &= int_exact(i);
                keys.push((i as f64).to_bits());
            }
            tags.resize(n, TAG_NUM);
            ints_exact
        }
        col => {
            let mut ints_exact = true;
            for p in rows {
                let d = col.get(p);
                if let DatumRef::Int(i) = d {
                    ints_exact &= int_exact(i);
                }
                let (t, k) = norm(d);
                tags.push(t);
                keys.push(k);
            }
            ints_exact
        }
    }
}

/// Batched multiply-shift slot kernel: mixes the tag into the raw key
/// and maps it onto a power-of-two directory with one multiply and one
/// shift per row. Branch-free over fixed-width lanes, so the loop
/// autovectorizes.
pub(super) fn slot_kernel(tags: &[u8], keys: &[u64], shift: u32, out: &mut Vec<u32>) {
    debug_assert_eq!(tags.len(), keys.len());
    out.clear();
    out.reserve(keys.len());
    for (k, t) in keys.iter().zip(tags) {
        let mixed = (k ^ (*t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_mul(0xd6e8_feb8_6659_fd93);
        out.push((mixed >> shift) as u32);
    }
}

/// Reusable probe-side scratch: normalised keys and slot indices for
/// one batch, allocated once per join.
#[derive(Default)]
pub(super) struct ProbeScratch {
    tags: Vec<u8>,
    keys: Vec<u64>,
    slots: Vec<u32>,
}

/// The columnar join table: a linear-probing directory of chain heads
/// over a `next` array indexed by build row. All storage is flat
/// fixed-width columns; the build key values stay in the caller's
/// build columns and are only consulted for final match verification.
pub(super) struct JoinTable {
    /// Build row id of the chain head per slot; [`NONE`] = empty.
    slot_head: Vec<u32>,
    /// Key tag of the slot's chain ([`TAG_NULL`] only while empty).
    slot_tag: Vec<u8>,
    /// Raw normalised key of the slot's chain.
    slot_key: Vec<u64>,
    /// Per build row: next row with the same normalised key.
    next: Vec<u32>,
    /// `64 - log2(slots)`: the multiply-shift kernel's shift.
    shift: u32,
    /// Every `Int` build key round-tripped through f64 exactly; see
    /// [`norm_keys`].
    ints_exact: bool,
}

impl JoinTable {
    /// Build the table over one key column. Rows whose key is NULL are
    /// skipped entirely (SQL semantics: NULL never matches).
    pub(super) fn build(key_col: &Column) -> JoinTable {
        let n = key_col.len();
        let slots = (n * 2).next_power_of_two().max(16);
        let shift = 64 - slots.trailing_zeros();
        let mask = slots - 1;
        let mut tags = Vec::new();
        let mut keys = Vec::new();
        let ints_exact = norm_keys(key_col, None, &mut tags, &mut keys);
        let mut slot_idx = Vec::new();
        slot_kernel(&tags, &keys, shift, &mut slot_idx);
        let mut t = JoinTable {
            slot_head: vec![NONE; slots],
            slot_tag: vec![TAG_NULL; slots],
            slot_key: vec![0; slots],
            next: vec![NONE; n],
            shift,
            ints_exact,
        };
        // Insert in reverse, each row at its chain head: the finished
        // chains read in forward build-insertion order.
        for row in (0..n).rev() {
            let tag = tags[row];
            if tag == TAG_NULL {
                continue;
            }
            let key = keys[row];
            let mut s = slot_idx[row] as usize;
            loop {
                if t.slot_head[s] == NONE {
                    t.slot_head[s] = row as u32;
                    t.slot_tag[s] = tag;
                    t.slot_key[s] = key;
                    break;
                }
                if t.slot_tag[s] == tag && t.slot_key[s] == key {
                    t.next[row] = t.slot_head[s];
                    t.slot_head[s] = row as u32;
                    break;
                }
                s = (s + 1) & mask;
            }
        }
        t
    }

    /// Probe one batch of keys (physical column plus optional selection
    /// vector) and append `(probe physical row, build row)` match pairs
    /// in probe order, build-insertion order per key — the tuple
    /// engine's output order exactly. `build_keys` is the same column
    /// the table was built from, used to verify candidates across
    /// normalisation collisions.
    pub(super) fn probe_pairs(
        &self,
        build_keys: &Column,
        probe_col: &Column,
        sel: Option<&[u32]>,
        scratch: &mut ProbeScratch,
        pairs: &mut Vec<(u32, u32)>,
    ) {
        let probe_exact = norm_keys(probe_col, sel, &mut scratch.tags, &mut scratch.keys);
        slot_kernel(&scratch.tags, &scratch.keys, self.shift, &mut scratch.slots);
        let mask = self.slot_head.len() - 1;
        // When every Int on both sides is f64-exact, normalised-key
        // equality implies sql_eq for every non-string tag (Float bit
        // equality is total_cmp equality; Bool is trivial), so numeric
        // chains can be emitted without per-candidate verification.
        let numeric_exact = self.ints_exact && probe_exact;
        for (r, ((&tag, &key), &s0)) in scratch
            .tags
            .iter()
            .zip(&scratch.keys)
            .zip(&scratch.slots)
            .enumerate()
        {
            if tag == TAG_NULL {
                continue;
            }
            let phys = match sel {
                Some(sel) => sel[r],
                None => r as u32,
            };
            let mut s = s0 as usize;
            loop {
                let head = self.slot_head[s];
                if head == NONE {
                    break;
                }
                if self.slot_tag[s] == tag && self.slot_key[s] == key {
                    // Found the chain for this normalised key: walk it.
                    // Chains need per-candidate verification only when
                    // normalised equality can lie — string hash
                    // collisions, or inexact ints collapsed onto one
                    // f64 pattern.
                    let mut b = head;
                    if tag != TAG_STR && numeric_exact {
                        while b != NONE {
                            pairs.push((phys, b));
                            b = self.next[b as usize];
                        }
                    } else {
                        let probe_d = probe_col.get(phys as usize);
                        while b != NONE {
                            if probe_d.sql_eq(&build_keys.get(b as usize)) {
                                pairs.push((phys, b));
                            }
                            b = self.next[b as usize];
                        }
                    }
                    break;
                }
                s = (s + 1) & mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Datum;

    fn ints(vals: &[i64]) -> Vec<Datum> {
        vals.iter().map(|&v| Datum::Int(v)).collect()
    }

    fn col(vals: &[Datum]) -> Column {
        Column::from_datums(vals.to_vec())
    }

    fn table(vals: &[Datum]) -> JoinTable {
        JoinTable::build(&col(vals))
    }

    fn probe_all(table: &JoinTable, build: &[Datum], probe: &[Datum]) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        let (build, probe) = (col(build), col(probe));
        table.probe_pairs(&build, &probe, None, &mut ProbeScratch::default(), &mut pairs);
        pairs
    }

    #[test]
    fn unique_keys_match_once() {
        let build = ints(&[10, 20, 30]);
        let table = table(&build);
        let pairs = probe_all(&table, &build, &ints(&[20, 99, 10]));
        assert_eq!(pairs, vec![(0, 1), (2, 0)]);
    }

    #[test]
    fn duplicate_build_keys_emit_in_insertion_order() {
        let build = ints(&[7, 3, 7, 7, 3]);
        let table = table(&build);
        let pairs = probe_all(&table, &build, &ints(&[7, 3]));
        assert_eq!(pairs, vec![(0, 0), (0, 2), (0, 3), (1, 1), (1, 4)]);
    }

    #[test]
    fn null_keys_never_enter_or_match() {
        let build = vec![Datum::Int(1), Datum::Null, Datum::Int(2)];
        let table = table(&build);
        let probe = vec![Datum::Null, Datum::Int(2)];
        let pairs = probe_all(&table, &build, &probe);
        assert_eq!(pairs, vec![(1, 2)]);
    }

    #[test]
    fn cross_type_numeric_equality_matches() {
        let build = vec![Datum::Int(2), Datum::Float(2.5)];
        let table = table(&build);
        let probe = vec![Datum::Float(2.0), Datum::Int(2), Datum::Float(2.5)];
        let pairs = probe_all(&table, &build, &probe);
        assert_eq!(pairs, vec![(0, 0), (1, 0), (2, 1)]);
    }

    #[test]
    fn normalisation_collision_is_verified_away() {
        // 2^53 and 2^53 + 1 share an f64 bit pattern (same normalised
        // key, same chain) but are different integers: the sql_eq
        // verification must keep them apart.
        let a = 1i64 << 53;
        let build = ints(&[a, a + 1]);
        let table = table(&build);
        let pairs = probe_all(&table, &build, &ints(&[a + 1, a]));
        assert_eq!(pairs, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn string_keys_match_by_content() {
        let build = vec![
            Datum::Str("alice".into()),
            Datum::Str("bob".into()),
            Datum::Str("alice".into()),
        ];
        let table = table(&build);
        let probe = vec![Datum::Str("alice".into()), Datum::Str("carol".into())];
        let pairs = probe_all(&table, &build, &probe);
        assert_eq!(pairs, vec![(0, 0), (0, 2)]);
    }

    #[test]
    fn probe_through_selection_vector_uses_physical_ids() {
        let build = ints(&[5, 6]);
        let table = table(&build);
        let probe = ints(&[5, 6, 5, 6]);
        let sel = vec![1u32, 3];
        let mut pairs = Vec::new();
        let (build, probe) = (col(&build), col(&probe));
        table.probe_pairs(&build, &probe, Some(&sel), &mut ProbeScratch::default(), &mut pairs);
        assert_eq!(pairs, vec![(1, 1), (3, 1)]);
    }

    #[test]
    fn empty_build_matches_nothing() {
        let build: Vec<Datum> = vec![];
        let table = table(&build);
        assert!(probe_all(&table, &build, &ints(&[1, 2, 3])).is_empty());
    }

    #[test]
    fn mixed_type_build_keys_stay_separate() {
        let build = vec![
            Datum::Bool(true),
            Datum::Int(1),
            Datum::Str("1".into()),
        ];
        let table = table(&build);
        let pairs = probe_all(&table, &build, &build.clone());
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2)]);
    }
}
