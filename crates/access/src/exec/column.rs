//! Typed column vectors: how one column of a [`Batch`](super::Batch)
//! holds its values.
//!
//! Paper §3.1 gives the access layer the "physical data representations
//! of data records". Inside the engine that representation is one typed
//! vector per column, so a kernel loops over `i64`s, `f64`s or string
//! slices instead of matching a 24-byte [`Datum`] per value:
//!
//! - INT, FLOAT and BOOL values in a `Vec` of their Rust type, TEXT as
//!   one byte arena with a `u32` end offset per row; each beside a
//!   [`Validity`] bitmap that allocates nothing until the first NULL;
//! - a column no consumer reads, or one that has seen only NULLs, as its
//!   length alone ([`Column::Null`]);
//! - a `Vec<Datum>` only where the values' type is not fixed (a VALUES
//!   list or expression that mixes INT and FLOAT, say).
//!
//! A column is its own builder: [`Column::push`] takes the kind of the
//! first non-NULL value and falls back to `Datum`s on a type mix. Stored
//! columns never mix, because the data layer's schema widens INT to
//! FLOAT before a row is stored, so a table scan decodes into the kinds
//! the schema fixes ([`decode_tuple_into`](crate::record::decode_tuple_into)).

use crate::record::{Datum, DatumRef};

/// What a column holds, as [`Column::kind`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// Every value NULL, stored as the length alone.
    Null,
    /// 64-bit integers.
    Int,
    /// 64-bit floats.
    Float,
    /// Booleans.
    Bool,
    /// UTF-8 strings.
    Text,
    /// The fallback: one [`Datum`] per row, of any type.
    Datum,
}

impl ColumnKind {
    /// The kind a single non-NULL value fixes (`Null` for NULL).
    pub fn of(d: DatumRef<'_>) -> ColumnKind {
        match d {
            DatumRef::Null => ColumnKind::Null,
            DatumRef::Bool(_) => ColumnKind::Bool,
            DatumRef::Int(_) => ColumnKind::Int,
            DatumRef::Float(_) => ColumnKind::Float,
            DatumRef::Str(_) => ColumnKind::Text,
        }
    }
}

/// Which rows of a typed column hold a value (the rest are NULL). The
/// bitmap is allocated at the first NULL: a column without NULLs (every
/// NOT NULL column) carries no bits at all.
#[derive(Debug, Clone, Default)]
pub struct Validity {
    /// Bit `i` set: row `i` is valid. Empty: every row is.
    bits: Vec<u64>,
}

impl Validity {
    /// Whether row `i` holds a value.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.bits.is_empty() || (self.bits[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Whether no row can be NULL (no NULL was ever pushed).
    #[inline]
    pub fn all_valid(&self) -> bool {
        self.bits.is_empty()
    }

    /// Record row `len` (the rows before it are `0..len`).
    #[inline(always)]
    fn push(&mut self, len: usize, valid: bool) {
        if self.bits.is_empty() && valid {
            return;
        }
        self.push_bit(len, valid);
    }

    /// [`Validity::push`] once a bitmap exists or is needed.
    #[inline(never)]
    fn push_bit(&mut self, len: usize, valid: bool) {
        if self.bits.is_empty() {
            self.bits = vec![!0; len / 64 + 1];
        }
        let word = len >> 6;
        if word == self.bits.len() {
            self.bits.push(!0);
        }
        let bit = 1u64 << (len & 63);
        if valid {
            self.bits[word] |= bit;
        } else {
            self.bits[word] &= !bit;
        }
    }

    /// `len` rows, every one NULL.
    fn nulls(len: usize) -> Validity {
        Validity {
            bits: if len == 0 { Vec::new() } else { vec![0; len / 64 + 1] },
        }
    }

    fn truncate(&mut self, len: usize) {
        if len == 0 {
            self.bits.clear();
        } else if !self.bits.is_empty() {
            self.bits.truncate(len / 64 + 1);
        }
    }
}

/// The most string bytes one TEXT column holds: its offsets are `u32`.
/// A column that would grow past it falls back to `Datum`s.
const MAX_TEXT: usize = u32::MAX as usize;

/// TEXT values: one UTF-8 arena and the end offset of every row's
/// string in it (a NULL row's string is empty).
#[derive(Debug, Clone, Default)]
pub struct TextVec {
    ends: Vec<u32>,
    bytes: String,
}

impl TextVec {
    fn with_capacity(rows: usize, bytes: usize) -> TextVec {
        TextVec {
            ends: Vec::with_capacity(rows),
            bytes: String::with_capacity(bytes),
        }
    }

    /// Row `i`'s string.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    /// Append `s`; the arena must stay within [`MAX_TEXT`] bytes.
    #[inline]
    fn push(&mut self, s: &str) {
        self.bytes.push_str(s);
        self.ends.push(self.bytes.len() as u32);
    }

    fn truncate(&mut self, rows: usize) {
        self.ends.truncate(rows);
        self.bytes.truncate(self.ends.last().map_or(0, |&e| e as usize));
    }
}

/// One column of a batch. See the module docs for the representation.
#[derive(Debug, Clone)]
pub enum Column {
    /// `n` rows, every one NULL.
    Null(usize),
    /// INT values.
    Int(Vec<i64>, Validity),
    /// FLOAT values.
    Float(Vec<f64>, Validity),
    /// BOOL values.
    Bool(Vec<bool>, Validity),
    /// TEXT values.
    Text(TextVec, Validity),
    /// Values of no fixed type.
    Datum(Vec<Datum>),
}

impl Default for Column {
    fn default() -> Column {
        Column::Null(0)
    }
}

impl Column {
    /// An empty column of `kind`.
    pub fn new(kind: ColumnKind) -> Column {
        Column::with_capacity(kind, 0, 0)
    }

    /// An empty column of `kind` with room for `rows` rows (and, for
    /// TEXT, `text_bytes` bytes of strings).
    pub fn with_capacity(kind: ColumnKind, rows: usize, text_bytes: usize) -> Column {
        match kind {
            ColumnKind::Null => Column::Null(0),
            ColumnKind::Int => Column::Int(Vec::with_capacity(rows), Validity::default()),
            ColumnKind::Float => Column::Float(Vec::with_capacity(rows), Validity::default()),
            ColumnKind::Bool => Column::Bool(Vec::with_capacity(rows), Validity::default()),
            ColumnKind::Text => {
                Column::Text(TextVec::with_capacity(rows, text_bytes), Validity::default())
            }
            ColumnKind::Datum => Column::Datum(Vec::with_capacity(rows)),
        }
    }

    /// Build from datums: typed when every non-NULL value has one type,
    /// the `Datum` fallback (the vector itself, not copied) otherwise.
    pub fn from_datums(values: Vec<Datum>) -> Column {
        let mut kind = ColumnKind::Null;
        for d in &values {
            match (kind, ColumnKind::of(d.as_ref())) {
                (_, ColumnKind::Null) => {}
                (ColumnKind::Null, k) => kind = k,
                (a, b) if a == b => {}
                _ => return Column::Datum(values),
            }
        }
        if kind == ColumnKind::Null {
            return Column::Null(values.len());
        }
        let mut col = Column::with_capacity(kind, values.len(), 0);
        for d in values {
            col.push(d);
        }
        col
    }

    /// The representation this column uses.
    pub fn kind(&self) -> ColumnKind {
        match self {
            Column::Null(_) => ColumnKind::Null,
            Column::Int(..) => ColumnKind::Int,
            Column::Float(..) => ColumnKind::Float,
            Column::Bool(..) => ColumnKind::Bool,
            Column::Text(..) => ColumnKind::Text,
            Column::Datum(_) => ColumnKind::Datum,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Null(n) => *n,
            Column::Int(v, _) => v.len(),
            Column::Float(v, _) => v.len(),
            Column::Bool(v, _) => v.len(),
            Column::Text(t, _) => t.ends.len(),
            Column::Datum(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`, borrowed.
    #[inline]
    pub fn get(&self, i: usize) -> DatumRef<'_> {
        match self {
            Column::Null(_) => DatumRef::Null,
            Column::Int(v, valid) if valid.get(i) => DatumRef::Int(v[i]),
            Column::Float(v, valid) if valid.get(i) => DatumRef::Float(v[i]),
            Column::Bool(v, valid) if valid.get(i) => DatumRef::Bool(v[i]),
            Column::Text(t, valid) if valid.get(i) => DatumRef::Str(t.get(i)),
            Column::Datum(v) => v[i].as_ref(),
            _ => DatumRef::Null,
        }
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Null(_) => true,
            Column::Int(_, valid)
            | Column::Float(_, valid)
            | Column::Bool(_, valid)
            | Column::Text(_, valid) => !valid.get(i),
            Column::Datum(v) => v[i].is_null(),
        }
    }

    /// Row `i` as an owned datum.
    pub fn datum(&self, i: usize) -> Datum {
        self.get(i).to_owned()
    }

    /// Every row as an owned datum.
    pub fn into_datums(self) -> Vec<Datum> {
        match self {
            Column::Datum(v) => v,
            Column::Null(n) => vec![Datum::Null; n],
            col => (0..col.len()).map(|i| col.get(i).to_owned()).collect(),
        }
    }

    /// Append a NULL.
    #[inline]
    pub fn push_null(&mut self) {
        match self {
            Column::Null(n) => *n += 1,
            Column::Int(v, valid) => {
                valid.push(v.len(), false);
                v.push(0);
            }
            Column::Float(v, valid) => {
                valid.push(v.len(), false);
                v.push(0.0);
            }
            Column::Bool(v, valid) => {
                valid.push(v.len(), false);
                v.push(false);
            }
            Column::Text(t, valid) => {
                valid.push(t.ends.len(), false);
                t.push("");
            }
            Column::Datum(v) => v.push(Datum::Null),
        }
    }

    /// Append `d` if it fits the column's kind (a NULL always does, and
    /// a [`ColumnKind::Null`] column takes the kind of its first value);
    /// false, with nothing appended, when it does not.
    #[inline(always)]
    pub fn push_checked(&mut self, d: DatumRef<'_>) -> bool {
        match (&mut *self, d) {
            (Column::Int(v, valid), DatumRef::Int(x)) => {
                valid.push(v.len(), true);
                v.push(x);
            }
            (Column::Float(v, valid), DatumRef::Float(x)) => {
                valid.push(v.len(), true);
                v.push(x);
            }
            (Column::Bool(v, valid), DatumRef::Bool(x)) => {
                valid.push(v.len(), true);
                v.push(x);
            }
            _ => return self.push_other(d),
        }
        true
    }

    /// [`Column::push_checked`] past the fixed-width fast paths: NULLs,
    /// strings, a `Datum` column (takes anything), a `Null` column (turns
    /// typed), a TEXT arena past [`MAX_TEXT`] (falls back to `Datum`s).
    #[inline(never)]
    fn push_other(&mut self, d: DatumRef<'_>) -> bool {
        match (&mut *self, d) {
            (_, DatumRef::Null) => self.push_null(),
            (Column::Text(t, valid), DatumRef::Str(s)) if t.bytes.len() + s.len() <= MAX_TEXT => {
                valid.push(t.ends.len(), true);
                t.push(s);
            }
            (Column::Text(..), DatumRef::Str(_)) => {
                self.fall_back();
                return self.push_checked(d);
            }
            (Column::Datum(v), d) => v.push(d.to_owned()),
            (Column::Null(n), d) => {
                *self = Column::nulls(ColumnKind::of(d), *n);
                return self.push_checked(d);
            }
            _ => return false,
        }
        true
    }

    /// Decode one encoded field at `data[*pos..]` (the codec
    /// [`DatumRef::decode_from`] reads, with its checks) and append it,
    /// advancing `pos`. INT, FLOAT and TEXT values of a column of their
    /// kind are read straight into the vectors; anything else goes
    /// through [`Column::push_checked`]. `None`: the field is corrupt;
    /// `Some(false)`: its value does not fit the column's kind, and
    /// nothing was appended.
    #[inline(always)]
    pub(crate) fn decode_push(&mut self, data: &[u8], pos: &mut usize) -> Option<bool> {
        let at = *pos;
        match (&mut *self, data.get(at)) {
            (Column::Int(v, valid), Some(2)) => {
                let bytes = data.get(at + 1..at + 9)?;
                valid.push(v.len(), true);
                v.push(i64::from_le_bytes(bytes.try_into().expect("8 bytes")));
                *pos = at + 9;
            }
            (Column::Float(v, valid), Some(3)) => {
                let bytes = data.get(at + 1..at + 9)?;
                valid.push(v.len(), true);
                v.push(f64::from_le_bytes(bytes.try_into().expect("8 bytes")));
                *pos = at + 9;
            }
            (Column::Text(t, valid), Some(4)) => {
                let len = data.get(at + 1..at + 5)?;
                let end = at + 5 + u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
                let s = std::str::from_utf8(data.get(at + 5..end)?).ok()?;
                *pos = end;
                if t.bytes.len() + s.len() > MAX_TEXT {
                    return Some(self.push_checked(DatumRef::Str(s)));
                }
                valid.push(t.ends.len(), true);
                t.push(s);
            }
            _ => {
                let d = DatumRef::decode_from(data, pos).ok()?;
                return Some(self.push_checked(d));
            }
        }
        Some(true)
    }

    /// Append `d`, falling back to `Datum`s if its type differs from the
    /// column's.
    #[inline]
    pub fn push_ref(&mut self, d: DatumRef<'_>) {
        if !self.push_checked(d) {
            self.fall_back();
            self.push_checked(d);
        }
    }

    /// Append an owned datum (moved as is into a `Datum` column).
    pub fn push(&mut self, d: Datum) {
        match self {
            Column::Datum(v) => v.push(d),
            _ => self.push_ref(d.as_ref()),
        }
    }

    /// `len` NULLs in a typed column of `kind`.
    fn nulls(kind: ColumnKind, len: usize) -> Column {
        match kind {
            ColumnKind::Null => Column::Null(len),
            ColumnKind::Int => Column::Int(vec![0; len], Validity::nulls(len)),
            ColumnKind::Float => Column::Float(vec![0.0; len], Validity::nulls(len)),
            ColumnKind::Bool => Column::Bool(vec![false; len], Validity::nulls(len)),
            ColumnKind::Text => Column::Text(
                TextVec {
                    ends: vec![0; len],
                    bytes: String::new(),
                },
                Validity::nulls(len),
            ),
            ColumnKind::Datum => Column::Datum(vec![Datum::Null; len]),
        }
    }

    /// Turn this column into the `Datum` fallback, values unchanged.
    fn fall_back(&mut self) {
        if !matches!(self, Column::Datum(_)) {
            *self = Column::Datum(std::mem::take(self).into_datums());
        }
    }

    /// Append row `i` of `src` for every `i` in `rows`, typed when both
    /// columns have one kind (a `Null` column with no rows takes `src`'s).
    pub fn extend_from(&mut self, src: &Column, rows: impl ExactSizeIterator<Item = usize>) {
        if let Column::Null(0) = self {
            *self = Column::with_capacity(src.kind(), rows.len(), 0);
        }
        macro_rules! typed {
            ($dst:ident, $dvalid:ident, $src:ident, $svalid:ident) => {{
                $dst.reserve(rows.len());
                if $svalid.all_valid() && $dvalid.all_valid() {
                    $dst.extend(rows.map(|i| $src[i]));
                } else {
                    for i in rows {
                        $dvalid.push($dst.len(), $svalid.get(i));
                        $dst.push($src[i]);
                    }
                }
            }};
        }
        match (&mut *self, src) {
            (Column::Null(n), Column::Null(_)) => *n += rows.len(),
            (Column::Int(d, dv), Column::Int(s, sv)) => typed!(d, dv, s, sv),
            (Column::Float(d, dv), Column::Float(s, sv)) => typed!(d, dv, s, sv),
            (Column::Bool(d, dv), Column::Bool(s, sv)) => typed!(d, dv, s, sv),
            (Column::Datum(d), Column::Datum(s)) => d.extend(rows.map(|i| s[i].clone())),
            (Column::Text(..), Column::Text(s, sv)) => {
                for i in rows {
                    let (value, valid) = (s.get(i), sv.get(i));
                    match self {
                        Column::Text(d, dv) if d.bytes.len() + value.len() <= MAX_TEXT => {
                            dv.push(d.ends.len(), valid);
                            d.push(value);
                        }
                        _ => self.push_ref(src.get(i)),
                    }
                }
            }
            _ => rows.for_each(|i| self.push_ref(src.get(i))),
        }
    }

    /// The rows `rows` names, in that order, as a new column of this
    /// column's kind.
    pub fn gather(&self, rows: impl ExactSizeIterator<Item = usize>) -> Column {
        let mut out = match self {
            Column::Text(t, _) => {
                // Room for the average string of each gathered row.
                let avg = t.bytes.len() / t.ends.len().max(1);
                Column::with_capacity(ColumnKind::Text, rows.len(), avg * rows.len())
            }
            col => Column::with_capacity(col.kind(), rows.len(), 0),
        };
        out.extend_from(self, rows);
        out
    }

    /// Append every row of `other`.
    pub fn append(&mut self, other: Column) {
        match (&mut *self, other) {
            (Column::Null(0), other) => *self = other,
            (Column::Datum(d), Column::Datum(s)) => d.extend(s),
            (_, other) => self.extend_from(&other, 0..other.len()),
        }
    }

    /// Keep the first `len` rows.
    pub fn truncate(&mut self, len: usize) {
        match self {
            Column::Null(n) => *n = (*n).min(len),
            Column::Int(v, valid) => {
                v.truncate(len);
                valid.truncate(len);
            }
            Column::Float(v, valid) => {
                v.truncate(len);
                valid.truncate(len);
            }
            Column::Bool(v, valid) => {
                v.truncate(len);
                valid.truncate(len);
            }
            Column::Text(t, valid) => {
                t.truncate(len);
                valid.truncate(len);
            }
            Column::Datum(v) => v.truncate(len),
        }
    }

    /// Move rows `at..` out into a new column of this kind, which keeps
    /// this column's capacity when `reserve` is set (room for what will
    /// be appended next).
    pub fn split_off(&mut self, at: usize, reserve: bool) -> Column {
        let rest = self.len() - at;
        let mut tail = match (&*self, reserve) {
            (Column::Int(v, _), true) => Column::with_capacity(ColumnKind::Int, v.capacity(), 0),
            (Column::Float(v, _), true) => Column::with_capacity(ColumnKind::Float, v.capacity(), 0),
            (Column::Bool(v, _), true) => Column::with_capacity(ColumnKind::Bool, v.capacity(), 0),
            (Column::Text(t, _), true) => Column::Text(
                TextVec::with_capacity(t.ends.capacity(), t.bytes.capacity()),
                Validity::default(),
            ),
            (Column::Datum(v), true) => Column::with_capacity(ColumnKind::Datum, v.capacity(), 0),
            (col, _) => Column::with_capacity(col.kind(), rest, 0),
        };
        match (&mut *self, &mut tail) {
            (Column::Datum(v), Column::Datum(t)) => t.extend(v.drain(at..)),
            (col, tail) => {
                tail.extend_from(col, at..at + rest);
                col.truncate(at);
            }
        }
        tail
    }

    /// Bytes of string payload in row `i` (0 unless it is a string).
    #[inline]
    pub fn str_len(&self, i: usize) -> usize {
        match self.get(i) {
            DatumRef::Str(s) => s.len(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_picks_the_first_kind_and_falls_back_on_a_mix() {
        let mut col = Column::default();
        col.push(Datum::Null);
        assert_eq!(col.kind(), ColumnKind::Null);
        col.push(Datum::Int(3));
        col.push(Datum::Null);
        assert_eq!(col.kind(), ColumnKind::Int);
        assert_eq!(
            col.clone().into_datums(),
            vec![Datum::Null, Datum::Int(3), Datum::Null]
        );
        col.push(Datum::Float(0.5));
        assert_eq!(col.kind(), ColumnKind::Datum);
        assert_eq!(col.datum(3), Datum::Float(0.5));
        assert_eq!(col.datum(1), Datum::Int(3));
        assert!(col.is_null(2));
    }

    #[test]
    fn from_datums_matches_pushes() {
        let cases = vec![
            vec![],
            vec![Datum::Null, Datum::Null],
            vec![Datum::Str("é".into()), Datum::Null, Datum::Str(String::new())],
            vec![Datum::Bool(true), Datum::Null, Datum::Bool(false)],
            vec![Datum::Int(1), Datum::Str("x".into())],
        ];
        for values in cases {
            let col = Column::from_datums(values.clone());
            let mut pushed = Column::default();
            values.iter().cloned().for_each(|d| pushed.push(d));
            assert_eq!(col.kind(), pushed.kind(), "{values:?}");
            assert_eq!(col.into_datums(), values);
            assert_eq!(pushed.into_datums(), values);
        }
    }

    #[test]
    fn validity_spans_words() {
        let mut col = Column::new(ColumnKind::Int);
        for i in 0..200i64 {
            col.push(if i % 67 == 3 { Datum::Null } else { Datum::Int(i) });
        }
        for i in 0..200usize {
            assert_eq!(col.is_null(i), i % 67 == 3, "row {i}");
        }
        let tail = col.split_off(130, false);
        assert_eq!(col.len(), 130);
        assert_eq!(tail.len(), 70);
        assert!(tail.is_null(137 - 130));
        assert_eq!(tail.datum(0), Datum::Int(130));
        let picked = tail.gather([7usize, 0, 7].into_iter());
        assert_eq!(picked.into_datums(), vec![Datum::Null, Datum::Int(130), Datum::Null]);
    }

    #[test]
    fn text_split_append_and_truncate() {
        let words = ["", "ab", "ç", "", "xyz"];
        let mut col = Column::default();
        for w in words {
            col.push(Datum::Str(w.into()));
        }
        let mut tail = col.split_off(2, true);
        assert_eq!(col.len(), 2);
        assert_eq!(tail.get(0), DatumRef::Str("ç"));
        tail.append(col.clone());
        assert_eq!(tail.get(3), DatumRef::Str(""));
        assert_eq!(tail.get(4), DatumRef::Str("ab"));
        tail.truncate(1);
        tail.push(Datum::Str("q".into()));
        assert_eq!(tail.into_datums(), vec![Datum::Str("ç".into()), Datum::Str("q".into())]);
    }

    #[test]
    fn push_checked_rejects_a_fixed_kind_mismatch() {
        let mut col = Column::new(ColumnKind::Text);
        assert!(!col.push_checked(DatumRef::Int(1)));
        assert!(col.push_checked(DatumRef::Null));
        assert!(col.push_checked(DatumRef::Str("a")));
        assert_eq!(col.len(), 2);
    }
}
