//! Typed records: the datum/tuple model and its binary codec.
//!
//! Paper §3.1: "Access Services manage physical data representations of
//! data records". A record is a tuple of datums; the codec is a simple
//! tagged binary format used by heap files and indexes.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

use sbdms_kernel::error::{Result, ServiceError};
use sbdms_kernel::value::Value;

use sbdms_storage::page::SlotId;

use crate::exec::column::{Column, ColumnKind};

/// One typed field of a record.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

/// A record: an ordered tuple of datums.
pub type Tuple = Vec<Datum>;

impl Datum {
    /// Total order used by sorting, indexes and comparisons: the
    /// borrowed [`DatumRef::order`], so owned datums and encoded keys
    /// compared in place share one comparator.
    pub fn order(&self, other: &Datum) -> Ordering {
        self.as_ref().order(&other.as_ref())
    }

    /// A borrowed view of this datum.
    pub fn as_ref(&self) -> DatumRef<'_> {
        match self {
            Datum::Null => DatumRef::Null,
            Datum::Bool(b) => DatumRef::Bool(*b),
            Datum::Int(i) => DatumRef::Int(*i),
            Datum::Float(x) => DatumRef::Float(*x),
            Datum::Str(s) => DatumRef::Str(s),
        }
    }

    /// Whether this datum equals another under SQL-ish semantics
    /// (NULL != NULL).
    pub fn sql_eq(&self, other: &Datum) -> bool {
        self.as_ref().sql_eq(&other.as_ref())
    }

    /// Is this SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// Truthiness for filter predicates (NULL and non-bool are false).
    pub fn is_true(&self) -> bool {
        matches!(self, Datum::Bool(true))
    }

    /// Encode into `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_ref().encode_into(out)
    }

    /// Bytes [`Datum::encode_into`] writes.
    pub fn encoded_len(&self) -> usize {
        self.as_ref().encoded_len()
    }

    /// Encode to a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decode one datum from `data[*pos..]`, advancing `pos`.
    pub fn decode_from(data: &[u8], pos: &mut usize) -> Result<Datum> {
        DatumRef::decode_from(data, pos).map(|d| d.to_owned())
    }

    /// Step over one encoded datum at `data[*pos..]` without building
    /// it (no allocation, no UTF-8 check), advancing `pos`; `None` if it
    /// is corrupt.
    fn skip_from(data: &[u8], pos: &mut usize) -> Option<()> {
        let len = match *data.get(*pos)? {
            0 => 0,
            1 => 1,
            2 | 3 => 8,
            4 => {
                let len_bytes = data.get(*pos + 1..*pos + 5)?;
                4 + u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize
            }
            _ => return None,
        };
        let end = *pos + 1 + len;
        if end > data.len() {
            return None;
        }
        *pos = end;
        Some(())
    }

    /// Decode a single datum occupying the whole buffer.
    pub fn decode(data: &[u8]) -> Result<Datum> {
        let mut pos = 0;
        let d = Datum::decode_from(data, &mut pos)?;
        if pos != data.len() {
            return Err(ServiceError::Storage("trailing bytes after datum".into()));
        }
        Ok(d)
    }

    /// Convert to the kernel `Value` for service payloads.
    pub fn to_value(&self) -> Value {
        match self {
            Datum::Null => Value::Null,
            Datum::Bool(b) => Value::Bool(*b),
            Datum::Int(i) => Value::Int(*i),
            Datum::Float(x) => Value::Float(*x),
            Datum::Str(s) => Value::Str(s.clone()),
        }
    }

    /// Convert from a kernel `Value` (scalar kinds only).
    pub fn from_value(v: &Value) -> Result<Datum> {
        match v {
            Value::Null => Ok(Datum::Null),
            Value::Bool(b) => Ok(Datum::Bool(*b)),
            Value::Int(i) => Ok(Datum::Int(*i)),
            Value::Float(x) => Ok(Datum::Float(*x)),
            Value::Str(s) => Ok(Datum::Str(s.clone())),
            other => Err(ServiceError::InvalidInput(format!(
                "cannot convert {:?} to a datum",
                other.type_tag()
            ))),
        }
    }
}

/// A borrowed datum: a view of an owned [`Datum`], or of an encoded
/// field in place (a string borrows its UTF-8 from the buffer), so
/// encoded keys compare without building owned datums.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DatumRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(&'a str),
}

impl<'a> DatumRef<'a> {
    /// The total order behind [`Datum::order`]. NULL sorts first;
    /// numeric types compare cross-type; distinct non-comparable types
    /// order by a fixed type rank.
    pub fn order(&self, other: &DatumRef<'_>) -> Ordering {
        use DatumRef::*;
        match (*self, *other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) => a.cmp(&b),
            (Float(a), Float(b)) => a.total_cmp(&b),
            (Int(a), Float(b)) => (a as f64).total_cmp(&b),
            (Float(a), Int(b)) => a.total_cmp(&(b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }

    /// SQL equality ([`Datum::sql_eq`]): NULL equals nothing.
    pub fn sql_eq(&self, other: &DatumRef<'_>) -> bool {
        !self.is_null() && !other.is_null() && self.order(other) == Ordering::Equal
    }

    /// Is this SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, DatumRef::Null)
    }

    /// Encode into `out` (the codec [`Datum::encode_into`] writes).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            DatumRef::Null => out.push(0),
            DatumRef::Bool(b) => {
                out.push(1);
                out.push(b as u8);
            }
            DatumRef::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            DatumRef::Float(x) => {
                out.push(3);
                out.extend_from_slice(&x.to_le_bytes());
            }
            DatumRef::Str(s) => {
                out.push(4);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }

    /// Bytes [`DatumRef::encode_into`] writes.
    pub fn encoded_len(&self) -> usize {
        match self {
            DatumRef::Null => 1,
            DatumRef::Bool(_) => 2,
            DatumRef::Int(_) | DatumRef::Float(_) => 9,
            DatumRef::Str(s) => 5 + s.len(),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            DatumRef::Null => 0,
            DatumRef::Bool(_) => 1,
            DatumRef::Int(_) | DatumRef::Float(_) => 2,
            DatumRef::Str(_) => 3,
        }
    }

    /// An owned copy.
    pub fn to_owned(&self) -> Datum {
        match *self {
            DatumRef::Null => Datum::Null,
            DatumRef::Bool(b) => Datum::Bool(b),
            DatumRef::Int(i) => Datum::Int(i),
            DatumRef::Float(x) => Datum::Float(x),
            DatumRef::Str(s) => Datum::Str(s.to_string()),
        }
    }

    /// Decode one datum from `data[*pos..]` in place, advancing `pos`.
    /// Checks the tag, the length and (for strings) UTF-8; allocates
    /// nothing.
    pub fn decode_from(data: &'a [u8], pos: &mut usize) -> Result<DatumRef<'a>> {
        let corrupt = || ServiceError::Storage("corrupt record encoding".into());
        let tag = *data.get(*pos).ok_or_else(corrupt)?;
        *pos += 1;
        match tag {
            0 => Ok(DatumRef::Null),
            1 => {
                let b = *data.get(*pos).ok_or_else(corrupt)?;
                *pos += 1;
                Ok(DatumRef::Bool(b != 0))
            }
            2 => {
                let bytes = data.get(*pos..*pos + 8).ok_or_else(corrupt)?;
                *pos += 8;
                Ok(DatumRef::Int(i64::from_le_bytes(bytes.try_into().unwrap())))
            }
            3 => {
                let bytes = data.get(*pos..*pos + 8).ok_or_else(corrupt)?;
                *pos += 8;
                Ok(DatumRef::Float(f64::from_le_bytes(bytes.try_into().unwrap())))
            }
            4 => {
                let len_bytes = data.get(*pos..*pos + 4).ok_or_else(corrupt)?;
                let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
                *pos += 4;
                let bytes = data.get(*pos..*pos + len).ok_or_else(corrupt)?;
                *pos += len;
                Ok(DatumRef::Str(std::str::from_utf8(bytes).map_err(|_| corrupt())?))
            }
            _ => Err(corrupt()),
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::Int(i) => write!(f, "{i}"),
            Datum::Float(x) => write!(f, "{x}"),
            Datum::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Encode a tuple: field count then each datum.
pub fn encode_tuple(tuple: &[Datum]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + tuple.len() * 9);
    encode_tuple_into(tuple, &mut out);
    out
}

/// Bytes [`encode_tuple`] writes for `tuple`: a 2-byte field count,
/// then its fields.
pub fn encoded_tuple_len(tuple: &[Datum]) -> usize {
    2 + tuple.iter().map(Datum::encoded_len).sum::<usize>()
}

/// [`encode_tuple`] into a caller-owned buffer (appending), so per-row
/// encoders can reuse one allocation across rows.
pub fn encode_tuple_into(tuple: &[Datum], out: &mut Vec<u8>) {
    out.extend_from_slice(&(tuple.len() as u16).to_le_bytes());
    for d in tuple {
        d.encode_into(out);
    }
}

/// Decode a tuple produced by [`encode_tuple`].
pub fn decode_tuple(data: &[u8]) -> Result<Tuple> {
    let mut tuple = Vec::with_capacity(field_count(data)?);
    for_each_field(data, |_, d| tuple.push(d.to_owned()))?;
    Ok(tuple)
}

/// The field count in an encoded tuple's header.
fn field_count(data: &[u8]) -> Result<usize> {
    let header = data
        .get(0..2)
        .ok_or_else(|| ServiceError::Storage("corrupt tuple encoding".into()))?;
    Ok(u16::from_le_bytes(header.try_into().unwrap()) as usize)
}

/// Walk a tuple produced by [`encode_tuple`] in place, handing field
/// `i` to `field(i, datum)`, and return the field count. The encoding
/// is validated exactly as [`decode_tuple`] validates it (field count,
/// tags, lengths, UTF-8, no trailing bytes) with nothing allocated; on
/// an error `field` may have seen a prefix of the fields.
pub fn for_each_field<'a>(
    data: &'a [u8],
    mut field: impl FnMut(usize, DatumRef<'a>),
) -> Result<usize> {
    let n = field_count(data)?;
    let mut pos = 2;
    for i in 0..n {
        field(i, DatumRef::decode_from(data, &mut pos)?);
    }
    if pos != data.len() {
        return Err(ServiceError::Storage("trailing bytes after tuple".into()));
    }
    Ok(n)
}

/// Decode a tuple produced by [`encode_tuple`] straight into typed
/// column builders: field `i` is appended to `columns[i]`, with no
/// intermediate [`Tuple`] or [`Datum`]. A field `keep` marks false is
/// stepped over without being built and appended as NULL, for callers
/// that never read it. The checks are [`decode_tuple`]'s (field count,
/// tags, lengths, UTF-8 of every kept string, no trailing bytes), plus
/// one: a value whose type differs from its column's fixed kind (an INT
/// in a TEXT column) is corrupt. A column of kind
/// [`ColumnKind::Null`](crate::exec::column::ColumnKind::Null) takes the
/// type of its first value. On an error the columns may hold a partial
/// row.
pub fn decode_tuple_into(
    data: &[u8],
    columns: &mut [Column],
    keep: Option<&[bool]>,
) -> Result<()> {
    let n = field_count(data)?;
    if n != columns.len() {
        return Err(ServiceError::Storage(format!(
            "tuple has {n} fields, expected {}",
            columns.len()
        )));
    }
    decode_fields(data, columns, keep).map_err(|fault| fault.error(columns))
}

/// Consecutive pages that do not match its layout after which a
/// [`PageDecoder`] stops trying them (a column that holds NULLs shifts
/// the offsets of every record that has one).
const MAX_MISSES: u32 = 4;

/// Decodes the records of a heap page straight into typed columns, as
/// [`decode_tuple_into`] does one record at a time, with a loop per field
/// over the page's records in place of a dispatch per field.
///
/// Compiled once per scan from the schema's column kinds and the read
/// set. When every field is INT, FLOAT or BOOL, save that the last may be
/// TEXT, a record without NULLs has each field's tag at a fixed offset,
/// and its length is fixed or given by that TEXT field's length prefix.
/// A page whose records all have that shape is checked (field count,
/// every tag, exact length) and then read a field at a time: each INT or
/// FLOAT column in one extend, a read TEXT field's UTF-8 checked as it
/// is appended. Any other page (a NULL, a corrupt byte, a value whose
/// type is not its column's) is decoded record by record with
/// [`decode_tuple_into`], which stays the one definition of a valid
/// record and of its errors. After [`MAX_MISSES`] such pages in a row a
/// decoder stops trying the layout.
#[derive(Debug, Clone)]
pub struct PageDecoder {
    /// The read set (`None`: every field).
    keep: Option<Vec<bool>>,
    /// The field-count header of every record.
    count: [u8; 2],
    /// Each INT, FLOAT or BOOL field: its tag's offset, the tag, the
    /// field's index and whether it is read.
    fixed: Vec<(usize, u8, usize, bool)>,
    /// The closing TEXT field: its index and whether it is read.
    text: Option<(usize, bool)>,
    /// Bytes through the last fixed one: the header, the fixed-width
    /// fields and the closing TEXT field's tag and length prefix.
    len: usize,
    /// Pages in a row that did not match the layout.
    misses: u32,
}

impl PageDecoder {
    /// A decoder of records whose field `i` holds values of `kinds[i]`
    /// (the schema's kinds), reading the fields `keep` marks into typed
    /// columns and counting the rest as NULL.
    pub fn new(kinds: &[ColumnKind], keep: Option<&[bool]>) -> PageDecoder {
        let mut decoder = PageDecoder {
            keep: keep.map(<[bool]>::to_vec),
            count: (kinds.len() as u16).to_le_bytes(),
            fixed: Vec::with_capacity(kinds.len()),
            text: None,
            len: 2,
            misses: 0,
        };
        for (i, &kind) in kinds.iter().enumerate() {
            let read = keep.is_none_or(|keep| keep[i]);
            let (tag, width) = match kind {
                ColumnKind::Bool => (1, 1),
                ColumnKind::Int => (2, 8),
                ColumnKind::Float => (3, 8),
                ColumnKind::Text if i + 1 == kinds.len() => {
                    decoder.text = Some((i, read));
                    decoder.len += 5;
                    continue;
                }
                _ => {
                    decoder.misses = MAX_MISSES;
                    break;
                }
            };
            decoder.fixed.push((decoder.len, tag, i, read));
            decoder.len += 1 + width;
        }
        decoder
    }

    /// The read set (`None`: every field).
    pub fn keep(&self) -> Option<&[bool]> {
        self.keep.as_deref()
    }

    /// Append the records at `records` (slot, byte range in `bytes`) to
    /// `columns` (one per field), in order. The checks and errors are
    /// [`decode_tuple_into`]'s; on an error the columns may hold part of
    /// the records.
    pub fn decode(
        &mut self,
        bytes: &[u8],
        records: &[(SlotId, Range<usize>)],
        columns: &mut [Column],
    ) -> Result<()> {
        if self.misses < MAX_MISSES {
            if columns.len() == self.fixed.len() + self.text.iter().len()
                && self.matches(bytes, records)
            {
                let rows = columns.first().map_or(0, Column::len);
                if self.read(bytes, records, columns) {
                    self.misses = 0;
                    return Ok(());
                }
                columns.iter_mut().for_each(|c| c.truncate(rows));
            }
            self.misses += 1;
        }
        for (_, range) in records {
            let record = bytes
                .get(range.clone())
                .ok_or_else(|| ServiceError::Storage("record outside its page".into()))?;
            decode_tuple_into(record, columns, self.keep.as_deref())?;
        }
        Ok(())
    }

    /// Whether every record has the layout's field count, tags and
    /// length.
    fn matches(&self, bytes: &[u8], records: &[(SlotId, Range<usize>)]) -> bool {
        let len = self.len;
        let mut ok = true;
        for (_, range) in records {
            let Some(r) = bytes.get(range.clone()) else {
                return false;
            };
            ok &= match self.text {
                Some(_) => {
                    r.len() >= len
                        && r[len - 5] == 4
                        && len + u32::from_le_bytes(r[len - 4..len].try_into().expect("4 bytes"))
                            as usize
                            == r.len()
                }
                None => r.len() == len,
            } && r[..2] == self.count;
        }
        if !ok {
            return false;
        }
        // Every record is long enough for the fixed fields.
        for &(at, tag, _, _) in &self.fixed {
            for (_, range) in records {
                ok &= bytes[range.start + at] == tag;
            }
        }
        ok
    }

    /// Read the records [`PageDecoder::matches`] accepted, a field at a
    /// time; false, with part of them appended, at a read string that is
    /// not UTF-8 or a value its column does not take.
    fn read(&self, bytes: &[u8], records: &[(SlotId, Range<usize>)], columns: &mut [Column]) -> bool {
        let word = |at: usize| u64::from_le_bytes(bytes[at + 1..at + 9].try_into().expect("8 bytes"));
        let n = records.len();
        for &(at, tag, i, read) in &self.fixed {
            let mut fields = records.iter().map(|(_, range)| range.start + at);
            match (&mut columns[i], read) {
                (Column::Null(rows), false) => *rows += n,
                (column, false) => (0..n).for_each(|_| column.push_null()),
                (Column::Int(v, valid), true) if tag == 2 && valid.all_valid() => {
                    v.extend(fields.map(|at| word(at) as i64))
                }
                (Column::Float(v, valid), true) if tag == 3 && valid.all_valid() => {
                    v.extend(fields.map(|at| f64::from_bits(word(at))))
                }
                (column, true) => {
                    let fits = fields.all(|at| {
                        column.push_checked(match tag {
                            1 => DatumRef::Bool(bytes[at + 1] != 0),
                            2 => DatumRef::Int(word(at) as i64),
                            _ => DatumRef::Float(f64::from_bits(word(at))),
                        })
                    });
                    if !fits {
                        return false;
                    }
                }
            }
        }
        match self.text {
            Some((i, false)) => match &mut columns[i] {
                Column::Null(rows) => *rows += n,
                column => (0..n).for_each(|_| column.push_null()),
            },
            Some((i, true)) => {
                for (_, range) in records {
                    let s = std::str::from_utf8(&bytes[range.start + self.len..range.end]);
                    if !s.is_ok_and(|s| columns[i].push_checked(DatumRef::Str(s))) {
                        return false;
                    }
                }
            }
            None => {}
        }
        true
    }
}

/// Why a record failed to decode, turned into an error off the loop.
enum Fault {
    /// A tag, length or string that is not the codec's, or bytes after
    /// the last field.
    Corrupt(&'static str),
    /// Field `i` holds a value of tag `tag`, which its column's kind
    /// does not take.
    Mismatch(usize, u8),
}

impl Fault {
    #[cold]
    fn error(self, columns: &[Column]) -> ServiceError {
        ServiceError::Storage(match self {
            Fault::Corrupt(what) => what.to_string(),
            Fault::Mismatch(i, tag) => format!(
                "corrupt record: field {i} has tag {tag}, its column is {:?}",
                columns[i].kind()
            ),
        })
    }
}

/// The fields of [`decode_tuple_into`] after its field-count check.
fn decode_fields(
    data: &[u8],
    columns: &mut [Column],
    keep: Option<&[bool]>,
) -> std::result::Result<(), Fault> {
    const CORRUPT: Fault = Fault::Corrupt("corrupt record encoding");
    let mut pos = 2;
    let kept = |i: usize| keep.is_none_or(|keep| keep[i]);
    for (i, column) in columns.iter_mut().enumerate() {
        if kept(i) {
            let at = pos;
            if !column.decode_push(data, &mut pos).ok_or(CORRUPT)? {
                return Err(Fault::Mismatch(i, data[at]));
            }
        } else {
            Datum::skip_from(data, &mut pos).ok_or(CORRUPT)?;
            match column {
                Column::Null(n) => *n += 1,
                column => column.push_null(),
            }
        }
    }
    if pos != data.len() {
        return Err(Fault::Corrupt("trailing bytes after tuple"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_roundtrips() {
        for d in [
            Datum::Null,
            Datum::Bool(true),
            Datum::Bool(false),
            Datum::Int(-42),
            Datum::Int(i64::MAX),
            Datum::Float(3.75),
            Datum::Str("héllo".into()),
            Datum::Str(String::new()),
        ] {
            assert_eq!(Datum::decode(&d.encode()).unwrap(), d);
        }
    }

    #[test]
    fn tuple_roundtrip() {
        let t = vec![
            Datum::Int(1),
            Datum::Str("alice".into()),
            Datum::Float(99.5),
            Datum::Null,
            Datum::Bool(true),
        ];
        assert_eq!(decode_tuple(&encode_tuple(&t)).unwrap(), t);
        assert_eq!(decode_tuple(&encode_tuple(&[])).unwrap(), Vec::<Datum>::new());
    }

    use crate::exec::column::ColumnKind;

    /// Typed builders for `kinds`, with a `Null` column wherever `keep`
    /// marks a field unread (as a table scan builds them).
    fn builders(kinds: &[ColumnKind], keep: Option<&[bool]>) -> Vec<Column> {
        kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| match keep {
                Some(keep) if !keep[i] => Column::new(ColumnKind::Null),
                _ => Column::new(k),
            })
            .collect()
    }

    fn assert_storage_error(r: Result<()>, what: &str) {
        match r {
            Err(ServiceError::Storage(_)) => {}
            other => panic!("{what}: expected a storage error, got {other:?}"),
        }
    }

    #[test]
    fn decode_into_columns_matches_decode_tuple() {
        let rows = [
            vec![Datum::Int(1), Datum::Str("a".into()), Datum::Null],
            vec![Datum::Int(2), Datum::Str(String::new()), Datum::Float(0.5)],
        ];
        let kinds = [ColumnKind::Int, ColumnKind::Text, ColumnKind::Float];
        let mut columns = builders(&kinds, None);
        for row in &rows {
            decode_tuple_into(&encode_tuple(row), &mut columns, None).unwrap();
        }
        for (i, row) in rows.iter().enumerate() {
            let got: Tuple = columns.iter().map(|c| c.datum(i)).collect();
            assert_eq!(&got, row);
        }
        // Skipped fields come back NULL and hold only their length; the
        // kept ones still decode.
        let keep = [false, true, false];
        let mut pruned = builders(&kinds, Some(&keep));
        for row in &rows {
            decode_tuple_into(&encode_tuple(row), &mut pruned, Some(&keep)).unwrap();
        }
        assert_eq!(pruned[0].kind(), ColumnKind::Null);
        assert_eq!(pruned[0].clone().into_datums(), vec![Datum::Null, Datum::Null]);
        assert_eq!(pruned[1].clone().into_datums(), columns[1].clone().into_datums());
        assert_eq!(pruned[1].kind(), ColumnKind::Text);
        // A field-count mismatch is corruption, not a short row.
        let short = decode_tuple_into(&encode_tuple(&rows[0][..2]), &mut columns, None);
        assert_storage_error(short, "field count");
    }

    #[test]
    fn typed_decode_rejects_a_wrong_tag() {
        // An INT where the column is TEXT, and a tag no codec writes.
        let mut text = builders(&[ColumnKind::Text], None);
        let int = encode_tuple(&[Datum::Int(7)]);
        assert_storage_error(decode_tuple_into(&int, &mut text, None), "INT in TEXT");
        let mut floats = builders(&[ColumnKind::Float], None);
        assert_storage_error(decode_tuple_into(&int, &mut floats, None), "INT in FLOAT");
        assert_storage_error(decode_tuple_into(&[1, 0, 9], &mut text, None), "tag 9");
        // A skipped field's tag is still checked.
        let mut skipped = builders(&[ColumnKind::Int], Some(&[false]));
        assert_storage_error(decode_tuple_into(&[1, 0, 9], &mut skipped, Some(&[false])), "skip");
    }

    #[test]
    fn typed_decode_rejects_a_truncated_field() {
        let row = encode_tuple(&[Datum::Int(1), Datum::Str("abc".into())]);
        let kinds = [ColumnKind::Int, ColumnKind::Text];
        for cut in [row.len() - 1, 6, 1] {
            let mut columns = builders(&kinds, None);
            assert_storage_error(decode_tuple_into(&row[..cut], &mut columns, None), "kept");
            let keep = [true, false];
            let mut columns = builders(&kinds, Some(&keep));
            let r = decode_tuple_into(&row[..cut], &mut columns, Some(&keep));
            assert_storage_error(r, "skipped");
        }
    }

    #[test]
    fn typed_decode_rejects_bad_utf8() {
        // One TEXT field of two bytes that are not UTF-8.
        let bad = [1, 0, 4, 2, 0, 0, 0, 0xff, 0xfe];
        let mut columns = builders(&[ColumnKind::Text], None);
        assert_storage_error(decode_tuple_into(&bad, &mut columns, None), "bad UTF-8");
    }

    #[test]
    fn typed_decode_rejects_trailing_bytes() {
        let mut row = encode_tuple(&[Datum::Bool(true), Datum::Null]);
        row.push(0);
        let kinds = [ColumnKind::Bool, ColumnKind::Int];
        let mut columns = builders(&kinds, None);
        assert_storage_error(decode_tuple_into(&row, &mut columns, None), "kept");
        let keep = [false, false];
        let mut columns = builders(&kinds, Some(&keep));
        assert_storage_error(decode_tuple_into(&row, &mut columns, Some(&keep)), "skipped");
    }

    /// Decode a page of five `(INT, INT, TEXT)` records, the middle one
    /// replaced by `bad`, reading the fields `keep` marks.
    fn decode_page_with(bad: &[u8], keep: Option<&[bool]>) -> Result<Vec<Column>> {
        let kinds = [ColumnKind::Int, ColumnKind::Int, ColumnKind::Text];
        let mut page = Vec::new();
        let mut records = Vec::new();
        for i in 0..5i64 {
            let start = page.len();
            match i {
                2 => page.extend_from_slice(bad),
                _ => page.extend(encode_tuple(&[Datum::Int(i), Datum::Int(-i), Datum::Str("é".into())])),
            }
            records.push((i as SlotId, start..page.len()));
        }
        let mut columns = builders(&kinds, keep);
        PageDecoder::new(&kinds, keep).decode(&page, &records, &mut columns)?;
        Ok(columns)
    }

    /// `decode_page_with` fails with a storage error whether or not the
    /// TEXT field is read.
    fn assert_page_rejects(bad: &[u8], what: &str) {
        assert_storage_error(decode_page_with(bad, None).map(drop), what);
        assert_storage_error(decode_page_with(bad, Some(&[true, true, false])).map(drop), what);
    }

    fn good_record() -> Vec<u8> {
        encode_tuple(&[Datum::Int(7), Datum::Int(8), Datum::Str("abc".into())])
    }

    #[test]
    fn page_decode_reads_a_page_of_its_layout() {
        let columns = decode_page_with(&good_record(), None).unwrap();
        assert_eq!(columns[0].clone().into_datums(), [0, 1, 7, 3, 4].map(Datum::Int));
        assert_eq!(columns[1].kind(), ColumnKind::Int);
        assert_eq!(columns[2].datum(2), Datum::Str("abc".into()));
        // A NULL sends the page through the field-by-field decoder.
        let null = encode_tuple(&[Datum::Int(7), Datum::Null, Datum::Str("abc".into())]);
        let columns = decode_page_with(&null, Some(&[true, true, false])).unwrap();
        assert_eq!(columns[1].datum(2), Datum::Null);
        assert_eq!(columns[1].datum(3), Datum::Int(-3));
        assert_eq!(columns[2].clone().into_datums(), vec![Datum::Null; 5]);
    }

    #[test]
    fn page_decode_rejects_a_wrong_tag() {
        let mut bad = good_record();
        bad[11] = 3; // the second field: a FLOAT tag in an INT column
        assert_page_rejects(&bad, "FLOAT in INT");
        bad[11] = 9;
        assert_page_rejects(&bad, "tag 9");
    }

    #[test]
    fn page_decode_rejects_a_truncated_field() {
        let good = good_record();
        for cut in [good.len() - 1, 15, 1] {
            assert_page_rejects(&good[..cut], "truncated");
        }
    }

    #[test]
    fn page_decode_rejects_a_wrong_field_count() {
        let short = encode_tuple(&[Datum::Int(7), Datum::Int(8)]);
        assert_page_rejects(&short, "two fields");
        let mut four = good_record();
        four[0] = 4;
        four.extend(Datum::Int(1).encode());
        assert_page_rejects(&four, "four fields");
    }

    #[test]
    fn page_decode_rejects_trailing_bytes() {
        let mut bad = good_record();
        bad.push(0);
        assert_page_rejects(&bad, "trailing byte");
    }

    #[test]
    fn page_decode_rejects_bad_utf8_in_a_kept_string() {
        let mut bad = encode_tuple(&[Datum::Int(7), Datum::Int(8), Datum::Str("ab".into())]);
        let n = bad.len();
        bad[n - 2..].copy_from_slice(&[0xff, 0xfe]);
        assert_storage_error(decode_page_with(&bad, None).map(drop), "bad UTF-8");
        // Unread, the string is stepped over as the typed decoder does.
        assert!(decode_page_with(&bad, Some(&[true, true, false])).is_ok());
        // A record range outside the page is an error, not a panic.
        let kinds = [ColumnKind::Int];
        let mut columns = builders(&kinds, None);
        let out = PageDecoder::new(&kinds, None).decode(&[1, 0], &[(0, 0..9)], &mut columns);
        assert_storage_error(out, "range");
    }

    #[test]
    fn corrupt_encodings_rejected() {
        assert!(Datum::decode(&[]).is_err());
        assert!(Datum::decode(&[9]).is_err());
        assert!(Datum::decode(&[2, 1, 2]).is_err()); // short int
        assert!(Datum::decode(&[4, 5, 0, 0, 0, b'a']).is_err()); // short str
        assert!(decode_tuple(&[1]).is_err());
        // Trailing garbage.
        let mut enc = Datum::Int(1).encode();
        enc.push(0);
        assert!(Datum::decode(&enc).is_err());
    }

    #[test]
    fn ordering_semantics() {
        use std::cmp::Ordering::*;
        assert_eq!(Datum::Null.order(&Datum::Int(0)), Less);
        assert_eq!(Datum::Int(1).order(&Datum::Int(2)), Less);
        assert_eq!(Datum::Int(2).order(&Datum::Float(1.5)), Greater);
        assert_eq!(Datum::Float(2.0).order(&Datum::Int(2)), Equal);
        assert_eq!(Datum::Str("a".into()).order(&Datum::Str("b".into())), Less);
        // Cross-type rank: bool < numeric < string.
        assert_eq!(Datum::Bool(true).order(&Datum::Int(0)), Less);
        assert_eq!(Datum::Str("x".into()).order(&Datum::Int(9)), Greater);
    }

    #[test]
    fn sql_null_semantics() {
        assert!(!Datum::Null.sql_eq(&Datum::Null));
        assert!(!Datum::Null.sql_eq(&Datum::Int(1)));
        assert!(Datum::Int(1).sql_eq(&Datum::Int(1)));
        assert!(Datum::Null.is_null());
        assert!(!Datum::Bool(false).is_true());
        assert!(Datum::Bool(true).is_true());
        assert!(!Datum::Int(1).is_true());
    }

    #[test]
    fn value_conversion() {
        let d = Datum::Str("x".into());
        assert_eq!(Datum::from_value(&d.to_value()).unwrap(), d);
        assert!(Datum::from_value(&Value::Bytes(vec![1])).is_err());
        assert!(Datum::from_value(&Value::List(vec![])).is_err());
    }

    fn arb_datum() -> impl Strategy<Value = Datum> {
        prop_oneof![
            Just(Datum::Null),
            any::<bool>().prop_map(Datum::Bool),
            any::<i64>().prop_map(Datum::Int),
            (-1e15f64..1e15f64).prop_map(Datum::Float),
            "[a-zA-Z0-9 ]{0,40}".prop_map(Datum::Str),
        ]
    }

    /// The kind of column `code` (0..4) names.
    fn kind_of(code: u8) -> ColumnKind {
        [ColumnKind::Int, ColumnKind::Float, ColumnKind::Bool, ColumnKind::Text][code as usize]
    }

    /// A stored value of `kind` from one raw cell: NULL a quarter of the
    /// time, FLOAT values half the time a widened INT (as the schema
    /// stores an INT written to a FLOAT column), strings empty or
    /// multi-byte.
    fn value_of(kind: ColumnKind, (roll, int, b, s): &(u8, i64, bool, String)) -> Datum {
        match (roll, kind) {
            (0, _) => Datum::Null,
            (_, ColumnKind::Int) => Datum::Int(*int),
            (1, ColumnKind::Float) => Datum::Float(*int as i32 as f64),
            (_, ColumnKind::Float) => Datum::Float((*int % 1_000_000_007) as f64 / 7.0),
            (_, ColumnKind::Bool) => Datum::Bool(*b),
            _ => Datum::Str(s.clone()),
        }
    }

    proptest! {
        #[test]
        fn prop_typed_decode_matches_decode_tuple(
            width in 0usize..7,
            codes in proptest::collection::vec(0u8..4, 7..8),
            mask in proptest::collection::vec(any::<bool>(), 7..8),
            cells in proptest::collection::vec(
                proptest::collection::vec((0u8..4, any::<i64>(), any::<bool>(), "[a-zé漢 ]{0,6}"), 7..8),
                0..12,
            )
        ) {
            let kinds: Vec<ColumnKind> = codes[..width].iter().map(|&c| kind_of(c)).collect();
            let rows: Vec<Tuple> = cells
                .iter()
                .map(|row| kinds.iter().zip(row).map(|(&k, cell)| value_of(k, cell)).collect())
                .collect();
            for keep in [None, Some(&mask[..width])] {
                let mut columns = builders(&kinds, keep);
                for row in &rows {
                    decode_tuple_into(&encode_tuple(row), &mut columns, keep).unwrap();
                }
                for (i, col) in columns.iter().enumerate() {
                    let kept = keep.is_none_or(|k| k[i]);
                    prop_assert_eq!(col.kind(), if kept { kinds[i] } else { ColumnKind::Null });
                    prop_assert_eq!(col.len(), rows.len());
                    for (r, row) in rows.iter().enumerate() {
                        let want = decode_tuple(&encode_tuple(row)).unwrap();
                        let want = if kept { want[i].clone() } else { Datum::Null };
                        prop_assert_eq!(col.datum(r), want);
                    }
                }
            }
        }

        #[test]
        fn prop_page_decode_matches_decode_tuple(
            width in 1usize..7,
            codes in proptest::collection::vec(0u8..4, 7..8),
            mask in proptest::collection::vec(any::<bool>(), 7..8),
            cells in proptest::collection::vec(
                proptest::collection::vec((0u8..4, any::<i64>(), any::<bool>(), "[a-zé漢 ]{0,6}"), 7..8),
                0..24,
            ),
            last_text in any::<bool>(),
            nulls in any::<bool>(),
            split in 0usize..24,
            gap in 0usize..3,
        ) {
            // Half the schemas have the decoder's layout (fixed-width
            // fields, then at most one TEXT field, last); half the pages
            // hold no NULL, so whole pages take the layout.
            let mut kinds: Vec<ColumnKind> = codes[..width].iter().map(|&c| kind_of(c)).collect();
            if last_text {
                kinds.iter_mut().for_each(|k| if *k == ColumnKind::Text { *k = ColumnKind::Int });
                kinds[width - 1] = ColumnKind::Text;
            }
            let rows: Vec<Tuple> = cells
                .iter()
                .map(|row| {
                    kinds
                        .iter()
                        .zip(row)
                        .map(|(&k, cell)| match cell {
                            (0, i, b, s) if !nulls => value_of(k, &(2, *i, *b, s.clone())),
                            cell => value_of(k, cell),
                        })
                        .collect()
                })
                .collect();
            // The records of one page, with bytes between them.
            let mut page = Vec::new();
            let mut records = Vec::new();
            for (slot, row) in rows.iter().enumerate() {
                page.extend(std::iter::repeat_n(0xee, gap));
                let start = page.len();
                page.extend(encode_tuple(row));
                records.push((slot as SlotId, start..page.len()));
            }
            let split = split.min(records.len());
            for keep in [None, Some(&mask[..width])] {
                let mut want = builders(&kinds, keep);
                for row in &rows {
                    decode_tuple_into(&encode_tuple(row), &mut want, keep).unwrap();
                }
                let mut decoder = PageDecoder::new(&kinds, keep);
                let mut got = builders(&kinds, keep);
                decoder.decode(&page, &records[..split], &mut got).unwrap();
                decoder.decode(&page, &records[split..], &mut got).unwrap();
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(g.kind(), w.kind());
                    prop_assert_eq!(g.clone().into_datums(), w.clone().into_datums());
                }
                // A page of the layout is read by it.
                if last_text && !nulls {
                    prop_assert_eq!(decoder.misses, 0);
                }
            }
        }

        #[test]
        fn prop_tuple_roundtrip(t in proptest::collection::vec(arb_datum(), 0..12)) {
            prop_assert_eq!(decode_tuple(&encode_tuple(&t)).unwrap(), t);
        }

        #[test]
        fn prop_order_total_and_antisymmetric(a in arb_datum(), b in arb_datum()) {
            let ab = a.order(&b);
            let ba = b.order(&a);
            prop_assert_eq!(ab, ba.reverse());
            prop_assert_eq!(a.order(&a), std::cmp::Ordering::Equal);
        }

        #[test]
        fn prop_order_transitive(a in arb_datum(), b in arb_datum(), c in arb_datum()) {
            use std::cmp::Ordering::*;
            let mut v = [a, b, c];
            v.sort_by(|x, y| x.order(y));
            // sorted ⇒ pairwise ordered
            prop_assert_ne!(v[0].order(&v[1]), Greater);
            prop_assert_ne!(v[1].order(&v[2]), Greater);
            prop_assert_ne!(v[0].order(&v[2]), Greater);
        }
    }
}
