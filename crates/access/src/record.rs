//! Typed records: the datum/tuple model and its binary codec.
//!
//! Paper §3.1: "Access Services manage physical data representations of
//! data records". A record is a tuple of datums; the codec is a simple
//! tagged binary format used by heap files and indexes.

use std::cmp::Ordering;
use std::fmt;

use sbdms_kernel::error::{Result, ServiceError};
use sbdms_kernel::value::Value;

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
        !matches!(self, Datum::Null)
            && !matches!(other, Datum::Null)
            && self.order(other) == Ordering::Equal
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
        match self {
            Datum::Null => out.push(0),
            Datum::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            Datum::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Datum::Float(x) => {
                out.push(3);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Datum::Str(s) => {
                out.push(4);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }

    /// Bytes [`Datum::encode_into`] writes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Datum::Null => 1,
            Datum::Bool(_) => 2,
            Datum::Int(_) | Datum::Float(_) => 9,
            Datum::Str(s) => 5 + s.len(),
        }
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
    /// it (no allocation, no UTF-8 check), advancing `pos`.
    fn skip_from(data: &[u8], pos: &mut usize) -> Result<()> {
        let corrupt = || ServiceError::Storage("corrupt record encoding".into());
        let len = match *data.get(*pos).ok_or_else(corrupt)? {
            0 => 0,
            1 => 1,
            2 | 3 => 8,
            4 => {
                let len_bytes = data.get(*pos + 1..*pos + 5).ok_or_else(corrupt)?;
                4 + u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize
            }
            _ => return Err(corrupt()),
        };
        let end = *pos + 1 + len;
        if end > data.len() {
            return Err(corrupt());
        }
        *pos = end;
        Ok(())
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

/// Decode a tuple produced by [`encode_tuple`] straight into column
/// vectors: field `i` is appended to `columns[i]`, with no intermediate
/// [`Tuple`]. A field `keep` marks false is stepped over without being
/// built and appended as NULL, for callers that never read it. The
/// tuple must have exactly `columns.len()` fields; on an error the
/// columns may hold a partial row.
pub fn decode_tuple_into(
    data: &[u8],
    columns: &mut [Vec<Datum>],
    keep: Option<&[bool]>,
) -> Result<()> {
    if data.len() < 2 {
        return Err(ServiceError::Storage("corrupt tuple encoding".into()));
    }
    let n = u16::from_le_bytes(data[0..2].try_into().unwrap()) as usize;
    if n != columns.len() {
        return Err(ServiceError::Storage(format!(
            "tuple has {n} fields, expected {}",
            columns.len()
        )));
    }
    let mut pos = 2;
    for (i, column) in columns.iter_mut().enumerate() {
        if keep.is_none_or(|keep| keep[i]) {
            column.push(Datum::decode_from(data, &mut pos)?);
        } else {
            Datum::skip_from(data, &mut pos)?;
            column.push(Datum::Null);
        }
    }
    if pos != data.len() {
        return Err(ServiceError::Storage("trailing bytes after tuple".into()));
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

    #[test]
    fn decode_into_columns_matches_decode_tuple() {
        let rows = [
            vec![Datum::Int(1), Datum::Str("a".into()), Datum::Null],
            vec![Datum::Int(2), Datum::Str(String::new()), Datum::Float(0.5)],
        ];
        let mut columns = vec![Vec::new(); 3];
        for row in &rows {
            decode_tuple_into(&encode_tuple(row), &mut columns, None).unwrap();
        }
        for (i, row) in rows.iter().enumerate() {
            let got: Tuple = columns.iter().map(|c| c[i].clone()).collect();
            assert_eq!(&got, row);
        }
        // Skipped fields come back NULL; the kept ones still decode.
        let mut pruned = vec![Vec::new(); 3];
        for row in &rows {
            decode_tuple_into(&encode_tuple(row), &mut pruned, Some(&[false, true, false]))
                .unwrap();
        }
        assert_eq!(pruned[0], vec![Datum::Null, Datum::Null]);
        assert_eq!(pruned[1], columns[1]);
        assert_eq!(pruned[2], vec![Datum::Null, Datum::Null]);
        // A field-count mismatch is corruption, not a short row.
        assert!(decode_tuple_into(&encode_tuple(&rows[0][..2]), &mut columns, None).is_err());
        let truncated = &encode_tuple(&rows[0])[..8];
        assert!(decode_tuple_into(truncated, &mut pruned, Some(&[false, false, false])).is_err());
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

    proptest! {
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
