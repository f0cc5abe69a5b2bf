//! Logical schemas: named, typed columns.
//!
//! Paper §3.1: "Data Services present the data in logical structures like
//! tables or views." A schema names and types the columns of a table and
//! validates tuples against them.

use serde::{Deserialize, Serialize};

use sbdms_access::exec::ColumnKind;
use sbdms_access::record::{Datum, Tuple};
use sbdms_kernel::error::{Result, ServiceError};

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// Boolean.
    Bool,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
}

impl ColumnType {
    /// Whether a datum inhabits this type (NULL inhabits none; nullability
    /// is checked separately).
    pub fn admits(&self, d: &Datum) -> bool {
        matches!(
            (self, d),
            (ColumnType::Bool, Datum::Bool(_))
                | (ColumnType::Int, Datum::Int(_))
                | (ColumnType::Float, Datum::Float(_))
                | (ColumnType::Float, Datum::Int(_)) // ints widen on insert
                | (ColumnType::Text, Datum::Str(_))
        )
    }

    /// Parse a SQL type name.
    pub fn parse(s: &str) -> Option<ColumnType> {
        match s.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" => Some(ColumnType::Bool),
            "INT" | "INTEGER" | "BIGINT" => Some(ColumnType::Int),
            "FLOAT" | "DOUBLE" | "REAL" => Some(ColumnType::Float),
            "TEXT" | "VARCHAR" | "STRING" => Some(ColumnType::Text),
            _ => None,
        }
    }

    /// The typed column vector a stored value of this type decodes into.
    pub fn kind(&self) -> ColumnKind {
        match self {
            ColumnType::Bool => ColumnKind::Bool,
            ColumnType::Int => ColumnKind::Int,
            ColumnType::Float => ColumnKind::Float,
            ColumnType::Text => ColumnKind::Text,
        }
    }

    /// SQL name of this type.
    pub fn sql_name(&self) -> &'static str {
        match self {
            ColumnType::Bool => "BOOL",
            ColumnType::Int => "INT",
            ColumnType::Float => "FLOAT",
            ColumnType::Text => "TEXT",
        }
    }
}

/// One column definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    /// Column name (lower-cased at definition).
    pub name: String,
    /// Data type.
    pub ty: ColumnType,
    /// Whether NULL is admitted.
    pub nullable: bool,
}

impl Column {
    /// A nullable column.
    pub fn new(name: &str, ty: ColumnType) -> Column {
        Column {
            name: name.to_lowercase(),
            ty,
            nullable: true,
        }
    }

    /// A NOT NULL column.
    pub fn not_null(name: &str, ty: ColumnType) -> Column {
        Column {
            nullable: false,
            ..Column::new(name, ty)
        }
    }
}

/// An ordered set of columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Schema {
    /// The columns.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Build a schema, rejecting duplicate column names.
    pub fn new(columns: Vec<Column>) -> Result<Schema> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(ServiceError::InvalidInput(format!(
                    "duplicate column `{}`",
                    c.name
                )));
            }
        }
        Ok(Schema { columns })
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The column kind each field of a stored row decodes into, with
    /// [`ColumnKind::Null`] (the length alone) wherever `keep` marks a
    /// field no consumer reads.
    pub fn column_kinds(&self, keep: Option<&[bool]>) -> Vec<ColumnKind> {
        self.columns
            .iter()
            .enumerate()
            .map(|(i, c)| match keep {
                Some(keep) if !keep[i] => ColumnKind::Null,
                _ => c.ty.kind(),
            })
            .collect()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let name = name.to_lowercase();
        self.columns.iter().position(|c| c.name == name)
    }

    /// Validate a tuple: arity, types, nullability. Int literals widen to
    /// float columns in place (the returned tuple is the stored form).
    pub fn validate(&self, tuple: Tuple) -> Result<Tuple> {
        if tuple.len() != self.columns.len() {
            return Err(ServiceError::InvalidInput(format!(
                "expected {} values, got {}",
                self.columns.len(),
                tuple.len()
            )));
        }
        let mut out = Vec::with_capacity(tuple.len());
        for (d, c) in tuple.into_iter().zip(&self.columns) {
            if d.is_null() {
                if !c.nullable {
                    return Err(ServiceError::InvalidInput(format!(
                        "column `{}` is NOT NULL",
                        c.name
                    )));
                }
                out.push(d);
                continue;
            }
            if !c.ty.admits(&d) {
                return Err(ServiceError::InvalidInput(format!(
                    "column `{}` expects {}, got {}",
                    c.name,
                    c.ty.sql_name(),
                    d
                )));
            }
            // Canonicalise int -> float for float columns.
            let d = match (c.ty, d) {
                (ColumnType::Float, Datum::Int(i)) => Datum::Float(i as f64),
                (_, d) => d,
            };
            out.push(d);
        }
        Ok(out)
    }

    /// Concatenate two schemas (join output), qualifying duplicate names.
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        for c in &other.columns {
            let mut c = c.clone();
            if columns.iter().any(|e| e.name == c.name) {
                c.name = format!("{}_r", c.name);
                let mut n = 2;
                while columns.iter().any(|e| e.name == c.name) {
                    c.name = format!("{}_r{}", c.name, n);
                    n += 1;
                }
            }
            columns.push(c);
        }
        Schema { columns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users_schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", ColumnType::Int),
            Column::not_null("name", ColumnType::Text),
            Column::new("score", ColumnType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = Schema::new(vec![
            Column::new("x", ColumnType::Int),
            Column::new("X", ColumnType::Text),
        ]);
        assert!(r.is_err(), "names are case-insensitive");
    }

    #[test]
    fn index_of_is_case_insensitive() {
        let s = users_schema();
        assert_eq!(s.index_of("ID"), Some(0));
        assert_eq!(s.index_of("name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn validate_happy_path_and_widening() {
        let s = users_schema();
        let t = s
            .validate(vec![
                Datum::Int(1),
                Datum::Str("alice".into()),
                Datum::Int(42), // int widens to float column
            ])
            .unwrap();
        assert_eq!(t[2], Datum::Float(42.0));
    }

    #[test]
    fn validate_rejects_bad_arity_type_null() {
        let s = users_schema();
        assert!(s.validate(vec![Datum::Int(1)]).is_err());
        assert!(s
            .validate(vec![
                Datum::Str("oops".into()),
                Datum::Str("a".into()),
                Datum::Null
            ])
            .is_err());
        assert!(s
            .validate(vec![Datum::Int(1), Datum::Null, Datum::Null])
            .is_err(), "name is NOT NULL");
        // Nullable float accepts NULL.
        assert!(s
            .validate(vec![Datum::Int(1), Datum::Str("a".into()), Datum::Null])
            .is_ok());
    }

    #[test]
    fn type_parsing() {
        assert_eq!(ColumnType::parse("int"), Some(ColumnType::Int));
        assert_eq!(ColumnType::parse("VARCHAR"), Some(ColumnType::Text));
        assert_eq!(ColumnType::parse("double"), Some(ColumnType::Float));
        assert_eq!(ColumnType::parse("bool"), Some(ColumnType::Bool));
        assert_eq!(ColumnType::parse("blob"), None);
    }

    #[test]
    fn join_qualifies_duplicates() {
        let a = users_schema();
        let b = Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("amount", ColumnType::Int),
        ])
        .unwrap();
        let j = a.join(&b);
        assert_eq!(j.len(), 5);
        assert_eq!(j.index_of("id"), Some(0));
        assert!(j.index_of("id_r").is_some());
        assert_eq!(j.index_of("amount"), Some(4));
    }

    #[test]
    fn serde_roundtrip() {
        let s = users_schema();
        let json = serde_json::to_string(&s).unwrap();
        let back: Schema = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
