//! The SQL abstract syntax tree.
//!
//! A deliberately small dialect covering the workloads of the paper's
//! scenarios: DDL (tables, indexes, views), DML (insert/update/delete),
//! and select-project-join-aggregate queries with ordering and limits.

use sbdms_access::exec::aggregate::AggFunc;
use sbdms_access::exec::expr::{BinOp, UnaryOp};
use sbdms_access::record::Datum;

use crate::schema::Column;

/// An expression over named columns (pre-planning).
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// `qualifier.name` or bare `name`.
    Column(Option<String>, String),
    /// A literal.
    Literal(Datum),
    /// A `?` placeholder: statement parameter `i` (0-based, text order),
    /// bound per execution.
    Param(usize),
    /// Unary operation.
    Unary(UnaryOp, Box<AstExpr>),
    /// Binary operation.
    Binary(BinOp, Box<AstExpr>, Box<AstExpr>),
    /// Aggregate call; `None` argument means `COUNT(*)`.
    Agg(AggFunc, Option<Box<AstExpr>>),
}

impl AstExpr {
    /// Bare column reference.
    pub fn col(name: &str) -> AstExpr {
        AstExpr::Column(None, name.to_string())
    }

    /// Integer literal.
    pub fn int(v: i64) -> AstExpr {
        AstExpr::Literal(Datum::Int(v))
    }

    /// Does this expression (transitively) contain an aggregate call?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            AstExpr::Agg(..) => true,
            AstExpr::Unary(_, e) => e.contains_aggregate(),
            AstExpr::Binary(_, l, r) => l.contains_aggregate() || r.contains_aggregate(),
            _ => false,
        }
    }
}

/// One output item of a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// An expression, optionally aliased.
    Expr {
        /// The expression.
        expr: AstExpr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// One `JOIN table ON condition`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Joined table (or view) name.
    pub table: String,
    /// Optional alias.
    pub alias: Option<String>,
    /// Join condition.
    pub on: AstExpr,
}

/// Sort direction of one ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Output column name or 1-based output position.
    pub expr: AstExpr,
    /// Ascending?
    pub asc: bool,
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Output items.
    pub items: Vec<SelectItem>,
    /// `FROM table` (None = literal row, e.g. `SELECT 1+1`).
    pub from: Option<String>,
    /// Alias of the FROM table.
    pub from_alias: Option<String>,
    /// JOIN clauses, applied in order.
    pub joins: Vec<JoinClause>,
    /// WHERE condition.
    pub filter: Option<AstExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<AstExpr>,
    /// HAVING condition (over the aggregated output).
    pub having: Option<AstExpr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// OFFSET.
    pub offset: Option<usize>,
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE [NOT NULL], ...)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<Column>,
    },
    /// `CREATE INDEX name ON table (col [, col ...])`.
    CreateIndex {
        /// Index name.
        name: String,
        /// Table name.
        table: String,
        /// Indexed columns, leading column first.
        columns: Vec<String>,
    },
    /// `DROP INDEX name ON table`.
    DropIndex {
        /// Index name.
        name: String,
        /// Table name.
        table: String,
    },
    /// `CREATE VIEW name AS SELECT ...`.
    CreateView {
        /// View name.
        name: String,
        /// The stored query text (verbatim SELECT).
        query_text: String,
        /// The parsed query (for immediate validation).
        query: Box<Select>,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// `DROP VIEW name`.
    DropView {
        /// View name.
        name: String,
    },
    /// `INSERT INTO table [(cols)] VALUES (...), (...)`.
    Insert {
        /// Table name.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Literal rows.
        rows: Vec<Vec<AstExpr>>,
    },
    /// `UPDATE table SET col = expr, ... [WHERE ...]`.
    Update {
        /// Table name.
        table: String,
        /// Assignments.
        set: Vec<(String, AstExpr)>,
        /// WHERE condition.
        filter: Option<AstExpr>,
    },
    /// `DELETE FROM table [WHERE ...]`.
    Delete {
        /// Table name.
        table: String,
        /// WHERE condition.
        filter: Option<AstExpr>,
    },
    /// A SELECT query.
    Select(Box<Select>),
    /// `ANALYZE table` — sample the table and store optimizer statistics.
    Analyze {
        /// Table name.
        table: String,
    },
    /// `EXPLAIN SELECT|UPDATE|DELETE ...` — show the chosen plan (for
    /// DML: the target access path) with row/cost estimates and the
    /// planner's selection decisions, instead of executing it.
    Explain(Box<Statement>),
}

// ── SQL rendering ─────────────────────────────────────────────────────
// Every AST node renders back to parseable SQL (used by tooling and the
// parser round-trip property tests).

fn render_datum(d: &Datum) -> String {
    match d {
        Datum::Null => "NULL".into(),
        Datum::Bool(b) => b.to_string(),
        Datum::Int(i) => i.to_string(),
        Datum::Float(x) => {
            // Keep a decimal point so the literal re-parses as a float.
            let s = format!("{x}");
            if s.contains('.') || s.contains('e') {
                s
            } else {
                format!("{s}.0")
            }
        }
        Datum::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

fn render_binop(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::Eq => "=",
        BinOp::Ne => "<>",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Like => "LIKE",
        BinOp::And => "AND",
        BinOp::Or => "OR",
    }
}

fn render_agg(f: AggFunc) -> &'static str {
    match f {
        AggFunc::CountAll | AggFunc::Count => "COUNT",
        AggFunc::Sum => "SUM",
        AggFunc::Avg => "AVG",
        AggFunc::Min => "MIN",
        AggFunc::Max => "MAX",
    }
}

impl AstExpr {
    /// Render as SQL text. Sub-expressions are parenthesised, so the
    /// output is unambiguous (if verbose) and re-parses to the same AST.
    pub fn to_sql(&self) -> String {
        match self {
            AstExpr::Column(None, name) => name.clone(),
            AstExpr::Column(Some(q), name) => format!("{q}.{name}"),
            AstExpr::Literal(d) => render_datum(d),
            AstExpr::Param(_) => "?".into(),
            AstExpr::Unary(UnaryOp::Not, e) => format!("NOT ({})", e.to_sql()),
            AstExpr::Unary(UnaryOp::Neg, e) => format!("-({})", e.to_sql()),
            AstExpr::Unary(UnaryOp::IsNull, e) => format!("({}) IS NULL", e.to_sql()),
            AstExpr::Unary(UnaryOp::IsNotNull, e) => format!("({}) IS NOT NULL", e.to_sql()),
            AstExpr::Binary(op, l, r) => {
                format!("({}) {} ({})", l.to_sql(), render_binop(*op), r.to_sql())
            }
            AstExpr::Agg(AggFunc::CountAll, _) => "COUNT(*)".into(),
            AstExpr::Agg(f, Some(arg)) => format!("{}({})", render_agg(*f), arg.to_sql()),
            AstExpr::Agg(f, None) => format!("{}(*)", render_agg(*f)),
        }
    }
}

impl Select {
    /// Render as SQL text that re-parses to an equivalent query.
    pub fn to_sql(&self) -> String {
        let mut out = String::from("SELECT ");
        if self.distinct {
            out.push_str("DISTINCT ");
        }
        let items: Vec<String> = self
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => "*".to_string(),
                SelectItem::Expr { expr, alias } => match alias {
                    Some(a) => format!("{} AS {a}", expr.to_sql()),
                    None => expr.to_sql(),
                },
            })
            .collect();
        out.push_str(&items.join(", "));
        if let Some(from) = &self.from {
            out.push_str(&format!(" FROM {from}"));
            if let Some(alias) = &self.from_alias {
                out.push_str(&format!(" AS {alias}"));
            }
        }
        for join in &self.joins {
            out.push_str(&format!(" JOIN {}", join.table));
            if let Some(alias) = &join.alias {
                out.push_str(&format!(" AS {alias}"));
            }
            out.push_str(&format!(" ON {}", join.on.to_sql()));
        }
        if let Some(filter) = &self.filter {
            out.push_str(&format!(" WHERE {}", filter.to_sql()));
        }
        if !self.group_by.is_empty() {
            let groups: Vec<String> = self.group_by.iter().map(|g| g.to_sql()).collect();
            out.push_str(&format!(" GROUP BY {}", groups.join(", ")));
        }
        if let Some(having) = &self.having {
            out.push_str(&format!(" HAVING {}", having.to_sql()));
        }
        if !self.order_by.is_empty() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|k| {
                    format!("{} {}", k.expr.to_sql(), if k.asc { "ASC" } else { "DESC" })
                })
                .collect();
            out.push_str(&format!(" ORDER BY {}", keys.join(", ")));
        }
        if let Some(limit) = self.limit {
            out.push_str(&format!(" LIMIT {limit}"));
        }
        if let Some(offset) = self.offset {
            out.push_str(&format!(" OFFSET {offset}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let plain = AstExpr::col("x");
        assert!(!plain.contains_aggregate());
        let agg = AstExpr::Agg(AggFunc::Sum, Some(Box::new(AstExpr::col("x"))));
        assert!(agg.contains_aggregate());
        let nested = AstExpr::Binary(
            BinOp::Add,
            Box::new(AstExpr::int(1)),
            Box::new(AstExpr::Agg(AggFunc::CountAll, None)),
        );
        assert!(nested.contains_aggregate());
        let unary = AstExpr::Unary(UnaryOp::Neg, Box::new(agg));
        assert!(unary.contains_aggregate());
    }
}
