//! Row expressions evaluated by the operators.
//!
//! Expressions reference tuple columns by position; name resolution is the
//! data layer's job (paper Fig. 2: the data layer "presents the data in
//! logical structures", the access layer executes over physical tuples).
//! Comparison and logic follow SQL three-valued semantics: any comparison
//! with NULL yields NULL, AND/OR use Kleene logic.

use sbdms_kernel::error::{Result, ServiceError};

use std::cmp::Ordering;

use super::batch::Batch;
use super::column::Column;
use crate::record::{Datum, DatumRef, Tuple};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition (numeric) or concatenation (strings).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (errors on zero divisor).
    Div,
    /// Remainder (integers only).
    Mod,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
    /// SQL LIKE pattern match (`%` any run, `_` any one char).
    Like,
    /// Logical AND (Kleene).
    And,
    /// Logical OR (Kleene).
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical NOT (Kleene).
    Not,
    /// Numeric negation.
    Neg,
    /// `IS NULL` test (never NULL itself).
    IsNull,
    /// `IS NOT NULL` test.
    IsNotNull,
}

/// An expression over a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by position.
    Col(usize),
    /// Literal value.
    Lit(Datum),
    /// Statement parameter `i` (0-based): a generic plan's placeholder
    /// for a value bound per execution ([`Expr::bind`]). Evaluating an
    /// unbound parameter is an error.
    Param(usize),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Datum::Int(v))
    }

    /// String literal.
    pub fn str(s: &str) -> Expr {
        Expr::Lit(Datum::Str(s.to_string()))
    }

    /// Build a binary expression.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary(op, Box::new(l), Box::new(r))
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Eq, self, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Lt, self, other)
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Ge, self, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::bin(BinOp::And, self, other)
    }

    /// A copy with every parameter `i` replaced by the literal
    /// `params[i]`: how a generic plan's expressions receive one
    /// execution's values. Parameters past the end of `params` stay
    /// unbound.
    pub fn bind(&self, params: &[Datum]) -> Expr {
        match self {
            Expr::Param(i) => match params.get(*i) {
                Some(d) => Expr::Lit(d.clone()),
                None => Expr::Param(*i),
            },
            Expr::Col(i) => Expr::Col(*i),
            Expr::Lit(d) => Expr::Lit(d.clone()),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.bind(params))),
            Expr::Binary(op, l, r) => {
                Expr::Binary(*op, Box::new(l.bind(params)), Box::new(r.bind(params)))
            }
        }
    }

    /// Evaluate against a tuple.
    pub fn eval(&self, tuple: &Tuple) -> Result<Datum> {
        match self {
            Expr::Col(i) => tuple
                .get(*i)
                .cloned()
                .ok_or_else(|| ServiceError::InvalidInput(format!("column {i} out of range"))),
            Expr::Lit(d) => Ok(d.clone()),
            Expr::Param(i) => Err(unbound(*i)),
            Expr::Unary(op, e) => {
                let v = e.eval(tuple)?;
                eval_unary(*op, v)
            }
            Expr::Binary(op, l, r) => {
                let lv = l.eval(tuple)?;
                let rv = r.eval(tuple)?;
                eval_binary(*op, lv, rv)
            }
        }
    }

    /// Evaluate against every *logical* row of a batch (reading through
    /// its selection vector, if any), producing one output column. Same
    /// semantics as [`Expr::eval`] row by row — both paths share the
    /// scalar kernels — but the expression tree is walked once per
    /// batch, not once per row, and the common comparison shapes
    /// (column vs literal, column vs column) read their operands in
    /// place without cloning them.
    pub fn eval_batch(&self, batch: &Batch) -> Result<Vec<Datum>> {
        if let Expr::Binary(op, l, r) = self {
            if let Some(out) = eval_cmp_batch(*op, l, r, batch)? {
                return Ok(out);
            }
        }
        match self {
            Expr::Col(i) => {
                let col = batch.try_column(*i)?;
                Ok(match batch.sel() {
                    None => (0..batch.rows()).map(|p| col.datum(p)).collect(),
                    Some(sel) => sel.iter().map(|&p| col.datum(p as usize)).collect(),
                })
            }
            Expr::Lit(d) => Ok(vec![d.clone(); batch.rows()]),
            Expr::Param(i) => Err(unbound(*i)),
            Expr::Unary(op, e) => {
                let vals = e.eval_batch(batch)?;
                vals.into_iter().map(|v| eval_unary(*op, v)).collect()
            }
            Expr::Binary(op, l, r) => {
                let lv = l.eval_batch(batch)?;
                let rv = r.eval_batch(batch)?;
                lv.into_iter()
                    .zip(rv)
                    .map(|(a, b)| eval_binary(*op, a, b))
                    .collect()
            }
        }
    }

    /// [`Expr::eval_batch`] as a typed [`Column`]: a bare column
    /// reference is a typed gather of the batch's column (no datum per
    /// row); any other expression builds its column from the values.
    pub fn eval_column(&self, batch: &Batch) -> Result<Column> {
        match self {
            Expr::Col(i) => {
                let col = batch.try_column(*i)?;
                Ok(match batch.sel() {
                    None => col.gather(0..batch.rows()),
                    Some(sel) => col.gather(sel.iter().map(|&p| p as usize)),
                })
            }
            _ => self.eval_batch(batch).map(Column::from_datums),
        }
    }

    /// Direct selection kernels for filter predicates: produce the
    /// *logical* row indices (relative to the batch's current selection)
    /// for which the predicate is TRUE, without materialising a boolean
    /// column. Supported shapes are the comparison fast paths of
    /// [`eval_cmp_batch`] and `AND`-conjunctions of them; returns
    /// `Ok(None)` for anything else so the caller can fall back to
    /// [`Expr::eval_batch`] plus a mask.
    ///
    /// Conjunctions evaluate the right side only on left-side survivors.
    /// That is observationally identical to the general path (which
    /// evaluates both sides on every row) because the supported shapes
    /// can only fail on an out-of-range column — a row-independent error
    /// the kernels still raise via `try_column` before scanning.
    pub fn filter_indices(&self, batch: &Batch) -> Result<Option<Vec<u32>>> {
        self.select_indices(batch, None)
    }

    fn select_indices(
        &self,
        batch: &Batch,
        candidates: Option<Vec<u32>>,
    ) -> Result<Option<Vec<u32>>> {
        match self {
            Expr::Binary(BinOp::And, l, r) => {
                let Some(lhs) = l.select_indices(batch, candidates)? else {
                    return Ok(None);
                };
                r.select_indices(batch, Some(lhs))
            }
            Expr::Binary(op, l, r) => select_cmp_indices(*op, l, r, batch, candidates),
            _ => Ok(None),
        }
    }

    /// Add every column index the expression reads to `out`.
    pub fn columns_into(&self, out: &mut std::collections::BTreeSet<usize>) {
        match self {
            Expr::Col(i) => {
                out.insert(*i);
            }
            Expr::Lit(_) | Expr::Param(_) => {}
            Expr::Unary(_, e) => e.columns_into(out),
            Expr::Binary(_, l, r) => {
                l.columns_into(out);
                r.columns_into(out);
            }
        }
    }

    /// Greatest column index referenced, if any; used by planners to
    /// validate expressions against schemas.
    pub fn max_column(&self) -> Option<usize> {
        match self {
            Expr::Col(i) => Some(*i),
            Expr::Lit(_) | Expr::Param(_) => None,
            Expr::Unary(_, e) => e.max_column(),
            Expr::Binary(_, l, r) => match (l.max_column(), r.max_column()) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
        }
    }
}

/// The error of evaluating an unbound parameter; kept out of line so
/// the evaluation loops stay as small as before parameters existed.
#[cold]
#[inline(never)]
fn unbound(i: usize) -> ServiceError {
    ServiceError::InvalidInput(format!("parameter ${} is not bound", i + 1))
}

/// Comparison fast paths for batches: when one side is a column and the
/// other a column or literal, compare the values in place — no operand
/// clones, no per-row tree dispatch. Returns `None` for shapes the
/// general path must handle.
fn eval_cmp_batch(op: BinOp, l: &Expr, r: &Expr, batch: &Batch) -> Result<Option<Vec<Datum>>> {
    let Some(mask) = cmp_mask(op) else {
        return Ok(None);
    };
    let cmp = |a: DatumRef, b: DatumRef| {
        if a.is_null() || b.is_null() {
            Datum::Null
        } else {
            Datum::Bool(accepts(mask, a.order(&b)))
        }
    };
    let (a, b) = match (l, r) {
        (Expr::Col(i), Expr::Lit(d)) => (Operand::Col(batch.try_column(*i)?), Operand::Lit(d)),
        (Expr::Lit(d), Expr::Col(i)) => (Operand::Lit(d), Operand::Col(batch.try_column(*i)?)),
        (Expr::Col(i), Expr::Col(j)) => (
            Operand::Col(batch.try_column(*i)?),
            Operand::Col(batch.try_column(*j)?),
        ),
        _ => return Ok(None),
    };
    let row = |p: usize| cmp(a.get(p), b.get(p));
    Ok(Some(match batch.sel() {
        None => (0..batch.rows()).map(row).collect(),
        Some(sel) => sel.iter().map(|&p| row(p as usize)).collect(),
    }))
}

/// One side of a comparison kernel: a batch column or a literal.
enum Operand<'a> {
    Col(&'a Column),
    Lit(&'a Datum),
}

impl Operand<'_> {
    /// The operand at physical row `p`.
    #[inline]
    fn get(&self, p: usize) -> DatumRef<'_> {
        match self {
            Operand::Col(c) => c.get(p),
            Operand::Lit(d) => d.as_ref(),
        }
    }
}

/// The orderings a comparison operator accepts, as a bit per
/// `Ordering` (bit 0 Less, bit 1 Equal, bit 2 Greater), if `op` is one.
fn cmp_mask(op: BinOp) -> Option<u8> {
    Some(match op {
        BinOp::Eq => 0b010,
        BinOp::Ne => 0b101,
        BinOp::Lt => 0b001,
        BinOp::Le => 0b011,
        BinOp::Gt => 0b100,
        BinOp::Ge => 0b110,
        _ => return None,
    })
}

/// Whether `mask` accepts `o`: a shift and a test, no branch.
#[inline(always)]
fn accepts(mask: u8, o: Ordering) -> bool {
    (mask >> (o as i8 + 1)) & 1 == 1
}

/// The mask of the mirrored comparison: `lit op col` as `col op' lit`.
fn mirror(mask: u8) -> u8 {
    (mask & 0b010) | (mask & 0b001) << 2 | (mask & 0b100) >> 2
}

/// Push every row `pass` accepts: the candidate list's logical rows, or
/// every logical row, each tested at its physical index.
#[inline(always)]
fn select_rows(
    rows: usize,
    sel: Option<&[u32]>,
    candidates: Option<&[u32]>,
    pass: impl Fn(usize) -> bool,
) -> Vec<u32> {
    let phys = |li: u32| sel.map_or(li as usize, |sel| sel[li as usize] as usize);
    let mut out = Vec::with_capacity(candidates.map_or(rows, <[u32]>::len));
    match (candidates, sel) {
        (Some(cands), _) => out.extend(cands.iter().copied().filter(|&li| pass(phys(li)))),
        (None, None) => out.extend((0..rows as u32).filter(|&p| pass(p as usize))),
        (None, Some(_)) => out.extend((0..rows as u32).filter(|&li| pass(phys(li)))),
    }
    out
}

/// Selection kernel for one comparison: append passing logical row
/// indices directly, no boolean column. `candidates` restricts the scan
/// to previously surviving logical rows (conjunction chaining). A typed
/// column against a literal of its own type — the hot analytic filter —
/// runs a loop over the raw values (`i64`, `f64`, string slices) whose
/// compare is a branch-free mask test; every other shape compares
/// borrowed values with the scalar comparator.
fn select_cmp_indices(
    op: BinOp,
    l: &Expr,
    r: &Expr,
    batch: &Batch,
    candidates: Option<Vec<u32>>,
) -> Result<Option<Vec<u32>>> {
    let Some(mask) = cmp_mask(op) else {
        return Ok(None);
    };
    let (rows, sel, cands) = (batch.rows(), batch.sel(), candidates.as_deref());
    let run = |pass: &dyn Fn(usize) -> bool| select_rows(rows, sel, cands, pass);
    let (col, d, mask) = match (l, r) {
        (Expr::Col(i), Expr::Lit(d)) => (batch.try_column(*i)?, d, mask),
        (Expr::Lit(d), Expr::Col(i)) => (batch.try_column(*i)?, d, mirror(mask)),
        (Expr::Col(i), Expr::Col(j)) => {
            let (a, b) = (batch.try_column(*i)?, batch.try_column(*j)?);
            return Ok(Some(run(&|p| {
                let (x, y) = (a.get(p), b.get(p));
                !x.is_null() && !y.is_null() && accepts(mask, x.order(&y))
            })));
        }
        _ => return Ok(None),
    };
    macro_rules! typed {
        ($vals:expr, $valid:expr, |$v:ident| $ord:expr) => {{
            let (vals, valid) = ($vals, $valid);
            if valid.all_valid() {
                select_rows(rows, sel, cands, |p| {
                    let $v = &vals[p];
                    accepts(mask, $ord)
                })
            } else {
                select_rows(rows, sel, cands, |p| {
                    let $v = &vals[p];
                    valid.get(p) && accepts(mask, $ord)
                })
            }
        }};
    }
    let out = match (col, d) {
        (_, Datum::Null) | (Column::Null(_), _) => Vec::new(),
        (Column::Int(vals, valid), Datum::Int(k)) => typed!(vals, valid, |v| v.cmp(k)),
        (Column::Float(vals, valid), Datum::Float(k)) => typed!(vals, valid, |v| v.total_cmp(k)),
        (Column::Text(vals, valid), Datum::Str(k)) => {
            let k = k.as_str();
            if valid.all_valid() {
                select_rows(rows, sel, cands, |p| accepts(mask, vals.get(p).cmp(k)))
            } else {
                select_rows(rows, sel, cands, |p| {
                    valid.get(p) && accepts(mask, vals.get(p).cmp(k))
                })
            }
        }
        (col, d) => {
            let d = d.as_ref();
            run(&|p| {
                let v = col.get(p);
                !v.is_null() && accepts(mask, v.order(&d))
            })
        }
    };
    Ok(Some(out))
}

fn eval_unary(op: UnaryOp, v: Datum) -> Result<Datum> {
    match op {
        UnaryOp::Not => Ok(match v {
            Datum::Null => Datum::Null,
            Datum::Bool(b) => Datum::Bool(!b),
            other => {
                return Err(ServiceError::InvalidInput(format!(
                    "NOT requires bool, got {other}"
                )))
            }
        }),
        UnaryOp::Neg => Ok(match v {
            Datum::Null => Datum::Null,
            Datum::Int(i) => Datum::Int(i.checked_neg().ok_or_else(|| overflow("-"))?),
            Datum::Float(x) => Datum::Float(-x),
            other => {
                return Err(ServiceError::InvalidInput(format!(
                    "negation requires a number, got {other}"
                )))
            }
        }),
        UnaryOp::IsNull => Ok(Datum::Bool(v.is_null())),
        UnaryOp::IsNotNull => Ok(Datum::Bool(!v.is_null())),
    }
}

fn eval_binary(op: BinOp, l: Datum, r: Datum) -> Result<Datum> {
    use BinOp::*;
    match op {
        And => return kleene_and(l, r),
        Or => return kleene_or(l, r),
        _ => {}
    }
    // Comparisons and arithmetic are NULL-propagating.
    if l.is_null() || r.is_null() {
        return Ok(Datum::Null);
    }
    match op {
        Eq => Ok(Datum::Bool(l.order(&r) == std::cmp::Ordering::Equal)),
        Ne => Ok(Datum::Bool(l.order(&r) != std::cmp::Ordering::Equal)),
        Lt => Ok(Datum::Bool(l.order(&r) == std::cmp::Ordering::Less)),
        Le => Ok(Datum::Bool(l.order(&r) != std::cmp::Ordering::Greater)),
        Gt => Ok(Datum::Bool(l.order(&r) == std::cmp::Ordering::Greater)),
        Ge => Ok(Datum::Bool(l.order(&r) != std::cmp::Ordering::Less)),
        Like => match (&l, &r) {
            (Datum::Str(s), Datum::Str(p)) => Ok(Datum::Bool(like_match(s, p))),
            _ => Err(ServiceError::InvalidInput(format!(
                "LIKE requires strings, got {l} and {r}"
            ))),
        },
        Add => match (l, r) {
            (Datum::Str(a), Datum::Str(b)) => Ok(Datum::Str(a + &b)),
            (l, r) => numeric(l, r, "+"),
        },
        Sub => numeric_op(l, r, "-"),
        Mul => numeric_op(l, r, "*"),
        Div => numeric_op(l, r, "/"),
        Mod => match (l, r) {
            (Datum::Int(_), Datum::Int(0)) => {
                Err(ServiceError::InvalidInput("modulo by zero".into()))
            }
            (Datum::Int(a), Datum::Int(b)) => a.checked_rem(b).map(Datum::Int).ok_or_else(|| overflow("%")),
            (l, r) => Err(ServiceError::InvalidInput(format!(
                "% requires integers, got {l} and {r}"
            ))),
        },
        And | Or => unreachable!(),
    }
}

fn numeric_op(l: Datum, r: Datum, sym: &str) -> Result<Datum> {
    numeric(l, r, sym)
}

/// The error of INT arithmetic whose result does not fit an INT
/// (`i64::MAX + 1`, `i64::MIN / -1`): typed, never a wrap or a panic.
#[cold]
fn overflow(sym: &str) -> ServiceError {
    ServiceError::InvalidInput(format!("integer overflow in {sym}"))
}

fn numeric(l: Datum, r: Datum, sym: &str) -> Result<Datum> {
    let checked = |v: Option<i64>| v.map(Datum::Int).ok_or_else(|| overflow(sym));
    match (l, r, sym) {
        (Datum::Int(a), Datum::Int(b), "+") => checked(a.checked_add(b)),
        (Datum::Int(a), Datum::Int(b), "-") => checked(a.checked_sub(b)),
        (Datum::Int(a), Datum::Int(b), "*") => checked(a.checked_mul(b)),
        (Datum::Int(_), Datum::Int(0), "/") => {
            Err(ServiceError::InvalidInput("division by zero".into()))
        }
        (Datum::Int(a), Datum::Int(b), "/") => checked(a.checked_div(b)),
        (l, r, sym) => {
            let a = as_f64(&l)?;
            let b = as_f64(&r)?;
            let out = match sym {
                "+" => a + b,
                "-" => a - b,
                "*" => a * b,
                "/" => {
                    if b == 0.0 {
                        return Err(ServiceError::InvalidInput("division by zero".into()));
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            Ok(Datum::Float(out))
        }
    }
}

fn as_f64(d: &Datum) -> Result<f64> {
    match d {
        Datum::Int(i) => Ok(*i as f64),
        Datum::Float(x) => Ok(*x),
        other => Err(ServiceError::InvalidInput(format!(
            "arithmetic requires numbers, got {other}"
        ))),
    }
}

/// SQL LIKE: `%` matches any (possibly empty) run, `_` any single char.
/// Case-sensitive, no escape syntax. Iterative greedy matching with
/// backtracking to the last `%` — O(n·m), immune to pathological
/// patterns.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let mut star: Option<usize> = None;
    let mut star_si = 0usize;
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some(pi);
            star_si = si;
            pi += 1;
        } else if let Some(sp) = star {
            // Give the last % one more character and retry.
            pi = sp + 1;
            star_si += 1;
            si = star_si;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

fn kleene_and(l: Datum, r: Datum) -> Result<Datum> {
    Ok(match (to_tri(l)?, to_tri(r)?) {
        (Some(false), _) | (_, Some(false)) => Datum::Bool(false),
        (Some(true), Some(true)) => Datum::Bool(true),
        _ => Datum::Null,
    })
}

fn kleene_or(l: Datum, r: Datum) -> Result<Datum> {
    Ok(match (to_tri(l)?, to_tri(r)?) {
        (Some(true), _) | (_, Some(true)) => Datum::Bool(true),
        (Some(false), Some(false)) => Datum::Bool(false),
        _ => Datum::Null,
    })
}

fn to_tri(d: Datum) -> Result<Option<bool>> {
    match d {
        Datum::Null => Ok(None),
        Datum::Bool(b) => Ok(Some(b)),
        other => Err(ServiceError::InvalidInput(format!(
            "logic requires bool, got {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Tuple {
        vec![
            Datum::Int(10),
            Datum::Str("alice".into()),
            Datum::Float(1.5),
            Datum::Null,
            Datum::Bool(true),
        ]
    }

    #[test]
    fn column_and_literal() {
        assert_eq!(Expr::col(0).eval(&row()).unwrap(), Datum::Int(10));
        assert_eq!(Expr::int(7).eval(&row()).unwrap(), Datum::Int(7));
        assert!(Expr::col(99).eval(&row()).is_err());
    }

    #[test]
    fn arithmetic() {
        let e = Expr::bin(BinOp::Add, Expr::col(0), Expr::int(5));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Int(15));
        let e = Expr::bin(BinOp::Mul, Expr::col(2), Expr::int(4));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Float(6.0));
        let e = Expr::bin(BinOp::Div, Expr::int(7), Expr::int(2));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Int(3));
        let e = Expr::bin(BinOp::Mod, Expr::int(7), Expr::int(3));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Int(1));
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(Expr::bin(BinOp::Div, Expr::int(1), Expr::int(0)).eval(&row()).is_err());
        assert!(Expr::bin(BinOp::Mod, Expr::int(1), Expr::int(0)).eval(&row()).is_err());
        let float_zero = Expr::Lit(Datum::Float(0.0));
        assert!(Expr::bin(BinOp::Div, Expr::int(1), float_zero).eval(&row()).is_err());
    }

    #[test]
    fn integer_overflow_is_a_typed_error() {
        let (max, min) = (Expr::int(i64::MAX), Expr::int(i64::MIN));
        let minus_one = || Expr::int(-1);
        for e in [
            Expr::bin(BinOp::Add, max.clone(), Expr::int(1)),
            Expr::bin(BinOp::Sub, min.clone(), Expr::int(1)),
            Expr::bin(BinOp::Mul, max.clone(), Expr::int(2)),
            Expr::bin(BinOp::Div, min.clone(), minus_one()),
            Expr::bin(BinOp::Mod, min.clone(), minus_one()),
            Expr::Unary(UnaryOp::Neg, Box::new(min.clone())),
        ] {
            let err = e.eval(&row()).unwrap_err();
            assert_eq!(err.code(), "invalid_input", "{e:?}");
            assert!(err.to_string().contains("integer overflow"), "{e:?}: {err}");
            let batch = Batch::from_rows(vec![row()]);
            assert!(e.eval_batch(&batch).is_err(), "{e:?}");
        }
        // The edges themselves still compute.
        let e = Expr::bin(BinOp::Add, Expr::int(i64::MAX - 1), Expr::int(1));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Int(i64::MAX));
        let e = Expr::bin(BinOp::Mod, min.clone(), Expr::int(1));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Int(0));
        let e = Expr::bin(BinOp::Div, min, Expr::int(1));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Int(i64::MIN));
    }

    #[test]
    fn string_concat_and_compare() {
        let e = Expr::bin(BinOp::Add, Expr::col(1), Expr::str("!"));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Str("alice!".into()));
        let e = Expr::col(1).eq(Expr::str("alice"));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Bool(true));
        let e = Expr::col(1).lt(Expr::str("bob"));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Bool(true));
    }

    #[test]
    fn null_propagation() {
        let e = Expr::col(3).eq(Expr::int(1));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Null);
        let e = Expr::bin(BinOp::Add, Expr::col(3), Expr::int(1));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Null);
        let e = Expr::Unary(UnaryOp::IsNull, Box::new(Expr::col(3)));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Bool(true));
        let e = Expr::Unary(UnaryOp::IsNotNull, Box::new(Expr::col(0)));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Bool(true));
    }

    #[test]
    fn kleene_logic() {
        let null = || Expr::Lit(Datum::Null);
        let t = || Expr::Lit(Datum::Bool(true));
        let f = || Expr::Lit(Datum::Bool(false));
        // NULL AND FALSE = FALSE; NULL AND TRUE = NULL
        assert_eq!(null().and(f()).eval(&row()).unwrap(), Datum::Bool(false));
        assert_eq!(null().and(t()).eval(&row()).unwrap(), Datum::Null);
        // NULL OR TRUE = TRUE; NULL OR FALSE = NULL
        assert_eq!(
            Expr::bin(BinOp::Or, null(), t()).eval(&row()).unwrap(),
            Datum::Bool(true)
        );
        assert_eq!(
            Expr::bin(BinOp::Or, null(), f()).eval(&row()).unwrap(),
            Datum::Null
        );
        // NOT NULL = NULL
        assert_eq!(
            Expr::Unary(UnaryOp::Not, Box::new(null())).eval(&row()).unwrap(),
            Datum::Null
        );
    }

    #[test]
    fn type_errors_surface() {
        let e = Expr::bin(BinOp::And, Expr::int(1), Expr::int(2));
        assert!(e.eval(&row()).is_err());
        let e = Expr::Unary(UnaryOp::Neg, Box::new(Expr::str("x")));
        assert!(e.eval(&row()).is_err());
        let e = Expr::bin(BinOp::Add, Expr::col(4), Expr::int(1));
        assert!(e.eval(&row()).is_err());
    }

    #[test]
    fn filter_indices_matches_mask_path() {
        let rows: Vec<Tuple> = vec![
            vec![Datum::Int(1), Datum::Int(5), Datum::Float(0.5)],
            vec![Datum::Int(7), Datum::Null, Datum::Float(9.0)],
            vec![Datum::Null, Datum::Int(7), Datum::Float(2.0)],
            vec![Datum::Int(3), Datum::Int(3), Datum::Float(3.0)],
            vec![Datum::Int(9), Datum::Int(2), Datum::Float(-1.0)],
        ];
        let dense = Batch::from_rows(rows);
        let selected = dense.clone().select(vec![0, 2, 3, 4]);
        let preds = vec![
            Expr::col(0).ge(Expr::int(3)),
            Expr::col(0).eq(Expr::col(1)),
            Expr::bin(BinOp::Lt, Expr::int(4), Expr::col(0)),
            Expr::col(0).lt(Expr::Lit(Datum::Float(5.0))),
            Expr::col(0).eq(Expr::Lit(Datum::Null)),
            Expr::col(0).ge(Expr::int(2)).and(Expr::col(1).lt(Expr::int(6))),
            Expr::col(2).ge(Expr::Lit(Datum::Float(0.0))).and(Expr::col(0).ge(Expr::int(2))),
        ];
        for batch in [&dense, &selected] {
            for pred in &preds {
                let direct = pred
                    .filter_indices(batch)
                    .unwrap()
                    .expect("shape should be supported");
                let mask: Vec<u32> = pred
                    .eval_batch(batch)
                    .unwrap()
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.is_true())
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(direct, mask, "{pred:?}");
            }
        }
        // Unsupported shapes decline rather than guess.
        assert!(Expr::col(0)
            .ge(Expr::int(1))
            .and(Expr::Unary(UnaryOp::IsNull, Box::new(Expr::col(1))))
            .filter_indices(&dense)
            .unwrap()
            .is_none());
        // Out-of-range columns error exactly like the general path.
        assert!(Expr::col(9).ge(Expr::int(1)).filter_indices(&dense).is_err());
    }

    #[test]
    fn eval_batch_reads_through_selection() {
        let rows: Vec<Tuple> = (0..6).map(|i| vec![Datum::Int(i)]).collect();
        let batch = Batch::from_rows(rows).select(vec![1, 3, 5]);
        assert_eq!(
            Expr::col(0).eval_batch(&batch).unwrap(),
            vec![Datum::Int(1), Datum::Int(3), Datum::Int(5)]
        );
        assert_eq!(
            Expr::col(0).eq(Expr::int(3)).eval_batch(&batch).unwrap(),
            vec![Datum::Bool(false), Datum::Bool(true), Datum::Bool(false)]
        );
        // General (arithmetic) path is logical too.
        assert_eq!(
            Expr::bin(BinOp::Add, Expr::col(0), Expr::col(0))
                .eval_batch(&batch)
                .unwrap(),
            vec![Datum::Int(2), Datum::Int(6), Datum::Int(10)]
        );
    }

    #[test]
    fn max_column_tracks_references() {
        assert_eq!(Expr::int(1).max_column(), None);
        assert_eq!(Expr::col(3).max_column(), Some(3));
        let e = Expr::col(1).and(Expr::col(7).eq(Expr::int(0)));
        assert_eq!(e.max_column(), Some(7));
    }
}

#[cfg(test)]
mod like_tests {
    use super::*;

    #[test]
    fn like_basic_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%o"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("hello", "h"));
        assert!(!like_match("hello", "hello_"));
        assert!(!like_match("", "_"));
    }

    #[test]
    fn like_multiple_wildcards() {
        assert!(like_match("abcXdefYghi", "abc%def%ghi"));
        assert!(!like_match("abcXdefYgh", "abc%def%ghi"));
        assert!(like_match("aaa", "%a%a%"));
        assert!(like_match("a_b", "a_b"));
        assert!(like_match("axb", "a_b"));
    }

    #[test]
    fn like_pathological_pattern_terminates_fast() {
        let s = "a".repeat(200);
        let p = "%a".repeat(50) + "b";
        let start = std::time::Instant::now();
        assert!(!like_match(&s, &p));
        assert!(start.elapsed() < std::time::Duration::from_millis(200));
    }

    #[test]
    fn like_in_expressions() {
        let row: Tuple = vec![Datum::Str("wildcard".into())];
        let e = Expr::bin(BinOp::Like, Expr::col(0), Expr::str("wild%"));
        assert_eq!(e.eval(&row).unwrap(), Datum::Bool(true));
        let e = Expr::bin(BinOp::Like, Expr::col(0), Expr::str("tame%"));
        assert_eq!(e.eval(&row).unwrap(), Datum::Bool(false));
        // NULL propagates; non-strings error.
        let e = Expr::bin(BinOp::Like, Expr::Lit(Datum::Null), Expr::str("%"));
        assert_eq!(e.eval(&row).unwrap(), Datum::Null);
        let e = Expr::bin(BinOp::Like, Expr::int(1), Expr::str("%"));
        assert!(e.eval(&row).is_err());
    }
}
