//! The cost model: cardinality and cost estimation over physical plans.
//!
//! The [`Estimator`] walks a [`Plan`] bottom-up, tracking per-position
//! *provenance* — which base-table column (if any) each output position
//! carries — so predicate selectivities can probe the ANALYZE statistics
//! ([`crate::stats`]); a table without them is estimated from fixed
//! defaults ([`DEFAULT_TABLE_ROWS`] rows and default selectivities) that
//! read no statement parameter. Costs are abstract row-work units:
//! sequential row touches cost [`COST_SEQ_ROW`], index fetches pay the
//! random-access penalty [`COST_IDX_ROW`], sorts pay `n·log2 n`. The
//! planner compares candidate joins and access paths with the same
//! estimator that annotates `EXPLAIN` output, so the numbers shown are
//! the numbers the choice was made from.

use std::cmp::Ordering;
use std::sync::Arc;

use sbdms_access::exec::expr::{BinOp, Expr, UnaryOp};
use sbdms_access::exec::join::BuildSide;
use sbdms_access::record::Datum;

use crate::catalog::TableMeta;
use crate::planner::{CatalogView, ParamRead, Plan};
use crate::stats::{ColumnStats, TableStats};

/// Assumed row count for tables that have never been ANALYZEd.
pub const DEFAULT_TABLE_ROWS: f64 = 1000.0;
/// Cost of touching one row in a sequential scan.
pub const COST_SEQ_ROW: f64 = 1.0;
/// Cost of fetching one row through an index (random heap access).
pub const COST_IDX_ROW: f64 = 4.0;
/// Cost of emitting one row straight from index entries (covering
/// index-only scans: no heap access, the key bytes are already in hand).
pub const COST_IDX_KEY_ROW: f64 = 0.5;
/// Fixed cost of descending a B-tree to start a probe or range scan.
pub const COST_IDX_PROBE: f64 = 10.0;
/// Cost of pushing one rowid through an IndexOr dedup set or an
/// IndexAnd sorted intersection.
pub const COST_RID_MERGE: f64 = 0.1;
/// Cost of inserting one row into a hash-join build table.
pub const COST_HASH_BUILD: f64 = 2.0;
/// Cost of probing the hash table with one row.
pub const COST_HASH_PROBE: f64 = 1.0;
/// Cost of evaluating a predicate against one row.
pub const COST_PRED_EVAL: f64 = 0.2;
/// Cost of materialising one output row of a join.
pub const COST_OUT_ROW: f64 = 0.5;

/// Default selectivity of an equality predicate when stats are absent.
/// At 1% an `IN` list of up to 19 keys still costs less through its
/// index than a sequential scan of [`DEFAULT_TABLE_ROWS`].
const DEFAULT_EQ_SEL: f64 = 0.01;
/// Default selectivity of a range predicate when stats are absent. It
/// sits below the break-even at which a one-sided index range costs as
/// much as a sequential scan of [`DEFAULT_TABLE_ROWS`] (0.2475), so a
/// bounded range on an un-analyzed table takes its index: a selective
/// range through a sequential scan costs far more than a full range
/// through the index.
const DEFAULT_RANGE_SEL: f64 = 0.2;
/// Default selectivity of an arbitrary predicate.
const DEFAULT_SEL: f64 = 0.5;

/// Estimated output of a plan node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated cumulative cost in abstract row-work units.
    pub cost: f64,
}

/// Per-position provenance: the base-table column an output position
/// carries, when the plan preserves it.
type ColRef = Option<(String, String)>;

/// Internal estimation state for one node.
struct NodeEst {
    rows: f64,
    cost: f64,
    cols: Vec<ColRef>,
}

/// An analyzed table's statistics, borrowed from the catalog's shared
/// snapshot rather than copied out of it.
struct SharedStats(Arc<TableMeta>);

impl std::ops::Deref for SharedStats {
    type Target = TableStats;

    fn deref(&self) -> &TableStats {
        self.0.stats.as_ref().expect("built only for analyzed tables")
    }
}

/// Cardinality and cost estimator over a [`CatalogView`].
pub struct Estimator<'a> {
    catalog: &'a dyn CatalogView,
}

impl<'a> Estimator<'a> {
    /// Build an estimator reading stats through `catalog`.
    pub fn new(catalog: &'a dyn CatalogView) -> Estimator<'a> {
        Estimator { catalog }
    }

    /// Estimate a plan's output rows and total cost.
    pub fn estimate(&self, plan: &Plan) -> Estimate {
        let node = self.node(plan);
        Estimate {
            rows: node.rows,
            cost: node.cost,
        }
    }

    /// Estimated selectivity of `predicate` over `plan`'s output.
    pub fn selectivity(&self, predicate: &Expr, plan: &Plan) -> f64 {
        let node = self.node(plan);
        self.predicate_selectivity(predicate, &node.cols)
    }

    /// Render the plan one line per node with estimated rows and cost
    /// appended, using `| ` depth markers (stable under whitespace
    /// trimming, so sqllogictest scripts can match it).
    pub fn explain_annotated(&self, plan: &Plan) -> Vec<String> {
        let mut out = Vec::new();
        self.annotate_into(plan, 0, &mut out);
        out
    }

    fn annotate_into(&self, plan: &Plan, depth: usize, out: &mut Vec<String>) {
        let node = self.node(plan);
        out.push(format!(
            "{}{} [rows={} cost={}]",
            "| ".repeat(depth),
            plan.node_label(),
            round(node.rows),
            round(node.cost),
        ));
        for child in plan.children() {
            self.annotate_into(child, depth + 1, out);
        }
    }

    fn stats_of(&self, table: &str) -> Option<SharedStats> {
        let meta = self.catalog.table(table).ok()?;
        meta.stats.is_some().then_some(SharedStats(meta))
    }

    fn table_rows(&self, table: &str) -> f64 {
        self.stats_of(table)
            .map(|s| s.row_count as f64)
            .unwrap_or(DEFAULT_TABLE_ROWS)
    }

    fn node(&self, plan: &Plan) -> NodeEst {
        match plan {
            Plan::TableScan { table } => {
                let rows = self.table_rows(table);
                // Long MVCC version chains make every heap page carry
                // dead versions the scan must step over.
                let mvcc = self.catalog.mvcc_scan_multiplier(table);
                NodeEst {
                    rows,
                    cost: rows * COST_SEQ_ROW * mvcc,
                    cols: self.table_cols(table),
                }
            }
            Plan::IndexScan {
                table,
                key_columns,
                eq,
                lo,
                hi,
                hi_inclusive,
                covering,
                ..
            } => {
                let n = self.table_rows(table);
                let mut sel = self.eq_prefix_selectivity(table, key_columns, eq);
                if lo.is_some() || hi.is_some() {
                    if let Some(col) = key_columns.get(eq.len()) {
                        sel *= self.range_selectivity(table, col, lo, hi, *hi_inclusive);
                    }
                }
                let rows = (n * sel).max(0.0);
                let (cols, per_row) = if *covering {
                    // Output carries the key columns only.
                    let cols: Vec<ColRef> = key_columns
                        .iter()
                        .map(|c| Some((table.to_lowercase(), c.to_lowercase())))
                        .collect();
                    (cols, COST_IDX_KEY_ROW)
                } else {
                    (self.table_cols(table), COST_IDX_ROW)
                };
                NodeEst {
                    rows,
                    cost: COST_IDX_PROBE + rows * per_row,
                    cols,
                }
            }
            Plan::IndexOr {
                table,
                key_columns,
                keys,
                ..
            } => {
                let n = self.table_rows(table);
                let sel = keys
                    .iter()
                    .map(|k| self.eq_prefix_selectivity(table, key_columns, k))
                    .sum::<f64>()
                    .min(1.0);
                let rows = (n * sel).max(0.0);
                NodeEst {
                    rows,
                    cost: keys.len() as f64 * COST_IDX_PROBE
                        + rows * (COST_RID_MERGE + COST_IDX_ROW),
                    cols: self.table_cols(table),
                }
            }
            Plan::IndexAnd { table, probes } => {
                let n = self.table_rows(table);
                let sels: Vec<f64> = probes
                    .iter()
                    .map(|p| self.eq_prefix_selectivity(table, &p.key_columns, &p.eq))
                    .collect();
                // Independent probes narrow each other only as far as
                // statistics can vouch: without them nothing says the
                // second probe removes a row the first kept, so the
                // intersection keeps the most selective probe's rows.
                let sel = if self.stats_of(table).is_none() {
                    sels.iter().copied().fold(1.0, f64::min)
                } else {
                    sels.iter().product()
                };
                let rows = (n * sel).max(0.0);
                // Each probe streams its rid list through the sorted
                // intersection; only survivors touch the heap.
                let probed: f64 = sels.iter().map(|s| n * s).sum();
                NodeEst {
                    rows,
                    cost: probes.len() as f64 * COST_IDX_PROBE
                        + probed * COST_RID_MERGE
                        + rows * COST_IDX_ROW,
                    cols: self.table_cols(table),
                }
            }
            Plan::Values { rows } => NodeEst {
                rows: rows.len() as f64,
                cost: rows.len() as f64 * 0.01,
                cols: vec![None; rows.first().map(|r| r.len()).unwrap_or(0)],
            },
            Plan::Filter { input, predicate } => {
                let inp = self.node(input);
                // A residual filter over an index access re-applies the
                // conjuncts the index bounds already priced into the
                // input's rows: they pass every row that reaches it.
                let access = index_access(input);
                let applied = |c: &Expr| {
                    access.is_some_and(|a| {
                        bounds_apply(a, c, &inp.cols) || self.or_list_applied(a, c, &inp.cols)
                    })
                };
                let sel = self.residual_selectivity(predicate, &inp.cols, &applied);
                NodeEst {
                    rows: inp.rows * sel,
                    cost: inp.cost + inp.rows * COST_PRED_EVAL,
                    cols: inp.cols,
                }
            }
            Plan::EquiJoin {
                left,
                right,
                left_col,
                right_col,
                build,
                ..
            } => {
                let l = self.node(left);
                let r = self.node(right);
                let rows = self.equi_join_rows(&l, &r, *left_col, *right_col);
                let input_cost = l.cost + r.cost;
                let (build_rows, probe_rows) = match build {
                    BuildSide::Left => (l.rows, r.rows),
                    BuildSide::Right => (r.rows, l.rows),
                };
                let op_cost = build_rows * COST_HASH_BUILD + probe_rows * COST_HASH_PROBE;
                let mut cols = l.cols;
                cols.extend(r.cols);
                NodeEst {
                    rows,
                    cost: input_cost + op_cost + rows * COST_OUT_ROW,
                    cols,
                }
            }
            Plan::NlJoin {
                left,
                right,
                predicate,
                ..
            } => {
                let l = self.node(left);
                let r = self.node(right);
                let mut cols = l.cols.clone();
                cols.extend(r.cols.clone());
                let sel = self.predicate_selectivity(predicate, &cols);
                let rows = l.rows * r.rows * sel;
                NodeEst {
                    rows,
                    cost: l.cost + r.cost + l.rows * r.rows * COST_PRED_EVAL + rows * COST_OUT_ROW,
                    cols,
                }
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let inp = self.node(input);
                let rows = if group_by.is_empty() {
                    1.0
                } else {
                    let mut groups = 1.0f64;
                    for g in group_by {
                        groups *= self.expr_ndv(g, &inp.cols).unwrap_or(10.0);
                    }
                    groups.min(inp.rows).max(1.0)
                };
                NodeEst {
                    rows,
                    cost: inp.cost + inp.rows * (1.0 + aggs.len() as f64 * COST_PRED_EVAL),
                    cols: vec![None; group_by.len() + aggs.len()],
                }
            }
            Plan::Project { input, exprs } => {
                let inp = self.node(input);
                let cols: Vec<ColRef> = exprs
                    .iter()
                    .map(|e| match e {
                        Expr::Col(i) => inp.cols.get(*i).cloned().flatten(),
                        _ => None,
                    })
                    .collect();
                NodeEst {
                    rows: inp.rows,
                    cost: inp.cost + inp.rows * COST_PRED_EVAL * exprs.len() as f64,
                    cols,
                }
            }
            Plan::Distinct { input } => {
                let inp = self.node(input);
                NodeEst {
                    rows: inp.rows, // upper bound; duplicates unknown
                    cost: inp.cost + inp.rows,
                    cols: inp.cols,
                }
            }
            Plan::Sort { input, .. } => {
                let inp = self.node(input);
                NodeEst {
                    rows: inp.rows,
                    cost: inp.cost + sort_cost(inp.rows),
                    cols: inp.cols,
                }
            }
            Plan::Limit { input, n, .. } => {
                let inp = self.node(input);
                NodeEst {
                    rows: inp.rows.min(*n as f64),
                    cost: inp.cost,
                    cols: inp.cols,
                }
            }
        }
    }

    fn table_cols(&self, table: &str) -> Vec<ColRef> {
        match self.catalog.table(table) {
            Ok(meta) => meta
                .schema
                .columns
                .iter()
                .map(|c| Some((table.to_lowercase(), c.name.to_lowercase())))
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Combined selectivity of equality constraints on the leading
    /// `eq.len()` key columns (independence assumption: per-column
    /// selectivities multiply). A weak prefix — a low-NDV leading
    /// column — yields a high product and therefore a high cost, which
    /// is exactly the penalty that steers the planner off such indexes.
    fn eq_prefix_selectivity(&self, table: &str, key_columns: &[String], eq: &[Expr]) -> f64 {
        let stats = self.stats_of(table);
        let rows = stats.as_ref().map(|s| s.row_count as f64).unwrap_or(0.0);
        eq.iter()
            .enumerate()
            .map(|(k, e)| {
                key_columns
                    .get(k)
                    .and_then(|c| stats.as_ref().and_then(|s| s.column(c)))
                    .and_then(|cs| {
                        let d = self.value(e, ParamRead::Eq(cs))?;
                        Some(cs.selectivity_eq(rows, &d))
                    })
                    .unwrap_or(DEFAULT_EQ_SEL)
            })
            .product()
    }

    /// The value of a bound (a literal, or a statement parameter read
    /// through the catalog as `read` says); `None` for an unbound
    /// parameter or any other expression.
    fn value(&self, e: &Expr, read: ParamRead<'_>) -> Option<Datum> {
        match e {
            Expr::Lit(d) => Some(d.clone()),
            Expr::Param(i) => self.catalog.param(*i, read),
            _ => None,
        }
    }

    /// Whether conjunct `e` is an OR list that an `IndexOr` access
    /// already applied: every arm compares the index's leading key
    /// column with a value, and every probe key is one of those values,
    /// so each row the probes return passes. The planner built the
    /// probe keys from these very values and pinned them, so reading
    /// them here adds no guard.
    fn or_list_applied(&self, access: &Plan, e: &Expr, cols: &[ColRef]) -> bool {
        let Plan::IndexOr {
            table,
            key_columns,
            keys,
            ..
        } = access
        else {
            return false;
        };
        let Some(leading) = key_columns.first() else { return false };
        let mut values = Vec::new();
        let mut arms = vec![e];
        while let Some(arm) = arms.pop() {
            let Expr::Binary(op, l, r) = arm else { return false };
            let (i, value) = match (*op, l.as_ref(), r.as_ref()) {
                (BinOp::Or, _, _) => {
                    arms.extend([l.as_ref(), r.as_ref()]);
                    continue;
                }
                (BinOp::Eq, Expr::Col(i), v) | (BinOp::Eq, v, Expr::Col(i)) => (*i, v),
                _ => return false,
            };
            let on_key = matches!(cols.get(i), Some(Some((t, c)))
                if t == table && c.eq_ignore_ascii_case(leading));
            match self.value(value, ParamRead::Pin) {
                Some(d) if on_key => values.push(d),
                _ => return false,
            }
        }
        keys.iter().all(|key| match key.as_slice() {
            [Expr::Lit(d)] => values.contains(d),
            _ => false,
        })
    }

    fn range_selectivity(
        &self,
        table: &str,
        column: &str,
        lo: &Option<Expr>,
        hi: &Option<Expr>,
        hi_inclusive: bool,
    ) -> f64 {
        // Without column statistics the estimate depends only on which
        // bounds exist, so the bound values are not read (a statement
        // parameter stays unpinned and its generic plan serves every
        // value).
        let Some(stats) = self.stats_of(table) else {
            return default_range_sel(lo, hi);
        };
        let Some(col) = stats.column(column) else {
            return default_range_sel(lo, hi);
        };
        let lo = lo.as_ref().and_then(|e| self.value(e, ParamRead::Pin));
        let hi = hi.as_ref().and_then(|e| self.value(e, ParamRead::Pin));
        let rows = stats.row_count as f64;
        // A point probe (lo == hi, inclusive) is an equality.
        if let (Some(l), Some(h)) = (&lo, &hi) {
            if hi_inclusive && l.order(h) == std::cmp::Ordering::Equal {
                return col.selectivity_eq(rows, l);
            }
        }
        col.selectivity_range(
            rows,
            lo.as_ref().map(|d| (d, true)),
            hi.as_ref().map(|d| (d, hi_inclusive)),
        )
    }

    /// NDV of an expression over an input, when it is a column with
    /// known provenance and stats.
    fn expr_ndv(&self, e: &Expr, cols: &[ColRef]) -> Option<f64> {
        let Expr::Col(i) = e else { return None };
        let (table, column) = cols.get(*i)?.as_ref()?;
        let stats = self.stats_of(table)?;
        Some(stats.column(column)?.distinct.max(1) as f64)
    }

    /// `f(table rows, column stats)` for output column `i`, when it is a
    /// base column of an analyzed table; the stats are borrowed from the
    /// shared catalog snapshot.
    fn col_stats<R>(
        &self,
        cols: &[ColRef],
        i: usize,
        f: impl FnOnce(f64, &ColumnStats) -> R,
    ) -> Option<R> {
        let (table, column) = cols.get(i)?.as_ref()?;
        let stats = self.stats_of(table)?;
        Some(f(stats.row_count as f64, stats.column(column)?))
    }

    /// Estimated join output: `|L|·|R| / max(ndv(l), ndv(r))`, with each
    /// missing NDV defaulting to its own side's cardinality (the
    /// foreign-key assumption).
    fn equi_join_rows(&self, l: &NodeEst, r: &NodeEst, left_col: usize, right_col: usize) -> f64 {
        let ndv_l = self
            .col_stats(&l.cols, left_col, |_, c| c.distinct.max(1) as f64)
            .unwrap_or_else(|| l.rows.max(1.0));
        let ndv_r = self
            .col_stats(&r.cols, right_col, |_, c| c.distinct.max(1) as f64)
            .unwrap_or_else(|| r.rows.max(1.0));
        l.rows * r.rows / ndv_l.max(ndv_r).max(1.0)
    }

    /// [`Estimator::predicate_selectivity`] of the conjunction, with every
    /// conjunct `applied` says already holds counted as 1.
    fn residual_selectivity(
        &self,
        e: &Expr,
        cols: &[ColRef],
        applied: &dyn Fn(&Expr) -> bool,
    ) -> f64 {
        match e {
            Expr::Binary(BinOp::And, l, r) => {
                self.residual_selectivity(l, cols, applied)
                    * self.residual_selectivity(r, cols, applied)
            }
            _ if applied(e) => 1.0,
            _ => self.predicate_selectivity(e, cols),
        }
    }

    /// Selectivity of a predicate over an input with column provenance.
    /// Conjuncts multiply (independence), disjuncts add inclusion-
    /// exclusion; leaf comparisons probe histograms/NDV where possible.
    fn predicate_selectivity(&self, e: &Expr, cols: &[ColRef]) -> f64 {
        match e {
            Expr::Lit(Datum::Bool(true)) => 1.0,
            Expr::Lit(Datum::Bool(false)) | Expr::Lit(Datum::Null) => 0.0,
            Expr::Lit(_) => DEFAULT_SEL,
            Expr::Param(i) => match self.catalog.param(*i, ParamRead::Pin) {
                Some(d) => self.predicate_selectivity(&Expr::Lit(d), cols),
                None => DEFAULT_SEL,
            },
            Expr::Col(_) => DEFAULT_SEL,
            Expr::Unary(UnaryOp::Not, inner) => {
                1.0 - self.predicate_selectivity(inner, cols)
            }
            Expr::Unary(UnaryOp::IsNull, inner) => match inner.as_ref() {
                Expr::Col(i) => self
                    .col_stats(cols, *i, |rows, c| (rows > 0.0).then(|| c.null_count as f64 / rows))
                    .flatten()
                    .unwrap_or(DEFAULT_EQ_SEL),
                _ => DEFAULT_EQ_SEL,
            },
            Expr::Unary(UnaryOp::IsNotNull, inner) => match inner.as_ref() {
                Expr::Col(i) => self
                    .col_stats(cols, *i, |rows, c| {
                        (rows > 0.0).then(|| 1.0 - c.null_count as f64 / rows)
                    })
                    .flatten()
                    .unwrap_or(1.0 - DEFAULT_EQ_SEL),
                _ => 1.0 - DEFAULT_EQ_SEL,
            },
            Expr::Unary(_, _) => DEFAULT_SEL,
            Expr::Binary(BinOp::And, l, r) => {
                self.predicate_selectivity(l, cols) * self.predicate_selectivity(r, cols)
            }
            Expr::Binary(BinOp::Or, l, r) => {
                let a = self.predicate_selectivity(l, cols);
                let b = self.predicate_selectivity(r, cols);
                (a + b - a * b).clamp(0.0, 1.0)
            }
            Expr::Binary(op, l, r) => self.comparison_selectivity(*op, l, r, cols),
        }
    }

    fn comparison_selectivity(&self, op: BinOp, l: &Expr, r: &Expr, cols: &[ColRef]) -> f64 {
        // Normalise to column-vs-literal / column-vs-column.
        let (col, lit, op) = match (l, r) {
            (Expr::Col(i), v @ (Expr::Lit(_) | Expr::Param(_))) => (Some(*i), Some(v), op),
            (v @ (Expr::Lit(_) | Expr::Param(_)), Expr::Col(i)) => (Some(*i), Some(v), flip_cmp(op)),
            (Expr::Col(a), Expr::Col(b)) => {
                if op == BinOp::Eq {
                    let ndv_a = self.col_stats(cols, *a, |_, c| c.distinct.max(1) as f64);
                    let ndv_b = self.col_stats(cols, *b, |_, c| c.distinct.max(1) as f64);
                    if let (Some(a), Some(b)) = (ndv_a, ndv_b) {
                        return (1.0 / a.max(b)).clamp(0.0, 1.0);
                    }
                }
                return default_cmp_sel(op);
            }
            _ => return default_cmp_sel(op),
        };
        let (Some(i), Some(lit)) = (col, lit) else {
            return default_cmp_sel(op);
        };
        self.col_stats(cols, i, |rows, stats| {
            let read = match op {
                BinOp::Eq | BinOp::Ne => ParamRead::Eq(stats),
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => ParamRead::Pin,
                _ => return None,
            };
            let lit = &self.value(lit, read)?;
            Some(match op {
                BinOp::Eq => stats.selectivity_eq(rows, lit),
                BinOp::Ne => (1.0 - stats.selectivity_eq(rows, lit)).clamp(0.0, 1.0),
                BinOp::Lt => stats.selectivity_range(rows, None, Some((lit, false))),
                BinOp::Le => stats.selectivity_range(rows, None, Some((lit, true))),
                BinOp::Gt => stats.selectivity_range(rows, Some((lit, false)), None),
                _ => stats.selectivity_range(rows, Some((lit, true)), None),
            })
        })
        .flatten()
        .unwrap_or_else(|| default_cmp_sel(op))
    }
}

fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// The index access at the bottom of `plan`, seen through projections
/// (a covering scan's width-restoring one).
fn index_access(plan: &Plan) -> Option<&Plan> {
    match plan {
        Plan::IndexScan { .. } | Plan::IndexOr { .. } | Plan::IndexAnd { .. } => Some(plan),
        Plan::Project { input, .. } => index_access(input),
        _ => None,
    }
}

/// Whether index access `access` applies conjunct `e` through its
/// bounds: `e` compares a key column of the access with the very value
/// expression (literal or parameter) that bounds it. Only expressions
/// are compared, so no parameter is read.
fn bounds_apply(access: &Plan, e: &Expr, cols: &[ColRef]) -> bool {
    let Expr::Binary(op, l, r) = e else { return false };
    let (i, value, op) = match (l.as_ref(), r.as_ref()) {
        (Expr::Col(i), v) => (*i, v, *op),
        (v, Expr::Col(i)) => (*i, v, flip_cmp(*op)),
        _ => return false,
    };
    let Some(Some((table, column))) = cols.get(i) else { return false };
    let key_of = |key_columns: &[String]| {
        key_columns.iter().position(|k| k.eq_ignore_ascii_case(column))
    };
    match access {
        Plan::IndexScan {
            table: t,
            key_columns,
            eq,
            lo,
            hi,
            hi_inclusive,
            ..
        } if t == table => {
            let Some(k) = key_of(key_columns) else { return false };
            // The lower bound is inclusive for `>` too; the boundary
            // value's rows are all the estimate keeps extra.
            match (k.cmp(&eq.len()), op) {
                (Ordering::Less, BinOp::Eq) => eq[k] == *value,
                (Ordering::Equal, BinOp::Lt | BinOp::Le) => {
                    hi.as_ref() == Some(value) && *hi_inclusive == (op == BinOp::Le)
                }
                (Ordering::Equal, BinOp::Gt | BinOp::Ge) => lo.as_ref() == Some(value),
                _ => false,
            }
        }
        Plan::IndexAnd { table: t, probes } if t == table && op == BinOp::Eq => probes
            .iter()
            .any(|p| key_of(&p.key_columns).and_then(|k| p.eq.get(k)) == Some(value)),
        _ => false,
    }
}

/// Selectivity of an index range on a column without statistics: one
/// default range factor per bound.
fn default_range_sel(lo: &Option<Expr>, hi: &Option<Expr>) -> f64 {
    match (lo, hi) {
        (Some(_), Some(_)) => DEFAULT_RANGE_SEL * DEFAULT_RANGE_SEL,
        _ => DEFAULT_RANGE_SEL,
    }
}

fn default_cmp_sel(op: BinOp) -> f64 {
    match op {
        BinOp::Eq => DEFAULT_EQ_SEL,
        BinOp::Ne => 1.0 - DEFAULT_EQ_SEL,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => DEFAULT_RANGE_SEL,
        BinOp::Like => 0.25,
        _ => DEFAULT_SEL,
    }
}

/// `n·log2 n` sort cost.
fn sort_cost(rows: f64) -> f64 {
    let n = rows.max(2.0);
    n * n.log2()
}

/// Render an estimate value compactly and deterministically: integers up
/// to six digits exactly, larger or fractional values with one decimal.
fn round(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1_000_000.0 {
        format!("{}", v as i64)
    } else {
        format!("{v:.1}")
    }
}
