//! Query planning: name resolution, plan construction, cost-based
//! access-path, join-algorithm and join-order selection.
//!
//! The planner turns a parsed [`Select`] into a [`Plan`] tree of physical
//! operators over *positional* expressions, selecting among alternatives
//! by estimated cost (paper Fig. 6, flexibility by selection):
//! sequential scan vs. B-tree point probe vs. range scan vs. probe union
//! or intersection, hash vs. nested-loop join with the hash build
//! always on the smaller estimated input, and greedy
//! cardinality-ordered join reordering. There is one cost model: a table
//! without ANALYZE statistics is costed with the estimator's defaults
//! (a fixed row count and fixed selectivities).
//!
//! Override order for the join algorithm: a **forced hint**
//! ([`PlannerKnobs::forced_join`]) beats the **cost model**.

use std::collections::BTreeSet;
use std::sync::Arc;

use sbdms_access::exec::aggregate::AggSpec;
use sbdms_access::exec::expr::{BinOp, Expr};
use sbdms_access::exec::join::{BuildSide, JoinAlgorithm};
use sbdms_access::record::{Datum, Tuple};
use sbdms_access::sort::SortKey;
use sbdms_kernel::error::{Result, ServiceError};

use crate::ast::{AstExpr, OrderKey, Select, SelectItem};
use crate::catalog::{IndexMeta, TableMeta};
use crate::cost::Estimator;
use crate::schema::Schema;
use crate::stats::ColumnStats;

fn err(msg: impl Into<String>) -> ServiceError {
    ServiceError::InvalidInput(format!("plan: {}", msg.into()))
}

/// Session-level planner configuration. The override order is
/// `forced_join` > cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannerKnobs {
    /// Force every equi-join to this algorithm, bypassing the cost
    /// model entirely (experiment baselines, plan pinning).
    pub forced_join: Option<JoinAlgorithm>,
    /// Enable greedy cardinality-ordered join reordering (off keeps the
    /// textual join order).
    pub join_reordering: bool,
    /// Enable index selection. Off forces sequential scans.
    pub index_selection: bool,
}

impl Default for PlannerKnobs {
    fn default() -> PlannerKnobs {
        PlannerKnobs {
            forced_join: None,
            join_reordering: true,
            index_selection: true,
        }
    }
}

/// How a planning choice depends on a statement parameter's value,
/// so a generic plan can record the region its choices hold for.
#[derive(Debug, Clone, Copy)]
pub enum ParamRead<'a> {
    /// Only through [`ColumnStats::selectivity_eq`] on this column,
    /// which is constant for every value inside its [min, max] and for
    /// every value outside it.
    Eq(&'a ColumnStats),
    /// On the exact value: range selectivity, IN-list deduplication, an
    /// ORDER BY ordinal, a structural match between expressions.
    Pin,
}

/// What the planner needs to know about the database.
pub trait CatalogView {
    /// A shared snapshot of a table's metadata: schema, secondary
    /// indexes in creation order, and ANALYZE statistics when collected
    /// (error if the table is absent). Lookups share the snapshot rather
    /// than copy it, so planning clones no schema, index list or
    /// histogram.
    fn table(&self, name: &str) -> Result<Arc<TableMeta>>;
    /// Stored query text of a view, if `name` is a view.
    fn view_query(&self, name: &str) -> Option<String>;
    /// Multiplier on sequential-scan row cost for `table` under MVCC:
    /// retained version chains make every scan patch visibility, so a
    /// dense table scans slower than its row count suggests. `1.0`
    /// (the default) means no retained versions / not under MVCC.
    fn mvcc_scan_multiplier(&self, _table: &str) -> f64 {
        1.0
    }
    /// Planner configuration for this session.
    fn knobs(&self) -> PlannerKnobs {
        PlannerKnobs::default()
    }
    /// The value bound to statement parameter `i` for a choice that
    /// depends on it as `read` says (`None`: no value is bound, and the
    /// choice falls back to its value-free default).
    fn param(&self, _i: usize, _read: ParamRead<'_>) -> Option<Datum> {
        None
    }
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Full scan of a table.
    TableScan {
        /// Table name.
        table: String,
    },
    /// Index scan over a (possibly composite) B-tree: equality on a key
    /// prefix, optional range on the next key column. Each bound is a
    /// literal or a statement parameter ([`Expr::Lit`] or
    /// [`Expr::Param`]), read at execution. The bounds are a
    /// superset of the true predicate — the caller re-applies it as a
    /// residual filter. Output is in index-key order. With `covering`
    /// the scan emits the index key columns only (positions follow
    /// `key_columns`) and never touches the heap; the planner wraps it
    /// in a width-restoring projection.
    IndexScan {
        /// Table name.
        table: String,
        /// Index name.
        index: String,
        /// Index key columns, leading column first (lower-cased).
        key_columns: Vec<String>,
        /// Equality values for the leading `eq.len()` key columns.
        eq: Vec<Expr>,
        /// Inclusive lower bound on key column `eq.len()`.
        lo: Option<Expr>,
        /// Upper bound on key column `eq.len()`.
        hi: Option<Expr>,
        /// Whether the upper bound is inclusive.
        hi_inclusive: bool,
        /// Index-only scan: emit key columns, skip the heap.
        covering: bool,
    },
    /// Union of equality probes on one index (`OR` chains, `IN` lists):
    /// rowids are deduplicated and fetched in heap (rid) order.
    IndexOr {
        /// Table name.
        table: String,
        /// Index name.
        index: String,
        /// Index key columns, leading column first.
        key_columns: Vec<String>,
        /// Probe keys (full or prefix), deduplicated at plan time, so
        /// always literals.
        keys: Vec<Vec<Expr>>,
    },
    /// Sorted-rowid intersection of two equality probes on different
    /// indexes; surviving rowids are fetched in heap (rid) order.
    IndexAnd {
        /// Table name.
        table: String,
        /// The two probes.
        probes: Vec<IndexProbe>,
    },
    /// Literal rows.
    Values {
        /// The rows.
        rows: Vec<Tuple>,
    },
    /// Filter by predicate.
    Filter {
        /// Input.
        input: Box<Plan>,
        /// Predicate over input columns.
        predicate: Expr,
    },
    /// Equi-join (hash or nested loop).
    EquiJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Algorithm.
        algorithm: JoinAlgorithm,
        /// Join column on the left input.
        left_col: usize,
        /// Join column on the right input.
        right_col: usize,
        /// Width of the left input (for residual predicates).
        left_width: usize,
        /// Hash-table side for hash joins (planner-directed when stats
        /// exist, size-sniffing `Auto` otherwise). Ignored by the nested
        /// loop.
        build: BuildSide,
    },
    /// Nested-loop join with arbitrary predicate over `left ++ right`.
    NlJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Predicate over the concatenated tuple.
        predicate: Expr,
        /// Width of the left input (for predicate pushdown).
        left_width: usize,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input.
        input: Box<Plan>,
        /// Group-by expressions.
        group_by: Vec<Expr>,
        /// Aggregate specs.
        aggs: Vec<AggSpec>,
    },
    /// Projection.
    Project {
        /// Input.
        input: Box<Plan>,
        /// Output expressions.
        exprs: Vec<Expr>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input.
        input: Box<Plan>,
    },
    /// Sort.
    Sort {
        /// Input.
        input: Box<Plan>,
        /// Keys.
        keys: Vec<SortKey>,
    },
    /// Limit/offset.
    Limit {
        /// Input.
        input: Box<Plan>,
        /// Max rows.
        n: usize,
        /// Rows to skip.
        offset: usize,
    },
}

/// One equality probe of an [`Plan::IndexAnd`] intersection.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexProbe {
    /// Index name.
    pub index: String,
    /// Index key columns, leading column first.
    pub key_columns: Vec<String>,
    /// Equality values for the leading `eq.len()` key columns
    /// (literals or parameters).
    pub eq: Vec<Expr>,
}

impl Plan {
    /// One-line-per-node rendering (EXPLAIN-style), for tests and docs.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    /// The node's one-line label, without children. The cost model's
    /// annotated EXPLAIN reuses this so both renderings agree.
    pub fn node_label(&self) -> String {
        match self {
            Plan::TableScan { table } => format!("TableScan {table}"),
            Plan::IndexScan {
                table,
                index,
                key_columns,
                eq,
                lo,
                hi,
                hi_inclusive,
                covering,
            } => format!(
                "IndexScan {table}.{index}({}) eq=[{}] lo={} hi={} hi_inc={hi_inclusive}{}",
                key_columns.join(","),
                eq.iter().map(bound_label).collect::<Vec<_>>().join(", "),
                lo.as_ref().map_or("None".into(), |e| format!("Some({})", bound_label(e))),
                hi.as_ref().map_or("None".into(), |e| format!("Some({})", bound_label(e))),
                if *covering { " covering" } else { "" }
            ),
            Plan::IndexOr { table, index, keys, .. } => {
                format!("IndexOr {table}.{index} ({} keys)", keys.len())
            }
            Plan::IndexAnd { table, probes } => format!(
                "IndexAnd {table} [{}]",
                probes
                    .iter()
                    .map(|p| p.index.as_str())
                    .collect::<Vec<_>>()
                    .join(" ∩ ")
            ),
            Plan::Values { rows } => format!("Values ({} rows)", rows.len()),
            Plan::Filter { .. } => "Filter".to_string(),
            Plan::EquiJoin { algorithm, left_col, right_col, .. } => {
                format!("EquiJoin[{algorithm:?}] l{left_col}=r{right_col}")
            }
            Plan::NlJoin { .. } => "NlJoin".to_string(),
            Plan::Aggregate { group_by, aggs, .. } => {
                format!("Aggregate groups={} aggs={}", group_by.len(), aggs.len())
            }
            Plan::Project { exprs, .. } => format!("Project ({} cols)", exprs.len()),
            Plan::Distinct { .. } => "Distinct".to_string(),
            Plan::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
            Plan::Limit { n, offset, .. } => format!("Limit {n} offset {offset}"),
        }
    }

    /// Child nodes in execution order (left before right for joins).
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Filter { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => vec![input],
            Plan::EquiJoin { left, right, .. } | Plan::NlJoin { left, right, .. } => {
                vec![left, right]
            }
            _ => vec![],
        }
    }

    /// A copy with every statement parameter replaced by its value in
    /// `params`: the plan a generic plan is for one execution. EXPLAIN
    /// renders this.
    pub fn bind(&self, params: &[Datum]) -> Plan {
        let boxed = |p: &Plan| Box::new(p.bind(params));
        let exprs = |es: &[Expr]| es.iter().map(|e| e.bind(params)).collect::<Vec<_>>();
        match self {
            Plan::IndexScan {
                table,
                index,
                key_columns,
                eq,
                lo,
                hi,
                hi_inclusive,
                covering,
            } => Plan::IndexScan {
                table: table.clone(),
                index: index.clone(),
                key_columns: key_columns.clone(),
                eq: exprs(eq),
                lo: lo.as_ref().map(|e| e.bind(params)),
                hi: hi.as_ref().map(|e| e.bind(params)),
                hi_inclusive: *hi_inclusive,
                covering: *covering,
            },
            Plan::IndexAnd { table, probes } => Plan::IndexAnd {
                table: table.clone(),
                probes: probes
                    .iter()
                    .map(|p| IndexProbe {
                        eq: exprs(&p.eq),
                        ..p.clone()
                    })
                    .collect(),
            },
            Plan::TableScan { .. } | Plan::IndexOr { .. } | Plan::Values { .. } => self.clone(),
            Plan::Filter { input, predicate } => Plan::Filter {
                input: boxed(input),
                predicate: predicate.bind(params),
            },
            Plan::EquiJoin {
                left,
                right,
                algorithm,
                left_col,
                right_col,
                left_width,
                build,
            } => Plan::EquiJoin {
                left: boxed(left),
                right: boxed(right),
                algorithm: *algorithm,
                left_col: *left_col,
                right_col: *right_col,
                left_width: *left_width,
                build: *build,
            },
            Plan::NlJoin {
                left,
                right,
                predicate,
                left_width,
            } => Plan::NlJoin {
                left: boxed(left),
                right: boxed(right),
                predicate: predicate.bind(params),
                left_width: *left_width,
            },
            Plan::Aggregate { input, group_by, aggs } => Plan::Aggregate {
                input: boxed(input),
                group_by: exprs(group_by),
                aggs: aggs
                    .iter()
                    .map(|a| AggSpec::new(a.func, a.arg.bind(params)))
                    .collect(),
            },
            Plan::Project { input, exprs: es } => Plan::Project {
                input: boxed(input),
                exprs: exprs(es),
            },
            Plan::Distinct { input } => Plan::Distinct { input: boxed(input) },
            Plan::Sort { input, keys } => Plan::Sort {
                input: boxed(input),
                keys: keys.clone(),
            },
            Plan::Limit { input, n, offset } => Plan::Limit {
                input: boxed(input),
                n: *n,
                offset: *offset,
            },
        }
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.node_label());
        out.push('\n');
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }
}

/// An index bound as EXPLAIN shows it: a literal's value, or `$n` for
/// statement parameter `n` (1-based).
fn bound_label(e: &Expr) -> String {
    match e {
        Expr::Lit(d) => format!("{d:?}"),
        Expr::Param(i) => format!("${}", i + 1),
        other => format!("{other:?}"),
    }
}

/// A fully planned query: the plan plus output column labels.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// The physical plan.
    pub plan: Plan,
    /// Output column names.
    pub columns: Vec<String>,
    /// Human-readable selection decisions made while planning (access
    /// paths, join algorithms, join order), surfaced through metrics
    /// and events so the *why* of a plan is observable.
    pub decisions: Vec<String>,
}

/// Column environment during binding: `(qualifier, name)` per position.
#[derive(Debug, Clone, Default)]
pub struct BindEnv {
    cols: Vec<(Option<String>, String)>,
}

impl BindEnv {
    /// Bind a table's columns under a qualifier (used by DML binding in
    /// the executor as well as FROM-clause planning).
    pub fn push_table(&mut self, qualifier: &str, schema: &Schema) {
        self.push_schema(qualifier, schema)
    }

    fn push_schema(&mut self, qualifier: &str, schema: &Schema) {
        for c in &schema.columns {
            self.cols
                .push((Some(qualifier.to_lowercase()), c.name.clone()));
        }
    }

    fn push_labels(&mut self, qualifier: &str, labels: &[String]) {
        for l in labels {
            self.cols
                .push((Some(qualifier.to_lowercase()), l.to_lowercase()));
        }
    }

    fn len(&self) -> usize {
        self.cols.len()
    }

    fn names(&self) -> Vec<String> {
        self.cols.iter().map(|(_, n)| n.clone()).collect()
    }

    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let name = name.to_lowercase();
        let qualifier = qualifier.map(|q| q.to_lowercase());
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (q, n))| {
                *n == name && qualifier.as_ref().map(|want| q.as_deref() == Some(want)).unwrap_or(true)
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(err(format!(
                "unknown column `{}{}`",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default(),
                name
            ))),
            1 => Ok(matches[0]),
            _ => Err(err(format!("ambiguous column `{name}`"))),
        }
    }
}

/// Compile a non-aggregate AST expression into a positional one.
pub fn compile_expr(ast: &AstExpr, env: &BindEnv) -> Result<Expr> {
    match ast {
        AstExpr::Column(q, n) => Ok(Expr::Col(env.resolve(q.as_deref(), n)?)),
        AstExpr::Literal(d) => Ok(Expr::Lit(d.clone())),
        AstExpr::Param(i) => Ok(Expr::Param(*i)),
        AstExpr::Unary(op, e) => Ok(Expr::Unary(*op, Box::new(compile_expr(e, env)?))),
        AstExpr::Binary(op, l, r) => Ok(Expr::Binary(
            *op,
            Box::new(compile_expr(l, env)?),
            Box::new(compile_expr(r, env)?),
        )),
        AstExpr::Agg(..) => Err(err("aggregate not allowed here")),
    }
}

/// Compile a HAVING expression against the aggregate row
/// `[group values ++ agg values]`. Aggregate calls reuse an existing agg
/// slot when structurally identical, otherwise append a hidden one (the
/// final projection drops it). Bare columns resolve through SELECT-item
/// aliases, then GROUP BY column names.
#[allow(clippy::too_many_arguments)]
fn compile_having(
    ast: &AstExpr,
    group_by: &[AstExpr],
    env: &BindEnv,
    aggs: &mut Vec<AggSpec>,
    agg_asts: &mut Vec<AstExpr>,
    group_len: usize,
    item_positions: &[(Option<String>, usize)],
    columns: &[String],
    catalog: &dyn CatalogView,
) -> Result<Expr> {
    match ast {
        AstExpr::Agg(func, arg) => {
            if let Some(idx) = agg_asts.iter().position(|a| same_expr(a, ast, catalog)) {
                return Ok(Expr::Col(group_len + idx));
            }
            let compiled_arg = match arg {
                Some(a) => compile_expr(a, env)?,
                None => Expr::Lit(Datum::Int(0)),
            };
            let pos = group_len + aggs.len();
            aggs.push(AggSpec::new(*func, compiled_arg));
            agg_asts.push(ast.clone());
            Ok(Expr::Col(pos))
        }
        AstExpr::Column(None, name) => {
            // 1. SELECT-item alias or label.
            if let Some(i) = columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                return Ok(Expr::Col(item_positions[i].1));
            }
            // 2. A GROUP BY column name.
            if let Some(idx) = group_by
                .iter()
                .position(|g| matches!(g, AstExpr::Column(_, n) if n.eq_ignore_ascii_case(name)))
            {
                return Ok(Expr::Col(idx));
            }
            Err(err(format!(
                "HAVING: `{name}` is neither an output column nor a grouped column"
            )))
        }
        AstExpr::Column(Some(q), name) => {
            // Qualified names must match a GROUP BY column exactly.
            if let Some(idx) = group_by.iter().position(|g| {
                matches!(g, AstExpr::Column(Some(gq), n)
                    if n.eq_ignore_ascii_case(name) && gq.eq_ignore_ascii_case(q))
            }) {
                return Ok(Expr::Col(idx));
            }
            Err(err(format!("HAVING: `{q}.{name}` is not a grouped column")))
        }
        AstExpr::Literal(d) => Ok(Expr::Lit(d.clone())),
        AstExpr::Param(i) => Ok(Expr::Param(*i)),
        AstExpr::Unary(op, e) => Ok(Expr::Unary(
            *op,
            Box::new(compile_having(
                e,
                group_by,
                env,
                aggs,
                agg_asts,
                group_len,
                item_positions,
                columns,
                catalog,
            )?),
        )),
        AstExpr::Binary(op, l, r) => Ok(Expr::Binary(
            *op,
            Box::new(compile_having(
                l, group_by, env, aggs, agg_asts, group_len, item_positions, columns, catalog,
            )?),
            Box::new(compile_having(
                r, group_by, env, aggs, agg_asts, group_len, item_positions, columns, catalog,
            )?),
        )),
    }
}

/// Structural equality of two expressions (GROUP BY items, reused
/// aggregates), where a literal or parameter matches any other literal
/// or parameter of the same value. Every parameter whose value it
/// compares is pinned: the plan built on the answer holds only for
/// those values.
fn same_expr(a: &AstExpr, b: &AstExpr, catalog: &dyn CatalogView) -> bool {
    let value = |e: &AstExpr| match e {
        AstExpr::Literal(d) => Some(d.clone()),
        AstExpr::Param(i) => catalog.param(*i, ParamRead::Pin),
        _ => None,
    };
    match (a, b) {
        (AstExpr::Literal(_) | AstExpr::Param(_), AstExpr::Literal(_) | AstExpr::Param(_)) => {
            let (x, y) = (value(a), value(b));
            x.is_some() && x == y
        }
        (AstExpr::Unary(o1, e1), AstExpr::Unary(o2, e2)) => o1 == o2 && same_expr(e1, e2, catalog),
        (AstExpr::Binary(o1, l1, r1), AstExpr::Binary(o2, l2, r2)) => {
            o1 == o2 && same_expr(l1, l2, catalog) && same_expr(r1, r2, catalog)
        }
        (AstExpr::Agg(f1, a1), AstExpr::Agg(f2, a2)) => {
            f1 == f2
                && match (a1, a2) {
                    (Some(x), Some(y)) => same_expr(x, y, catalog),
                    (None, None) => true,
                    _ => false,
                }
        }
        _ => a == b,
    }
}

const MAX_VIEW_DEPTH: usize = 8;

/// Plan a SELECT.
pub fn plan_select(select: &Select, catalog: &dyn CatalogView) -> Result<PlannedQuery> {
    plan_select_depth(select, catalog, 0)
}

/// Plan the target rows of an UPDATE or DELETE: the access path a
/// SELECT leaf over `table` filtered by `predicate` takes — the same
/// candidates, knobs and stored statistics (stale ones are not
/// refreshed) — plus its `access` decision lines. The caller re-applies
/// the whole predicate to every candidate as the residual.
pub fn plan_dml_target(
    table: &str,
    predicate: Option<&Expr>,
    catalog: &dyn CatalogView,
) -> Result<(Plan, Vec<String>)> {
    let mut preds = Vec::new();
    if let Some(p) = predicate {
        flatten_and(p.clone(), &mut preds);
    }
    let mut decisions = Vec::new();
    let est = Estimator::new(catalog);
    let leaf = choose_access_path(table, &preds, catalog, &catalog.knobs(), &est, &mut decisions)?;
    Ok((leaf, decisions))
}

fn plan_select_depth(
    select: &Select,
    catalog: &dyn CatalogView,
    depth: usize,
) -> Result<PlannedQuery> {
    if depth > MAX_VIEW_DEPTH {
        return Err(err("view nesting too deep (cycle?)"));
    }
    if select.items.is_empty() {
        return Err(err("SELECT list is empty"));
    }

    // ── 1. FROM + JOINs + WHERE: the join graph ──────────────────────
    // Relations and every conjunct (from ONs and WHERE) are collected
    // into one pool; single-relation conjuncts inform access-path
    // selection at the leaves, cross-relation equi conjuncts are join
    // edges, the rest become residual filters as soon as their
    // relations are joined.
    let mut env = BindEnv::default();
    let mut decisions: Vec<String> = Vec::new();
    let mut plan = match &select.from {
        None => {
            // SELECT <exprs>: a single empty row.
            let mut p = Plan::Values { rows: vec![vec![]] };
            if let Some(filter_ast) = &select.filter {
                p = Plan::Filter {
                    input: Box::new(p),
                    predicate: compile_expr(filter_ast, &env)?,
                };
            }
            p
        }
        Some(table) => {
            let mut rels: Vec<Rel> = Vec::new();
            let qualifier = select.from_alias.clone().unwrap_or_else(|| table.clone());
            push_relation(&mut rels, &mut env, table, &qualifier, catalog, depth)?;
            let mut conjuncts: Vec<Expr> = Vec::new();
            for join in &select.joins {
                let qualifier = join.alias.clone().unwrap_or_else(|| join.table.clone());
                push_relation(&mut rels, &mut env, &join.table, &qualifier, catalog, depth)?;
                // The ON expression binds over the relations so far
                // (left ++ right), i.e. a prefix of the global env.
                flatten_and(compile_expr(&join.on, &env)?, &mut conjuncts);
            }
            if let Some(filter_ast) = &select.filter {
                flatten_and(compile_expr(filter_ast, &env)?, &mut conjuncts);
            }
            let knobs = catalog.knobs();
            plan_join_tree(rels, conjuncts, catalog, &knobs, &mut decisions)?
        }
    };

    // ── 3. Aggregation ───────────────────────────────────────────────
    let has_aggs = select.group_by.is_empty()
        && select
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || !select.group_by.is_empty();

    let mut columns: Vec<String> = Vec::new();
    if has_aggs {
        let group_exprs: Vec<Expr> = select
            .group_by
            .iter()
            .map(|g| compile_expr(g, &env))
            .collect::<Result<_>>()?;
        // Aggregate specs, with the AST of each aggregate recorded so
        // HAVING can reuse (or extend) them.
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut agg_asts: Vec<AstExpr> = Vec::new();
        // Output = per item either a group column or an aggregate; the
        // positions reference the aggregate row [groups ++ aggs].
        let mut output_exprs: Vec<Expr> = Vec::new();
        // (alias, aggregate-row position) per item, for HAVING aliases.
        let mut item_positions: Vec<(Option<String>, usize)> = Vec::new();
        for item in &select.items {
            match item {
                SelectItem::Wildcard => {
                    return Err(err("cannot use * with GROUP BY / aggregates"))
                }
                SelectItem::Expr { expr, alias } => {
                    if let AstExpr::Agg(func, arg) = expr {
                        let compiled_arg = match arg {
                            Some(a) => compile_expr(a, &env)?,
                            None => Expr::Lit(Datum::Int(0)),
                        };
                        let pos = select.group_by.len() + aggs.len();
                        aggs.push(AggSpec::new(*func, compiled_arg));
                        agg_asts.push(expr.clone());
                        output_exprs.push(Expr::Col(pos));
                        columns.push(alias.clone().unwrap_or_else(|| agg_label(*func)));
                        item_positions.push((alias.clone(), pos));
                    } else {
                        // Must structurally match a GROUP BY expression.
                        let idx = select
                            .group_by
                            .iter()
                            .position(|g| same_expr(g, expr, catalog))
                            .ok_or_else(|| {
                                err("non-aggregate SELECT item must appear in GROUP BY")
                            })?;
                        output_exprs.push(Expr::Col(idx));
                        columns.push(alias.clone().unwrap_or_else(|| label_of(expr)));
                        item_positions.push((alias.clone(), idx));
                    }
                }
            }
        }
        // HAVING compiles against the aggregate row [groups ++ aggs]:
        // aggregate calls reuse (or append) agg slots, aliases map to the
        // item's position, bare names map to group columns.
        let having_predicate = select
            .having
            .as_ref()
            .map(|having| {
                compile_having(
                    having,
                    &select.group_by,
                    &env,
                    &mut aggs,
                    &mut agg_asts,
                    select.group_by.len(),
                    &item_positions,
                    &columns,
                    catalog,
                )
            })
            .transpose()?;
        plan = Plan::Aggregate {
            input: Box::new(plan),
            group_by: group_exprs,
            aggs,
        };
        if let Some(predicate) = having_predicate {
            plan = Plan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }
        plan = Plan::Project {
            input: Box::new(plan),
            exprs: output_exprs,
        };
    } else {
        if select.having.is_some() {
            return Err(err("HAVING requires GROUP BY or aggregates"));
        }
        let mut output_exprs = Vec::new();
        for item in &select.items {
            match item {
                SelectItem::Wildcard => {
                    for (i, name) in env.names().into_iter().enumerate() {
                        output_exprs.push(Expr::Col(i));
                        columns.push(name);
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    output_exprs.push(compile_expr(expr, &env)?);
                    columns.push(alias.clone().unwrap_or_else(|| label_of(expr)));
                }
            }
        }
        // ORDER BY keys that do not name an output column may still name
        // an *input* column (standard SQL allows `SELECT a ... ORDER BY
        // b`); those sort below the projection.
        if !select.order_by.is_empty() {
            let output_keys: Result<Vec<SortKey>> = select
                .order_by
                .iter()
                .map(|k| order_key(k, &columns, catalog))
                .collect();
            match output_keys {
                Ok(_) => {} // handled after projection, below
                Err(_) => {
                    let keys = select
                        .order_by
                        .iter()
                        .map(|k| input_order_key(k, &env))
                        .collect::<Result<Vec<_>>>()?;
                    plan = Plan::Sort {
                        input: Box::new(plan),
                        keys,
                    };
                }
            }
        }
        plan = Plan::Project {
            input: Box::new(plan),
            exprs: output_exprs,
        };
    }

    // ── 4. DISTINCT / ORDER BY / LIMIT over the output schema ────────
    if select.distinct {
        plan = Plan::Distinct {
            input: Box::new(plan),
        };
    }
    if !select.order_by.is_empty() {
        let keys: Result<Vec<SortKey>> = select
            .order_by
            .iter()
            .map(|k| order_key(k, &columns, catalog))
            .collect();
        match keys {
            Ok(keys) => {
                plan = Plan::Sort {
                    input: Box::new(plan),
                    keys,
                };
            }
            // Already sorted below the projection (non-aggregate path);
            // aggregate queries must order by output columns.
            Err(e) if has_aggs => return Err(e),
            Err(_) => {}
        }
    }
    if select.limit.is_some() || select.offset.is_some() {
        plan = Plan::Limit {
            input: Box::new(plan),
            n: select.limit.unwrap_or(usize::MAX),
            offset: select.offset.unwrap_or(0),
        };
    }

    let plan = push_down_filters(plan);
    // Covering rewrite runs last: only after filter pushdown are the
    // residual predicates in place, and only the finished tree reveals
    // which columns each index scan must actually produce.
    let plan = if catalog.knobs().index_selection {
        apply_covering(plan, catalog, &mut decisions)
    } else {
        plan
    };
    Ok(PlannedQuery {
        plan,
        columns,
        decisions,
    })
}

/// One FROM/JOIN relation during join planning.
struct Rel {
    /// Leaf plan (a table scan, or an expanded view subtree).
    plan: Plan,
    /// First global column position of this relation in textual order.
    offset: usize,
    /// Number of columns.
    width: usize,
    /// Base table name when the relation is a plain table (access-path
    /// selection and statistics apply); `None` for views.
    table: Option<String>,
    /// Display name for decision messages.
    qualifier: String,
}

fn push_relation(
    rels: &mut Vec<Rel>,
    env: &mut BindEnv,
    table: &str,
    qualifier: &str,
    catalog: &dyn CatalogView,
    depth: usize,
) -> Result<()> {
    let (plan, labels) = plan_relation(table, catalog, depth)?;
    let base = match &plan {
        Plan::TableScan { table } => Some(table.clone()),
        _ => None,
    };
    rels.push(Rel {
        plan,
        offset: env.len(),
        width: labels.len(),
        table: base,
        qualifier: qualifier.to_lowercase(),
    });
    env.push_labels(qualifier, &labels);
    Ok(())
}

/// Index of the relation owning global column position `pos`.
fn rel_of(pos: usize, rels: &[Rel]) -> usize {
    rels.iter()
        .position(|r| pos >= r.offset && pos < r.offset + r.width)
        .unwrap_or(0)
}

/// Relations referenced by a conjunct (column positions are global).
/// Column-free conjuncts attach to relation 0.
fn conjunct_rels(e: &Expr, rels: &[Rel]) -> BTreeSet<usize> {
    let cols = expr_columns(e);
    if cols.is_empty() {
        return BTreeSet::from([0]);
    }
    cols.iter().map(|&c| rel_of(c, rels)).collect()
}

/// A cross-relation equi conjunct `Col(a) = Col(b)` usable as a join
/// edge; returns the two global positions.
fn as_equi_edge(e: &Expr, rels: &[Rel]) -> Option<(usize, usize)> {
    if let Expr::Binary(BinOp::Eq, l, r) = e {
        if let (Expr::Col(a), Expr::Col(b)) = (l.as_ref(), r.as_ref()) {
            if rel_of(*a, rels) != rel_of(*b, rels) {
                return Some((*a, *b));
            }
        }
    }
    None
}

/// Build the join tree over the relations: leaves get their local
/// predicates and access paths, then relations are joined — greedily by
/// estimated cardinality unless reordering is switched off — with
/// per-join algorithm selection. The output column order is
/// restored to textual order with a projection when reordering changed
/// it, so everything compiled against the global env stays valid.
fn plan_join_tree(
    rels: Vec<Rel>,
    conjuncts: Vec<Expr>,
    catalog: &dyn CatalogView,
    knobs: &PlannerKnobs,
    decisions: &mut Vec<String>,
) -> Result<Plan> {
    let est = Estimator::new(catalog);
    let total_width: usize = rels.iter().map(|r| r.width).sum();

    // Partition conjuncts: single-relation ones go to the leaves.
    let mut local: Vec<Vec<Expr>> = vec![Vec::new(); rels.len()];
    let mut pending: Vec<(BTreeSet<usize>, Expr)> = Vec::new();
    for c in conjuncts {
        let set = conjunct_rels(&c, &rels);
        if set.len() == 1 {
            local[*set.first().unwrap()].push(c);
        } else {
            pending.push((set, c));
        }
    }

    // Leaves: access-path selection + local filters (positions shifted
    // from global to relation-local).
    let mut leaves: Vec<Plan> = Vec::new();
    for (i, rel) in rels.iter().enumerate() {
        let preds: Vec<Expr> = local[i]
            .iter()
            .map(|e| shift_columns(e.clone(), rel.offset))
            .collect();
        let mut leaf = rel.plan.clone();
        if let Some(table) = &rel.table {
            if !preds.is_empty() {
                leaf = choose_access_path(table, &preds, catalog, knobs, &est, decisions)?;
            }
        }
        leaves.push(wrap_filter(leaf, combine_and(preds)));
    }

    if rels.len() == 1 {
        return Ok(leaves.into_iter().next().unwrap());
    }

    let reorder = knobs.join_reordering;

    let mut remaining: BTreeSet<usize> = (0..rels.len()).collect();
    let start = if reorder {
        *remaining
            .iter()
            .min_by(|&&a, &&b| {
                est.estimate(&leaves[a])
                    .rows
                    .total_cmp(&est.estimate(&leaves[b]).rows)
            })
            .unwrap()
    } else {
        0
    };
    remaining.remove(&start);
    let mut joined: BTreeSet<usize> = BTreeSet::from([start]);
    let mut order: Vec<usize> = vec![start];
    // Global column position carried by each output position.
    let mut layout: Vec<usize> = (rels[start].offset..rels[start].offset + rels[start].width)
        .collect();
    let mut plan = leaves[start].clone();

    while !remaining.is_empty() {
        // Relations connected to the joined set by an equi edge.
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&j| {
                pending.iter().any(|(set, e)| {
                    as_equi_edge(e, &rels).is_some()
                        && set.contains(&j)
                        && set.iter().all(|r| *r == j || joined.contains(r))
                })
            })
            .collect();
        let candidates: Vec<usize> = if connected.is_empty() {
            remaining.iter().copied().collect()
        } else {
            connected
        };
        let next = if reorder {
            *candidates
                .iter()
                .min_by(|&&a, &&b| {
                    self_join_rows(&est, &plan, &leaves[a], &layout, &rels[a], &pending, &rels)
                        .total_cmp(&self_join_rows(
                            &est, &plan, &leaves[b], &layout, &rels[b], &pending, &rels,
                        ))
                })
                .unwrap()
        } else {
            *candidates.iter().min().unwrap()
        };

        plan = join_step(
            plan,
            &mut layout,
            next,
            &leaves[next],
            &rels,
            &joined,
            &mut pending,
            knobs,
            &est,
            decisions,
        )?;
        joined.insert(next);
        order.push(next);
        remaining.remove(&next);
    }

    // Any conjunct still pending references all-joined relations with
    // positions already valid against the final layout remapping below.
    debug_assert!(pending.is_empty());

    if reorder && order.windows(2).any(|w| w[0] > w[1]) {
        let names: Vec<&str> = order.iter().map(|&i| rels[i].qualifier.as_str()).collect();
        decisions.push(format!("join order: {} (reordered from textual)", names.join(" ⋈ ")));
    }

    // Restore textual column order if the greedy order changed it.
    if layout.iter().enumerate().any(|(i, &g)| i != g) {
        let exprs: Vec<Expr> = (0..total_width)
            .map(|g| Expr::Col(layout.iter().position(|&x| x == g).unwrap()))
            .collect();
        plan = Plan::Project {
            input: Box::new(plan),
            exprs,
        };
    }
    Ok(plan)
}

/// Estimated output rows of joining `plan` with relation `j`'s leaf,
/// used to rank greedy candidates.
fn self_join_rows(
    est: &Estimator,
    plan: &Plan,
    leaf: &Plan,
    layout: &[usize],
    rel: &Rel,
    pending: &[(BTreeSet<usize>, Expr)],
    rels: &[Rel],
) -> f64 {
    // Find an equi edge between the joined set and this relation.
    for (_, e) in pending {
        if let Some((a, b)) = as_equi_edge(e, rels) {
            let (in_cur, in_new) = if layout.contains(&a) && rel_contains(rel, b) {
                (a, b)
            } else if layout.contains(&b) && rel_contains(rel, a) {
                (b, a)
            } else {
                continue;
            };
            let candidate = Plan::EquiJoin {
                left: Box::new(plan.clone()),
                right: Box::new(leaf.clone()),
                algorithm: JoinAlgorithm::Hash,
                left_col: layout.iter().position(|&x| x == in_cur).unwrap(),
                right_col: in_new - rel.offset,
                left_width: layout.len(),
                build: BuildSide::Auto,
            };
            return est.estimate(&candidate).rows;
        }
    }
    // No edge: a cross join.
    est.estimate(plan).rows * est.estimate(leaf).rows
}

fn rel_contains(rel: &Rel, pos: usize) -> bool {
    pos >= rel.offset && pos < rel.offset + rel.width
}

/// Join the current plan with relation `next`: pick the edge, choose
/// the algorithm (forced > cost model), apply newly covered
/// residual conjuncts, and extend the layout.
#[allow(clippy::too_many_arguments)]
fn join_step(
    plan: Plan,
    layout: &mut Vec<usize>,
    next: usize,
    leaf: &Plan,
    rels: &[Rel],
    joined: &BTreeSet<usize>,
    pending: &mut Vec<(BTreeSet<usize>, Expr)>,
    knobs: &PlannerKnobs,
    est: &Estimator,
    decisions: &mut Vec<String>,
) -> Result<Plan> {
    let rel = &rels[next];
    let left_width = layout.len();

    // Conjuncts that become applicable once `next` is joined.
    let mut applicable: Vec<Expr> = Vec::new();
    pending.retain(|(set, e)| {
        if set.iter().all(|r| *r == next || joined.contains(r)) {
            applicable.push(e.clone());
            false
        } else {
            true
        }
    });

    // First equi conjunct between the sides becomes the join condition.
    let edge = applicable.iter().position(|e| {
        as_equi_edge(e, rels)
            .map(|(a, b)| {
                (layout.contains(&a) && rel_contains(rel, b))
                    || (layout.contains(&b) && rel_contains(rel, a))
            })
            .unwrap_or(false)
    });

    // Remap an applicable conjunct from global positions to the local
    // coordinates of `plan ++ leaf`.
    let remap = |e: &Expr| -> Expr {
        map_columns(e.clone(), &|g| {
            if rel_contains(rel, g) {
                left_width + (g - rel.offset)
            } else {
                layout.iter().position(|&x| x == g).unwrap_or(0)
            }
        })
    };

    let joined_plan = match edge {
        Some(idx) => {
            let e = applicable.remove(idx);
            let (a, b) = as_equi_edge(&e, rels).unwrap();
            let (cur_g, new_g) = if rel_contains(rel, b) { (a, b) } else { (b, a) };
            let left_col = layout.iter().position(|&x| x == cur_g).unwrap();
            let right_col = new_g - rel.offset;
            let (algorithm, build) = choose_join_algorithm(
                &plan, leaf, left_col, right_col, left_width, rel, knobs, est, decisions,
            );
            let join = Plan::EquiJoin {
                left: Box::new(plan),
                right: Box::new(leaf.clone()),
                algorithm,
                left_col,
                right_col,
                left_width,
                build,
            };
            // Extra edges and mixed conjuncts become a residual filter.
            let residual = combine_and(applicable.iter().map(remap).collect());
            wrap_filter(join, residual)
        }
        None => {
            // No equi edge: nested loop with whatever predicates apply
            // (cross join when none do).
            let predicate = combine_and(applicable.iter().map(remap).collect())
                .unwrap_or(Expr::Lit(Datum::Bool(true)));
            Plan::NlJoin {
                left: Box::new(plan),
                right: Box::new(leaf.clone()),
                predicate,
                left_width,
            }
        }
    };

    layout.extend(rel.offset..rel.offset + rel.width);
    Ok(joined_plan)
}

/// Choose the equi-join algorithm and hash build side. Override order:
/// forced hint > cost model.
#[allow(clippy::too_many_arguments)]
fn choose_join_algorithm(
    left: &Plan,
    right: &Plan,
    left_col: usize,
    right_col: usize,
    left_width: usize,
    rel: &Rel,
    knobs: &PlannerKnobs,
    est: &Estimator,
    decisions: &mut Vec<String>,
) -> (JoinAlgorithm, BuildSide) {
    let l_rows = est.estimate(left).rows;
    let r_rows = est.estimate(right).rows;
    let directed_build = if l_rows <= r_rows {
        BuildSide::Left
    } else {
        BuildSide::Right
    };

    if let Some(forced) = knobs.forced_join {
        decisions.push(format!(
            "join ⋈{}: {forced:?} (forced hint)",
            rel.qualifier
        ));
        return (forced, directed_build);
    }

    // Cost each candidate with the same estimator EXPLAIN uses.
    let mut best: Option<(JoinAlgorithm, BuildSide, f64)> = None;
    let mut parts: Vec<String> = Vec::new();
    for algorithm in [JoinAlgorithm::Hash, JoinAlgorithm::NestedLoop] {
        let build = if algorithm == JoinAlgorithm::Hash {
            directed_build
        } else {
            BuildSide::Auto
        };
        let candidate = Plan::EquiJoin {
            left: Box::new(left.clone()),
            right: Box::new(right.clone()),
            algorithm,
            left_col,
            right_col,
            left_width,
            build,
        };
        let cost = est.estimate(&candidate).cost;
        parts.push(format!("{algorithm:?}={cost:.0}"));
        if best.map(|(_, _, c)| cost < c).unwrap_or(true) {
            best = Some((algorithm, build, cost));
        }
    }
    let (algorithm, build, _) = best.unwrap();
    decisions.push(format!(
        "join ⋈{}: {algorithm:?} build={build:?} (cost model: {})",
        rel.qualifier,
        parts.join(" ")
    ));
    (algorithm, build)
}

/// Rewrite every column reference through `f`.
fn map_columns(e: Expr, f: &dyn Fn(usize) -> usize) -> Expr {
    match e {
        Expr::Col(i) => Expr::Col(f(i)),
        Expr::Lit(d) => Expr::Lit(d),
        Expr::Param(i) => Expr::Param(i),
        Expr::Unary(op, inner) => Expr::Unary(op, Box::new(map_columns(*inner, f))),
        Expr::Binary(op, l, r) => Expr::Binary(
            op,
            Box::new(map_columns(*l, f)),
            Box::new(map_columns(*r, f)),
        ),
    }
}

/// Optimizer pass: push filter conjuncts that reference only one side of
/// a join below that join (classic predicate pushdown). Mixed conjuncts
/// stay above. Applied bottom-up over the whole plan.
pub fn push_down_filters(plan: Plan) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => {
            let input = push_down_filters(*input);
            match input {
                Plan::EquiJoin {
                    left,
                    right,
                    algorithm,
                    left_col,
                    right_col,
                    left_width,
                    build,
                } => {
                    let (new_left, new_right, residual) =
                        split_pushdown(predicate, *left, *right, left_width);
                    let join = Plan::EquiJoin {
                        left: Box::new(new_left),
                        right: Box::new(new_right),
                        algorithm,
                        left_col,
                        right_col,
                        left_width,
                        build,
                    };
                    wrap_filter(join, residual)
                }
                Plan::NlJoin {
                    left,
                    right,
                    predicate: on,
                    left_width,
                } => {
                    let (new_left, new_right, residual) =
                        split_pushdown(predicate, *left, *right, left_width);
                    let join = Plan::NlJoin {
                        left: Box::new(new_left),
                        right: Box::new(new_right),
                        predicate: on,
                        left_width,
                    };
                    wrap_filter(join, residual)
                }
                other => Plan::Filter {
                    input: Box::new(other),
                    predicate,
                },
            }
        }
        Plan::EquiJoin {
            left,
            right,
            algorithm,
            left_col,
            right_col,
            left_width,
            build,
        } => Plan::EquiJoin {
            left: Box::new(push_down_filters(*left)),
            right: Box::new(push_down_filters(*right)),
            algorithm,
            left_col,
            right_col,
            left_width,
            build,
        },
        Plan::NlJoin {
            left,
            right,
            predicate,
            left_width,
        } => Plan::NlJoin {
            left: Box::new(push_down_filters(*left)),
            right: Box::new(push_down_filters(*right)),
            predicate,
            left_width,
        },
        Plan::Aggregate { input, group_by, aggs } => Plan::Aggregate {
            input: Box::new(push_down_filters(*input)),
            group_by,
            aggs,
        },
        Plan::Project { input, exprs } => Plan::Project {
            input: Box::new(push_down_filters(*input)),
            exprs,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(push_down_filters(*input)),
        },
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(push_down_filters(*input)),
            keys,
        },
        Plan::Limit { input, n, offset } => Plan::Limit {
            input: Box::new(push_down_filters(*input)),
            n,
            offset,
        },
        leaf => leaf,
    }
}

/// Split `predicate` into conjuncts, push side-local ones into the join
/// inputs (recursively re-optimised), and return the residual.
fn split_pushdown(
    predicate: Expr,
    left: Plan,
    right: Plan,
    left_width: usize,
) -> (Plan, Plan, Option<Expr>) {
    let mut conjuncts = Vec::new();
    flatten_and(predicate, &mut conjuncts);
    let mut left_preds = Vec::new();
    let mut right_preds = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        let cols = expr_columns(&c);
        if cols.iter().all(|&i| i < left_width) {
            left_preds.push(c);
        } else if cols.iter().all(|&i| i >= left_width) {
            right_preds.push(shift_columns(c, left_width));
        } else {
            residual.push(c);
        }
    }
    let new_left = push_down_filters(wrap_filter(left, combine_and(left_preds)));
    let new_right = push_down_filters(wrap_filter(right, combine_and(right_preds)));
    (new_left, new_right, combine_and(residual))
}

fn wrap_filter(plan: Plan, predicate: Option<Expr>) -> Plan {
    match predicate {
        None => plan,
        Some(predicate) => Plan::Filter {
            input: Box::new(plan),
            predicate,
        },
    }
}

fn flatten_and(e: Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary(BinOp::And, l, r) = e {
        flatten_and(*l, out);
        flatten_and(*r, out);
    } else {
        out.push(e);
    }
}

fn combine_and(mut preds: Vec<Expr>) -> Option<Expr> {
    let mut acc = preds.pop()?;
    while let Some(p) = preds.pop() {
        acc = Expr::Binary(BinOp::And, Box::new(p), Box::new(acc));
    }
    Some(acc)
}

fn expr_columns(e: &Expr) -> Vec<usize> {
    fn walk(e: &Expr, out: &mut Vec<usize>) {
        match e {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) | Expr::Param(_) => {}
            Expr::Unary(_, inner) => walk(inner, out),
            Expr::Binary(_, l, r) => {
                walk(l, out);
                walk(r, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(e, &mut out);
    out
}

fn shift_columns(e: Expr, delta: usize) -> Expr {
    match e {
        Expr::Col(i) => Expr::Col(i - delta),
        Expr::Lit(d) => Expr::Lit(d),
        Expr::Param(i) => Expr::Param(i),
        Expr::Unary(op, inner) => Expr::Unary(op, Box::new(shift_columns(*inner, delta))),
        Expr::Binary(op, l, r) => Expr::Binary(
            op,
            Box::new(shift_columns(*l, delta)),
            Box::new(shift_columns(*r, delta)),
        ),
    }
}

/// Plan a FROM/JOIN relation: a base table or an expanded view.
fn plan_relation(
    name: &str,
    catalog: &dyn CatalogView,
    depth: usize,
) -> Result<(Plan, Vec<String>)> {
    if let Some(text) = catalog.view_query(name) {
        let select = match crate::parser::parse(&text)? {
            crate::ast::Statement::Select(s) => *s,
            _ => return Err(err(format!("view `{name}` does not store a SELECT"))),
        };
        let planned = plan_select_depth(&select, catalog, depth + 1)?;
        return Ok((planned.plan, planned.columns));
    }
    let meta = catalog.table(name)?;
    let labels = meta.schema.columns.iter().map(|c| c.name.clone()).collect();
    Ok((
        Plan::TableScan {
            table: name.to_lowercase(),
        },
        labels,
    ))
}

fn label_of(expr: &AstExpr) -> String {
    match expr {
        AstExpr::Column(_, n) => n.clone(),
        AstExpr::Agg(f, _) => agg_label(*f),
        _ => "expr".to_string(),
    }
}

fn agg_label(f: sbdms_access::exec::aggregate::AggFunc) -> String {
    use sbdms_access::exec::aggregate::AggFunc::*;
    match f {
        CountAll | Count => "count",
        Sum => "sum",
        Avg => "avg",
        Min => "min",
        Max => "max",
    }
    .to_string()
}

/// Resolve an ORDER BY key against the pre-projection input environment
/// (bare or qualified column references only).
fn input_order_key(key: &OrderKey, env: &BindEnv) -> Result<SortKey> {
    let column = match &key.expr {
        AstExpr::Column(q, name) => env.resolve(q.as_deref(), name)?,
        other => {
            return Err(err(format!(
                "ORDER BY must name an output or input column: {other:?}"
            )))
        }
    };
    Ok(if key.asc {
        SortKey::asc(column)
    } else {
        SortKey::desc(column)
    })
}

fn order_key(key: &OrderKey, columns: &[String], catalog: &dyn CatalogView) -> Result<SortKey> {
    let ordinal = match &key.expr {
        AstExpr::Literal(Datum::Int(i)) => Some(*i),
        AstExpr::Param(p) => match catalog.param(*p, ParamRead::Pin) {
            Some(Datum::Int(i)) => Some(i),
            _ => None,
        },
        _ => None,
    };
    let column = match (&key.expr, ordinal) {
        (AstExpr::Column(None, name), _) => columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
            .ok_or_else(|| err(format!("ORDER BY: unknown output column `{name}`")))?,
        (_, Some(i)) if i >= 1 && (i as usize) <= columns.len() => i as usize - 1,
        (other, _) => return Err(err(format!("ORDER BY must name an output column: {other:?}"))),
    };
    Ok(if key.asc {
        SortKey::asc(column)
    } else {
        SortKey::desc(column)
    })
}

/// Widest `OR`/`IN` list the planner will turn into an [`Plan::IndexOr`]
/// probe union. Past this fanout the per-probe descent cost and the rid
/// dedup dominate, so the candidate is declined outright (with a
/// decision line) rather than costed.
pub const MAX_INDEX_OR_FANOUT: usize = 32;

/// Range bounds extracted for one column, merged across conjuncts;
/// each a literal or a parameter.
#[derive(Default, Clone)]
struct ColBounds {
    lo: Option<Expr>,
    hi: Option<Expr>,
    hi_inclusive: bool,
}

/// Per-column constraints a relation's local predicates imply: equality
/// values, range bounds, and OR'd equality lists (from `IN` desugaring
/// or explicit `OR` chains). Column names are schema-cased.
#[derive(Default)]
struct PredConstraints {
    eq: Vec<(String, Expr)>,
    ranges: Vec<(String, ColBounds)>,
    or_eq: Vec<(String, Vec<Datum>)>,
}

/// Whether `e` is a value known at execution: a literal or a parameter.
fn is_value(e: &Expr) -> bool {
    matches!(e, Expr::Lit(_) | Expr::Param(_))
}

impl PredConstraints {
    fn eq_of(&self, col: &str) -> Option<&Expr> {
        self.eq
            .iter()
            .find(|(c, _)| c.eq_ignore_ascii_case(col))
            .map(|(_, d)| d)
    }

    fn range_of(&self, col: &str) -> Option<&ColBounds> {
        self.ranges
            .iter()
            .find(|(c, _)| c.eq_ignore_ascii_case(col))
            .map(|(_, b)| b)
    }

    fn extract(preds: &[Expr], schema: &Schema, catalog: &dyn CatalogView) -> PredConstraints {
        let mut out = PredConstraints::default();
        for p in preds {
            // An OR chain whose every leaf is `col = lit` on one column.
            if let Some((i, lits)) = as_or_equalities(p, catalog) {
                if let Some(col) = schema.columns.get(i) {
                    out.or_eq.push((col.name.clone(), lits));
                }
                continue;
            }
            let Expr::Binary(op, l, r) = p else { continue };
            let (i, lit, op) = match (l.as_ref(), r.as_ref()) {
                (Expr::Col(i), v) if is_value(v) => (*i, v, *op),
                (v, Expr::Col(i)) if is_value(v) => (*i, v, flip(*op)),
                _ => continue,
            };
            let Some(col) = schema.columns.get(i) else { continue };
            if op == BinOp::Eq {
                if out.eq_of(&col.name).is_none() {
                    out.eq.push((col.name.clone(), lit.clone()));
                }
                continue;
            }
            let bounds = match out.ranges.iter().position(|(c, _)| *c == col.name) {
                Some(pos) => &mut out.ranges[pos].1,
                None => {
                    out.ranges.push((col.name.clone(), ColBounds::default()));
                    &mut out.ranges.last_mut().unwrap().1
                }
            };
            // Any single conjunct's bound is a superset of the
            // conjunction; one-sided bounds keep the first seen per side
            // (so `BETWEEN`-style pairs close both ends).
            match op {
                BinOp::Lt if bounds.hi.is_none() => {
                    bounds.hi = Some(lit.clone());
                    bounds.hi_inclusive = false;
                }
                BinOp::Le if bounds.hi.is_none() => {
                    bounds.hi = Some(lit.clone());
                    bounds.hi_inclusive = true;
                }
                // Inclusive lower bound is a superset for Gt; the
                // residual filter removes the boundary row.
                BinOp::Gt | BinOp::Ge if bounds.lo.is_none() => {
                    bounds.lo = Some(lit.clone());
                }
                _ => {}
            }
        }
        out
    }
}

/// Flatten an OR tree into its disjuncts.
fn flatten_or(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary(BinOp::Or, l, r) = e {
        flatten_or(l, out);
        flatten_or(r, out);
    } else {
        out.push(e.clone());
    }
}

/// Recognise `col = l1 OR col = l2 OR ...` (the shape `IN` desugars to):
/// one column position and the deduplicated literal list, sorted by
/// `Datum::order` for deterministic probing. Deduplication reads every
/// value, so each parameter in the list is pinned.
fn as_or_equalities(e: &Expr, catalog: &dyn CatalogView) -> Option<(usize, Vec<Datum>)> {
    if !matches!(e, Expr::Binary(BinOp::Or, _, _)) {
        return None;
    }
    let mut leaves = Vec::new();
    flatten_or(e, &mut leaves);
    let mut col: Option<usize> = None;
    let mut lits: Vec<Datum> = Vec::with_capacity(leaves.len());
    for leaf in &leaves {
        let Expr::Binary(BinOp::Eq, l, r) = leaf else { return None };
        let (i, v) = match (l.as_ref(), r.as_ref()) {
            (Expr::Col(i), v) | (v, Expr::Col(i)) if is_value(v) => (*i, v),
            _ => return None,
        };
        if *col.get_or_insert(i) != i {
            return None;
        }
        lits.push(match v {
            Expr::Param(p) => catalog.param(*p, ParamRead::Pin)?,
            Expr::Lit(d) => d.clone(),
            _ => return None,
        });
    }
    lits.sort_by(|a, b| a.order(b));
    lits.dedup_by(|a, b| a.order(b) == std::cmp::Ordering::Equal);
    Some((col?, lits))
}

/// One access-path candidate under consideration.
struct PathCand {
    plan: Plan,
    /// Compact label for the decision line.
    label: String,
}

/// Choose the access path for a base-table relation from its local
/// predicates. Candidates per index: composite-equality probe (full or
/// prefix), prefix-range scan (equality on a key prefix + range on the
/// next key column), plain range scan; plus [`Plan::IndexOr`] for
/// OR/`IN` equality lists on a leading column and [`Plan::IndexAnd`]
/// for pairs of equality probes on different indexes. Every candidate
/// is costed (heap rows fetched through an index pay the random-access
/// penalty) against the sequential scan; a table without statistics is
/// costed with the estimator's defaults. Bounds are a superset of the
/// true predicate — the caller re-applies the full predicate as a
/// residual filter. Covering (index-only) scans are rewritten in
/// afterwards by [`apply_covering`], once the needed columns are known.
fn choose_access_path(
    table: &str,
    preds: &[Expr],
    catalog: &dyn CatalogView,
    knobs: &PlannerKnobs,
    est: &Estimator,
    decisions: &mut Vec<String>,
) -> Result<Plan> {
    let table_lc = table.to_lowercase();
    let seq = Plan::TableScan {
        table: table_lc.clone(),
    };
    if !knobs.index_selection {
        return Ok(seq);
    }
    let meta = match catalog.table(table) {
        Ok(meta) if !meta.indexes.is_empty() => meta,
        _ => return Ok(seq),
    };
    let indexes = &meta.indexes;
    let cons = PredConstraints::extract(preds, &meta.schema, catalog);

    let mut cands: Vec<PathCand> = Vec::new();
    // Indexes with an equality prefix, for the IndexAnd pairs below.
    let mut probes: Vec<(&IndexMeta, Vec<Expr>)> = Vec::new();
    // Per-index scan candidates: longest equality prefix, then a range
    // on the next key column when one is bounded.
    for idx in indexes {
        let mut eq: Vec<Expr> = Vec::new();
        for col in &idx.columns {
            match cons.eq_of(col) {
                Some(d) => eq.push(d.clone()),
                None => break,
            }
        }
        if !eq.is_empty() {
            probes.push((idx, eq.clone()));
        }
        let bounds = idx
            .columns
            .get(eq.len())
            .and_then(|c| cons.range_of(c))
            .cloned()
            .unwrap_or_default();
        if eq.is_empty() && bounds.lo.is_none() && bounds.hi.is_none() {
            continue;
        }
        let has_range = bounds.lo.is_some() || bounds.hi.is_some();
        let hi_inclusive = if bounds.hi.is_some() { bounds.hi_inclusive } else { true };
        cands.push(PathCand {
            label: format!(
                "{}(eq={}{})",
                idx.name,
                eq.len(),
                if has_range { "+range" } else { "" }
            ),
            plan: Plan::IndexScan {
                table: table_lc.clone(),
                index: idx.name.clone(),
                key_columns: idx.columns.clone(),
                eq,
                lo: bounds.lo,
                hi: bounds.hi,
                hi_inclusive,
                covering: false,
            },
        });
    }
    // IndexOr: an OR'd equality list on some index's leading column.
    for (col, lits) in &cons.or_eq {
        let Some(idx) = indexes
            .iter()
            .filter(|i| i.columns.first().is_some_and(|c| c.eq_ignore_ascii_case(col)))
            .min_by_key(|i| (i.columns.len(), i.name.clone()))
        else {
            continue;
        };
        if lits.is_empty() {
            continue;
        }
        if lits.len() > MAX_INDEX_OR_FANOUT {
            decisions.push(format!(
                "access {table}: declined index-or({}) — fanout {} > {MAX_INDEX_OR_FANOUT}",
                idx.name,
                lits.len()
            ));
            continue;
        }
        cands.push(PathCand {
            label: format!("{}(or×{})", idx.name, lits.len()),
            plan: Plan::IndexOr {
                table: table_lc.clone(),
                index: idx.name.clone(),
                key_columns: idx.columns.clone(),
                keys: lits.iter().map(|l| vec![Expr::Lit(l.clone())]).collect(),
            },
        });
    }
    // IndexAnd: pairs of equality probes on indexes with different
    // leading columns.
    for a in 0..probes.len() {
        for b in a + 1..probes.len() {
            let (ia, ea) = &probes[a];
            let (ib, eb) = &probes[b];
            if ia.columns[0].eq_ignore_ascii_case(&ib.columns[0]) {
                continue;
            }
            cands.push(PathCand {
                label: format!("{}∩{}", ia.name, ib.name),
                plan: Plan::IndexAnd {
                    table: table_lc.clone(),
                    probes: vec![
                        IndexProbe {
                            index: ia.name.clone(),
                            key_columns: ia.columns.clone(),
                            eq: ea.clone(),
                        },
                        IndexProbe {
                            index: ib.name.clone(),
                            key_columns: ib.columns.clone(),
                            eq: eb.clone(),
                        },
                    ],
                },
            });
        }
    }
    if cands.is_empty() {
        return Ok(seq);
    }

    let seq_cost = est.estimate(&seq).cost;
    let costed: Vec<(usize, f64)> = cands
        .iter()
        .enumerate()
        .map(|(i, c)| (i, est.estimate(&c.plan).cost))
        .collect();
    let parts: Vec<String> = costed
        .iter()
        .map(|(i, cost)| format!("{}={cost:.0}", cands[*i].label))
        .collect();
    // Equal costs go to the later candidate: without statistics every
    // single-column equality probe costs the same, and the most
    // recently created index among them wins.
    let &(best, best_cost) = costed
        .iter()
        .rev()
        .min_by(|(_, a), (_, b)| a.total_cmp(b))
        .unwrap();
    if best_cost < seq_cost {
        decisions.push(format!(
            "access {table}: {} (cost model: {} seq={seq_cost:.0})",
            cands[best].label,
            parts.join(" ")
        ));
        Ok(cands[best].plan.clone())
    } else {
        decisions.push(format!(
            "access {table}: seq scan (cost model: {} seq={seq_cost:.0})",
            parts.join(" ")
        ));
        Ok(seq)
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Which input columns a node needs: an exact set, or `None` for "all"
/// (nodes like DISTINCT that compare whole rows).
type Needed = Option<BTreeSet<usize>>;

/// Covering rewrite: walk the finished plan top-down computing which
/// columns each subtree must actually produce; when every column needed
/// from an [`Plan::IndexScan`] is a key column of its index, flip the
/// scan to `covering` (index-only — the B-tree entries already carry
/// the values, so the heap is never touched) and wrap it in a
/// width-restoring projection (key columns at their table positions,
/// NULL padding elsewhere — the padding is provably never read).
pub fn apply_covering(
    plan: Plan,
    catalog: &dyn CatalogView,
    decisions: &mut Vec<String>,
) -> Plan {
    cover(plan, None, catalog, decisions)
}

fn needed_union(needed: &Needed, extra: impl IntoIterator<Item = usize>) -> Needed {
    needed.as_ref().map(|set| {
        let mut set = set.clone();
        set.extend(extra);
        set
    })
}

fn cover(
    plan: Plan,
    needed: Needed,
    catalog: &dyn CatalogView,
    decisions: &mut Vec<String>,
) -> Plan {
    match plan {
        Plan::Project { input, exprs } => {
            let mut used: BTreeSet<usize> = BTreeSet::new();
            for e in &exprs {
                used.extend(expr_columns(e));
            }
            Plan::Project {
                input: Box::new(cover(*input, Some(used), catalog, decisions)),
                exprs,
            }
        }
        Plan::Aggregate { input, group_by, aggs } => {
            let mut used: BTreeSet<usize> = BTreeSet::new();
            for e in group_by.iter().chain(aggs.iter().map(|a| &a.arg)) {
                used.extend(expr_columns(e));
            }
            Plan::Aggregate {
                input: Box::new(cover(*input, Some(used), catalog, decisions)),
                group_by,
                aggs,
            }
        }
        Plan::Filter { input, predicate } => {
            let needed = needed_union(&needed, expr_columns(&predicate));
            Plan::Filter {
                input: Box::new(cover(*input, needed, catalog, decisions)),
                predicate,
            }
        }
        Plan::Sort { input, keys } => {
            let needed = needed_union(&needed, keys.iter().map(|k| k.column));
            Plan::Sort {
                input: Box::new(cover(*input, needed, catalog, decisions)),
                keys,
            }
        }
        Plan::Limit { input, n, offset } => Plan::Limit {
            input: Box::new(cover(*input, needed, catalog, decisions)),
            n,
            offset,
        },
        // DISTINCT compares entire rows: every input column is read.
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(cover(*input, None, catalog, decisions)),
        },
        Plan::EquiJoin {
            left,
            right,
            algorithm,
            left_col,
            right_col,
            left_width,
            build,
        } => {
            let (ln, rn) = split_needed(&needed, left_width, [left_col], [right_col]);
            Plan::EquiJoin {
                left: Box::new(cover(*left, ln, catalog, decisions)),
                right: Box::new(cover(*right, rn, catalog, decisions)),
                algorithm,
                left_col,
                right_col,
                left_width,
                build,
            }
        }
        Plan::NlJoin {
            left,
            right,
            predicate,
            left_width,
        } => {
            let pred_cols = expr_columns(&predicate);
            let needed = needed_union(&needed, pred_cols);
            let (ln, rn) = split_needed(&needed, left_width, [], []);
            Plan::NlJoin {
                left: Box::new(cover(*left, ln, catalog, decisions)),
                right: Box::new(cover(*right, rn, catalog, decisions)),
                predicate,
                left_width,
            }
        }
        Plan::IndexScan {
            table,
            index,
            key_columns,
            eq,
            lo,
            hi,
            hi_inclusive,
            covering: false,
        } => {
            let scan = |covering| Plan::IndexScan {
                table: table.clone(),
                index: index.clone(),
                key_columns: key_columns.clone(),
                eq: eq.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
                hi_inclusive,
                covering,
            };
            let Some(set) = needed else { return scan(false) };
            let Ok(meta) = catalog.table(&table) else {
                return scan(false);
            };
            let covered = set.iter().all(|&i| {
                meta.schema
                    .columns
                    .get(i)
                    .is_some_and(|c| key_columns.iter().any(|k| k.eq_ignore_ascii_case(&c.name)))
            });
            if !covered {
                return scan(false);
            }
            let exprs: Vec<Expr> = meta
                .schema
                .columns
                .iter()
                .map(|c| {
                    match key_columns
                        .iter()
                        .position(|k| k.eq_ignore_ascii_case(&c.name))
                    {
                        Some(k) => Expr::Col(k),
                        None => Expr::Lit(Datum::Null),
                    }
                })
                .collect();
            decisions.push(format!(
                "access {table}: covering index-only scan via {index} (heap never read)"
            ));
            Plan::Project {
                input: Box::new(scan(true)),
                exprs,
            }
        }
        leaf => leaf,
    }
}

/// Split a join's needed set into per-side sets, adding each side's own
/// key columns.
fn split_needed(
    needed: &Needed,
    left_width: usize,
    extra_left: impl IntoIterator<Item = usize>,
    extra_right: impl IntoIterator<Item = usize>,
) -> (Needed, Needed) {
    match needed {
        None => (None, None),
        Some(set) => {
            let mut l: BTreeSet<usize> = set.iter().copied().filter(|&p| p < left_width).collect();
            let mut r: BTreeSet<usize> = set
                .iter()
                .copied()
                .filter(|&p| p >= left_width)
                .map(|p| p - left_width)
                .collect();
            l.extend(extra_left);
            r.extend(extra_right);
            (Some(l), Some(r))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::schema::{Column, ColumnType};
    use crate::stats::TableStats;

    struct FakeCatalog;

    /// Index descriptors as `(name, key columns)`.
    type Indexes = &'static [(&'static str, &'static [&'static str])];

    /// A catalog snapshot for the fake catalogs.
    fn meta(name: &str, schema: Schema, indexes: Indexes, stats: Option<TableStats>) -> Arc<TableMeta> {
        Arc::new(TableMeta {
            name: name.to_string(),
            schema,
            heap_dir_page: 0,
            indexes: indexes
                .iter()
                .map(|(name, columns)| IndexMeta {
                    name: name.to_string(),
                    columns: columns.iter().map(|c| c.to_string()).collect(),
                    meta_page: 0,
                })
                .collect(),
            stats,
        })
    }

    impl FakeCatalog {
        fn schema(name: &str) -> Result<Schema> {
            match name {
                "users" => Schema::new(vec![
                    Column::not_null("id", ColumnType::Int),
                    Column::not_null("name", ColumnType::Text),
                    Column::new("score", ColumnType::Float),
                ]),
                "orders" => Schema::new(vec![
                    Column::not_null("oid", ColumnType::Int),
                    Column::not_null("user_id", ColumnType::Int),
                    Column::new("amount", ColumnType::Int),
                ]),
                other => Err(err(format!("no such table `{other}`"))),
            }
        }
    }

    impl CatalogView for FakeCatalog {
        fn table(&self, name: &str) -> Result<Arc<TableMeta>> {
            let indexes: Indexes = if name == "users" { &[("users_id", &["id"])] } else { &[] };
            Ok(meta(name, FakeCatalog::schema(name)?, indexes, None))
        }

        fn view_query(&self, name: &str) -> Option<String> {
            (name == "big_spenders")
                .then(|| "SELECT user_id, amount FROM orders WHERE amount > 100".to_string())
        }
    }

    fn plan(sql: &str) -> PlannedQuery {
        let crate::ast::Statement::Select(s) = parse(sql).unwrap() else {
            panic!()
        };
        plan_select(&s, &FakeCatalog).unwrap()
    }

    fn plan_err(sql: &str) -> ServiceError {
        let crate::ast::Statement::Select(s) = parse(sql).unwrap() else {
            panic!()
        };
        plan_select(&s, &FakeCatalog).unwrap_err()
    }

    #[test]
    fn wildcard_projects_all_columns() {
        let p = plan("SELECT * FROM users");
        assert_eq!(p.columns, vec!["id", "name", "score"]);
        assert!(p.plan.explain().contains("TableScan users"));
    }

    #[test]
    fn equality_on_indexed_column_uses_index() {
        let p = plan("SELECT * FROM users WHERE id = 5");
        let explain = p.plan.explain();
        assert!(explain.contains("IndexScan users.users_id(id) eq=[Int(5)]"), "{explain}");
        assert!(explain.contains("Filter"), "residual filter kept: {explain}");
    }

    #[test]
    fn range_on_indexed_column_uses_index() {
        let p = plan("SELECT * FROM users WHERE id > 10 AND name = 'x'");
        assert!(p.plan.explain().contains("IndexScan"));
        let p = plan("SELECT * FROM users WHERE 10 >= id");
        let explain = p.plan.explain();
        assert!(explain.contains("IndexScan"), "flipped literal: {explain}");
    }

    #[test]
    fn unindexed_column_stays_seq_scan() {
        let p = plan("SELECT * FROM users WHERE name = 'x'");
        assert!(p.plan.explain().contains("TableScan"));
        assert!(!p.plan.explain().contains("IndexScan"));
    }

    #[test]
    fn equi_join_uses_hash() {
        let p = plan("SELECT name, amount FROM users u JOIN orders o ON u.id = o.user_id");
        let explain = p.plan.explain();
        assert!(explain.contains("EquiJoin[Hash] l0=r1"), "{explain}");
        assert_eq!(p.columns, vec!["name", "amount"]);
    }

    #[test]
    fn non_equi_join_uses_nested_loop() {
        let p = plan("SELECT * FROM users u JOIN orders o ON u.id < o.user_id");
        assert!(p.plan.explain().contains("NlJoin"));
    }

    #[test]
    fn aggregates_plan_correctly() {
        let p = plan("SELECT name, COUNT(*) AS n, SUM(score) FROM users GROUP BY name");
        assert_eq!(p.columns, vec!["name", "n", "sum"]);
        let explain = p.plan.explain();
        assert!(explain.contains("Aggregate groups=1 aggs=2"), "{explain}");
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let p = plan("SELECT COUNT(*) FROM users");
        assert!(p.plan.explain().contains("Aggregate groups=0 aggs=1"));
        assert_eq!(p.columns, vec!["count"]);
    }

    #[test]
    fn having_filters_output() {
        let p = plan("SELECT name, COUNT(*) AS n FROM users GROUP BY name HAVING n > 1");
        let explain = p.plan.explain();
        // Filter sits above Project above Aggregate.
        let filter_pos = explain.find("Filter").unwrap();
        let agg_pos = explain.find("Aggregate").unwrap();
        assert!(filter_pos < agg_pos);
    }

    #[test]
    fn non_grouped_item_rejected() {
        let e = plan_err("SELECT name, score, COUNT(*) FROM users GROUP BY name");
        assert!(e.to_string().contains("GROUP BY"));
        let e = plan_err("SELECT * FROM users GROUP BY name");
        assert!(e.to_string().contains("GROUP BY"));
    }

    #[test]
    fn order_by_name_and_position() {
        let p = plan("SELECT name, score FROM users ORDER BY score DESC, 1");
        let Plan::Sort { keys, .. } = &p.plan else {
            panic!("{}", p.plan.explain())
        };
        assert_eq!(keys[0], SortKey::desc(1));
        assert_eq!(keys[1], SortKey::asc(0));
        assert!(plan_err("SELECT name FROM users ORDER BY ghost")
            .to_string()
            .contains("ghost"));
    }

    #[test]
    fn view_expands_inline() {
        let p = plan("SELECT * FROM big_spenders");
        assert_eq!(p.columns, vec!["user_id", "amount"]);
        let explain = p.plan.explain();
        assert!(explain.contains("TableScan orders"), "{explain}");
        assert!(explain.contains("Filter"));
    }

    #[test]
    fn view_joins_like_a_table() {
        let p = plan("SELECT name FROM users u JOIN big_spenders b ON u.id = b.user_id");
        assert!(p.plan.explain().contains("EquiJoin"));
    }

    #[test]
    fn unknown_names_error() {
        assert!(plan_err("SELECT * FROM ghosts").to_string().contains("ghosts"));
        assert!(plan_err("SELECT ghost FROM users").to_string().contains("ghost"));
        let e = plan_err("SELECT amount FROM orders o JOIN orders o2 ON o.oid = o2.oid");
        assert!(e.to_string().contains("ambiguous"));
    }

    #[test]
    fn select_without_from() {
        let p = plan("SELECT 1 + 2 AS three");
        assert_eq!(p.columns, vec!["three"]);
        assert!(p.plan.explain().contains("Values (1 rows)"));
    }

    #[test]
    fn predicate_pushdown_below_joins() {
        // name = 'x' references only users; amount > 10 only orders; the
        // cross-side comparison stays above the join.
        let p = plan(
            "SELECT name FROM users u JOIN orders o ON u.id = o.user_id \
             WHERE name = 'x' AND amount > 10 AND id < oid",
        );
        let explain = p.plan.explain();
        let lines: Vec<&str> = explain.lines().collect();
        // Expected shape:
        // Project
        //   Filter            (residual id < oid)
        //     EquiJoin
        //       Filter        (name = 'x')
        //         TableScan users
        //       Filter        (amount > 10)
        //         TableScan orders
        assert_eq!(lines[0].trim(), "Project (1 cols)", "{explain}");
        assert_eq!(lines[1].trim(), "Filter", "{explain}");
        assert!(lines[2].trim().starts_with("EquiJoin"), "{explain}");
        assert_eq!(lines[3].trim(), "Filter", "{explain}");
        assert!(lines[4].trim().starts_with("TableScan users"), "{explain}");
        assert_eq!(lines[5].trim(), "Filter", "{explain}");
        assert!(lines[6].trim().starts_with("TableScan orders"), "{explain}");
    }

    #[test]
    fn pushdown_preserves_results_semantics() {
        // All conjuncts one-sided: no residual filter remains above the
        // join. Without statistics both tables default to 1000 rows, so
        // the filtered orders side (200 estimated rows) leads, and a
        // projection restores the textual column order.
        let p = plan(
            "SELECT name FROM users u JOIN orders o ON u.id = o.user_id WHERE amount > 10",
        );
        let explain = p.plan.explain();
        let lines: Vec<&str> = explain.lines().map(str::trim).collect();
        assert_eq!(lines[1], "Project (6 cols)", "{explain}");
        assert!(lines[2].starts_with("EquiJoin"), "{explain}");
        assert_eq!(lines[3], "Filter", "left side filtered: {explain}");
        assert_eq!(lines[4], "TableScan orders", "{explain}");
        assert_eq!(lines[5], "TableScan users", "{explain}");
        assert!(
            p.decisions.contains(&"join order: o ⋈ u (reordered from textual)".to_string()),
            "{:?}",
            p.decisions
        );
    }

    #[test]
    fn unanalyzed_filtered_joins_do_not_nest_loops() {
        // Default statistics put an equality-filtered side at 10 rows
        // and a two-conjunct one at 0.1; a nested loop priced on those
        // guesses would beat the hash join, and turns quadratic when a
        // filter keeps more rows than the default says.
        for sql in [
            "SELECT name FROM users u JOIN orders o ON u.id = o.user_id \
             WHERE u.name = 'a' AND o.amount = 5",
            "SELECT name FROM users u JOIN orders o ON u.id = o.user_id \
             WHERE o.amount = 5 AND o.oid = 7",
        ] {
            let p = plan(sql);
            let explain = p.plan.explain();
            assert!(explain.contains("EquiJoin[Hash]"), "{sql}\n{explain}");
            let join = p.decisions.iter().find(|d| d.starts_with("join ⋈")).unwrap();
            assert!(join.contains("(cost model: Hash="), "{join}");
        }
    }

    #[test]
    fn limit_offset_plans() {
        let p = plan("SELECT * FROM users LIMIT 5 OFFSET 2");
        assert!(p.plan.explain().contains("Limit 5 offset 2"));
    }

    // ── Cost-based selection (statistics present) ─────────────────────

    /// The fake schemas with statistics attached: `users` is tiny
    /// (5 rows), `orders` is large (1000 rows, `amount` uniform in
    /// 0..100), so the cost model has real asymmetry to exploit.
    struct StatsCatalog {
        knobs: PlannerKnobs,
    }

    impl StatsCatalog {
        fn new() -> StatsCatalog {
            StatsCatalog {
                knobs: PlannerKnobs::default(),
            }
        }
    }

    impl CatalogView for StatsCatalog {
        fn table(&self, name: &str) -> Result<Arc<TableMeta>> {
            let schema = FakeCatalog::schema(name)?;
            let (rows, indexes): (Vec<Vec<Datum>>, Indexes) = match name {
                "users" => (
                    (0..5)
                        .map(|i| {
                            vec![
                                Datum::Int(i),
                                Datum::Str(format!("u{i}")),
                                Datum::Float(i as f64),
                            ]
                        })
                        .collect(),
                    &[("users_id", &["id"])],
                ),
                _ => (
                    (0..1000)
                        .map(|i| vec![Datum::Int(i), Datum::Int(i % 5), Datum::Int(i % 100)])
                        .collect(),
                    &[("orders_amount", &["amount"])],
                ),
            };
            let stats = TableStats::collect(&rows, &schema, 16);
            Ok(meta(name, schema, indexes, Some(stats)))
        }

        fn view_query(&self, _name: &str) -> Option<String> {
            None
        }

        fn knobs(&self) -> PlannerKnobs {
            self.knobs.clone()
        }
    }

    fn plan_with(sql: &str, catalog: &dyn CatalogView) -> PlannedQuery {
        let crate::ast::Statement::Select(s) = parse(sql).unwrap() else {
            panic!()
        };
        plan_select(&s, catalog).unwrap()
    }

    /// First EquiJoin node in the tree, depth-first.
    fn find_equi_join(plan: &Plan) -> Option<&Plan> {
        if matches!(plan, Plan::EquiJoin { .. }) {
            return Some(plan);
        }
        plan.children().iter().find_map(|c| find_equi_join(c))
    }

    #[test]
    fn reordering_starts_from_smallest_relation() {
        // Textually orders comes first; the cost model flips the order
        // so the 5-row users side leads, and a restoring projection
        // keeps the output layout textual.
        let p = plan_with(
            "SELECT name, amount FROM orders o JOIN users u ON o.user_id = u.id",
            &StatsCatalog::new(),
        );
        let explain = p.plan.explain();
        let users_pos = explain.find("TableScan users").unwrap();
        let orders_pos = explain.find("TableScan orders").unwrap();
        assert!(users_pos < orders_pos, "users should lead: {explain}");
        assert!(
            p.decisions.iter().any(|d| d.contains("reordered from textual")),
            "{:?}",
            p.decisions
        );
        assert_eq!(p.columns, vec!["name", "amount"]);
    }

    #[test]
    fn hash_build_side_directed_to_smaller_input() {
        let catalog = StatsCatalog {
            knobs: PlannerKnobs {
                // Pin the algorithm so the assertion targets the build
                // side, not whichever algorithm costs best here.
                forced_join: Some(JoinAlgorithm::Hash),
                ..PlannerKnobs::default()
            },
        };
        let p = plan_with(
            "SELECT name, amount FROM users u JOIN orders o ON u.id = o.user_id",
            &catalog,
        );
        let Some(Plan::EquiJoin { build, .. }) = find_equi_join(&p.plan) else {
            panic!("{}", p.plan.explain())
        };
        // users (5 rows) is the left input and the cheaper build side.
        assert_eq!(*build, BuildSide::Left, "{}", p.plan.explain());
    }

    #[test]
    fn cost_rejects_index_for_nonselective_range() {
        // amount >= 0 matches all 1000 rows: random index fetches lose
        // to one sequential scan, and the decision log says so.
        let p = plan_with(
            "SELECT oid FROM orders WHERE amount >= 0",
            &StatsCatalog::new(),
        );
        let explain = p.plan.explain();
        assert!(explain.contains("TableScan orders"), "{explain}");
        assert!(!explain.contains("IndexScan"), "{explain}");
        assert!(
            p.decisions.iter().any(|d| d.contains("seq")),
            "{:?}",
            p.decisions
        );
        // A selective point probe flips the choice.
        let p = plan_with(
            "SELECT oid FROM orders WHERE amount = 7",
            &StatsCatalog::new(),
        );
        assert!(p.plan.explain().contains("IndexScan"), "{}", p.plan.explain());
    }

    #[test]
    fn between_bounds_merge_into_one_index_range() {
        let p = plan_with(
            "SELECT oid FROM orders WHERE amount >= 10 AND amount <= 12",
            &StatsCatalog::new(),
        );
        let explain = p.plan.explain();
        assert!(
            explain.contains("lo=Some(Int(10)) hi=Some(Int(12)) hi_inc=true"),
            "both bounds should close the range: {explain}"
        );
    }

    #[test]
    fn forced_hint_overrides_cost_model() {
        let catalog = StatsCatalog {
            knobs: PlannerKnobs {
                forced_join: Some(JoinAlgorithm::NestedLoop),
                ..PlannerKnobs::default()
            },
        };
        let p = plan_with(
            "SELECT name, amount FROM users u JOIN orders o ON u.id = o.user_id",
            &catalog,
        );
        assert!(p.plan.explain().contains("EquiJoin[NestedLoop]"), "{}", p.plan.explain());
        assert!(
            p.decisions.iter().any(|d| d.contains("forced")),
            "{:?}",
            p.decisions
        );
    }

    // ── Composite indexes, IndexOr/IndexAnd, covering ─────────────────

    /// `events` (1000 rows): `tenant` i%10 (NDV 10), `ts` i (NDV 1000),
    /// `kind` i%50 (NDV 50), `payload` unindexed text. Indexes: the
    /// composite `ev_tenant_ts(tenant, ts)` and single `ev_kind(kind)`.
    struct CompositeCatalog {
        with_stats: bool,
    }

    impl CatalogView for CompositeCatalog {
        fn table(&self, name: &str) -> Result<Arc<TableMeta>> {
            if name != "events" {
                return Err(err(format!("no such table `{name}`")));
            }
            let schema = Schema::new(vec![
                Column::not_null("tenant", ColumnType::Int),
                Column::not_null("ts", ColumnType::Int),
                Column::not_null("kind", ColumnType::Int),
                Column::not_null("payload", ColumnType::Text),
            ])?;
            let stats = self.with_stats.then(|| {
                let rows: Vec<Vec<Datum>> = (0..1000)
                    .map(|i| {
                        vec![
                            Datum::Int(i % 10),
                            Datum::Int(i),
                            Datum::Int(i % 50),
                            Datum::Str(format!("p{i}")),
                        ]
                    })
                    .collect();
                TableStats::collect(&rows, &schema, 16)
            });
            let indexes: Indexes = &[("ev_tenant_ts", &["tenant", "ts"]), ("ev_kind", &["kind"])];
            Ok(meta(name, schema, indexes, stats))
        }

        fn view_query(&self, _name: &str) -> Option<String> {
            None
        }
    }

    fn plan_events(sql: &str, with_stats: bool) -> PlannedQuery {
        plan_with(sql, &CompositeCatalog { with_stats })
    }

    #[test]
    fn composite_equality_probes_both_key_columns() {
        let p = plan_events("SELECT * FROM events WHERE tenant = 3 AND ts = 55", true);
        let explain = p.plan.explain();
        assert!(
            explain.contains("IndexScan events.ev_tenant_ts(tenant,ts) eq=[Int(3), Int(55)]"),
            "{explain}"
        );
    }

    #[test]
    fn prefix_equality_plus_range_on_next_key_column() {
        let p = plan_events(
            "SELECT * FROM events WHERE tenant = 3 AND ts >= 100 AND ts <= 200",
            true,
        );
        let explain = p.plan.explain();
        assert!(
            explain.contains("eq=[Int(3)] lo=Some(Int(100)) hi=Some(Int(200)) hi_inc=true"),
            "{explain}"
        );
    }

    #[test]
    fn unanalyzed_longest_equality_prefix_wins_on_cost() {
        // Without stats every equality has the default selectivity:
        // ev_tenant_ts matches a 2-column prefix and costs least,
        // ev_kind only 1. Intersecting the two keeps the more selective
        // probe's rows (no independence without statistics) and pays a
        // second probe, so it loses too. The decision line shows why.
        let p = plan_events(
            "SELECT * FROM events WHERE kind = 7 AND tenant = 3 AND ts = 5",
            false,
        );
        let explain = p.plan.explain();
        assert!(explain.contains("IndexScan events.ev_tenant_ts"), "{explain}");
        assert_eq!(
            p.decisions,
            vec![
                "access events: ev_tenant_ts(eq=2) (cost model: ev_tenant_ts(eq=2)=10 \
                 ev_kind(eq=1)=50 ev_tenant_ts∩ev_kind=21 seq=1000)"
            ],
        );
    }

    #[test]
    fn in_list_on_selective_column_uses_index_or() {
        let p = plan_events("SELECT * FROM events WHERE kind IN (7, 3, 11)", true);
        let explain = p.plan.explain();
        assert!(explain.contains("IndexOr events.ev_kind (3 keys)"), "{explain}");
        // Probe keys are deduplicated and sorted for determinism.
        fn find_or(plan: &Plan) -> Option<&Plan> {
            if matches!(plan, Plan::IndexOr { .. }) {
                return Some(plan);
            }
            plan.children().iter().find_map(|c| find_or(c))
        }
        let Some(Plan::IndexOr { keys, .. }) = find_or(&p.plan) else {
            panic!("{explain}");
        };
        assert_eq!(
            keys,
            &vec![vec![Expr::int(3)], vec![Expr::int(7)], vec![Expr::int(11)]]
        );
    }

    #[test]
    fn non_selective_or_declined_by_cost() {
        // tenant has NDV 10: three probes cover ~30% of the table, and
        // random fetches at that selectivity lose to one sequential
        // pass. The decision line shows both numbers.
        let p = plan_events("SELECT * FROM events WHERE tenant IN (1, 2, 3)", true);
        let explain = p.plan.explain();
        assert!(explain.contains("TableScan events"), "{explain}");
        assert!(!explain.contains("IndexOr"), "{explain}");
        assert!(
            p.decisions.iter().any(|d| d.contains("seq scan")),
            "{:?}",
            p.decisions
        );
    }

    #[test]
    fn wide_in_list_fanout_gated() {
        let lits: Vec<String> = (0..(MAX_INDEX_OR_FANOUT as i64 + 1))
            .map(|i| i.to_string())
            .collect();
        let sql = format!(
            "SELECT * FROM events WHERE kind IN ({})",
            lits.join(", ")
        );
        let p = plan_events(&sql, true);
        assert!(!p.plan.explain().contains("IndexOr"), "{}", p.plan.explain());
        assert!(
            p.decisions.iter().any(|d| d.contains("fanout")),
            "{:?}",
            p.decisions
        );
    }

    #[test]
    fn two_probe_intersection_uses_index_and() {
        // tenant=3 alone fetches ~100 rows, kind=7 alone ~20; the
        // intersection streams both rid lists cheaply and fetches only
        // the ~2 surviving rows.
        let p = plan_events("SELECT * FROM events WHERE tenant = 3 AND kind = 7", true);
        let explain = p.plan.explain();
        assert!(
            explain.contains("IndexAnd events [ev_tenant_ts ∩ ev_kind]"),
            "{explain}"
        );
    }

    #[test]
    fn covering_scan_when_keys_answer_the_query() {
        let p = plan_events("SELECT tenant, ts FROM events WHERE tenant = 3", true);
        let explain = p.plan.explain();
        assert!(explain.contains("covering"), "{explain}");
        assert!(
            p.decisions.iter().any(|d| d.contains("covering index-only")),
            "{:?}",
            p.decisions
        );
    }

    #[test]
    fn covering_declined_when_non_key_column_needed() {
        let p = plan_events("SELECT payload FROM events WHERE tenant = 3", true);
        let explain = p.plan.explain();
        assert!(explain.contains("IndexScan events.ev_tenant_ts"), "{explain}");
        assert!(!explain.contains("covering"), "{explain}");
    }

    #[test]
    fn distinct_star_blocks_covering() {
        // DISTINCT compares whole rows: every column is "needed", so the
        // scan must stay a heap fetch even though the filter and output
        // could be key-only. (The projection above DISTINCT is SELECT *.)
        let p = plan_events("SELECT DISTINCT * FROM events WHERE tenant = 3", true);
        assert!(!p.plan.explain().contains("covering"), "{}", p.plan.explain());
    }

    /// StatsCatalog with a forced MVCC version-chain density multiplier,
    /// as a dense update-heavy table would report.
    struct DenseMvccCatalog {
        inner: StatsCatalog,
        multiplier: f64,
    }

    impl CatalogView for DenseMvccCatalog {
        fn table(&self, name: &str) -> Result<Arc<TableMeta>> {
            self.inner.table(name)
        }
        fn view_query(&self, name: &str) -> Option<String> {
            self.inner.view_query(name)
        }
        fn mvcc_scan_multiplier(&self, _table: &str) -> f64 {
            self.multiplier
        }
    }

    #[test]
    fn mvcc_chain_density_penalizes_seq_scans() {
        let dense = DenseMvccCatalog {
            inner: StatsCatalog::new(),
            multiplier: 5.0,
        };
        let est = Estimator::new(&dense);
        let seq = Plan::TableScan {
            table: "orders".into(),
        };
        // 1000 rows × COST_SEQ_ROW × 5.0 forced-dense multiplier.
        assert_eq!(est.estimate(&seq).cost, 5000.0);
        // The non-selective range that loses to a clean seq scan (see
        // cost_rejects_index_for_nonselective_range) wins once the heap
        // is littered with dead versions: 10 + 1000×4 < 5000.
        let p = plan_with("SELECT oid FROM orders WHERE amount >= 0", &dense);
        assert!(p.plan.explain().contains("IndexScan"), "{}", p.plan.explain());
    }
}
