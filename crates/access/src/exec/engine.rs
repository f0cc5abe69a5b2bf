//! The execution engine.
//!
//! Paper Fig. 6 (*flexibility by selection*) lets several services
//! provide one task where the alternatives really differ. For plan
//! execution they did not: a tuple-at-a-time engine lost to the
//! columnar one on every measured pipeline and used the same accounted
//! operator memory. So one engine remains, the [`VectorEngine`], and
//! the selection the profiles make is a parameter of it: rows per
//! batch. [`BATCH_ROWS`] (1024) amortises per-batch dispatch on a
//! server; a small batch keeps per-operator buffers small on a
//! constrained device. Results are byte-identical at every batch size.

use sbdms_kernel::error::Result;

use super::aggregate::AggSpec;
use super::batch::{self, BatchStream, PageSource, BATCH_ROWS};
use super::expr::Expr;
use super::join::{BuildSide, JoinAlgorithm};
use super::ExecContext;
use crate::record::{Datum, Tuple};
use crate::sort::SortKey;
use sbdms_storage::page::PageId;

/// The vectorized engine: columnar batches of at most `batch_rows` rows.
#[derive(Debug, Clone)]
pub struct VectorEngine {
    /// Rows per batch: every operator emits batches of at most this
    /// many rows. [`BATCH_ROWS`] unless a profile or test picks another.
    pub batch_rows: usize,
    /// Governor context: cancellation checks and memory accounting for
    /// every operator this engine builds. Default is unlimited.
    pub ctx: ExecContext,
}

impl Default for VectorEngine {
    fn default() -> VectorEngine {
        VectorEngine {
            batch_rows: BATCH_ROWS,
            ctx: ExecContext::default(),
        }
    }
}

impl VectorEngine {
    /// Engine with [`BATCH_ROWS`] whose operators run under `ctx`.
    pub fn with_context(ctx: ExecContext) -> VectorEngine {
        VectorEngine {
            batch_rows: BATCH_ROWS,
            ctx,
        }
    }

    /// Rows per batch, at least one (a zero batch would stall every
    /// operator's chunking).
    fn rows(&self) -> usize {
        self.batch_rows.max(1)
    }

    /// Sequential scan of heap `pages` decoded straight into `width`
    /// columns (page-at-a-time, memory bounded); `source` decides which
    /// rows each page contributes.
    pub fn scan(&self, pages: Vec<PageId>, width: usize, source: impl PageSource) -> BatchStream {
        batch::scan_batches(pages, width, source, self.rows(), self.ctx.clone())
    }

    /// Stream of pre-materialised tuples (index scans, VALUES, tests).
    pub fn values(&self, rows: Vec<Tuple>) -> BatchStream {
        batch::values_batches(rows, self.rows())
    }

    /// Stream of pre-materialised *columns*, all `rows` long — the
    /// covering index-only scan's currency, batched without a row
    /// transpose. Results match `values` on the transposed input.
    pub fn values_columnar(&self, columns: Vec<Vec<Datum>>, rows: usize) -> BatchStream {
        batch::columnar_batches(columns, rows, self.rows())
    }

    /// Keep rows for which `predicate` is TRUE (NULL drops).
    pub fn filter(&self, input: BatchStream, predicate: Expr) -> BatchStream {
        batch::filter_batches(input, predicate)
    }

    /// Evaluate one expression per output column.
    pub fn project(&self, input: BatchStream, exprs: Vec<Expr>) -> BatchStream {
        batch::project_batches(input, exprs)
    }

    /// Sort (materialising; spills past `memory_budget`; inputs of
    /// several budgets sort on worker threads with identical output).
    pub fn sort(
        &self,
        input: BatchStream,
        keys: Vec<SortKey>,
        memory_budget: usize,
    ) -> Result<BatchStream> {
        batch::sort_batches(input, keys, memory_budget, self.rows(), self.ctx.clone())
    }

    /// Pass at most `n` rows after skipping `offset`.
    pub fn limit(&self, input: BatchStream, n: usize, offset: usize) -> BatchStream {
        batch::limit_batches(input, n, offset)
    }

    /// Remove duplicate rows in first-occurrence order.
    pub fn distinct(&self, input: BatchStream) -> BatchStream {
        batch::distinct_batches(input, self.ctx.clone())
    }

    /// Equi-join with the chosen algorithm; `build` applies to hash
    /// joins, `right_offset_for_nl` is the left width for the
    /// nested-loop fallback predicate.
    #[allow(clippy::too_many_arguments)]
    pub fn equi_join(
        &self,
        algorithm: JoinAlgorithm,
        left: BatchStream,
        right: BatchStream,
        left_col: usize,
        right_col: usize,
        right_offset_for_nl: usize,
        build: BuildSide,
    ) -> Result<BatchStream> {
        let (rows, ctx) = (self.rows(), self.ctx.clone());
        match algorithm {
            JoinAlgorithm::Hash => {
                batch::hash_join_batches(left, right, left_col, right_col, build, rows, ctx)
            }
            JoinAlgorithm::NestedLoop => {
                let predicate = Expr::col(left_col).eq(Expr::col(right_offset_for_nl + right_col));
                batch::nested_loop_join_batches(left, right, predicate, rows, ctx)
            }
        }
    }

    /// Nested-loop join with an arbitrary predicate over `left ++ right`.
    pub fn nested_loop_join(
        &self,
        left: BatchStream,
        right: BatchStream,
        predicate: Expr,
    ) -> Result<BatchStream> {
        batch::nested_loop_join_batches(left, right, predicate, self.rows(), self.ctx.clone())
    }

    /// Hash aggregation grouped by `group_by`, first-seen group order.
    pub fn hash_aggregate(
        &self,
        input: BatchStream,
        group_by: Vec<Expr>,
        aggs: Vec<AggSpec>,
    ) -> Result<BatchStream> {
        batch::aggregate_batches(input, group_by, aggs, self.rows(), self.ctx.clone())
    }

    /// Drain the stream into materialised rows.
    pub fn collect(&self, input: BatchStream) -> Result<Vec<Tuple>> {
        batch::collect_rows(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::aggregate::AggFunc;
    use crate::exec::batch::Batch;
    use crate::exec::expr::BinOp;
    use crate::record::Datum;
    use sbdms_kernel::governor::{CancelToken, QueryMemory};

    fn sample() -> Vec<Tuple> {
        (0..10)
            .map(|i| vec![Datum::Int(i % 4), Datum::Int(i)])
            .collect()
    }

    fn engine(batch_rows: usize) -> VectorEngine {
        VectorEngine {
            batch_rows,
            ..Default::default()
        }
    }

    fn rows(vals: &[(i64, &str)]) -> Vec<Tuple> {
        vals.iter()
            .map(|(a, b)| vec![Datum::Int(*a), Datum::Str(b.to_string())])
            .collect()
    }

    fn ints(vals: &[i64]) -> Vec<Datum> {
        vals.iter().map(|&v| Datum::Int(v)).collect()
    }

    /// A pipeline exercising every operator kind.
    fn pipeline(engine: &VectorEngine) -> Vec<Tuple> {
        let scan = engine.values(sample());
        let filtered = engine.filter(scan, Expr::col(1).ge(Expr::int(2)));
        let joined = engine
            .equi_join(
                JoinAlgorithm::Hash,
                filtered,
                engine.values(sample()),
                0,
                0,
                2,
                BuildSide::Auto,
            )
            .unwrap();
        let distinct = engine.distinct(joined);
        let sorted = engine
            .sort(
                distinct,
                vec![SortKey::asc(0), SortKey::asc(1), SortKey::asc(3)],
                1 << 20,
            )
            .unwrap();
        let limited = engine.limit(sorted, 5, 2);
        engine.collect(limited).unwrap()
    }

    #[test]
    fn engines_agree_on_a_full_pipeline() {
        // The literal answer: rows (a, b) of the sample with b >= 2
        // joined on a = a', sorted by (a, b, b'), rows 2..=6. Group
        // a = 0 has b in {0, 4, 8}; b >= 2 leaves 4 and 8, each pairing
        // with b' in {0, 4, 8}; group a = 1 starts with (1, 5, 1, 1).
        let expected: Vec<Tuple> = [
            (0, 4, 0, 8),
            (0, 8, 0, 0),
            (0, 8, 0, 4),
            (0, 8, 0, 8),
            (1, 5, 1, 1),
        ]
        .iter()
        .map(|&(a, b, a2, b2)| ints(&[a, b, a2, b2]))
        .collect();
        // Batch sizes 1, 3 and the default force different chunk
        // boundaries through every operator.
        for batch_rows in [1, 3, BATCH_ROWS] {
            assert_eq!(
                pipeline(&engine(batch_rows)),
                expected,
                "batch {batch_rows}"
            );
        }
    }

    #[test]
    fn values_columnar_matches_values_on_both_engines() {
        let cols = vec![
            (0..10).map(Datum::Int).collect::<Vec<_>>(),
            (0..10).map(|i| Datum::Str(format!("s{i}"))).collect(),
        ];
        let rows: Vec<Tuple> = (0..10)
            .map(|i| vec![Datum::Int(i), Datum::Str(format!("s{i}"))])
            .collect();
        // Row-at-a-time and tiny batches force chunk boundaries through
        // the columnar path.
        for batch_rows in [1, 3, BATCH_ROWS] {
            let e = engine(batch_rows);
            assert_eq!(
                e.collect(e.values_columnar(cols.clone(), 10)).unwrap(),
                rows
            );
            assert_eq!(e.collect(e.values(rows.clone())).unwrap(), rows);
        }
    }

    #[test]
    fn engines_abort_on_cancelled_context() {
        // A pre-cancelled token: the first cooperative check aborts.
        for batch_rows in [1, BATCH_ROWS] {
            let ctx = ExecContext::default();
            ctx.cancel.cancel("test abort");
            let e = VectorEngine { batch_rows, ctx };
            let err = e
                .hash_aggregate(e.values(sample()), vec![Expr::col(0)], vec![])
                .and_then(|s| e.collect(s))
                .unwrap_err();
            assert_eq!(err.code(), "cancelled");
        }
        // An armed token fires on the n-th check regardless of operator.
        let ctx = ExecContext::default();
        ctx.cancel.cancel_after_checks(1);
        let e = VectorEngine::with_context(ctx);
        let err = e
            .sort(e.values(sample()), vec![SortKey::asc(1)], 1 << 20)
            .and_then(|s| e.collect(s))
            .unwrap_err();
        assert_eq!(err.code(), "cancelled");
    }

    #[test]
    fn engines_enforce_memory_limit_on_distinct_but_sort_spills() {
        let tight = |batch_rows| VectorEngine {
            batch_rows,
            ctx: ExecContext {
                cancel: CancelToken::new(),
                memory: QueryMemory::new(64, None),
            },
        };
        for batch_rows in [1, BATCH_ROWS] {
            // DISTINCT cannot spill: over budget it fails recoverably.
            let e = tight(batch_rows);
            let err = e.collect(e.distinct(e.values(sample()))).unwrap_err();
            assert_eq!(err.code(), "resources");
            assert!(err.is_recoverable());
            // Sort trades memory for disk: the same tight budget spills
            // and still produces the full sorted output.
            let e = tight(batch_rows);
            let sorted = e
                .sort(e.values(sample()), vec![SortKey::asc(1)], 1 << 20)
                .and_then(|s| e.collect(s))
                .unwrap();
            let keys: Vec<Datum> = sorted.iter().map(|t| t[1].clone()).collect();
            assert_eq!(keys, ints(&(0..10).collect::<Vec<_>>()));
        }
    }

    /// Every batch each operator emits at `batch_rows = 3` holds at
    /// most 3 rows, including operators that materialise (sort, joins,
    /// aggregates) and a hash join whose duplicate keys fan one probe
    /// batch out into many pairs.
    #[test]
    fn every_operator_respects_the_batch_size() {
        let e = engine(3);
        let input: Vec<Tuple> = (0..20)
            .map(|i| vec![Datum::Int(i % 2), Datum::Int(i)])
            .collect();
        let src = || e.values(input.clone());
        let cols = vec![(0..20).map(Datum::Int).collect::<Vec<_>>()];
        let count = || vec![AggSpec::new(AggFunc::CountAll, Expr::int(0))];
        let join = |algorithm| {
            e.equi_join(algorithm, src(), src(), 0, 0, 2, BuildSide::Auto)
                .unwrap()
        };
        let streams: Vec<(&str, BatchStream, usize)> = vec![
            ("values", src(), 20),
            ("values_columnar", e.values_columnar(cols, 20), 20),
            ("filter", e.filter(src(), Expr::col(1).ge(Expr::int(4))), 16),
            ("project", e.project(src(), vec![Expr::col(1)]), 20),
            (
                "sort",
                e.sort(src(), vec![SortKey::desc(1)], 1 << 20).unwrap(),
                20,
            ),
            ("limit", e.limit(src(), 10, 5), 10),
            ("distinct", e.distinct(src()), 20),
            ("hash join", join(JoinAlgorithm::Hash), 200),
            ("nested-loop join", join(JoinAlgorithm::NestedLoop), 200),
            (
                "theta join",
                e.nested_loop_join(src(), src(), Expr::col(1).lt(Expr::col(3)))
                    .unwrap(),
                190,
            ),
            (
                "grouped aggregate",
                e.hash_aggregate(src(), vec![Expr::col(1)], count())
                    .unwrap(),
                20,
            ),
            (
                "global aggregate",
                e.hash_aggregate(src(), vec![], count()).unwrap(),
                1,
            ),
        ];
        for (name, stream, want) in streams {
            let batches: Vec<Batch> = stream.collect::<Result<_>>().unwrap();
            let sizes: Vec<usize> = batches.iter().map(Batch::rows).collect();
            assert!(
                sizes.iter().all(|&n| n <= 3),
                "{name}: batch sizes {sizes:?}"
            );
            assert_eq!(sizes.iter().sum::<usize>(), want, "{name}: row count");
        }
    }

    /// Peak accounted operator memory of one query shape, run on a
    /// fresh unlimited account.
    fn peak_bytes(batch_rows: usize, run: impl Fn(&VectorEngine) -> BatchStream) -> u64 {
        let memory = QueryMemory::unlimited();
        let e = VectorEngine {
            batch_rows,
            ctx: ExecContext::new(CancelToken::new(), memory.clone()),
        };
        e.collect(run(&e)).unwrap();
        memory.peak()
    }

    /// Operator memory accounting does not depend on the batch size: the
    /// peak charge of each stateful operator is identical at batch 1, 64
    /// and 1024, and equals what the retired tuple-at-a-time engine
    /// charged for the same query (the literals below were measured
    /// on it). Table shape: `t (id, grp = id % 64, label = 'row-<id>')`,
    /// 2 000 rows; `g (grp, name)`, 64 rows.
    #[test]
    fn memory_accounting_is_independent_of_batch_size() {
        let t: Vec<Tuple> = (0..2_000i64)
            .map(|i| {
                vec![
                    Datum::Int(i),
                    Datum::Int(i % 64),
                    Datum::Str(format!("row-{i}")),
                ]
            })
            .collect();
        let g: Vec<Tuple> = (0..64i64)
            .map(|i| vec![Datum::Int(i), Datum::Str(format!("g{i}"))])
            .collect();
        type Shape<'a> = Box<dyn Fn(&VectorEngine) -> BatchStream + 'a>;
        let shapes: Vec<(&str, Shape, u64)> = vec![
            (
                "GROUP BY grp: COUNT(*), MIN(label)",
                Box::new(|e: &VectorEngine| {
                    let aggs = vec![
                        AggSpec::new(AggFunc::CountAll, Expr::int(0)),
                        AggSpec::new(AggFunc::Min, Expr::col(2)),
                    ];
                    e.hash_aggregate(e.values(t.clone()), vec![Expr::col(1)], aggs)
                        .unwrap()
                }),
                GROUP_BY_PEAK,
            ),
            (
                "DISTINCT label",
                Box::new(|e: &VectorEngine| {
                    e.distinct(e.project(e.values(t.clone()), vec![Expr::col(2)]))
                }),
                DISTINCT_PEAK,
            ),
            (
                "ORDER BY label",
                Box::new(|e: &VectorEngine| {
                    e.sort(e.values(t.clone()), vec![SortKey::asc(2)], 8 << 20)
                        .unwrap()
                }),
                ORDER_BY_PEAK,
            ),
            (
                "t JOIN g ON grp (hash)",
                Box::new(|e: &VectorEngine| {
                    e.equi_join(
                        JoinAlgorithm::Hash,
                        e.values(t.clone()),
                        e.values(g.clone()),
                        1,
                        0,
                        3,
                        BuildSide::Auto,
                    )
                    .unwrap()
                }),
                HASH_JOIN_PEAK,
            ),
            (
                "COUNT(*)",
                Box::new(|e: &VectorEngine| {
                    let aggs = vec![AggSpec::new(AggFunc::CountAll, Expr::int(0))];
                    e.hash_aggregate(e.values(t.clone()), vec![], aggs).unwrap()
                }),
                COUNT_STAR_PEAK,
            ),
        ];
        for (name, run, want) in &shapes {
            for batch_rows in [1, 64, BATCH_ROWS] {
                assert_eq!(
                    peak_bytes(batch_rows, run),
                    *want,
                    "{name} at batch {batch_rows}"
                );
            }
        }
    }

    /// Peak charges the tuple-at-a-time engine recorded for the shapes
    /// in `memory_accounting_is_independent_of_batch_size`.
    const GROUP_BY_PEAK: u64 = 9_856;
    const DISTINCT_PEAK: u64 = 124_890;
    const ORDER_BY_PEAK: u64 = 64_890;
    const HASH_JOIN_PEAK: u64 = 5_814;
    const COUNT_STAR_PEAK: u64 = 72;

    #[test]
    fn filter_keeps_true_only() {
        let e = engine(2);
        let input = e.values(rows(&[(1, "a"), (5, "b"), (3, "c")]));
        let out = e
            .collect(e.filter(input, Expr::col(0).ge(Expr::int(3))))
            .unwrap();
        assert_eq!(out, rows(&[(5, "b"), (3, "c")]));
    }

    #[test]
    fn filter_drops_null_predicate_rows() {
        let e = engine(1);
        let input = e.values(vec![vec![Datum::Null], vec![Datum::Int(1)]]);
        let out = e
            .collect(e.filter(input, Expr::col(0).eq(Expr::int(1))))
            .unwrap();
        assert_eq!(out, vec![vec![Datum::Int(1)]]);
    }

    #[test]
    fn project_reorders_and_computes() {
        let e = engine(1);
        let input = e.values(rows(&[(2, "x")]));
        let out = e
            .collect(e.project(
                input,
                vec![
                    Expr::col(1),
                    Expr::bin(BinOp::Mul, Expr::col(0), Expr::int(10)),
                ],
            ))
            .unwrap();
        assert_eq!(out, vec![vec![Datum::Str("x".into()), Datum::Int(20)]]);
    }

    #[test]
    fn sort_and_limit_compose() {
        let e = engine(2);
        let input = e.values(rows(&[(3, "c"), (1, "a"), (2, "b"), (5, "e"), (4, "d")]));
        let sorted = e.sort(input, vec![SortKey::desc(0)], 1 << 20).unwrap();
        let out = e.collect(e.limit(sorted, 2, 1)).unwrap();
        assert_eq!(out, rows(&[(4, "d"), (3, "c")]));
    }

    #[test]
    fn limit_zero_and_overrun() {
        let e = engine(1);
        let one = || e.values(rows(&[(1, "a")]));
        assert!(e.collect(e.limit(one(), 0, 0)).unwrap().is_empty());
        assert_eq!(e.collect(e.limit(one(), 10, 0)).unwrap().len(), 1);
        assert!(e.collect(e.limit(one(), 10, 5)).unwrap().is_empty());
    }

    #[test]
    fn distinct_removes_duplicates() {
        let e = engine(1);
        let input = e.values(rows(&[(1, "a"), (2, "b"), (1, "a"), (1, "c")]));
        let out = e.collect(e.distinct(input)).unwrap();
        assert_eq!(out, rows(&[(1, "a"), (2, "b"), (1, "c")]));
    }

    #[test]
    fn errors_propagate_through_pipeline() {
        // col(9) is out of range -> every batch errors in project.
        let e = engine(1);
        let projected = e.project(e.values(rows(&[(1, "a")])), vec![Expr::col(9)]);
        assert!(e.collect(projected).is_err());
    }
}
