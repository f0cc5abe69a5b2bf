//! Join building blocks shared by the batch join kernels: the build-side
//! choice, the algorithm selector, and the sort-merge core.
//!
//! Paper §3.1: the access layer "is also responsible for higher level
//! operations, such as joins". All three classical algorithms are
//! provided so the data layer's planner (and the E1/E3 workloads) can
//! choose per-query; the kernels themselves live in `exec::batch`.

use sbdms_kernel::error::Result;

use super::{ExecContext, CANCEL_QUANTUM};
use crate::record::Tuple;
use crate::sort::{ExternalSorter, SortKey};

fn concat(left: &Tuple, right: &Tuple) -> Tuple {
    let mut out = Vec::with_capacity(left.len() + right.len());
    out.extend_from_slice(left);
    out.extend_from_slice(right);
    out
}

/// Which input a hash join builds its table from. The build side should
/// be the smaller input: the hash table is the memory footprint, and
/// probing is O(1) per row either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BuildSide {
    /// Build the hash table from the left input, probe with the right.
    Left,
    /// Build the hash table from the right input, probe with the left.
    Right,
    /// Size-sniff: materialise both inputs and build from the smaller.
    /// Used when no planner estimate is available.
    #[default]
    Auto,
}

/// Sort-merge core over materialised rows (tie order included, the
/// output is deterministic). The context reaches the two input sorts
/// (cancellation + spill-on-charge) and the merge loop.
pub(super) fn merge_join_rows(
    left: Vec<Tuple>,
    right: Vec<Tuple>,
    left_col: usize,
    right_col: usize,
    ctx: ExecContext,
) -> Result<Vec<Tuple>> {
    let sorter = ExternalSorter::new(1 << 22).with_context(ctx.clone());
    let l = sorter.sort(left, &[SortKey::asc(left_col)])?.tuples;
    let r = sorter.sort(right, &[SortKey::asc(right_col)])?.tuples;

    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < l.len() && j < r.len() {
        if (i + j) % CANCEL_QUANTUM == 0 {
            ctx.check()?;
        }
        let lk = &l[i][left_col];
        let rk = &r[j][right_col];
        if lk.is_null() {
            i += 1;
            continue;
        }
        if rk.is_null() {
            j += 1;
            continue;
        }
        match lk.order(rk) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Emit the cross product of the equal groups.
                let mut j2 = j;
                while j2 < r.len() && lk.sql_eq(&r[j2][right_col]) {
                    out.push(concat(&l[i], &r[j2]));
                    j2 += 1;
                }
                i += 1;
            }
        }
    }
    Ok(out)
}

/// Which join algorithm to run; used by planners and experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgorithm {
    /// Nested loop (general predicate).
    NestedLoop,
    /// Hash join (equi only).
    Hash,
    /// Sort-merge join (equi only).
    Merge,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::expr::Expr;
    use crate::exec::VectorEngine;
    use crate::record::Datum;
    use crate::sort::compare_tuples;

    fn users() -> Vec<Tuple> {
        vec![
            vec![Datum::Int(1), Datum::Str("alice".into())],
            vec![Datum::Int(2), Datum::Str("bob".into())],
            vec![Datum::Int(3), Datum::Str("carol".into())],
            vec![Datum::Null, Datum::Str("ghost".into())],
        ]
    }

    fn orders() -> Vec<Tuple> {
        vec![
            vec![Datum::Int(10), Datum::Int(1)],
            vec![Datum::Int(11), Datum::Int(1)],
            vec![Datum::Int(12), Datum::Int(3)],
            vec![Datum::Int(13), Datum::Null],
            vec![Datum::Int(14), Datum::Int(9)],
        ]
    }

    /// A two-row batch size forces chunk boundaries into every join.
    fn engine() -> VectorEngine {
        VectorEngine {
            batch_rows: 2,
            ..Default::default()
        }
    }

    fn join(
        left: Vec<Tuple>,
        right: Vec<Tuple>,
        algo: JoinAlgorithm,
        build: BuildSide,
    ) -> Vec<Tuple> {
        let e = engine();
        let right_offset = left.first().map_or(0, Vec::len);
        let out = e
            .equi_join(
                algo,
                e.values(left),
                e.values(right),
                0,
                1,
                right_offset,
                build,
            )
            .unwrap();
        e.collect(out).unwrap()
    }

    /// Join output sorted on every column, for order-free comparisons.
    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        let keys: Vec<SortKey> = (0..rows.first().map_or(0, Vec::len))
            .map(SortKey::asc)
            .collect();
        rows.sort_by(|a, b| compare_tuples(a, b, &keys));
        rows
    }

    fn run(algo: JoinAlgorithm) -> Vec<Tuple> {
        // users.id = orders.user_id
        sorted(join(users(), orders(), algo, BuildSide::Auto))
    }

    #[test]
    fn all_algorithms_agree() {
        let nl = run(JoinAlgorithm::NestedLoop);
        let hash = run(JoinAlgorithm::Hash);
        let merge = run(JoinAlgorithm::Merge);
        assert_eq!(nl.len(), 3, "alice×2 + carol×1");
        assert_eq!(nl, hash);
        assert_eq!(nl, merge);
    }

    #[test]
    fn null_keys_never_match() {
        for algo in [
            JoinAlgorithm::NestedLoop,
            JoinAlgorithm::Hash,
            JoinAlgorithm::Merge,
        ] {
            let rows = run(algo);
            assert!(rows.iter().all(|r| !r[0].is_null() && !r[3].is_null()));
        }
    }

    #[test]
    fn joined_tuple_is_left_then_right() {
        let rows = run(JoinAlgorithm::Hash);
        // [user.id, user.name, order.id, order.user_id]
        assert_eq!(rows[0].len(), 4);
        assert_eq!(rows[0][1], Datum::Str("alice".into()));
        assert_eq!(rows[0][2], Datum::Int(10));
    }

    #[test]
    fn cross_type_numeric_equality() {
        let left = vec![vec![Datum::Int(2), Datum::Int(2)]];
        let right = vec![
            vec![Datum::Null, Datum::Float(2.0)],
            vec![Datum::Null, Datum::Float(2.5)],
        ];
        for algo in [
            JoinAlgorithm::NestedLoop,
            JoinAlgorithm::Hash,
            JoinAlgorithm::Merge,
        ] {
            assert_eq!(
                join(left.clone(), right.clone(), algo, BuildSide::Auto).len(),
                1,
                "{algo:?}"
            );
        }
    }

    #[test]
    fn build_side_never_changes_results() {
        let reference = run(JoinAlgorithm::Hash);
        for build in [BuildSide::Left, BuildSide::Right, BuildSide::Auto] {
            let out = join(users(), orders(), JoinAlgorithm::Hash, build);
            assert_eq!(sorted(out), reference, "{build:?}");
        }
    }

    #[test]
    fn probe_order_preserved_for_directed_build() {
        // Build on the smaller left; output order follows the right
        // (probe) stream, but columns stay left-then-right.
        let rows = join(users(), orders(), JoinAlgorithm::Hash, BuildSide::Left);
        let order_ids: Vec<&Datum> = rows.iter().map(|r| &r[2]).collect();
        assert_eq!(
            order_ids,
            vec![&Datum::Int(10), &Datum::Int(11), &Datum::Int(12)]
        );
        assert_eq!(rows[0][1], Datum::Str("alice".into()));
    }

    #[test]
    fn nested_loop_supports_non_equi() {
        // users.id < orders.user_id
        let e = engine();
        let predicate = Expr::col(0).lt(Expr::col(3));
        let out = e
            .nested_loop_join(e.values(users()), e.values(orders()), predicate)
            .unwrap();
        // pairs where id < user_id (NULLs never true):
        // alice(1)<3, alice(1)<9, bob(2)<3, bob(2)<9, carol(3)<9 => 5
        assert_eq!(e.collect(out).unwrap().len(), 5);
    }

    #[test]
    fn empty_inputs() {
        for algo in [
            JoinAlgorithm::NestedLoop,
            JoinAlgorithm::Hash,
            JoinAlgorithm::Merge,
        ] {
            assert!(
                join(vec![], orders(), algo, BuildSide::Auto).is_empty(),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn duplicate_heavy_join() {
        let left: Vec<Tuple> = (0..20)
            .map(|_| vec![Datum::Int(7), Datum::Int(7)])
            .collect();
        let right: Vec<Tuple> = (0..30)
            .map(|_| vec![Datum::Int(7), Datum::Int(7)])
            .collect();
        for algo in [
            JoinAlgorithm::Hash,
            JoinAlgorithm::Merge,
            JoinAlgorithm::NestedLoop,
        ] {
            let out = join(left.clone(), right.clone(), algo, BuildSide::Auto);
            assert_eq!(out.len(), 600, "{algo:?} cross product of equals");
        }
    }
}
