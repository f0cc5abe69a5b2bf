//! Join building blocks shared by the batch join kernels: the build-side
//! choice and the algorithm selector.
//!
//! Paper §3.1: the access layer "is also responsible for higher level
//! operations, such as joins". Two algorithms remain for the data
//! layer's planner to choose between per query: a hash join for
//! equi-joins and a nested loop for any predicate. A sort-merge join
//! was deleted: it re-sorted both inputs even when they arrived sorted,
//! and ran 2.6–3.3× slower than hash in the one regime where the cost
//! model picked it (EXPERIMENTS §A1). The kernels live in `exec::batch`.

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

/// Which join algorithm to run; used by planners and experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgorithm {
    /// Nested loop (general predicate).
    NestedLoop,
    /// Hash join (equi only).
    Hash,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::expr::Expr;
    use crate::exec::VectorEngine;
    use crate::record::{Datum, Tuple};
    use crate::sort::{compare_tuples, SortKey};

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
        assert_eq!(nl.len(), 3, "alice×2 + carol×1");
        assert_eq!(nl, hash);
    }

    #[test]
    fn null_keys_never_match() {
        for algo in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
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
        for algo in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
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
        for algo in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
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
        for algo in [JoinAlgorithm::Hash, JoinAlgorithm::NestedLoop] {
            let out = join(left.clone(), right.clone(), algo, BuildSide::Auto);
            assert_eq!(out.len(), 600, "{algo:?} cross product of equals");
        }
    }
}
