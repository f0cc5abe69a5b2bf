//! The hash join's build-side choice.
//!
//! Paper §3.1: the access layer "is also responsible for higher level
//! operations, such as joins". Every equi-join runs as a hash join
//! whose build side the data layer's planner directs from its row
//! estimates; a nested loop (`VectorEngine::nested_loop_join`) runs any
//! other predicate. A sort-merge join and the nested loop as an
//! equi-join were deleted: each ran slower than hash wherever the cost
//! model chose it (EXPERIMENTS §A1). The kernels live in `exec::batch`.

/// Which input a hash join builds its table from. The build side should
/// be the smaller input: the hash table is the memory footprint, and
/// probing is O(1) per row either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSide {
    /// Build the hash table from the left input, probe with the right.
    Left,
    /// Build the hash table from the right input, probe with the left.
    Right,
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

    /// Hash join on `left[0] = right[1]`.
    fn join(left: Vec<Tuple>, right: Vec<Tuple>, build: BuildSide) -> Vec<Tuple> {
        let e = engine();
        let out = e
            .equi_join(e.values(left), e.values(right), 0, 1, build)
            .unwrap();
        e.collect(out).unwrap()
    }

    /// The reference: a nested loop over the same `left[0] = right[1]`.
    fn nested_loop(left: Vec<Tuple>, right: Vec<Tuple>) -> Vec<Tuple> {
        let e = engine();
        let right_offset = left.first().map_or(0, Vec::len);
        let predicate = Expr::col(0).eq(Expr::col(right_offset + 1));
        let out = e
            .nested_loop_join(e.values(left), e.values(right), predicate)
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

    /// Every way to run `left[0] = right[1]`: the hash join building on
    /// either side, then the nested-loop reference.
    fn all_ways(left: Vec<Tuple>, right: Vec<Tuple>) -> Vec<(&'static str, Vec<Tuple>)> {
        vec![
            ("hash build=Left", join(left.clone(), right.clone(), BuildSide::Left)),
            ("hash build=Right", join(left.clone(), right.clone(), BuildSide::Right)),
            ("nested loop", nested_loop(left, right)),
        ]
    }

    #[test]
    fn all_algorithms_agree() {
        let reference = sorted(nested_loop(users(), orders()));
        assert_eq!(reference.len(), 3, "alice×2 + carol×1");
        for (name, rows) in all_ways(users(), orders()) {
            assert_eq!(sorted(rows), reference, "{name}");
        }
    }

    #[test]
    fn null_keys_never_match() {
        for (name, rows) in all_ways(users(), orders()) {
            assert!(
                rows.iter().all(|r| !r[0].is_null() && !r[3].is_null()),
                "{name}"
            );
        }
    }

    #[test]
    fn joined_tuple_is_left_then_right() {
        let rows = sorted(join(users(), orders(), BuildSide::Right));
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
        for (name, rows) in all_ways(left, right) {
            assert_eq!(rows.len(), 1, "{name}");
        }
    }

    #[test]
    fn build_side_never_changes_results() {
        let reference = sorted(join(users(), orders(), BuildSide::Left));
        let out = join(users(), orders(), BuildSide::Right);
        assert_eq!(sorted(out), reference);
    }

    #[test]
    fn probe_order_preserved_for_directed_build() {
        // Build on the smaller left; output order follows the right
        // (probe) stream, but columns stay left-then-right.
        let rows = join(users(), orders(), BuildSide::Left);
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
        for (name, rows) in all_ways(vec![], orders()) {
            assert!(rows.is_empty(), "{name}: empty left");
        }
        for (name, rows) in all_ways(users(), vec![]) {
            assert!(rows.is_empty(), "{name}: empty right");
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
        for (name, rows) in all_ways(left, right) {
            assert_eq!(rows.len(), 600, "{name}: cross product of equals");
        }
    }
}
