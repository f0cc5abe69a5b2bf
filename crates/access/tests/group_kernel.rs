//! The grouped-aggregation kernel against a reference built from first
//! principles: rows grouped in a `BTreeMap` keyed on the bytes
//! `Datum::encode_into` writes, each aggregate folded by hand. Keys mix
//! NULLs, INT and FLOAT values that compare equal (`1` and `1.0`, `0.0`
//! and `-0.0`), strings and booleans, over one and two columns and
//! through a computed key; every `AggFunc` runs, and in about a quarter
//! of the cases SUMs leave INT and must fail. At batch sizes 1, 64 and
//! 1024 the output rows, their first-seen order and the memory charged
//! must all be the reference's.
//!
//! DISTINCT runs on the same kernel; it is checked against the set of
//! encoded rows it used to keep (`encode_tuple` bytes in a `HashSet`,
//! first-seen order, each new row charged its encoded length plus 48),
//! over the same keys, with and without a selection vector.

use std::collections::{BTreeMap, HashSet};

use proptest::prelude::*;
use sbdms_access::exec::{AggFunc, AggSpec, BinOp, Expr, UnaryOp, VectorEngine};
use sbdms_access::record::{encode_tuple, Datum, Tuple};
use sbdms_kernel::governor::{CancelToken, ExecContext, QueryMemory};

fn key_a(i: usize) -> Datum {
    [
        Datum::Null,
        Datum::Int(1),
        Datum::Float(1.0),
        Datum::Int(2),
        Datum::Float(0.0),
        Datum::Float(-0.0),
        Datum::Str(String::new()),
        Datum::Str("a".into()),
        Datum::Bool(true),
    ][i % 9]
        .clone()
}

fn key_b(i: usize) -> Datum {
    [
        Datum::Null,
        Datum::Int(7),
        Datum::Str("x".into()),
        Datum::Str("xy-longer-than-eight".into()),
        Datum::Float(2.5),
        Datum::Int(-3),
    ][i % 6]
        .clone()
}

fn value(i: usize) -> Datum {
    [
        Datum::Null,
        Datum::Int(1),
        Datum::Int(-5),
        Datum::Int((1 << 53) + 1),
        Datum::Int(i64::MAX / 3),
        Datum::Float(0.5),
        Datum::Float(-2.25),
        Datum::Int(0),
        Datum::Int(100),
        Datum::Int(i64::MIN / 3),
    ][i % 10]
        .clone()
}

/// GROUP BY shapes: global, one column, two columns, and a computed key
/// (evaluated per batch rather than read in place).
fn group_by(shape: usize) -> Vec<Expr> {
    match shape % 4 {
        0 => vec![],
        1 => vec![Expr::col(0)],
        2 => vec![Expr::col(0), Expr::col(1)],
        _ => vec![
            Expr::Unary(UnaryOp::IsNull, Box::new(Expr::col(1))),
            Expr::col(0),
        ],
    }
}

fn aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::new(AggFunc::CountAll, Expr::int(0)),
        AggSpec::new(AggFunc::Count, Expr::col(2)),
        AggSpec::new(AggFunc::Sum, Expr::col(2)),
        AggSpec::new(AggFunc::Avg, Expr::col(2)),
        AggSpec::new(AggFunc::Min, Expr::col(2)),
        AggSpec::new(AggFunc::Max, Expr::col(2)),
        AggSpec::new(AggFunc::Min, Expr::col(0)),
        AggSpec::new(AggFunc::Max, Expr::col(1)),
        AggSpec::new(AggFunc::Count, Expr::col(1)),
        AggSpec::new(AggFunc::Sum, Expr::col(3)),
    ]
}

/// An INT-only column for SUM: small values, or in a case that allows
/// it, sometimes half of `i64::MAX`, so that SUMs leave INT.
fn int_value(i: usize, huge: bool) -> Datum {
    match i % 8 {
        0 if huge => Datum::Int(i64::MAX / 2),
        1 => Datum::Null,
        i => Datum::Int(i as i64 - 4),
    }
}

/// The charge for one new group, from its key values and encoded key.
fn group_charge(key: &[u8], values: &[Datum], aggs: usize) -> u64 {
    let tuple: u64 = 24
        + values
            .iter()
            .map(|d| match d {
                Datum::Str(s) => 16 + s.len() as u64,
                _ => 16,
            })
            .sum::<u64>();
    2 * key.len() as u64 + tuple + 48 * aggs as u64
}

/// One aggregate over one group's argument values, in row order.
/// `None`: the aggregate must fail (a SUM outside INT).
fn fold(func: AggFunc, vals: &[Datum]) -> Option<Datum> {
    let present: Vec<&Datum> = vals.iter().filter(|v| !v.is_null()).collect();
    let as_f64 = |d: &Datum| match d {
        Datum::Int(i) => *i as f64,
        Datum::Float(x) => *x,
        other => panic!("not a number: {other}"),
    };
    let pick = |want: std::cmp::Ordering| {
        let mut best: Option<&Datum> = None;
        for v in &present {
            if best.is_none_or(|b| v.order(b) == want) {
                best = Some(v);
            }
        }
        best.cloned().unwrap_or(Datum::Null)
    };
    Some(match func {
        AggFunc::CountAll => Datum::Int(vals.len() as i64),
        AggFunc::Count => Datum::Int(present.len() as i64),
        AggFunc::Sum if present.is_empty() => Datum::Null,
        AggFunc::Sum if present.iter().any(|v| matches!(v, Datum::Float(_))) => {
            Datum::Float(present.iter().fold(0.0, |t, v| t + as_f64(v)))
        }
        AggFunc::Sum => {
            let total: i128 = present
                .iter()
                .map(|v| match v {
                    Datum::Int(i) => *i as i128,
                    other => panic!("not an INT: {other}"),
                })
                .sum();
            Datum::Int(i64::try_from(total).ok()?)
        }
        AggFunc::Avg if present.is_empty() => Datum::Null,
        AggFunc::Avg => {
            Datum::Float(present.iter().fold(0.0, |t, v| t + as_f64(v)) / present.len() as f64)
        }
        AggFunc::Min => pick(std::cmp::Ordering::Less),
        AggFunc::Max => pick(std::cmp::Ordering::Greater),
    })
}

/// The reference answer (`None` when it must be an error) and the
/// memory the kernel must charge for it.
fn reference(rows: &[Tuple], group_by: &[Expr], aggs: &[AggSpec]) -> (Option<Vec<Tuple>>, u64) {
    let mut index: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
    let mut groups: Vec<(Tuple, Vec<&Tuple>)> = Vec::new();
    let mut charged = 0;
    for row in rows {
        let values: Tuple = group_by.iter().map(|e| e.eval(row).unwrap()).collect();
        let mut key = Vec::new();
        for v in &values {
            v.encode_into(&mut key);
        }
        let g = *index.entry(key.clone()).or_insert_with(|| {
            charged += group_charge(&key, &values, aggs.len());
            groups.push((values.clone(), Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(row);
    }
    if group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    let out = groups
        .iter()
        .map(|(values, members)| {
            let mut out = values.clone();
            for a in aggs {
                let args: Vec<Datum> = members.iter().map(|r| a.arg.eval(r).unwrap()).collect();
                out.push(fold(a.func, &args)?);
            }
            Some(out)
        })
        .collect();
    (out, charged)
}

fn encoded(rows: &[Tuple]) -> Vec<Vec<u8>> {
    rows.iter().map(|r| encode_tuple(r)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn grouping_kernel_matches_reference(
        picks in proptest::collection::vec((0usize..9, 0usize..6, 0usize..10, 0usize..8), 0..400),
        shape in 0usize..4,
        huge in 0usize..4,
    ) {
        let rows: Vec<Tuple> = picks
            .iter()
            .map(|&(a, b, v, w)| vec![key_a(a), key_b(b), value(v), int_value(w, huge == 0)])
            .collect();
        let group_by = group_by(shape);
        let aggs = aggs();
        let (want, want_charge) = reference(&rows, &group_by, &aggs);
        for batch_rows in [1, 64, 1024] {
            let memory = QueryMemory::new(u64::MAX, None);
            let engine = VectorEngine {
                batch_rows,
                ctx: ExecContext::new(CancelToken::new(), memory.clone()),
            };
            let got = engine
                .hash_aggregate(engine.values(rows.clone()), group_by.clone(), aggs.clone())
                .and_then(|s| engine.collect(s));
            match &want {
                Some(want) => {
                    let got = got.unwrap_or_else(|e| panic!("batch {batch_rows}: {e}"));
                    prop_assert_eq!(encoded(&got), encoded(want));
                    prop_assert_eq!(memory.used(), want_charge);
                }
                None => {
                    let err = got.expect_err("a SUM outside INT must fail");
                    prop_assert_eq!(err.code(), "invalid_input");
                    prop_assert!(err.to_string().contains("integer overflow"));
                }
            }
        }
    }
}

/// DISTINCT as it was before it ran on the grouping kernel: the rows
/// whose `encode_tuple` bytes are new, in order, and the bytes charged.
fn distinct_reference(rows: &[Tuple]) -> (Vec<Tuple>, u64) {
    let mut seen = HashSet::new();
    let mut charged = 0;
    let mut out = Vec::new();
    for row in rows {
        let enc = encode_tuple(row);
        if !seen.contains(&enc) {
            charged += enc.len() as u64 + 48;
            seen.insert(enc);
            out.push(row.clone());
        }
    }
    (out, charged)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn distinct_matches_encoded_row_set(
        picks in proptest::collection::vec((0usize..9, 0usize..6, 0usize..10), 0..400),
        filtered in any::<bool>(),
    ) {
        let rows: Vec<Tuple> = picks
            .iter()
            .map(|&(a, b, v)| vec![key_a(a), key_b(b), value(v)])
            .collect();
        // Filtering hands DISTINCT batches with a selection vector.
        let keep = Expr::Binary(BinOp::Ne, Box::new(Expr::col(2)), Box::new(Expr::int(0)));
        let input: Vec<Tuple> = if filtered {
            rows.iter().filter(|r| keep.eval(r).unwrap().is_true()).cloned().collect()
        } else {
            rows.clone()
        };
        let (want, want_charge) = distinct_reference(&input);
        for batch_rows in [1, 64, 1024] {
            let memory = QueryMemory::new(u64::MAX, None);
            let engine = VectorEngine {
                batch_rows,
                ctx: ExecContext::new(CancelToken::new(), memory.clone()),
            };
            let mut stream = engine.values(rows.clone());
            if filtered {
                stream = engine.filter(stream, keep.clone());
            }
            let got = engine.collect(engine.distinct(stream)).unwrap();
            prop_assert_eq!(encoded(&got), encoded(&want), "batch {}", batch_rows);
            prop_assert_eq!(memory.used(), want_charge, "batch {}", batch_rows);
        }
    }
}

/// An error reaches the caller in row order, whichever pass meets it:
/// the earliest failing row wins, a new group's charge comes before the
/// aggregates of its row, and aggregates of one row fail in order.
#[test]
fn errors_come_in_row_order() {
    let s = |x: &str| Datum::Str(x.into());
    let aggs = vec![
        AggSpec::new(AggFunc::Sum, Expr::col(1)),
        AggSpec::new(AggFunc::Avg, Expr::col(2)),
    ];
    let run = |rows: Vec<Tuple>, limit: u64| {
        let memory = QueryMemory::new(limit, None);
        let engine = VectorEngine {
            batch_rows: 1024,
            ctx: ExecContext::new(CancelToken::new(), memory),
        };
        engine
            .hash_aggregate(engine.values(rows), vec![Expr::col(0)], aggs.clone())
            .and_then(|s| engine.collect(s))
            .unwrap_err()
    };
    // Row 1's AVG fails before row 2's SUM.
    let err = run(
        vec![
            vec![Datum::Int(0), Datum::Int(1), Datum::Int(1)],
            vec![Datum::Int(0), Datum::Int(1), s("avg")],
            vec![Datum::Int(0), s("sum"), Datum::Int(1)],
        ],
        u64::MAX,
    );
    assert!(err.to_string().contains("AVG requires numbers"), "{err}");
    // Within one row, SUM (the first aggregate) fails first.
    let err = run(vec![vec![Datum::Int(0), s("sum"), s("avg")]], u64::MAX);
    assert!(err.to_string().contains("SUM requires numbers"), "{err}");
    // One group fits the limit, a second does not.
    let one_group = 2 * 9 + 24 + 16 + 2 * 48;
    // Row 1's SUM fails before row 2's new group overruns memory...
    let err = run(
        vec![
            vec![Datum::Int(0), Datum::Int(1), Datum::Int(1)],
            vec![Datum::Int(0), s("sum"), Datum::Int(1)],
            vec![Datum::Int(1), Datum::Int(1), Datum::Int(1)],
        ],
        one_group,
    );
    assert!(err.to_string().contains("SUM requires numbers"), "{err}");
    // ...and row 1's new group overruns memory before row 2's SUM fails.
    let err = run(
        vec![
            vec![Datum::Int(0), Datum::Int(1), Datum::Int(1)],
            vec![Datum::Int(1), Datum::Int(1), Datum::Int(1)],
            vec![Datum::Int(0), s("sum"), Datum::Int(1)],
        ],
        one_group,
    );
    assert_eq!(err.code(), "resources", "{err}");
}
