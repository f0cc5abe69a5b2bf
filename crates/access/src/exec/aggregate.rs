//! Grouped aggregation: the aggregate functions and their running
//! state.
//!
//! NULLs are ignored by all aggregates except `CountAll` (SQL
//! semantics); an empty input with no grouping yields one row of
//! aggregate identities. The hash-aggregation kernel that drives these
//! states lives in `exec::batch`.

use sbdms_kernel::error::{Result, ServiceError};

use super::expr::Expr;
use crate::record::Datum;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT(*) — counts rows, including NULL inputs.
    CountAll,
    /// COUNT(expr) — counts non-NULL values.
    Count,
    /// SUM(expr).
    Sum,
    /// AVG(expr).
    Avg,
    /// MIN(expr).
    Min,
    /// MAX(expr).
    Max,
}

/// One aggregate column specification.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// The argument (ignored for `CountAll`).
    pub arg: Expr,
}

impl AggSpec {
    /// Shorthand constructor.
    pub fn new(func: AggFunc, arg: Expr) -> AggSpec {
        AggSpec { func, arg }
    }
}

/// Running state of one aggregate. The batch kernel (`exec::batch`)
/// feeds it whole columns via [`AggState::update_slice`], or one value
/// at a time via [`AggState::update`] when grouping.
#[derive(Debug, Clone)]
pub(super) enum AggState {
    Count(i64),
    Sum { total: f64, all_int: bool, seen: bool },
    Avg { total: f64, n: i64 },
    MinMax { best: Option<Datum>, is_min: bool },
}

impl AggState {
    pub(super) fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::CountAll | AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                total: 0.0,
                all_int: true,
                seen: false,
            },
            AggFunc::Avg => AggState::Avg { total: 0.0, n: 0 },
            AggFunc::Min => AggState::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => AggState::MinMax {
                best: None,
                is_min: false,
            },
        }
    }

    pub(super) fn update(&mut self, func: AggFunc, value: Datum) -> Result<()> {
        if func == AggFunc::CountAll {
            if let AggState::Count(n) = self {
                *n += 1;
            }
            return Ok(());
        }
        if value.is_null() {
            return Ok(());
        }
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum { total, all_int, seen } => {
                match value {
                    Datum::Int(i) => *total += i as f64,
                    Datum::Float(x) => {
                        *total += x;
                        *all_int = false;
                    }
                    other => {
                        return Err(ServiceError::InvalidInput(format!(
                            "SUM requires numbers, got {other}"
                        )))
                    }
                }
                *seen = true;
            }
            AggState::Avg { total, n } => {
                match value {
                    Datum::Int(i) => *total += i as f64,
                    Datum::Float(x) => *total += x,
                    other => {
                        return Err(ServiceError::InvalidInput(format!(
                            "AVG requires numbers, got {other}"
                        )))
                    }
                }
                *n += 1;
            }
            AggState::MinMax { best, is_min } => {
                let better = match best {
                    None => true,
                    Some(b) => {
                        let c = value.order(b);
                        if *is_min {
                            c == std::cmp::Ordering::Less
                        } else {
                            c == std::cmp::Ordering::Greater
                        }
                    }
                };
                if better {
                    *best = Some(value);
                }
            }
        }
        Ok(())
    }

    /// COUNT(*) fast path: a batch contributes its row count in one add.
    pub(super) fn add_count(&mut self, n: i64) {
        if let AggState::Count(c) = self {
            *c += n;
        }
    }

    /// Fold a whole column into the state with one tight loop per
    /// aggregate kind, instead of one `update` dispatch per row.
    pub(super) fn update_slice(&mut self, values: &[Datum]) -> Result<()> {
        match self {
            AggState::Count(n) => {
                *n += values.iter().filter(|v| !v.is_null()).count() as i64;
            }
            AggState::Sum { total, all_int, seen } => {
                for value in values {
                    match value {
                        Datum::Null => {}
                        Datum::Int(i) => {
                            *total += *i as f64;
                            *seen = true;
                        }
                        Datum::Float(x) => {
                            *total += x;
                            *all_int = false;
                            *seen = true;
                        }
                        other => {
                            return Err(ServiceError::InvalidInput(format!(
                                "SUM requires numbers, got {other}"
                            )))
                        }
                    }
                }
            }
            AggState::Avg { total, n } => {
                for value in values {
                    match value {
                        Datum::Null => {}
                        Datum::Int(i) => {
                            *total += *i as f64;
                            *n += 1;
                        }
                        Datum::Float(x) => {
                            *total += x;
                            *n += 1;
                        }
                        other => {
                            return Err(ServiceError::InvalidInput(format!(
                                "AVG requires numbers, got {other}"
                            )))
                        }
                    }
                }
            }
            AggState::MinMax { best, is_min } => {
                for value in values {
                    if value.is_null() {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some(b) => {
                            let c = value.order(b);
                            if *is_min {
                                c == std::cmp::Ordering::Less
                            } else {
                                c == std::cmp::Ordering::Greater
                            }
                        }
                    };
                    if better {
                        *best = Some(value.clone());
                    }
                }
            }
        }
        Ok(())
    }

    pub(super) fn finish(self) -> Datum {
        match self {
            AggState::Count(n) => Datum::Int(n),
            AggState::Sum { total, all_int, seen } => {
                if !seen {
                    Datum::Null
                } else if all_int {
                    Datum::Int(total as i64)
                } else {
                    Datum::Float(total)
                }
            }
            AggState::Avg { total, n } => {
                if n == 0 {
                    Datum::Null
                } else {
                    Datum::Float(total / n as f64)
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Datum::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::VectorEngine;
    use crate::record::Tuple;

    fn sales() -> Vec<Tuple> {
        // (region, amount)
        vec![
            vec![Datum::Str("eu".into()), Datum::Int(10)],
            vec![Datum::Str("us".into()), Datum::Int(20)],
            vec![Datum::Str("eu".into()), Datum::Int(30)],
            vec![Datum::Str("us".into()), Datum::Null],
            vec![Datum::Str("eu".into()), Datum::Int(2)],
        ]
    }

    /// Aggregate `input` on an engine with two-row batches, so every
    /// group spans batch boundaries.
    fn aggregate(input: Vec<Tuple>, group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> Result<Vec<Tuple>> {
        let e = VectorEngine {
            batch_rows: 2,
            ..Default::default()
        };
        e.hash_aggregate(e.values(input), group_by, aggs)
            .and_then(|s| e.collect(s))
    }

    fn run(group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> Vec<Tuple> {
        aggregate(sales(), group_by, aggs).unwrap()
    }

    #[test]
    fn grouped_count_sum_avg() {
        let rows = run(
            vec![Expr::col(0)],
            vec![
                AggSpec::new(AggFunc::CountAll, Expr::int(0)),
                AggSpec::new(AggFunc::Count, Expr::col(1)),
                AggSpec::new(AggFunc::Sum, Expr::col(1)),
                AggSpec::new(AggFunc::Avg, Expr::col(1)),
            ],
        );
        assert_eq!(rows.len(), 2);
        // First-seen order: eu then us.
        assert_eq!(rows[0][0], Datum::Str("eu".into()));
        assert_eq!(rows[0][1], Datum::Int(3)); // count(*)
        assert_eq!(rows[0][2], Datum::Int(3)); // count(amount)
        assert_eq!(rows[0][3], Datum::Int(42)); // sum
        assert_eq!(rows[0][4], Datum::Float(14.0)); // avg

        assert_eq!(rows[1][0], Datum::Str("us".into()));
        assert_eq!(rows[1][1], Datum::Int(2)); // count(*) includes the NULL row
        assert_eq!(rows[1][2], Datum::Int(1)); // count(amount) skips it
        assert_eq!(rows[1][3], Datum::Int(20));
    }

    #[test]
    fn min_max() {
        let rows = run(
            vec![],
            vec![
                AggSpec::new(AggFunc::Min, Expr::col(1)),
                AggSpec::new(AggFunc::Max, Expr::col(1)),
            ],
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Datum::Int(2));
        assert_eq!(rows[0][1], Datum::Int(30));
    }

    #[test]
    fn empty_input_global_aggregate() {
        let rows = aggregate(
            vec![],
            vec![],
            vec![
                AggSpec::new(AggFunc::CountAll, Expr::int(0)),
                AggSpec::new(AggFunc::Sum, Expr::col(0)),
                AggSpec::new(AggFunc::Min, Expr::col(0)),
            ],
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Datum::Int(0));
        assert_eq!(rows[0][1], Datum::Null);
        assert_eq!(rows[0][2], Datum::Null);
    }

    #[test]
    fn empty_input_grouped_yields_nothing() {
        let rows = aggregate(
            vec![],
            vec![Expr::col(0)],
            vec![AggSpec::new(AggFunc::CountAll, Expr::int(0))],
        )
        .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn float_sum_promotes() {
        let input = vec![vec![Datum::Int(1)], vec![Datum::Float(0.5)]];
        for group_by in [vec![], vec![Expr::int(0)]] {
            let rows = aggregate(
                input.clone(),
                group_by,
                vec![AggSpec::new(AggFunc::Sum, Expr::col(0))],
            )
            .unwrap();
            assert_eq!(rows[0].last(), Some(&Datum::Float(1.5)));
        }
    }

    #[test]
    fn sum_of_strings_errors() {
        let input = vec![vec![Datum::Str("x".into())]];
        for group_by in [vec![], vec![Expr::int(0)]] {
            let result = aggregate(
                input.clone(),
                group_by,
                vec![AggSpec::new(AggFunc::Sum, Expr::col(0))],
            );
            assert!(result.is_err());
        }
    }

    #[test]
    fn null_group_key_groups_together() {
        let input = vec![
            vec![Datum::Null, Datum::Int(1)],
            vec![Datum::Null, Datum::Int(2)],
            vec![Datum::Null, Datum::Int(3)],
        ];
        let rows = aggregate(
            input,
            vec![Expr::col(0)],
            vec![AggSpec::new(AggFunc::CountAll, Expr::int(0))],
        )
        .unwrap();
        assert_eq!(rows, vec![vec![Datum::Null, Datum::Int(3)]]);
    }
}
