//! Table statistics for cost-based plan selection (paper Fig. 6:
//! selection "by quality/resources" applied to the data layer).
//!
//! `ANALYZE <table>` collects per-table row counts and per-column
//! min/max, distinct-value estimates, null counts, and equi-depth
//! histograms. Stats persist in the catalog alongside the schema and
//! are consumed by the planner's cost model ([`crate::cost`]). Between
//! ANALYZE runs the catalog keeps cheap per-table write counters; a
//! staleness threshold triggers a re-sample (see
//! `Database::maybe_reanalyze`).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use sbdms_access::record::{Datum, Tuple};

use crate::schema::Schema;

/// Default number of equi-depth histogram buckets per column.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A serde-friendly mirror of [`Datum`] for persisting boundary values
/// in catalog records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StatValue {
    /// SQL NULL (never a histogram boundary, kept for completeness).
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
}

impl StatValue {
    /// Convert from a datum.
    pub fn from_datum(d: &Datum) -> StatValue {
        match d {
            Datum::Null => StatValue::Null,
            Datum::Bool(b) => StatValue::Bool(*b),
            Datum::Int(i) => StatValue::Int(*i),
            Datum::Float(x) => StatValue::Float(*x),
            Datum::Str(s) => StatValue::Str(s.clone()),
        }
    }

    /// Convert back to a datum.
    pub fn to_datum(&self) -> Datum {
        match self {
            StatValue::Null => Datum::Null,
            StatValue::Bool(b) => Datum::Bool(*b),
            StatValue::Int(i) => Datum::Int(*i),
            StatValue::Float(x) => Datum::Float(*x),
            StatValue::Str(s) => Datum::Str(s.clone()),
        }
    }
}

/// An equi-depth histogram: `bounds[i]` is the inclusive upper bound of
/// bucket `i`; bucket 0 starts at the column minimum. Each bucket holds
/// (approximately) the same number of non-null rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Ascending inclusive upper bounds, one per bucket.
    pub bounds: Vec<StatValue>,
    /// Non-null rows summarised by the histogram.
    pub total: u64,
}

/// Numeric view of a datum, for interpolation inside a bucket.
fn as_f64(d: &Datum) -> Option<f64> {
    match d {
        Datum::Int(i) => Some(*i as f64),
        Datum::Float(x) => Some(*x),
        _ => None,
    }
}

impl Histogram {
    /// Build from an ascending-sorted slice of non-null values.
    fn build(sorted: &[Datum], buckets: usize) -> Option<Histogram> {
        if sorted.is_empty() || buckets == 0 {
            return None;
        }
        let buckets = buckets.min(sorted.len());
        let mut bounds = Vec::with_capacity(buckets);
        for b in 1..=buckets {
            // Last index of bucket b (1-based), equi-depth partition.
            let idx = (b * sorted.len()).div_ceil(buckets) - 1;
            bounds.push(StatValue::from_datum(&sorted[idx]));
        }
        Some(Histogram {
            bounds,
            total: sorted.len() as u64,
        })
    }

    /// Estimated fraction of non-null rows with value `<= v` (or `< v`
    /// when `inclusive` is false). Linear interpolation within the
    /// containing bucket for numeric boundaries; `min`, the column
    /// minimum, is the lower end of the first bucket.
    pub fn fraction_below(&self, v: &Datum, inclusive: bool, min: Option<&Datum>) -> f64 {
        let n = self.bounds.len();
        if n == 0 {
            return 0.5;
        }
        let mut lo_bound: Option<Datum> = min.cloned();
        for (i, b) in self.bounds.iter().enumerate() {
            let b = b.to_datum();
            let below = match v.order(&b) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => !inclusive,
                std::cmp::Ordering::Greater => false,
            };
            if below {
                // v falls in bucket i: interpolate between the previous
                // bound (or the column minimum) and this bound when
                // numeric.
                let frac_before = i as f64 / n as f64;
                let within = match (
                    lo_bound.as_ref().and_then(as_f64),
                    as_f64(&b),
                    as_f64(v),
                ) {
                    (Some(lo), Some(hi), Some(x)) if hi > lo => ((x - lo) / (hi - lo)).clamp(0.0, 1.0),
                    _ => 0.5,
                };
                return frac_before + within / n as f64;
            }
            lo_bound = Some(b);
        }
        1.0
    }
}

/// Statistics of one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// NULL count.
    pub null_count: u64,
    /// Estimated number of distinct non-null values.
    pub distinct: u64,
    /// Minimum non-null value.
    pub min: Option<StatValue>,
    /// Maximum non-null value.
    pub max: Option<StatValue>,
    /// Equi-depth histogram over non-null values (absent on profiles
    /// that disable histograms, or for empty columns).
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Statistics of one column from all its values (NULLs included).
    pub fn collect(mut values: Vec<Datum>, histogram_buckets: usize) -> ColumnStats {
        let before = values.len();
        values.retain(|d| !d.is_null());
        values.sort_by(|a, b| a.order(b));
        let distinct = values
            .windows(2)
            .filter(|w| w[0].order(&w[1]) != std::cmp::Ordering::Equal)
            .count() as u64
            + u64::from(!values.is_empty());
        ColumnStats {
            null_count: (before - values.len()) as u64,
            distinct,
            min: values.first().map(StatValue::from_datum),
            max: values.last().map(StatValue::from_datum),
            histogram: Histogram::build(&values, histogram_buckets),
        }
    }

    /// Estimated selectivity of `col = value` over all rows.
    pub fn selectivity_eq(&self, rows: f64, value: &Datum) -> f64 {
        if rows <= 0.0 {
            return 0.0;
        }
        if value.is_null() {
            return 0.0; // `= NULL` never matches
        }
        if let (Some(min), Some(max)) = (&self.min, &self.max) {
            let min = min.to_datum();
            let max = max.to_datum();
            if value.order(&min) == std::cmp::Ordering::Less
                || value.order(&max) == std::cmp::Ordering::Greater
            {
                // Outside the observed domain: near-zero, floored at one
                // row so the estimate never claims impossibility.
                return (1.0 / rows).min(1.0);
            }
        }
        let non_null = (rows - self.null_count as f64).max(0.0);
        (non_null / rows / self.distinct.max(1) as f64).clamp(0.0, 1.0)
    }

    /// Estimated selectivity of a (half-)open range over all rows.
    /// `lo`/`hi` of `None` mean unbounded on that side.
    pub fn selectivity_range(
        &self,
        rows: f64,
        lo: Option<(&Datum, bool)>,
        hi: Option<(&Datum, bool)>,
    ) -> f64 {
        if rows <= 0.0 {
            return 0.0;
        }
        let non_null_frac = ((rows - self.null_count as f64) / rows).clamp(0.0, 1.0);
        let min = self.min.as_ref().map(StatValue::to_datum);
        let frac_below = |v: &Datum, inclusive: bool| -> f64 {
            if let Some(h) = &self.histogram {
                return h.fraction_below(v, inclusive, min.as_ref());
            }
            // No histogram: interpolate min..max for numerics, else a
            // fixed third (System-R style default).
            match (
                min.as_ref().and_then(as_f64),
                self.max.as_ref().map(|m| m.to_datum()).as_ref().and_then(as_f64),
                as_f64(v),
            ) {
                (Some(min), Some(max), Some(x)) if max > min => ((x - min) / (max - min)).clamp(0.0, 1.0),
                _ => 1.0 / 3.0,
            }
        };
        let below_hi = match hi {
            Some((v, inclusive)) => frac_below(v, inclusive),
            None => 1.0,
        };
        let below_lo = match lo {
            // `x >= lo` keeps everything not strictly below lo.
            Some((v, inclusive)) => frac_below(v, !inclusive),
            None => 0.0,
        };
        ((below_hi - below_lo).max(0.0) * non_null_frac).clamp(0.0, 1.0)
    }
}

/// Statistics of one table, persisted in its catalog record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    /// Rows at ANALYZE time.
    pub row_count: u64,
    /// Per-column stats, keyed by lower-cased column name.
    pub columns: BTreeMap<String, ColumnStats>,
}

impl TableStats {
    /// Collect statistics from a full scan of `rows` under `schema`.
    /// `histogram_buckets` of 0 disables histograms (embedded profile).
    pub fn collect(rows: &[Tuple], schema: &Schema, histogram_buckets: usize) -> TableStats {
        let mut columns = BTreeMap::new();
        for (i, col) in schema.columns.iter().enumerate() {
            let values = rows.iter().map(|row| row.get(i).cloned().unwrap_or(Datum::Null));
            let stats = ColumnStats::collect(values.collect(), histogram_buckets);
            columns.insert(col.name.to_lowercase(), stats);
        }
        TableStats {
            row_count: rows.len() as u64,
            columns,
        }
    }

    /// Stats for a column, by (case-insensitive) name.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(&name.to_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", ColumnType::Int),
            Column::new("grp", ColumnType::Int),
        ])
        .unwrap()
    }

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                vec![
                    Datum::Int(i),
                    if i % 10 == 0 { Datum::Null } else { Datum::Int(i % 7) },
                ]
            })
            .collect()
    }

    #[test]
    fn collect_basic_counters() {
        let stats = TableStats::collect(&rows(100), &schema(), 8);
        assert_eq!(stats.row_count, 100);
        let id = stats.column("ID").unwrap();
        assert_eq!(id.null_count, 0);
        assert_eq!(id.distinct, 100);
        assert_eq!(id.min, Some(StatValue::Int(0)));
        assert_eq!(id.max, Some(StatValue::Int(99)));
        let grp = stats.column("grp").unwrap();
        assert_eq!(grp.null_count, 10);
        assert_eq!(grp.distinct, 7);
    }

    #[test]
    fn equality_selectivity_uses_ndv_and_domain() {
        let stats = TableStats::collect(&rows(100), &schema(), 8);
        let id = stats.column("id").unwrap();
        let sel = id.selectivity_eq(100.0, &Datum::Int(42));
        assert!((sel - 0.01).abs() < 1e-9, "1/ndv: {sel}");
        // Out of [min, max]: floored at one row.
        let sel = id.selectivity_eq(100.0, &Datum::Int(10_000));
        assert!(sel <= 0.01, "{sel}");
        assert_eq!(id.selectivity_eq(100.0, &Datum::Null), 0.0);
    }

    #[test]
    fn range_selectivity_tracks_histogram() {
        let stats = TableStats::collect(&rows(1000), &schema(), 32);
        let id = stats.column("id").unwrap();
        // id < 100 over uniform 0..1000 ≈ 10%.
        let sel = id.selectivity_range(1000.0, None, Some((&Datum::Int(100), false)));
        assert!((sel - 0.1).abs() < 0.05, "{sel}");
        // 250 <= id < 750 ≈ 50%.
        let sel = id.selectivity_range(
            1000.0,
            Some((&Datum::Int(250), true)),
            Some((&Datum::Int(750), false)),
        );
        assert!((sel - 0.5).abs() < 0.08, "{sel}");
        // Unbounded both sides: all non-null rows.
        let sel = id.selectivity_range(1000.0, None, None);
        assert!((sel - 1.0).abs() < 1e-9);
    }

    /// The first bucket interpolates from the column minimum: over
    /// 100k keys in 32 buckets of 3 125, a range inside bucket 0 is no
    /// longer half a bucket whatever its bounds.
    #[test]
    fn first_bucket_interpolates_from_the_minimum() {
        let rows: Vec<Tuple> = (0..100_000).map(|i| vec![Datum::Int(i), Datum::Null]).collect();
        let stats = TableStats::collect(&rows, &schema(), 32);
        let id = stats.column("id").unwrap();
        let n = 100_000.0;
        let below = |x: i64| id.selectivity_range(n, None, Some((&Datum::Int(x), false))) * n;
        let within_2x = |est: f64, truth: f64| est >= truth / 2.0 && est <= truth * 2.0;
        for (x, truth) in [(200, 200.0), (2_000, 2_000.0)] {
            assert!(within_2x(below(x), truth), "k < {x}: {} rows", below(x));
        }
        let between = id.selectivity_range(
            n,
            Some((&Datum::Int(10), true)),
            Some((&Datum::Int(2_000), false)),
        ) * n;
        assert!(within_2x(between, 1_990.0), "10 <= k < 2000: {between} rows");
        // Below the minimum nothing remains.
        assert_eq!(below(0), 0.0);
    }

    #[test]
    fn null_fraction_caps_range_selectivity() {
        let stats = TableStats::collect(&rows(100), &schema(), 8);
        let grp = stats.column("grp").unwrap();
        let sel = grp.selectivity_range(100.0, None, None);
        assert!((sel - 0.9).abs() < 1e-9, "10% NULLs excluded: {sel}");
    }

    #[test]
    fn histograms_optional() {
        let stats = TableStats::collect(&rows(100), &schema(), 0);
        assert!(stats.column("id").unwrap().histogram.is_none());
        // Range estimation still works via min/max interpolation.
        let sel = stats
            .column("id")
            .unwrap()
            .selectivity_range(100.0, None, Some((&Datum::Int(50), false)));
        assert!((sel - 0.5).abs() < 0.05, "{sel}");
    }

    #[test]
    fn skewed_histogram_beats_uniform_assumption() {
        // 90% of values are 0, the rest uniform 1..=100.
        let mut data: Vec<Tuple> = (0..900).map(|_| vec![Datum::Int(0), Datum::Null]).collect();
        data.extend((1..=100).map(|i| vec![Datum::Int(i), Datum::Null]));
        let stats = TableStats::collect(&data, &schema(), 32);
        let id = stats.column("id").unwrap();
        // id <= 0 captures the 90% spike; a uniform min/max model would
        // say ~1%.
        let sel = id.selectivity_range(1000.0, None, Some((&Datum::Int(0), true)));
        assert!(sel > 0.5, "histogram must see the skew: {sel}");
    }

    #[test]
    fn serde_round_trip() {
        let stats = TableStats::collect(&rows(50), &schema(), 4);
        let json = serde_json::to_string(&stats).unwrap();
        let back: TableStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }
}
