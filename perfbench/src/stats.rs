//! Latency summaries: nearest-rank percentiles and the tail rule.

/// Percentiles the tail rule chooses from, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in `p * n` from rounding an exact
    // rank up (99.9% of 10_000 must be 9_990, not 9_991).
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of sorted samples (`NaN` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p)]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Mean of the values between the first and third quartile (all of
/// them when there are fewer than four).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The highest percentile of the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&pct| (pct, n - 1 - rank(n, pct)))
        .find(|&(_, beyond)| beyond >= TAIL_MIN_BEYOND)
        .map(|(pct, beyond)| Tail {
            pct,
            value: percentile(sorted, pct),
            beyond,
        })
}

/// A latency distribution, in the unit the samples were recorded in.
#[derive(Debug, Clone)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub tail: Option<Tail>,
}

impl Summary {
    pub fn of(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary {
            count: samples.len(),
            p50: percentile(&samples, 50.0),
            p90: percentile(&samples, 90.0),
            p99: percentile(&samples, 99.0),
            tail: tail(&samples),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 0.0]), 2.5);
        assert_eq!(interquartile_mean(&[4.0, 2.0]), 3.0);
        assert!(interquartile_mean(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 leaves 9, so the rule falls back to p90.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!(t.pct, 90.0);
        assert!(t.beyond >= TAIL_MIN_BEYOND);
        // 10_000 samples reach p99.9; 100_000 reach p99.99.
        assert_eq!(tail(&ramp(10_000)).unwrap().pct, 99.9);
        assert_eq!(tail(&ramp(100_000)).unwrap().pct, 99.99);
        // Too few samples for even the median to have ten beyond it.
        assert!(tail(&ramp(19)).is_none());
        assert_eq!(tail(&ramp(20)).unwrap().pct, 50.0);
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn every_reported_tail_has_ten_beyond() {
        for n in 1..3000 {
            let v = ramp(n);
            if let Some(t) = tail(&v) {
                let beyond = v.iter().filter(|&&x| x > t.value).count();
                assert_eq!(beyond, t.beyond, "n={n}");
                assert!(beyond >= TAIL_MIN_BEYOND, "n={n}");
            }
        }
    }
}
