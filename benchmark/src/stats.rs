//! Order statistics used by every reported number: medians, quartiles,
//! and the rule for which tail percentile a sample can support.

/// Median, quartiles and sample count of one metric's repeated readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle readings when even).
///
/// Panics on an empty slice: every caller summarises at least one reading.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no readings");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so the spread printed here is the
/// spread the acceptance procedure computes. A single reading is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no readings");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        // `delta` may exceed 4 (or the subtraction go negative) at the
        // clamped ends, where Python extrapolates; mirror it in floats.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median + quartiles + count.
pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        median: median(values),
        q1,
        q3,
        n: values.len(),
    }
}

/// Percentile `p` (0–100) of an ascending-sorted sample, nearest-rank on
/// `(n-1)·p/100` rounded down — the convention the repo's bench bins use.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).floor() as usize;
    sorted[idx]
}

/// Tail percentiles the ledger may report, ascending, in per mille (so the
/// ten-samples rule is exact integer arithmetic).
pub const TAILS_PER_MILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest percentile of [`TAILS_PER_MILLE`] that still has at least
/// ten samples beyond it in a sample of `n`; `None` when even the median
/// does not.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .rev()
        .find(|&&pm| n * (1000 - pm) >= 10_000)
        .map(|&pm| pm as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(summarize(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn percentile_uses_floor_rank() {
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 499);
        assert_eq!(percentile_sorted(&v, 99.0), 989);
        assert_eq!(percentile_sorted(&v, 100.0), 999);
        assert_eq!(percentile_sorted(&[42u64], 99.0), 42);
    }
}
