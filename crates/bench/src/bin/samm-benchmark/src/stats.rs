//! Exact order statistics over raw samples.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of ascending
/// `sorted`: the smallest sample with at least `p`% of the samples at or
/// below it. `0` for no samples.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// `ceil(p% of n)`, robust to `99.9 / 100 * 10_000` landing a hair
/// above `9990` in floating point.
pub fn rank(p: f64, n: usize) -> usize {
    (p / 100.0 * n as f64 - 1e-9).ceil() as usize
}

/// The highest of p50, p90, p99, p99.9, … that still has at least
/// `beyond` of `n` samples above its nearest rank.
pub fn highest_percentile(n: usize, beyond: usize) -> Option<f64> {
    [50.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999]
        .into_iter()
        .take_while(|&p| {
            let rank = rank(p, n);
            rank > 0 && n.saturating_sub(rank) >= beyond
        })
        .last()
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method).
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n as i64 + 1;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the spread the
/// benchmark reports beside each end-to-end value. `0` for fewer than
/// two values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50);
        assert_eq!(nearest_rank(&v, 99.0), 99);
        assert_eq!(nearest_rank(&v, 99.5), 100);
        assert_eq!(nearest_rank(&v, 100.0), 100);
        assert_eq!(nearest_rank(&v, 0.1), 1);
        assert_eq!(nearest_rank(&[7], 99.0), 7);
        assert_eq!(nearest_rank(&[], 50.0), 0);
        let v = [10, 20, 30, 40];
        assert_eq!(nearest_rank(&v, 50.0), 20);
        assert_eq!(nearest_rank(&v, 51.0), 30);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(20_000, 10), Some(99.9));
        assert_eq!(highest_percentile(10_000, 10), Some(99.9));
        assert_eq!(highest_percentile(9_999, 10), Some(99.0));
        assert_eq!(highest_percentile(1_000, 10), Some(99.0));
        assert_eq!(highest_percentile(100, 10), Some(90.0));
        assert_eq!(highest_percentile(99, 10), Some(50.0));
        assert_eq!(highest_percentile(20, 10), Some(50.0));
        assert_eq!(highest_percentile(19, 10), None);
        assert_eq!(highest_percentile(0, 10), None);
        assert_eq!(highest_percentile(2_000_000, 10), Some(99.999));
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
