//! Order statistics used by every workload and by `perf agree`.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least `q` of the sample at or below it. `q` in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "q must be in (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort nanosecond samples and return them as ascending milliseconds.
pub fn sorted_ms(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method) —
/// the rule the benchmark contract uses to judge run-to-run spread.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median: the spread figure
/// compared against a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // Small samples round the rank up, never interpolate.
        let w = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&w, 0.5), 2.0);
        assert_eq!(percentile(&w, 0.95), 3.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn sorted_ms_converts_and_orders() {
        assert_eq!(sorted_ms(&[3_000_000, 1_000_000]), vec![1.0, 3.0]);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // Two values extrapolate like Python: [0.75, 1.5, 2.25] for [1, 2].
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
