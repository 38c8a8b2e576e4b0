//! Order statistics over run and round samples.

/// The `q`-quantile of `values` (`0 <= q <= 1`), interpolating linearly
/// between the two nearest order statistics, so it never leaves the range
/// of the samples.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match v.get(lo + 1) {
        Some(&hi) if frac > 0.0 => v[lo] + (hi - v[lo]) * frac,
        _ => v[lo],
    }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
/// so spreads printed here match ones computed with Python. With one
/// sample all three are that sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantiles_interpolate_inside_the_samples() {
        // numpy.quantile([1..11], 0.9) == 10.0; [1, 2] at 0.9 == 1.9.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 10.0);
        assert!((quantile(&[2.0, 1.0], 0.9) - 1.9).abs() < 1e-12);
        assert_eq!(quantile(&[5.0], 0.1), 5.0);
        assert_eq!((quantile(&v, 0.0), quantile(&v, 1.0)), (1.0, 11.0));
    }
}
