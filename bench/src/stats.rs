//! Medians and quartiles. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), because that
//! is what the acceptance rule for this benchmark computes spreads with.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)`. A single value is its own quartiles; empty gives `NaN`s.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 || !q2.is_finite() {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-quantile (0..=1) by nearest rank; `NaN` for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }

    #[test]
    fn nearest_rank_quantile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.8), 80.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[2.0], 0.5), 2.0);
    }
}
