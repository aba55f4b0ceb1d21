//! Order statistics over timing samples.

/// Fewest samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Fewest samples for `op_p95_s`: below this fewer than [`TAIL_SAMPLES`]
/// lie beyond the 95th percentile.
pub const P95_MIN_SAMPLES: usize = 200;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an ascending slice, `q` in [0, 1].
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// (first quartile, median, third quartile) by the exclusive method —
/// what Python's `statistics.quantiles(values, n=4)` returns, so spreads
/// computed here agree with the driver's.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// The 95th percentile, refused (`None`) when fewer than
/// [`P95_MIN_SAMPLES`] samples leave fewer than [`TAIL_SAMPLES`] beyond it.
pub fn p95(values: &[f64]) -> Option<f64> {
    (values.len() >= P95_MIN_SAMPLES).then(|| quantile_sorted(&sorted(values), 0.95))
}

/// The highest whole percentile with at least [`TAIL_SAMPLES`] samples
/// beyond it, and its value; `None` when not even the median qualifies.
pub fn highest_supported_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    let pct = (50..=99u32).rev().find(|&p| n * (100 - p as usize) / 100 >= TAIL_SAMPLES)?;
    Some((pct, quantile_sorted(&sorted(values), f64::from(pct) / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p95_is_refused_below_200_samples() {
        let few: Vec<f64> = (0..199).map(f64::from).collect();
        let enough: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(p95(&few), None);
        let v = p95(&enough).expect("200 samples support p95");
        assert!(enough.iter().filter(|&&x| x > v).count() >= TAIL_SAMPLES);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        let of = |n: usize| {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            highest_supported_percentile(&v).map(|(p, _)| p)
        };
        assert_eq!(of(19), None);
        assert_eq!(of(20), Some(50));
        assert_eq!(of(100), Some(90));
        assert_eq!(of(200), Some(95));
        assert_eq!(of(1000), Some(99));
        for n in [20usize, 57, 100, 200, 999] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (_, at) = highest_supported_percentile(&v).expect("supported");
            assert!(v.iter().filter(|&&x| x > at).count() >= TAIL_SAMPLES, "n={n}");
        }
    }
}
