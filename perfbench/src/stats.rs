//! Order statistics over measured samples.

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `[0, 100]`); 0 for an empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let rank = ((p / 100.0 * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The tail percentile to report for `n` samples: `want` when at least
/// ten samples lie beyond it, otherwise the highest percentile that
/// still leaves ten beyond (never below the median).
pub fn tail_percentile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return want;
    }
    let highest = 100.0 * (1.0 - 10.0 / n as f64);
    want.min(highest).max(50.0)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(tail_percentile(1000, 99.0), 99.0);
        assert_eq!(tail_percentile(200, 99.0), 95.0);
        assert_eq!(tail_percentile(5, 99.0), 50.0);
    }
}
