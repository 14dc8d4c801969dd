//! Order statistics over timing samples.

/// The median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `pct`th percentile: the smallest sample with at
/// least `pct`% of the samples at or below it. Unlike an interpolated
/// median it is always a measured value.
pub fn percentile(values: &[f64], pct: u32) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = (pct.min(100) as usize * n).div_ceil(100).max(1);
    Some(sorted(values)[rank - 1])
}

/// The highest integer percentile of `values` that still has at least
/// `min_beyond` samples strictly above it, with its [`percentile`]
/// value: `(percentile, value)`. Reporting this instead of a fixed p99
/// keeps the tail honest for small samples — 32 samples support p68,
/// not p99. `None` when there are not more than `min_beyond` samples.
pub fn tail(values: &[f64], min_beyond: usize) -> Option<(u32, f64)> {
    let n = values.len();
    if n <= min_beyond {
        return None;
    }
    // Nearest rank k = ceil(p·n/100) leaves n − k samples beyond it, so
    // the largest admissible p is floor(100·(n − min_beyond)/n).
    let pct = (100 * (n - min_beyond) / n).min(99) as u32;
    Some((pct, percentile(values, pct)?))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n, rotated so the helpers cannot rely on sorted input.
        (0..n).map(|i| ((i + n / 2) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&ramp(40), 50), Some(20.0));
        assert_eq!(percentile(&ramp(31), 50), Some(16.0));
        assert_eq!(percentile(&ramp(5), 0), Some(1.0));
        assert_eq!(percentile(&ramp(5), 100), Some(5.0));
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 11..=2000 {
            let values = ramp(n);
            let (pct, value) = tail(&values, 10).expect("enough samples");
            let beyond = values.iter().filter(|&&v| v > value).count();
            assert!(beyond >= 10, "n={n}: p{pct} leaves {beyond}");
            if pct < 99 {
                // One percentile higher would leave fewer than ten.
                let rank = ((pct as usize + 1) * n).div_ceil(100);
                assert!(n - rank < 10, "n={n}: p{} would also qualify", pct + 1);
            }
        }
    }

    #[test]
    fn tail_matches_known_sample_sizes() {
        // One sweep's 32 configurations support p68: the 22nd of 32.
        assert_eq!(tail(&ramp(32), 10), Some((68, 22.0)));
        // Three toolchain passes over ten fabrics support p66.
        assert_eq!(tail(&ramp(30), 10), Some((66, 20.0)));
        assert_eq!(tail(&ramp(11), 10), Some((9, 1.0)));
        assert_eq!(tail(&ramp(10_000), 10), Some((99, 9900.0)));
        assert_eq!(tail(&ramp(10), 10), None);
    }
}
