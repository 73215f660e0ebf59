//! Percentiles under the tail rule, and the quartile spread used to judge
//! run-to-run noise.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile of `samples` (0 < p ≤ 1), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie strictly beyond its rank. A p99
/// therefore needs at least 1000 samples and a p90 at least 100.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND && p > 0.5 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 0.99), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&short, 0.99),
            None,
            "only 9 beyond rank 990"
        );
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.90), Some(90.0));
        assert_eq!(tail_percentile(&hundred[..99], 0.90), None);
    }

    #[test]
    fn median_is_exempt_and_order_free() {
        assert_eq!(tail_percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
