//! Order statistics over timing samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least a fraction `q` of the data at or
/// below it. Nearest-rank always returns a value that was measured — no
/// interpolated times that never happened.
///
/// # Panics
/// Panics on an empty slice, a NaN sample or `q` outside `0.0..=1.0`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank p50; the lower middle of an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p50_and_p90_on_known_vectors() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.5), 5.0);
        assert_eq!(percentile(&ten, 0.9), 9.0);
        assert_eq!(percentile(&ten, 1.0), 10.0);
        assert_eq!(percentile(&ten, 0.0), 1.0);

        // Order of arrival does not matter; duplicates and outliers do.
        let shuffled = [7.0, 1.0, 100.0, 3.0, 3.0];
        assert_eq!(median(&shuffled), 3.0);
        assert_eq!(percentile(&shuffled, 0.9), 100.0);

        assert_eq!(median(&[42.0]), 42.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_a_bug_not_a_zero() {
        median(&[]);
    }
}
