//! Order statistics for host-time samples.

/// Nearest-rank percentile `q` (in `0..=1`) of ascending `sorted`.
///
/// Returns `None` unless at least ten samples lie beyond the reported
/// one: a tail percentile read off fewer samples than that is mostly
/// the noise of its few largest values.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| sorted[rank - 1])
}

/// Half-width, in quantile, of the band [`band_percentile`] averages.
const BAND: f64 = 0.05;

/// Percentile `q` (in `BAND..=1 - BAND`) of ascending `sorted`, smoothed:
/// the mean of the samples ranked within [`BAND`] of `q` on either side.
///
/// The ops of a pool form one cluster per program, so a lone order
/// statistic near a gap between clusters jumps from run to run with which
/// program's ops land on its rank; the band's mean moves smoothly.
/// `None` under [`percentile`]'s rule: ten samples must lie beyond rank
/// `q`.
pub fn band_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    percentile(sorted, q)?;
    let n = sorted.len();
    // Less a hair, so that `q ± BAND` rounding up (0.45 × 100 is
    // 45.000…01) does not skip a rank.
    let rank = |q: f64| ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    let band = &sorted[rank(q - BAND) - 1..rank(q + BAND)];
    Some(band.iter().sum::<f64>() / band.len() as f64)
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        // The median needs only 20 samples for ten to lie beyond it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn band_percentile_averages_the_ranks_around_q() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ranks 85..=95 and 45..=55.
        assert_eq!(band_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(band_percentile(&hundred, 0.5), Some(50.0));
        // Two clusters of ops with the 90th-percentile rank on the lower
        // one's edge: the band blends them instead of picking one.
        let mut two: Vec<f64> = vec![1.0; 89];
        two.extend([2.0; 11]);
        let p = band_percentile(&two, 0.9).unwrap();
        assert!(p > 1.0 && p < 2.0, "{p}");
        assert_eq!(band_percentile(&hundred[..99], 0.9), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
