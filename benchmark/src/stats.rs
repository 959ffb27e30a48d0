//! Order statistics for the benchmark's metrics: medians, nearest-rank
//! percentiles, and the rule that picks which percentile a sample can
//! support.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sort ascending (total order; the benchmark never produces NaN).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank quantile of an ascending slice: the smallest element
/// with at least `q` of the sample at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending slice (mean of the two middle elements when
/// the count is even).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of an unsorted sample.
pub fn median(mut v: Vec<f64>) -> f64 {
    sort(&mut v);
    median_sorted(&v)
}

/// The quantile actually reported under a metric that asks for `want`:
/// the highest quantile not above `want` that still leaves
/// [`MIN_BEYOND`] samples beyond it, and never below the median. A
/// 16-repetition workload therefore reports its median under every
/// `op_ms_p*` name, while 240 000 open-loop requests support p99 with
/// 2 400 samples to spare.
pub fn supported_quantile(n: usize, want: f64) -> f64 {
    let cap = n.saturating_sub(MIN_BEYOND) as f64 / n.max(1) as f64;
    want.min(cap).max(0.5)
}

/// `want`-th percentile of an ascending slice, lowered to what the
/// sample supports (see [`supported_quantile`]).
pub fn supported_percentile(sorted: &[f64], want: f64) -> f64 {
    let q = supported_quantile(sorted.len(), want);
    if q <= 0.5 {
        median_sorted(sorted)
    } else {
        quantile_sorted(sorted, q)
    }
}

/// Minimum, median and maximum of a sample — the band every ledger row
/// is filed with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Band {
    /// Smallest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Largest sample.
    pub max: f64,
}

/// Band of an unsorted sample.
pub fn band(mut v: Vec<f64>) -> Band {
    sort(&mut v);
    Band {
        min: v[0],
        median: median_sorted(&v),
        max: v[v.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.9), 90.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn supported_quantile_leaves_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, so it stands.
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        // 999 samples: p99 would leave 9; the cap (989/999) applies.
        let q = supported_quantile(999, 0.99);
        assert!(q < 0.99);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let p = supported_percentile(&v, 0.99);
        assert_eq!(v.iter().filter(|x| **x > p).count(), MIN_BEYOND);
        // 80 repetitions: p90 drops to p87.5, p99 to the same.
        assert_eq!(supported_quantile(80, 0.9), 0.875);
        assert_eq!(supported_quantile(80, 0.99), 0.875);
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        // 16 repetitions cannot support any tail percentile.
        assert_eq!(supported_quantile(16, 0.99), 0.5);
        assert_eq!(supported_quantile(1, 0.9), 0.5);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(supported_percentile(&v, 0.99), 2.5);
    }

    #[test]
    fn band_orders_its_three_numbers() {
        let b = band(vec![5.0, 1.0, 9.0, 3.0, 4.0]);
        assert_eq!(
            b,
            Band {
                min: 1.0,
                median: 4.0,
                max: 9.0
            }
        );
    }
}
