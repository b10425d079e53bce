//! Descriptive statistics: means, weighted means, variance, percentiles.
//!
//! The study's Table 5 aggregates per-bot compliance ratios into category
//! scores with an *access-weighted* average ("we weight the average by
//! number of accesses from a particular bot"); [`weighted_mean`] and
//! [`WeightedMeanAccumulator`] implement that exact computation.

/// Arithmetic mean of a slice. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance. Returns `None` for an empty slice.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation. Returns `None` for an empty slice.
pub fn stddev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Weighted mean of `(value, weight)` pairs.
///
/// Returns `None` when the total weight is zero (including the empty case).
/// Negative weights are a caller logic error and panic.
///
/// ```
/// use botscope_stats::describe::weighted_mean;
/// // Two bots: one complies 100% but was seen 10 times, one complies 0%
/// // and was seen 990 times. The category score is dominated by the
/// // common bot, exactly as in the paper's Table 5.
/// let m = weighted_mean(&[(1.0, 10.0), (0.0, 990.0)]).unwrap();
/// assert!((m - 0.01).abs() < 1e-12);
/// ```
pub fn weighted_mean(pairs: &[(f64, f64)]) -> Option<f64> {
    let mut acc = WeightedMeanAccumulator::new();
    for &(v, w) in pairs {
        acc.add(v, w);
    }
    acc.finish()
}

/// Streaming weighted-mean accumulator.
///
/// Useful when per-bot compliance ratios are produced incrementally by the
/// pipeline rather than collected up front.
#[derive(Debug, Default, Clone, Copy)]
pub struct WeightedMeanAccumulator {
    sum: f64,
    weight: f64,
}

impl WeightedMeanAccumulator {
    /// New, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation with the given weight.
    ///
    /// # Panics
    /// Panics if `weight` is negative or not finite.
    pub fn add(&mut self, value: f64, weight: f64) {
        assert!(weight >= 0.0 && weight.is_finite(), "invalid weight {weight}");
        self.sum += value * weight;
        self.weight += weight;
    }

    /// The weighted mean, or `None` if the total weight is zero.
    pub fn finish(&self) -> Option<f64> {
        if self.weight > 0.0 {
            Some(self.sum / self.weight)
        } else {
            None
        }
    }
}

/// Percentile via linear interpolation between closest ranks
/// (the "exclusive" definition used by most spreadsheet software).
///
/// `q` must be in `[0, 1]`. Returns `None` for an empty slice. The input
/// does not need to be sorted.
///
/// ```
/// use botscope_stats::describe::percentile;
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&xs, 0.0), Some(1.0));
/// assert_eq!(percentile(&xs, 1.0), Some(4.0));
/// assert_eq!(percentile(&xs, 0.5), Some(2.5));
/// ```
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
    }

    #[test]
    fn variance_and_stddev() {
        assert_eq!(variance(&[]), None);
        assert_eq!(variance(&[5.0]), Some(0.0));
        let v = variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((v - 4.0).abs() < 1e-12);
        assert!((stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_reduces_to_mean_with_equal_weights() {
        let xs = [0.3, 0.8, 0.5, 0.1];
        let pairs: Vec<(f64, f64)> = xs.iter().map(|&x| (x, 7.0)).collect();
        assert!((weighted_mean(&pairs).unwrap() - mean(&xs).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_zero_weight_is_none() {
        assert_eq!(weighted_mean(&[]), None);
        assert_eq!(weighted_mean(&[(0.5, 0.0), (0.9, 0.0)]), None);
    }

    #[test]
    fn zero_weight_entries_are_ignored() {
        let m = weighted_mean(&[(1000.0, 0.0), (0.25, 4.0)]).unwrap();
        assert!((m - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn negative_weight_panics() {
        let mut acc = WeightedMeanAccumulator::new();
        acc.add(0.5, -1.0);
    }

    #[test]
    fn accumulator_matches_batch() {
        let pairs = [(0.1, 3.0), (0.9, 1.0), (0.4, 6.0)];
        let mut acc = WeightedMeanAccumulator::new();
        for &(v, w) in &pairs {
            acc.add(v, w);
        }
        assert_eq!(acc.finish(), weighted_mean(&pairs));
    }

    #[test]
    fn percentile_interpolation() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.25), Some(17.5));
        assert_eq!(percentile(&xs, 0.75), Some(32.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&xs, 0.5), Some(25.0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn percentile_rejects_bad_quantile() {
        let _ = percentile(&[1.0], 1.5);
    }
}
