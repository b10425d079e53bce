//! Descriptive statistics: weighted means and percentiles.
//!
//! The study's Table 5 aggregates per-bot compliance ratios into category
//! scores with an *access-weighted* average ("we weight the average by
//! number of accesses from a particular bot");
//! [`WeightedMeanAccumulator`] implements that exact computation.

/// Streaming weighted-mean accumulator over `(value, weight)`
/// observations.
///
/// ```
/// use botscope_stats::describe::WeightedMeanAccumulator;
/// // Two bots: one complies 100% but was seen 10 times, one complies 0%
/// // and was seen 990 times. The category score is dominated by the
/// // common bot, exactly as in the paper's Table 5.
/// let mut acc = WeightedMeanAccumulator::new();
/// acc.add(1.0, 10.0);
/// acc.add(0.0, 990.0);
/// assert!((acc.finish().unwrap() - 0.01).abs() < 1e-12);
/// ```
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

    fn weighted_mean(pairs: &[(f64, f64)]) -> Option<f64> {
        let mut acc = WeightedMeanAccumulator::new();
        for &(v, w) in pairs {
            acc.add(v, w);
        }
        acc.finish()
    }

    #[test]
    fn equal_weights_give_the_arithmetic_mean() {
        let xs = [0.3, 0.8, 0.5, 0.1];
        let pairs: Vec<(f64, f64)> = xs.iter().map(|&x| (x, 7.0)).collect();
        assert!((weighted_mean(&pairs).unwrap() - 0.425).abs() < 1e-12);
    }

    #[test]
    fn zero_total_weight_is_none() {
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
