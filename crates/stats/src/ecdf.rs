//! Empirical cumulative distribution over time.
//!
//! [`TimeSeriesCdf`] is the cumulative *share over time* plot in the
//! paper's Figure 3: for each bot category, the fraction of its total
//! bytes that had been downloaded by each date. This is a CDF over the
//! time axis with byte weights.

/// Cumulative share of a weighted quantity over time (paper Figure 3).
///
/// Observations are `(timestamp, weight)` pairs — in the study, the
/// timestamp of a scraping session and the bytes it downloaded. The series
/// produced is the running fraction of the eventual total, evaluated at
/// fixed time buckets (e.g. one per day).
#[derive(Debug, Clone, Default)]
pub struct TimeSeriesCdf {
    /// (timestamp, weight), unsorted until evaluation.
    points: Vec<(u64, f64)>,
}

impl TimeSeriesCdf {
    /// New empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an observation with `weight` at `time`.
    ///
    /// # Panics
    /// Panics on negative or non-finite weights.
    pub fn add(&mut self, time: u64, weight: f64) {
        assert!(weight >= 0.0 && weight.is_finite(), "invalid weight {weight}");
        self.points.push((time, weight));
    }

    /// Total accumulated weight.
    pub fn total(&self) -> f64 {
        self.points.iter().map(|&(_, w)| w).sum()
    }

    /// Number of observations added.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether any observation has been added.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Evaluate the cumulative fraction at each bucket boundary.
    ///
    /// `bucket_edges` must be ascending timestamps; the result has the same
    /// length, where entry `i` is the fraction of total weight observed at
    /// or before `bucket_edges[i]`. An empty series yields all zeros.
    ///
    /// ```
    /// use botscope_stats::ecdf::TimeSeriesCdf;
    /// let mut s = TimeSeriesCdf::new();
    /// s.add(10, 1.0);
    /// s.add(20, 3.0);
    /// let curve = s.curve(&[5, 10, 15, 20, 25]);
    /// assert_eq!(curve, vec![0.0, 0.25, 0.25, 1.0, 1.0]);
    /// ```
    pub fn curve(&self, bucket_edges: &[u64]) -> Vec<f64> {
        assert!(bucket_edges.windows(2).all(|w| w[0] <= w[1]), "bucket edges must be ascending");
        let total = self.total();
        if total <= 0.0 {
            return vec![0.0; bucket_edges.len()];
        }
        let mut sorted = self.points.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut out = Vec::with_capacity(bucket_edges.len());
        let mut acc = 0.0;
        let mut i = 0;
        for &edge in bucket_edges {
            while i < sorted.len() && sorted[i].0 <= edge {
                acc += sorted[i].1;
                i += 1;
            }
            out.push(acc / total);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeseries_cdf_basic() {
        let mut s = TimeSeriesCdf::new();
        s.add(100, 2.0);
        s.add(50, 2.0);
        s.add(150, 4.0);
        assert_eq!(s.total(), 8.0);
        let curve = s.curve(&[0, 50, 100, 150, 200]);
        assert_eq!(curve, vec![0.0, 0.25, 0.5, 1.0, 1.0]);
    }

    #[test]
    fn timeseries_empty_is_flat_zero() {
        let s = TimeSeriesCdf::new();
        assert_eq!(s.curve(&[1, 2, 3]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn timeseries_curve_reaches_one() {
        let mut s = TimeSeriesCdf::new();
        for t in 0..20 {
            s.add(t, 1.5);
        }
        let curve = s.curve(&[19]);
        assert!((curve[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn timeseries_rejects_unsorted_edges() {
        let mut s = TimeSeriesCdf::new();
        s.add(1, 1.0);
        let _ = s.curve(&[10, 5]);
    }
}
