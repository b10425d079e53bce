//! Wilson score confidence intervals for proportions.
//!
//! The paper reports point compliance ratios; several of its per-bot cells
//! rest on a handful of observations. The Wilson interval quantifies that
//! uncertainty and behaves well at the extremes (ratio 0 or 1, small n),
//! unlike the naive normal interval. Used by the extension reports.

use crate::normal::normal_quantile;

/// A confidence interval for a proportion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionCi {
    /// Point estimate `x / n`.
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level used (e.g. 0.95).
    pub confidence: f64,
}

impl ProportionCi {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether a hypothesised proportion is inside the interval.
    pub fn contains(&self, p: f64) -> bool {
        (self.lo..=self.hi).contains(&p)
    }
}

/// Wilson score interval for `x` successes in `n` trials at the given
/// confidence level. Returns `None` when `n == 0`.
///
/// # Panics
/// Panics if `x > n` or `confidence` is outside `(0, 1)`.
///
/// ```
/// use botscope_stats::ci::wilson;
/// let ci = wilson(8, 10, 0.95).unwrap();
/// assert!((ci.estimate - 0.8).abs() < 1e-12);
/// assert!(ci.lo > 0.4 && ci.hi < 1.0);
/// // Degenerate cases stay inside [0, 1].
/// let zero = wilson(0, 5, 0.95).unwrap();
/// assert_eq!(zero.lo, 0.0);
/// assert!(zero.hi > 0.0 && zero.hi < 1.0);
/// ```
pub fn wilson(x: u64, n: u64, confidence: f64) -> Option<ProportionCi> {
    assert!(x <= n, "x={x} exceeds n={n}");
    assert!(confidence > 0.0 && confidence < 1.0, "bad confidence {confidence}");
    if n == 0 {
        return None;
    }
    let z = normal_quantile(0.5 + confidence / 2.0);
    let nf = n as f64;
    let p = x as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p + z2 / (2.0 * nf)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt();
    // Exact bounds at the degenerate corners: with zero successes the
    // lower bound is 0 by definition (floating-point residue otherwise
    // leaves ~1e-17), and symmetrically for all-successes.
    let lo = if x == 0 { 0.0 } else { (center - half).max(0.0) };
    let hi = if x == n { 1.0 } else { (center + half).min(1.0) };
    Some(ProportionCi { estimate: p, lo, hi, confidence })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_value() {
        // Classic example: 10/20 at 95% → ≈ (0.299, 0.701).
        let ci = wilson(10, 20, 0.95).unwrap();
        assert!((ci.lo - 0.299).abs() < 5e-3, "lo={}", ci.lo);
        assert!((ci.hi - 0.701).abs() < 5e-3, "hi={}", ci.hi);
        assert!(ci.contains(0.5));
        assert!(!ci.contains(0.9));
    }

    #[test]
    fn zero_trials_is_none() {
        assert!(wilson(0, 0, 0.95).is_none());
    }

    #[test]
    fn extremes_stay_bounded() {
        let all = wilson(10, 10, 0.95).unwrap();
        assert_eq!(all.hi, 1.0);
        assert!(all.lo > 0.6 && all.lo < 1.0);
        let none = wilson(0, 10, 0.95).unwrap();
        assert_eq!(none.lo, 0.0);
        assert!(none.hi < 0.35);
    }

    #[test]
    fn more_data_narrows() {
        let small = wilson(5, 10, 0.95).unwrap();
        let large = wilson(500, 1000, 0.95).unwrap();
        assert!(large.width() < small.width());
    }

    #[test]
    fn higher_confidence_widens() {
        let c90 = wilson(5, 10, 0.90).unwrap();
        let c99 = wilson(5, 10, 0.99).unwrap();
        assert!(c99.width() > c90.width());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn impossible_counts_panic() {
        let _ = wilson(11, 10, 0.95);
    }
}
