//! Two-proportion pooled z-test.
//!
//! The paper compares, for every bot, a compliance *proportion* measured
//! under an experimental robots.txt against the proportion measured under
//! the baseline file, and asks whether the shift is statistically
//! significant (§4.2, Table 10, Figures 9/11). The test used is the classic
//! pooled two-proportion z-test:
//!
//! ```text
//!         p1 - p2
//! z = ----------------- ,  p̂ = (x1 + x2) / (n1 + n2)
//!     √(p̂(1-p̂)(1/n1+1/n2))
//! ```
//!
//! with a two-sided p-value `2·(1 - Φ(|z|))`. The paper reports `N/A` when a
//! bot produced no observations under one of the conditions; we model that
//! with [`Option`].

use crate::normal::normal_sf;

/// Result of a two-proportion z-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZTestResult {
    /// Sample proportion under condition 1 (the experiment).
    pub p1: f64,
    /// Sample proportion under condition 2 (the baseline).
    pub p2: f64,
    /// The z statistic. Positive means condition 1 has the higher
    /// proportion (compliance increased under the experiment).
    pub z: f64,
    /// Two-sided p-value, `2 · P(Z > |z|)`.
    pub p_value: f64,
    /// Number of successes / trials in condition 1.
    pub x1: u64,
    /// Trials in condition 1.
    pub n1: u64,
    /// Number of successes / trials in condition 2.
    pub x2: u64,
    /// Trials in condition 2.
    pub n2: u64,
}

impl ZTestResult {
    /// Whether the two-sided p-value clears the significance level `alpha`
    /// (the paper uses `p ≤ 0.05`, marked by red dotted lines in Figs 9/11).
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value <= alpha
    }

    /// The difference in proportions `p1 - p2` (the x-axis shift drawn in
    /// the paper's Figure 9).
    pub fn effect(&self) -> f64 {
        self.p1 - self.p2
    }
}

/// Pooled two-proportion z-test of `x1/n1` against `x2/n2`.
///
/// Returns `None` when either sample is empty (`n1 == 0 || n2 == 0`) or when
/// the pooled variance is zero (both proportions 0 or both 1), in which case
/// no shift can be detected — these are exactly the paper's `N/A` rows in
/// Table 10.
///
/// # Panics
///
/// Panics if `x1 > n1` or `x2 > n2`; a success count larger than the trial
/// count is a logic error in the caller, not a data condition.
///
/// ```
/// use botscope_stats::ztest::two_proportion_z_test;
/// let t = two_proportion_z_test(80, 100, 40, 100).unwrap();
/// assert!(t.z > 5.0);
/// assert!(t.p_value < 1e-6);
/// assert!(two_proportion_z_test(0, 0, 5, 10).is_none());
/// assert!(two_proportion_z_test(10, 10, 10, 10).is_none()); // zero variance
/// ```
pub fn two_proportion_z_test(x1: u64, n1: u64, x2: u64, n2: u64) -> Option<ZTestResult> {
    assert!(x1 <= n1, "x1={x1} exceeds n1={n1}");
    assert!(x2 <= n2, "x2={x2} exceeds n2={n2}");
    if n1 == 0 || n2 == 0 {
        return None;
    }
    let p1 = x1 as f64 / n1 as f64;
    let p2 = x2 as f64 / n2 as f64;
    let pooled = (x1 + x2) as f64 / (n1 + n2) as f64;
    let var = pooled * (1.0 - pooled) * (1.0 / n1 as f64 + 1.0 / n2 as f64);
    if var <= 0.0 {
        return None;
    }
    let z = (p1 - p2) / var.sqrt();
    let p_value = (2.0 * normal_sf(z.abs())).min(1.0);
    Some(ZTestResult { p1, p2, z, p_value, x1, n1, x2, n2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_example() {
        // Standard worked example: 120/200 vs 90/200.
        // p1=.6, p2=.45, pooled=.525, se=√(.525·.475·(1/200+1/200))≈.049938,
        // z = .15/.049938 ≈ 3.00376.
        let t = two_proportion_z_test(120, 200, 90, 200).unwrap();
        assert!((t.z - 3.00376).abs() < 1e-4, "z={}", t.z);
        assert!((t.p_value - 0.00266).abs() < 2e-4, "p={}", t.p_value);
        assert!(t.significant_at(0.05));
        assert!(!t.significant_at(0.001));
    }

    #[test]
    fn sign_convention() {
        let up = two_proportion_z_test(90, 100, 50, 100).unwrap();
        assert!(up.z > 0.0);
        assert!(up.effect() > 0.0);
        let down = two_proportion_z_test(50, 100, 90, 100).unwrap();
        assert!(down.z < 0.0);
        assert!(down.effect() < 0.0);
        assert!((up.z + down.z).abs() < 1e-12, "antisymmetric");
    }

    #[test]
    fn equal_proportions_give_zero_z() {
        let t = two_proportion_z_test(30, 100, 60, 200).unwrap();
        assert!(t.z.abs() < 1e-12);
        assert!((t.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn na_cases() {
        assert!(two_proportion_z_test(0, 0, 0, 0).is_none());
        assert!(two_proportion_z_test(0, 0, 3, 10).is_none());
        assert!(two_proportion_z_test(3, 10, 0, 0).is_none());
        // Degenerate pooled variance: all successes or all failures.
        assert!(two_proportion_z_test(5, 5, 7, 7).is_none());
        assert!(two_proportion_z_test(0, 5, 0, 7).is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn panics_on_impossible_counts() {
        let _ = two_proportion_z_test(11, 10, 0, 10);
    }

    #[test]
    fn large_z_underflows_to_zero_pvalue() {
        // Mirrors the paper's `0.00e+00` p-values for e.g. GPTBot.
        let t = two_proportion_z_test(100_000, 100_000 + 1, 1, 100_000).unwrap();
        assert!(t.z > 30.0);
        assert_eq!(t.p_value, 0.0);
    }

    #[test]
    fn more_data_shrinks_p() {
        let small = two_proportion_z_test(12, 20, 8, 20).unwrap();
        let big = two_proportion_z_test(1200, 2000, 800, 2000).unwrap();
        assert!(big.p_value < small.p_value);
    }

    #[test]
    fn counts_are_echoed() {
        let t = two_proportion_z_test(3, 9, 4, 11).unwrap();
        assert_eq!((t.x1, t.n1, t.x2, t.n2), (3, 9, 4, 11));
        assert!((t.p1 - 3.0 / 9.0).abs() < 1e-15);
        assert!((t.p2 - 4.0 / 11.0).abs() < 1e-15);
    }
}
