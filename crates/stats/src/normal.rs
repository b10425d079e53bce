//! Normal-distribution functions: error function, CDF and quantile.
//!
//! The study's statistical machinery (paper §4.2) reduces every compliance
//! comparison to a z-score, which is converted to a p-value through the
//! standard normal CDF. We implement the error function with the
//! Abramowitz & Stegun 7.1.26 rational approximation (absolute error
//! ≤ 1.5e-7), which is far below the precision any of the paper's reported
//! p-values require, and a quantile function using the Acklam/Wichura-style
//! rational approximation refined with one Halley step.

/// The error function `erf(x)`.
///
/// Uses the Abramowitz & Stegun 7.1.26 approximation; the absolute error is
/// below `1.5e-7` over the whole real line. `erf` is odd: `erf(-x) ==
/// -erf(x)`.
///
/// ```
/// use botscope_stats::normal::erf;
/// assert!(erf(0.0).abs() < 1e-7);
/// assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
/// assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
/// ```
pub fn erf(x: f64) -> f64 {
    // A&S 7.1.26 constants.
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;

    if x.is_nan() {
        return f64::NAN;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();

    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// For large positive `x`, computing `1 - erf(x)` directly loses all
/// precision; we instead evaluate the exponential tail expression, which
/// keeps p-values meaningful out to `z ≈ 26` (beyond which they underflow to
/// zero, matching the paper's `0.00e+00` entries in Table 10).
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    // Same A&S kernel, but keeping the tail factored so it underflows
    // gracefully instead of catastrophically cancelling.
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;

    let t = 1.0 / (1.0 + P * x);
    (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp()
}

/// Standard normal cumulative distribution function `Φ(x)`.
///
/// ```
/// use botscope_stats::normal::normal_cdf;
/// assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
/// assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
/// ```
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Upper-tail probability `P(Z > x) = 1 - Φ(x)`, computed without
/// cancellation for large `x`.
pub fn normal_sf(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Standard normal quantile function (inverse CDF).
///
/// Implemented with Peter Acklam's rational approximation, refined with a
/// single Halley iteration; relative error is below `1e-9` for
/// `p ∈ (1e-300, 1 - 1e-16)`.
///
/// Returns `f64::NEG_INFINITY` for `p <= 0` and `f64::INFINITY` for
/// `p >= 1`.
///
/// ```
/// use botscope_stats::normal::{normal_cdf, normal_quantile};
/// let z = normal_quantile(0.975);
/// assert!((z - 1.959964).abs() < 1e-5);
/// assert!((normal_cdf(z) - 0.975).abs() < 1e-9);
/// ```
pub fn normal_quantile(p: f64) -> f64 {
    if p.is_nan() {
        return f64::NAN;
    }
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the high-accuracy CDF.
    let e = normal_cdf(x) - p;
    let u = e * std::f64::consts::TAU.sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (1.5, 0.9661051465),
            (2.0, 0.9953222650),
            (3.0, 0.9999779095),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 2e-7, "erf({x}) = {} want {want}", erf(x));
            assert!((erf(-x) + want).abs() < 2e-7, "erf(-{x})");
        }
    }

    #[test]
    fn erfc_is_complement_in_moderate_range() {
        for i in -40..=40 {
            let x = i as f64 / 10.0;
            assert!((erfc(x) - (1.0 - erf(x))).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn erfc_tail_does_not_cancel() {
        // 1 - erf(6.0) would be 0 in f64 via direct subtraction with our
        // approximation; erfc keeps a nonzero tail.
        let t = erfc(6.0);
        assert!(t > 0.0);
        assert!(t < 1e-15);
    }

    #[test]
    fn cdf_symmetry() {
        for i in 0..50 {
            let x = i as f64 / 7.0;
            let s = normal_cdf(x) + normal_cdf(-x);
            assert!((s - 1.0).abs() < 1e-9, "x={x} sum={s}");
        }
    }

    #[test]
    fn cdf_known_values() {
        assert!((normal_cdf(1.644854) - 0.95).abs() < 1e-4);
        assert!((normal_cdf(2.326348) - 0.99).abs() < 1e-4);
        assert!((normal_cdf(-1.959964) - 0.025).abs() < 1e-4);
    }

    #[test]
    fn quantile_roundtrip() {
        for i in 1..200 {
            let p = i as f64 / 200.0;
            let z = normal_quantile(p);
            assert!((normal_cdf(z) - p).abs() < 1e-7, "p={p} z={z}");
        }
    }

    #[test]
    fn quantile_extremes() {
        assert_eq!(normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_quantile(1.0), f64::INFINITY);
        assert!(normal_quantile(1e-12) < -6.0);
        assert!(normal_quantile(1.0 - 1e-12) > 6.0);
    }

    #[test]
    fn sf_matches_one_minus_cdf() {
        // Tolerance is bounded by the A&S kernel's own absolute error
        // (1.5e-7), not by floating-point rounding.
        for i in -30..=30 {
            let x = i as f64 / 10.0;
            assert!((normal_sf(x) - (1.0 - normal_cdf(x))).abs() < 1.5e-7);
        }
    }

    #[test]
    fn nan_propagates() {
        assert!(erf(f64::NAN).is_nan());
        assert!(erfc(f64::NAN).is_nan());
        assert!(normal_quantile(f64::NAN).is_nan());
    }
}
