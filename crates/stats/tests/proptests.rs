//! Property-based tests for the statistics substrate.

use botscope_stats::describe::{percentile, WeightedMeanAccumulator};
use botscope_stats::ecdf::TimeSeriesCdf;
use botscope_stats::normal::{erf, normal_cdf, normal_quantile};
use botscope_stats::window::window_coverage;
use botscope_stats::ztest::two_proportion_z_test;
use proptest::prelude::*;

proptest! {
    #[test]
    fn erf_is_odd_and_bounded(x in -50.0f64..50.0) {
        let y = erf(x);
        prop_assert!((-1.0..=1.0).contains(&y));
        prop_assert!((erf(-x) + y).abs() < 1e-12);
    }

    #[test]
    fn erf_is_monotone(a in -8.0f64..8.0, b in -8.0f64..8.0) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(erf(lo) <= erf(hi) + 1e-12);
    }

    #[test]
    fn cdf_in_unit_interval(x in -40.0f64..40.0) {
        let p = normal_cdf(x);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn quantile_inverts_cdf(p in 0.001f64..0.999) {
        let z = normal_quantile(p);
        prop_assert!((normal_cdf(z) - p).abs() < 1e-6);
    }

    #[test]
    fn ztest_is_antisymmetric(
        x1 in 0u64..500, extra1 in 1u64..500,
        x2 in 0u64..500, extra2 in 1u64..500,
    ) {
        let n1 = x1 + extra1;
        let n2 = x2 + extra2;
        let fwd = two_proportion_z_test(x1, n1, x2, n2);
        let rev = two_proportion_z_test(x2, n2, x1, n1);
        match (fwd, rev) {
            (Some(a), Some(b)) => {
                prop_assert!((a.z + b.z).abs() < 1e-9);
                prop_assert!((a.p_value - b.p_value).abs() < 1e-9);
            }
            (None, None) => {}
            _ => prop_assert!(false, "one direction N/A, the other not"),
        }
    }

    #[test]
    fn ztest_pvalue_in_unit_interval(
        x1 in 0u64..1000, extra1 in 1u64..1000,
        x2 in 0u64..1000, extra2 in 1u64..1000,
    ) {
        if let Some(t) = two_proportion_z_test(x1, x1 + extra1, x2, x2 + extra2) {
            prop_assert!((0.0..=1.0).contains(&t.p_value));
            prop_assert!(t.z.is_finite());
        }
    }

    #[test]
    fn weighted_mean_within_range(
        pairs in prop::collection::vec((0.0f64..1.0, 0.0f64..100.0), 1..50)
    ) {
        let mut acc = WeightedMeanAccumulator::new();
        for &(v, w) in &pairs {
            acc.add(v, w);
        }
        if let Some(m) = acc.finish() {
            prop_assert!((0.0 - 1e-12..=1.0 + 1e-12).contains(&m));
        }
    }

    #[test]
    fn percentile_monotone(
        xs in prop::collection::vec(-1e3f64..1e3, 1..60),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 < q2 { (q1, q2) } else { (q2, q1) };
        let a = percentile(&xs, lo).unwrap();
        let b = percentile(&xs, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn timeseries_curve_monotone_ends_at_one(
        points in prop::collection::vec((0u64..10_000, 0.1f64..100.0), 1..60),
    ) {
        let mut s = TimeSeriesCdf::new();
        for &(t, w) in &points {
            s.add(t, w);
        }
        let edges: Vec<u64> = (0..=10).map(|i| i * 1000).collect();
        let curve = s.curve(&edges);
        for w in curve.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        prop_assert!((curve.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn window_coverage_counts_consistent(
        times in prop::collection::vec(0u64..1_000_000, 1..100),
        window in 1u64..100_000,
        horizon in 1u64..2_000_000,
    ) {
        if let Some(cov) = window_coverage(&times, window, horizon) {
            prop_assert!(cov.covered_windows <= cov.total_windows);
            prop_assert!((0.0..=1.0).contains(&cov.fraction()));
            let first = *times.iter().min().unwrap();
            if first < horizon {
                let span = horizon - first;
                prop_assert_eq!(cov.total_windows, span / window);
                if cov.total_windows > 0 {
                    // The first complete window contains `first` itself.
                    prop_assert!(cov.covered_windows >= 1);
                }
            } else {
                prop_assert_eq!(cov.total_windows, 0);
            }
        }
    }
}
