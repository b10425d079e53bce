//! # botscope-stats
//!
//! Statistical primitives used by the botscope compliance-measurement
//! pipeline. This crate is a dependency-free substrate implementing exactly
//! the statistics the IMC '25 study *"Scrapers Selectively Respect
//! robots.txt Directives"* relies on:
//!
//! * the **two-proportion pooled z-test** used for every before/after
//!   compliance comparison (paper §4.2, Table 10),
//! * the **normal distribution** functions (erf / CDF / quantile) backing
//!   p-value computation,
//! * **weighted averages** used for the category-level compliance table
//!   (paper Table 5),
//! * an **empirical CDF** over timestamped byte counts (paper Figure 3),
//! * **time-window coverage** analysis for robots.txt re-check frequency
//!   (paper §5.1, Figure 10),
//! * percentiles (the adaptation analysis's median lag).
//!
//! Everything here is deterministic and allocation-light.
//!
//! ## Example
//!
//! ```
//! use botscope_stats::ztest::two_proportion_z_test;
//!
//! // 90 of 100 accesses complied under the experiment, 60 of 100 under the
//! // baseline: is the shift significant?
//! let t = two_proportion_z_test(90, 100, 60, 100).unwrap();
//! assert!(t.z > 0.0);
//! assert!(t.p_value < 0.05);
//! assert!(t.significant_at(0.05));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod describe;
pub mod ecdf;
pub mod normal;
pub mod window;
pub mod ztest;

pub use ci::{wilson, ProportionCi};
pub use describe::{percentile, WeightedMeanAccumulator};
pub use ecdf::TimeSeriesCdf;
pub use normal::{erf, erfc, normal_cdf, normal_quantile};
pub use window::{window_coverage, WindowCoverage};
pub use ztest::{two_proportion_z_test, ZTestResult};
