//! # botscope-core
//!
//! The paper's primary contribution, as a library: a pipeline that
//! measures web-scraper compliance with `robots.txt` directives from
//! anonymized access logs, with the exact metrics, statistics and
//! confound analyses of *"Scrapers Selectively Respect robots.txt
//! Directives"* (IMC '25).
//!
//! The analysis reads the study's schedule, policy corpus and belief
//! timelines from `botscope-study`; it does not depend on the traffic
//! generator (`botscope-simnet` is a dev-dependency, for tests and
//! examples), so it scores any log in the paper's schema, generated or
//! real.
//!
//! The pipeline stages:
//!
//! 1. [`pipeline`] — standardize raw user agents to canonical bot names
//!    and categories (via `botscope-useragent`, one verdict per agent
//!    symbol) and tally each bot of a [`botscope_weblog::LogTable`] in
//!    one pass ([`pipeline::tally_bots`]);
//! 2. [`spoofdetect`] — the §5.2 heuristic: flag a bot's minority-network
//!    traffic when ≥90 % of it comes from one ASN; spoof-flagged records
//!    are excluded from the main compliance analysis and reported
//!    separately (Tables 8/9, Figure 11);
//! 3. [`metrics`] — the three §4.2 compliance metrics: crawl-delay ratio
//!    over τ-tuple-stratified inter-access deltas, endpoint-access ratio,
//!    and disallow ratio;
//! 4. [`analyze`] — the full experiment: slice the four deployment phases,
//!    compute baseline/experiment compliance per bot, run the paired
//!    two-proportion z-tests (Table 10), aggregate categories with
//!    access-weighted averages (Table 5);
//! 5. [`recheck`] — the §5.1 robots.txt re-check-frequency analysis
//!    (Table 7, Figure 10) in one engine,
//!    [`recheck::RecheckAccumulator`], fed time-ordered rows either
//!    streamed or from a table ([`recheck::profiles_from_table`], the
//!    monitored digest-window matrix [`recheck::phase_check_matrix`]);
//! 6. [`attribution`] — ground-truth-aware attribution over the belief
//!    layer: a per-bot split of served violations into deliberate /
//!    stale-cache / fetch-artifact, scored in one sweep that drops the
//!    excused rows to turn every compliance metric into its
//!    *believed*-policy basis;
//! 7. [`report`] — render every table and figure of the paper's
//!    evaluation from an analysis result.
//!
//! ```
//! use botscope_core::analyze::Experiment;
//! use botscope_simnet::scenario::phase_study_table;
//! use botscope_simnet::SimConfig;
//!
//! // Small-scale end-to-end run: generate the 8-week phase study and
//! // measure compliance back out of it.
//! let cfg = SimConfig { scale: 0.02, sites: 4, ..SimConfig::default() };
//! let out = phase_study_table(&cfg);
//! let exp = Experiment::analyze_table(&out.sim.table, &out.schedule);
//! let table5 = exp.category_table();
//! assert!(!table5.rows.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptation;
pub mod analyze;
pub mod attribution;
pub mod honeypot;
pub mod metrics;
pub mod pipeline;
pub mod promise;
pub mod recheck;
pub mod report;
pub mod spoofdetect;
pub mod stream;
pub mod tables;

pub use analyze::{Directive, Experiment};
pub use attribution::{AttributionCounts, PolicyBasis};
pub use metrics::DirectiveCounts;
pub use spoofdetect::SpoofReport;
pub use stream::StreamAnalyzer;
