//! # botscope
//!
//! A toolkit for measuring web-scraper compliance with `robots.txt`
//! directives — a full, from-scratch reproduction of *"Scrapers
//! Selectively Respect robots.txt Directives: Evidence From a Large-Scale
//! Empirical Study"* (IMC '25).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | What it gives you |
//! |---|---|---|
//! | [`robots`] | `botscope-robotstxt` | RFC 9309 parser/matcher, crawl-delay & sitemap extensions, fetch semantics, builder |
//! | [`useragent`] | `botscope-useragent` | bot registry (~130 crawlers), UA standardization, categories |
//! | [`asn`] | `botscope-asn` | whois directory, spoofing catalog, simulated IP allocation |
//! | [`weblog`] | `botscope-weblog` | access-record schema, civil time, IP hashing, CSV codec, sessionization |
//! | [`stats`] | `botscope-stats` | two-proportion z-test, normal distribution, ECDFs, window coverage |
//! | [`study`] | `botscope-study` | the study as data: phase schedule, policy corpus, served/believed timelines, worker pool |
//! | [`simnet`] | `botscope-simnet` | deterministic synthetic traffic generator (the data substrate) |
//! | [`core`] | `botscope-core` | the compliance-measurement pipeline and report generation |
//! | [`monitor`] | `botscope-monitor` | virtual robots.txt transport + live monitoring daemon |
//! | [`obs`] | `botscope-obs` | flight-recorder telemetry: counters, spans, run manifests |
//! | [`pipelines`] | this crate | every `botscope` subcommand as a library call |
//!
//! ## Quickstart: is this bot allowed?
//!
//! ```
//! use botscope::robots::CompiledPolicy;
//!
//! let policy = CompiledPolicy::from_text("User-agent: *\nDisallow: /secure/*\nCrawl-delay: 30\n");
//! assert!(!policy.check("GPTBot", "/secure/grades").allow);
//! assert!(policy.check("GPTBot", "/courses").allow);
//! assert_eq!(policy.crawl_delay("GPTBot"), Some(30.0));
//! ```
//!
//! ## Quickstart: measure compliance from logs
//!
//! ```
//! use botscope::core::Experiment;
//! use botscope::simnet::scenario::phase_study_table;
//! use botscope::simnet::SimConfig;
//!
//! // Generate the paper's 8-week robots.txt experiment synthetically and
//! // measure scraper compliance back out of the logs.
//! let cfg = SimConfig { scale: 0.02, sites: 4, ..SimConfig::default() };
//! let out = phase_study_table(&cfg);
//! let experiment = Experiment::analyze_table(&out.sim.table, &out.schedule);
//! let table5 = experiment.category_table();
//! assert!(!table5.rows.is_empty());
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/` for
//! the binaries that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Run the README's Rust code blocks as doctests so the documented
// quickstart can never drift from the actual API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// RFC 9309 Robots Exclusion Protocol implementation.
pub mod robots {
    pub use botscope_robotstxt::*;
}

/// User-agent intelligence: registry, standardization, categories.
pub mod useragent {
    pub use botscope_useragent::*;
}

/// Autonomous-system intelligence: whois directory, spoof catalog.
pub mod asn {
    pub use botscope_asn::*;
}

/// Web-log substrate: records, time, hashing, sessions, codecs.
pub mod weblog {
    pub use botscope_weblog::*;
}

/// Statistics: z-tests, normal distribution, ECDFs, window coverage.
pub mod stats {
    pub use botscope_stats::*;
}

/// The study as data: schedule, policy corpus, timelines, worker pool.
pub mod study {
    pub use botscope_study::*;
}

/// Deterministic synthetic traffic generation.
pub mod simnet {
    pub use botscope_simnet::*;
}

/// The compliance-measurement pipeline (the paper's contribution).
pub mod core {
    pub use botscope_core::*;
}

/// Virtual-network transport and robots.txt monitoring daemon.
pub mod monitor {
    pub use botscope_monitor::*;
}

/// Flight-recorder telemetry: counters, spans, manifests, exporters.
pub mod obs {
    pub use botscope_obs::*;
}

pub mod pipelines;
