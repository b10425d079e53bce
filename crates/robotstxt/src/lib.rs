//! # botscope-robotstxt
//!
//! A complete, defensive implementation of the Robots Exclusion Protocol
//! (REP) as specified by **RFC 9309**, with the two de-facto extensions the
//! IMC '25 study exercises: the `Crawl-delay` directive and the `Sitemap`
//! directive (paper Table 1).
//!
//! The crate provides:
//!
//! * a tolerant [`parser`] that accepts arbitrary bytes and
//!   never fails (malformed lines are reported as warnings, exactly like
//!   Google's reference parser),
//! * RFC 9309 [`matching`](crate::matcher) semantics: longest-match rule
//!   precedence, allow-wins-ties, `*` wildcards and `$` end anchors,
//!   percent-encoding normalization, most-specific user-agent group
//!   selection with group merging,
//! * a [`builder`] and [`writer`] used to
//!   construct and serialize the study's four experimental policy files
//!   (paper Figures 5–8),
//! * [`fetch`] semantics: what a compliant crawler must assume
//!   when `robots.txt` returns 4xx (allow all) or 5xx (disallow all), plus a
//!   TTL cache modelling the 24-hour re-check convention (paper §5.1).
//!
//! ## Quickstart
//!
//! ```
//! use botscope_robotstxt::RobotsTxt;
//!
//! let robots = RobotsTxt::parse(
//!     "User-agent: Googlebot\n\
//!      Allow: /\n\
//!      Crawl-delay: 15\n\
//!      \n\
//!      User-agent: *\n\
//!      Allow: /allowed-data/\n\
//!      Disallow: /restricted-data/\n\
//!      Crawl-delay: 30\n\
//!      Sitemap: https://example.edu/sitemap/sitemap-0.xml\n",
//! );
//!
//! assert!(robots.is_allowed("Googlebot", "/restricted-data/x").allow);
//! assert!(!robots.is_allowed("GPTBot", "/restricted-data/x").allow);
//! assert!(robots.is_allowed("GPTBot", "/allowed-data/y").allow);
//! assert_eq!(robots.crawl_delay("GPTBot"), Some(30.0));
//! assert_eq!(robots.crawl_delay("Googlebot"), Some(15.0));
//! assert_eq!(robots.sitemaps().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod audit;
pub mod builder;
pub mod compiled;
pub mod diff;
pub mod fetch;
pub mod lexer;
pub mod matcher;
pub mod model;
pub mod parser;
pub mod pattern;
pub mod writer;

pub use analysis::{
    analyze, classify_change, divergence_hazards, rule_liveness, semantic_diff, Analysis,
    ChangeClass, DeviantModel, DiffVerdict, Finding, FindingCode, Hazard, Liveness, RuleLiveness,
    SemanticDiff, Severity,
};
pub use audit::{audit, AuditFinding};
pub use builder::RobotsTxtBuilder;
pub use compiled::{CompiledPolicy, PolicyEstate};
pub use diff::{diff, PolicyChange};
pub use fetch::{EffectivePolicy, FetchOutcome, RobotsCache};
pub use matcher::{Decision, OwnedDecision};
pub use model::{Group, RobotsTxt, Rule, RuleVerb};
pub use pattern::PathPattern;
