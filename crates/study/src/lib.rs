//! # botscope-study
//!
//! The IMC '25 robots.txt study as data, for every crate that generates,
//! monitors or analyzes it: which four robots.txt files were deployed
//! and when (paper §4.1), which agents the institution exempted, the
//! estate's site names, and the timelines of what each site served and
//! what each crawler believed. Nothing here generates traffic, so an
//! analysis that scores real server logs against the study's schedule
//! needs this crate and not the generator.
//!
//! * [`phases`] — the four [`PolicyVersion`]s with their robots.txt
//!   documents, the [`PhaseSchedule`] that deploys them, the paper's
//!   [`phase_study_schedule`], the exempt SEO agents and
//!   [`site_name`];
//! * [`corpus`] — the four files rendered, parsed and compiled once
//!   ([`PolicyCorpus`]);
//! * [`timeline`] — the one step function ([`Timeline`]) behind served
//!   timelines and [`BeliefTimeline`]s, the [`BelievedPolicy`] states
//!   and the per-(bot, site) [`BeliefAtlas`];
//! * [`pool`] — the workspace's one fan-out pool ([`run_indexed`]) and
//!   its worker count ([`worker_threads`]).
//!
//! ```
//! use botscope_study::{phase_study_schedule, site_name, PolicyVersion, Timeline};
//!
//! let schedule = phase_study_schedule();
//! let served = Timeline::from_schedule(&schedule, schedule.experiment_site);
//! let (start, end) = schedule.bounds();
//! assert_eq!(served.at(start.unix()), PolicyVersion::Base);
//! assert_eq!(served.at(end.unix() - 1), PolicyVersion::V3DisallowAll);
//! assert_eq!(site_name(schedule.experiment_site), "site-00.example.edu");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod phases;
pub mod pool;
pub mod timeline;

/// The RFC 9309 test oracle the policy corpus is checked against.
#[cfg(test)]
#[path = "../../robotstxt/tests/rep_oracle/mod.rs"]
mod rep_oracle;

pub use corpus::PolicyCorpus;
pub use phases::{
    is_exempt_agent, phase_study_schedule, site_name, Phase, PhaseSchedule, PolicyVersion,
    EXEMPT_AGENTS, EXPERIMENT_SITE,
};
pub use pool::{run_indexed, worker_threads, worker_threads_from};
pub use timeline::{BeliefAtlas, BeliefTimeline, BelievedPolicy, Timeline};
