//! # botscope-monitor
//!
//! The live-fetch layer of the reproduction: a deterministic
//! virtual-network transport plus an event-driven robots.txt monitoring
//! daemon.
//!
//! The paper's §5.1 re-check analysis and the RFC 9309 §2.3.1 fetch
//! semantics (`botscope-robotstxt::fetch`) describe what compliant
//! crawlers must do *over time* — re-fetch on a cadence, assume
//! allow-all on 4xx, disallow-all on 5xx, give up on six-hop redirect
//! chains — but the static pipeline never drives those transitions.
//! This crate does, at estate scale and without a network:
//!
//! * [`transport`] — a scripted, in-process HTTP-for-robots.txt
//!   simulator. Each site's [`transport::ServerModel`] serves the policy
//!   body live under its `simnet` phase timeline, behind scripted 3xx
//!   redirect chains, 4xx/5xx windows, flapping and outage schedules,
//!   and seeded latency/transient-failure distributions. Responses are
//!   pure functions of `(site, time, requester)`, so any execution
//!   order yields identical bytes.
//! * [`scenario`] — per-site weather scripted deterministically from
//!   the master seed (stable / outages / flapping / redirects / mixed),
//!   plus rolling four-phase policy swaps.
//! * [`daemon`] — one fetch agent per (bot, site) holding only
//!   freshness state, TTLs sampled from the observed 12 h–never
//!   spectrum, conditional requests (`ETag`/`Last-Modified` → `304`s
//!   with bytes-saved accounting), exponential backoff on unreachable
//!   hosts, and change detection digested through `robotstxt::diff`.
//!   The sharded binary-heap scheduler honours `BOTSCOPE_THREADS`. A
//!   run records either the fetch log or, for [`coupled`], every
//!   agent's believed-policy timeline. The fetch log has one ordering
//!   path: each chunk's log is sorted and k-way merged into
//!   [`botscope_weblog::sink::RowSink`]s ([`daemon::MonitorRun::stream`]),
//!   byte-identical at any worker count; [`daemon::run`] collects that
//!   merge into an interned [`botscope_weblog::LogTable`].
//! * [`coupled`] — the belief-coupled pipeline: the daemon derives
//!   per-(bot, site) beliefs at each bot's own re-check cadence, the
//!   traffic generator consults them instead of the schedule, and the
//!   output carries served ground-truth timelines so `botscope-core`
//!   can attribute violations (deliberate / stale cache / fetch
//!   artifact).
//!
//! The emitted table is schema-compatible with ordinary access logs
//! (every row is a `/robots.txt` fetch), so the §5.1 re-check profiles
//! (Figure 10) and Table 7's "checked robots.txt" columns recompute
//! directly from *monitored* rather than simulated traffic.
//!
//! ## Quickstart
//!
//! ```
//! use botscope_monitor::daemon::{run, MonitorConfig, TtlPolicy};
//! use botscope_monitor::scenario::ScenarioKind;
//!
//! let cfg = MonitorConfig {
//!     sites: 8,
//!     days: 3,
//!     bots: 2,
//!     ttl: TtlPolicy::FixedHours(12),
//!     scenario: ScenarioKind::Stable,
//!     ..MonitorConfig::default()
//! };
//! let out = run(&cfg);
//! assert!(out.table.len() as u64 == out.stats.fetches);
//! assert!(out.table.iter_records().all(|r| r.is_robots_fetch()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod coupled;
pub mod daemon;
pub mod scenario;
pub mod transport;

pub use admission::{apply_digests, prime_estate, DigestOutcome};
pub use coupled::{
    run_coupled, run_coupled_with_threads, CoupledConfig, CoupledOutput, RefreshModel,
};
pub use daemon::{
    run, run_with_threads, ChangeDigest, MonitorConfig, MonitorOutput, MonitorRun, MonitorStats,
    MonitorSummary, TtlPolicy,
};
pub use scenario::ScenarioKind;
pub use transport::{ServerModel, Validators, VirtualTransport};
