//! The belief-vs-ground-truth policy layer.
//!
//! The paper's central claim — scrapers *selectively* respect robots.txt
//! — is only meaningful once deliberate non-compliance can be separated
//! from artifacts of the fetch layer: a bot crawling on a stale cached
//! allow-all, a bot that saw a 404 and is entitled to crawl without
//! restriction, a bot halting through a 5xx window it must treat as
//! complete disallow (RFC 9309 §2.3.1). This module gives the workspace
//! one vocabulary for both sides of that comparison:
//!
//! * [`BelievedPolicy`] — what one crawler *thinks* the live policy is,
//!   including the RFC 9309 error-state policies and the
//!   never-looked-at-it state;
//! * [`BeliefTimeline`] — a stepwise per-(bot, site) timeline of
//!   believed policies, built from fetch events (the monitoring daemon
//!   exports one per agent) or from server ground truth (what a site
//!   *actually* served, weather included);
//! * [`PolicyOracle`] — the generation engine's policy source. The
//!   schedule-driven baseline ([`ScheduleOracle`]) answers with the
//!   scheduled version; the coupled mode answers from a
//!   [`BeliefAtlas`] of monitored belief timelines; [`ServedOracle`]
//!   answers from per-site ground-truth timelines (a crawler with an
//!   always-fresh cache).
//!
//! Timelines are plain `(from_unix_sec, policy)` step functions, exactly
//! like [`crate::server::SitePolicyServer`] — a belief timeline under an
//! always-healthy server with instant refresh *is* the served timeline,
//! which is the degenerate-equivalence property the coupled engine tests
//! pin.

use botscope_weblog::time::Timestamp;

use crate::phases::{PhaseSchedule, PolicyVersion};
use crate::server::PolicyCorpus;

/// What a crawler believes the live policy of a site to be (or, for
/// ground-truth timelines, what the site effectively served).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BelievedPolicy {
    /// The crawler never fetched robots.txt here. It crawls without
    /// restriction — but unlike [`BelievedPolicy::AllowAll`] this is a
    /// *choice*, not an RFC entitlement, and attribution treats
    /// violations under it as deliberate.
    Unfetched,
    /// A successfully fetched policy document (one of the four
    /// experimental versions).
    Version(PolicyVersion),
    /// Crawl without restriction: the file resolved 4xx / vanished /
    /// sat behind a redirect chain past the five-hop budget
    /// (RFC 9309 §2.3.1.3 "unavailable").
    AllowAll,
    /// Fetch nothing but robots.txt: the file resolved 5xx or the host
    /// was unreachable (RFC 9309 §2.3.1.4 "unreachable").
    DisallowAll,
}

impl BelievedPolicy {
    /// Whether `agent` may fetch `path` under this belief. `corpus`
    /// resolves [`BelievedPolicy::Version`] through its compiled
    /// automaton.
    pub fn allows(self, corpus: &PolicyCorpus, agent: &str, path: &str) -> bool {
        match self {
            BelievedPolicy::Unfetched | BelievedPolicy::AllowAll => true,
            BelievedPolicy::Version(v) => corpus.check(v, agent, path),
            // robots.txt itself stays fetchable even in disallow-all.
            BelievedPolicy::DisallowAll => path == "/robots.txt",
        }
    }

    /// Project this belief onto the generation engine's three behavioural
    /// axes by probing the policy through the corpus matcher.
    ///
    /// `agent` is the bot's canonical product token and `exempt` the
    /// engine's planted exemption flag: exempt bots read their own named
    /// group, everyone else the wildcard group. (Group choice is gated on
    /// the planted flag rather than pure matcher selection so that fleet
    /// variants like `Googlebot-Image` — not on the exemption list, but a
    /// boundary-prefix match for the exempt `googlebot` group — keep the
    /// behaviour the study assigns them.)
    pub fn lens(self, corpus: &PolicyCorpus, agent: &str, exempt: bool) -> PolicyLens {
        match self {
            BelievedPolicy::Unfetched | BelievedPolicy::AllowAll => PolicyLens::default(),
            BelievedPolicy::DisallowAll => {
                PolicyLens { disallow_all: true, endpoint_only: false, delayed: false }
            }
            BelievedPolicy::Version(v) => {
                let token = if exempt { agent } else { "*" };
                let content = corpus.check(v, token, PROBE_CONTENT);
                let pagedata = corpus.check(v, token, PROBE_PAGEDATA);
                PolicyLens {
                    disallow_all: !content && !pagedata,
                    endpoint_only: !content && pagedata,
                    delayed: corpus.delay(v, token).is_some(),
                }
            }
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            BelievedPolicy::Unfetched => "unfetched",
            BelievedPolicy::Version(v) => v.label(),
            BelievedPolicy::AllowAll => "allow-all (4xx)",
            BelievedPolicy::DisallowAll => "disallow-all (5xx)",
        }
    }
}

/// Representative content path probed by [`BelievedPolicy::lens`]: blocked
/// only by a full disallow.
pub const PROBE_CONTENT: &str = "/news/item-001";

/// Representative page-data endpoint probed by [`BelievedPolicy::lens`]:
/// carved out by the V2 endpoint-only policy's `Allow: /page-data/*`.
pub const PROBE_PAGEDATA: &str = "/page-data/item-001/page-data.json";

/// A believed policy projected onto the generation engine's behavioural
/// axes — derived through the policy matcher instead of hard-coded per
/// [`PolicyVersion`] branches, so the engine reacts to what the policy
/// *says* rather than which enum variant it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PolicyLens {
    /// The bot's whole content surface is disallowed (obedient bots fall
    /// back to robots.txt-only traffic).
    pub disallow_all: bool,
    /// Content is disallowed but the page-data endpoint is carved out
    /// (obedient bots shift to `/page-data/`).
    pub endpoint_only: bool,
    /// A crawl delay applies (obedient bots stretch inter-request gaps).
    pub delayed: bool,
}

/// Every [`PolicyLens`] one bot can see, probed once up front so the
/// per-session hot path is an array lookup instead of matcher calls.
///
/// A lens is a pure function of `(believed policy, bot)`, and the
/// believed policy ranges over only the corpus versions plus three
/// trivial states — so [`simulate_table`](crate::engine::simulate_table)-scale
/// callers precompute the four version lenses per bot and resolve each
/// session's belief against the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LensTable {
    versions: [PolicyLens; PolicyVersion::ALL.len()],
}

impl LensTable {
    /// Probe all four corpus versions for one bot.
    pub fn for_bot(corpus: &PolicyCorpus, agent: &str, exempt: bool) -> LensTable {
        LensTable {
            versions: PolicyVersion::ALL
                .map(|v| BelievedPolicy::Version(v).lens(corpus, agent, exempt)),
        }
    }

    /// The lens for `believed` — identical to
    /// [`BelievedPolicy::lens`] with the bot this table was built for.
    pub fn lens(&self, believed: BelievedPolicy) -> PolicyLens {
        match believed {
            BelievedPolicy::Unfetched | BelievedPolicy::AllowAll => PolicyLens::default(),
            BelievedPolicy::DisallowAll => {
                PolicyLens { disallow_all: true, endpoint_only: false, delayed: false }
            }
            BelievedPolicy::Version(v) => self.versions[v.index()],
        }
    }
}

/// A stepwise policy timeline: `(from_unix_sec, policy)` segments in
/// ascending time order. The first segment starts at 0, so every
/// instant maps to exactly one policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeliefTimeline {
    segments: Vec<(u64, BelievedPolicy)>,
}

impl Default for BeliefTimeline {
    fn default() -> Self {
        BeliefTimeline::new()
    }
}

impl BeliefTimeline {
    /// A timeline that starts out never-fetched.
    pub fn new() -> BeliefTimeline {
        BeliefTimeline { segments: vec![(0, BelievedPolicy::Unfetched)] }
    }

    /// A timeline holding one policy forever.
    pub fn always(policy: BelievedPolicy) -> BeliefTimeline {
        BeliefTimeline { segments: vec![(0, policy)] }
    }

    /// Record that the belief became `policy` at `at`. Consecutive
    /// identical beliefs collapse; a same-instant re-record overwrites
    /// (the later fetch wins). `at` must not go backwards.
    pub fn record(&mut self, at: u64, policy: BelievedPolicy) {
        let &(last_at, last) = self.segments.last().expect("timeline never empty");
        assert!(at >= last_at, "belief recorded out of order: {at} < {last_at}");
        if last == policy {
            return;
        }
        if at == last_at && self.segments.len() > 1 {
            let n = self.segments.len();
            self.segments[n - 1].1 = policy;
            // Overwriting may re-create a collapse with the predecessor.
            if self.segments[n - 2].1 == policy {
                self.segments.pop();
            }
            return;
        }
        if at == last_at {
            // Overwriting the initial segment.
            self.segments[0].1 = policy;
            return;
        }
        self.segments.push((at, policy));
    }

    /// The policy believed at `unix` seconds.
    pub fn at(&self, unix: u64) -> BelievedPolicy {
        let idx = self.segments.partition_point(|&(from, _)| from <= unix);
        // partition_point ≥ 1 because segment 0 starts at time 0.
        self.segments[idx.saturating_sub(1)].1
    }

    /// [`BeliefTimeline::at`] for timestamp-typed callers.
    pub fn at_time(&self, t: Timestamp) -> BelievedPolicy {
        self.at(t.unix())
    }

    /// The raw `(from_unix_sec, policy)` segments.
    pub fn segments(&self) -> &[(u64, BelievedPolicy)] {
        &self.segments
    }

    /// Number of belief *transitions* (segments minus the initial one).
    pub fn transitions(&self) -> usize {
        self.segments.len() - 1
    }
}

/// Where the generation engine looks up the policy a bot acts on.
///
/// `bot` is the fleet index (the engine's generation-unit index for
/// fleet bots); `site` is the estate index. Implementations must be
/// pure: the engine consults the oracle from many worker threads and
/// requires byte-identical output at any worker count.
pub trait PolicyOracle: Sync {
    /// The policy fleet bot `bot` believes is live on `site` at `at`.
    fn believed(&self, bot: usize, site: usize, at: Timestamp) -> BelievedPolicy;
}

/// The schedule-driven baseline: every bot magically believes exactly
/// what the schedule deploys — the pre-coupling engine behaviour.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleOracle<'a> {
    /// The deployment schedule consulted.
    pub schedule: &'a PhaseSchedule,
}

impl PolicyOracle for ScheduleOracle<'_> {
    fn believed(&self, _bot: usize, site: usize, at: Timestamp) -> BelievedPolicy {
        BelievedPolicy::Version(self.schedule.policy_at(site, at))
    }
}

/// Ground-truth-as-belief: every bot believes, at every instant, what
/// the server effectively serves (weather included) — a crawler whose
/// cache refreshes instantly. Under always-healthy servers this is
/// exactly [`ScheduleOracle`], which is the coupled engine's
/// degenerate-equivalence anchor.
#[derive(Debug, Clone)]
pub struct ServedOracle<'a> {
    /// Per-site effective served-policy timelines, estate order.
    pub sites: &'a [BeliefTimeline],
}

impl PolicyOracle for ServedOracle<'_> {
    fn believed(&self, _bot: usize, site: usize, at: Timestamp) -> BelievedPolicy {
        self.sites[site].at(at.unix())
    }
}

/// Per-(bot, site) belief timelines, bot-major — the monitoring
/// daemon's export, and the coupled engine's oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeliefAtlas {
    /// Canonical bot names, fleet order (index = the oracle's `bot`).
    pub bots: Vec<String>,
    sites: usize,
    timelines: Vec<BeliefTimeline>,
}

impl BeliefAtlas {
    /// An atlas where every (bot, site) starts never-fetched.
    pub fn new(bots: Vec<String>, sites: usize) -> BeliefAtlas {
        let timelines = vec![BeliefTimeline::new(); bots.len() * sites];
        BeliefAtlas { bots, sites, timelines }
    }

    /// Number of sites per bot.
    pub fn n_sites(&self) -> usize {
        self.sites
    }

    /// The timeline of `(bot, site)`.
    pub fn timeline(&self, bot: usize, site: usize) -> &BeliefTimeline {
        &self.timelines[bot * self.sites + site]
    }

    /// Mutable access, for builders.
    pub fn timeline_mut(&mut self, bot: usize, site: usize) -> &mut BeliefTimeline {
        &mut self.timelines[bot * self.sites + site]
    }

    /// Total belief transitions across the atlas (reporting).
    pub fn total_transitions(&self) -> usize {
        self.timelines.iter().map(BeliefTimeline::transitions).sum()
    }
}

impl PolicyOracle for BeliefAtlas {
    fn believed(&self, bot: usize, site: usize, at: Timestamp) -> BelievedPolicy {
        self.timeline(bot, site).at(at.unix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_steps_and_lookup() {
        let mut t = BeliefTimeline::new();
        assert_eq!(t.at(0), BelievedPolicy::Unfetched);
        t.record(100, BelievedPolicy::Version(PolicyVersion::Base));
        t.record(200, BelievedPolicy::DisallowAll);
        t.record(300, BelievedPolicy::Version(PolicyVersion::V3DisallowAll));
        assert_eq!(t.at(99), BelievedPolicy::Unfetched);
        assert_eq!(t.at(100), BelievedPolicy::Version(PolicyVersion::Base));
        assert_eq!(t.at(250), BelievedPolicy::DisallowAll);
        assert_eq!(t.at(1_000_000), BelievedPolicy::Version(PolicyVersion::V3DisallowAll));
        assert_eq!(t.transitions(), 3);
    }

    #[test]
    fn timeline_collapses_identical_beliefs() {
        let mut t = BeliefTimeline::new();
        t.record(10, BelievedPolicy::AllowAll);
        t.record(20, BelievedPolicy::AllowAll);
        assert_eq!(t.segments().len(), 2);
        // Same-instant overwrite: the later record wins.
        t.record(30, BelievedPolicy::DisallowAll);
        t.record(30, BelievedPolicy::Version(PolicyVersion::Base));
        assert_eq!(t.at(30), BelievedPolicy::Version(PolicyVersion::Base));
        // Overwrite back to the predecessor collapses the segment.
        let mut t = BeliefTimeline::new();
        t.record(10, BelievedPolicy::AllowAll);
        t.record(20, BelievedPolicy::DisallowAll);
        t.record(20, BelievedPolicy::AllowAll);
        assert_eq!(t.segments().len(), 2);
        assert_eq!(t.at(25), BelievedPolicy::AllowAll);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn timeline_rejects_backwards_time() {
        let mut t = BeliefTimeline::new();
        t.record(100, BelievedPolicy::AllowAll);
        t.record(50, BelievedPolicy::DisallowAll);
    }

    #[test]
    fn believed_policy_allows() {
        let corpus = PolicyCorpus::new();
        let v3 = BelievedPolicy::Version(PolicyVersion::V3DisallowAll);
        assert!(!v3.allows(&corpus, "GPTBot", "/news/item-001"));
        assert!(v3.allows(&corpus, "Googlebot", "/news/item-001"), "exempt in the served file");
        assert!(v3.allows(&corpus, "GPTBot", "/robots.txt"));
        assert!(BelievedPolicy::AllowAll.allows(&corpus, "GPTBot", "/secure/admin-0"));
        assert!(BelievedPolicy::Unfetched.allows(&corpus, "GPTBot", "/secure/admin-0"));
        assert!(!BelievedPolicy::DisallowAll.allows(&corpus, "Googlebot", "/"));
        assert!(BelievedPolicy::DisallowAll.allows(&corpus, "Googlebot", "/robots.txt"));
    }

    #[test]
    fn lens_reproduces_version_branches_for_the_fleet() {
        use crate::fleet::build_fleet;

        let beliefs = [
            BelievedPolicy::Unfetched,
            BelievedPolicy::AllowAll,
            BelievedPolicy::DisallowAll,
            BelievedPolicy::Version(PolicyVersion::Base),
            BelievedPolicy::Version(PolicyVersion::V1CrawlDelay),
            BelievedPolicy::Version(PolicyVersion::V2EndpointOnly),
            BelievedPolicy::Version(PolicyVersion::V3DisallowAll),
        ];
        let corpus = PolicyCorpus::new();
        for bot in build_fleet() {
            let agent = bot.spec.canonical;
            for believed in beliefs {
                let lens = believed.lens(&corpus, agent, bot.exempt);
                // Every probe the lens sends through the compiled automata
                // must agree with the interpreted matcher (the oracle).
                if let BelievedPolicy::Version(v) = believed {
                    let token = if bot.exempt { agent } else { "*" };
                    let doc = corpus.doc(v);
                    for probe in [PROBE_CONTENT, PROBE_PAGEDATA] {
                        assert_eq!(
                            corpus.check(v, token, probe),
                            doc.is_allowed(token, probe).allow,
                            "matchers disagree: {agent} {believed:?} {probe}"
                        );
                    }
                    assert_eq!(
                        corpus.delay(v, token),
                        doc.crawl_delay(token),
                        "matchers disagree: {agent} {believed:?}"
                    );
                }
                // The lens must reproduce the engine's historical
                // hard-coded per-variant branches exactly.
                let expect_disallow = match believed {
                    BelievedPolicy::DisallowAll => true,
                    BelievedPolicy::Version(PolicyVersion::V3DisallowAll) => !bot.exempt,
                    _ => false,
                };
                let expect_endpoint =
                    matches!(believed, BelievedPolicy::Version(PolicyVersion::V2EndpointOnly))
                        && !bot.exempt;
                let expect_delayed =
                    matches!(believed, BelievedPolicy::Version(PolicyVersion::V1CrawlDelay));
                assert_eq!(lens.disallow_all, expect_disallow, "{agent} {believed:?}");
                assert_eq!(lens.endpoint_only, expect_endpoint, "{agent} {believed:?}");
                assert_eq!(lens.delayed, expect_delayed, "{agent} {believed:?}");
            }
        }
    }

    #[test]
    fn schedule_oracle_matches_schedule() {
        let start = Timestamp::from_date(2025, 1, 15);
        let schedule = PhaseSchedule::paper_schedule(start, 0);
        let oracle = ScheduleOracle { schedule: &schedule };
        let in_v2 = start.plus_secs(30 * 86_400);
        assert_eq!(
            oracle.believed(7, 0, in_v2),
            BelievedPolicy::Version(PolicyVersion::V2EndpointOnly)
        );
        assert_eq!(oracle.believed(7, 3, in_v2), BelievedPolicy::Version(PolicyVersion::Base));
    }

    #[test]
    fn atlas_layout_and_oracle() {
        let mut atlas = BeliefAtlas::new(vec!["A".into(), "B".into()], 3);
        atlas.timeline_mut(1, 2).record(50, BelievedPolicy::DisallowAll);
        assert_eq!(atlas.n_sites(), 3);
        assert_eq!(atlas.believed(1, 2, Timestamp::from_unix(60)), BelievedPolicy::DisallowAll);
        assert_eq!(atlas.believed(1, 1, Timestamp::from_unix(60)), BelievedPolicy::Unfetched);
        assert_eq!(atlas.believed(0, 2, Timestamp::from_unix(60)), BelievedPolicy::Unfetched);
        assert_eq!(atlas.total_transitions(), 1);
    }

    #[test]
    fn served_oracle_reads_site_timelines() {
        let mut healthy = BeliefTimeline::always(BelievedPolicy::Version(PolicyVersion::Base));
        healthy.record(1_000, BelievedPolicy::DisallowAll);
        let sites = vec![BeliefTimeline::always(BelievedPolicy::AllowAll), healthy];
        let oracle = ServedOracle { sites: &sites };
        assert_eq!(oracle.believed(0, 0, Timestamp::from_unix(2_000)), BelievedPolicy::AllowAll);
        assert_eq!(oracle.believed(9, 1, Timestamp::from_unix(2_000)), BelievedPolicy::DisallowAll);
        assert_eq!(
            oracle.believed(9, 1, Timestamp::from_unix(500)),
            BelievedPolicy::Version(PolicyVersion::Base)
        );
    }
}
