//! Policy timelines: what a site served, and what a crawler believed.
//!
//! Both sides of the paper's compliance question are step functions of
//! time. A site's served timeline ([`Timeline<PolicyVersion>`], built by
//! [`Timeline::from_schedule`]) says which robots.txt file is live when;
//! a crawler's belief timeline ([`BeliefTimeline`]) says which policy
//! its last fetch entitled it to assume, including the RFC 9309
//! error-state policies and the never-looked-at-it state
//! ([`BelievedPolicy`]). The monitoring daemon exports one belief
//! timeline per (bot, site) as a [`BeliefAtlas`]. A belief timeline
//! under an always-healthy server with instant refresh *is* the served
//! timeline, which is the degenerate-equivalence property the coupled
//! engine's tests pin.

use crate::corpus::PolicyCorpus;
use crate::phases::{PhaseSchedule, PolicyVersion};

/// A step function of time: `(from_unix_sec, value)` segments in
/// ascending time order. The first segment starts at 0, so every
/// instant maps to exactly one value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline<T> {
    segments: Vec<(u64, T)>,
}

impl<T: Copy + PartialEq> Timeline<T> {
    /// A timeline holding one value forever.
    pub fn always(value: T) -> Timeline<T> {
        Timeline { segments: vec![(0, value)] }
    }

    /// Record that the value became `value` at `at`. Consecutive
    /// identical values collapse; a same-instant re-record overwrites
    /// (the later record wins). `at` must not go backwards.
    pub fn record(&mut self, at: u64, value: T) {
        let &(last_at, last) = self.segments.last().expect("timeline never empty");
        assert!(at >= last_at, "timeline recorded out of order: {at} < {last_at}");
        if last == value {
            return;
        }
        if at == last_at {
            let n = self.segments.len();
            // Overwriting may re-create a collapse with the predecessor.
            if n > 1 && self.segments[n - 2].1 == value {
                self.segments.pop();
            } else {
                self.segments[n - 1].1 = value;
            }
            return;
        }
        self.segments.push((at, value));
    }

    /// The value live at `unix` seconds.
    pub fn at(&self, unix: u64) -> T {
        self.segments[self.seat(unix)].1
    }

    /// The instant the segment live at `unix` began — for a served
    /// timeline, the `Last-Modified` a server advertises for its body.
    pub fn since(&self, unix: u64) -> u64 {
        self.segments[self.seat(unix)].0
    }

    fn seat(&self, unix: u64) -> usize {
        // partition_point ≥ 1 because segment 0 starts at time 0.
        self.segments.partition_point(|&(from, _)| from <= unix) - 1
    }

    /// The raw `(from_unix_sec, value)` segments.
    pub fn segments(&self) -> &[(u64, T)] {
        &self.segments
    }

    /// Number of transitions (segments minus the initial one).
    pub fn transitions(&self) -> usize {
        self.segments.len() - 1
    }
}

impl Timeline<PolicyVersion> {
    /// Project `schedule` onto `site`: the experiment site swaps through
    /// the scheduled phases (Base before the window, Base again after
    /// it — the operator restores the standard file); every other site
    /// serves Base forever. A phase that starts where another ends
    /// replaces it at that instant, and a phase serving the version
    /// already live adds no transition.
    pub fn from_schedule(schedule: &PhaseSchedule, site: usize) -> Timeline<PolicyVersion> {
        let mut timeline = Timeline::always(PolicyVersion::Base);
        if site != schedule.experiment_site || schedule.phases.is_empty() {
            return timeline;
        }
        let mut swaps: Vec<(u64, PolicyVersion)> =
            schedule.phases.iter().map(|p| (p.start.unix(), p.version)).collect();
        swaps.push((schedule.bounds().1.unix(), PolicyVersion::Base));
        swaps.sort_by_key(|&(at, _)| at);
        for (at, version) in swaps {
            timeline.record(at, version);
        }
        timeline
    }

    /// The timeline as closed `(version, start, end)` windows clipped to
    /// `[0, horizon_end)` — the per-site phase windows Table 7's
    /// "checked robots.txt while vN was live" columns are judged
    /// against. Zero-length windows (segments entirely past the
    /// horizon) are dropped.
    pub fn version_windows(&self, horizon_end: u64) -> Vec<(PolicyVersion, u64, u64)> {
        let mut out = Vec::with_capacity(self.segments.len());
        for (i, &(start, version)) in self.segments.iter().enumerate() {
            let end = self.segments.get(i + 1).map_or(horizon_end, |&(next, _)| next);
            let end = end.min(horizon_end);
            if start < end {
                out.push((version, start, end));
            }
        }
        out
    }
}

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

/// A stepwise believed-policy timeline, built from fetch events (the
/// monitoring daemon exports one per agent) or from server ground truth
/// (what a site *actually* served, weather included).
pub type BeliefTimeline = Timeline<BelievedPolicy>;

/// Per-(bot, site) belief timelines, bot-major — the monitoring
/// daemon's export, and the coupled engine's policy source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeliefAtlas {
    /// Canonical bot names, fleet order (index = the atlas's `bot`).
    pub bots: Vec<String>,
    sites: usize,
    timelines: Vec<BeliefTimeline>,
}

impl BeliefAtlas {
    /// An atlas where every (bot, site) starts never-fetched.
    pub fn new(bots: Vec<String>, sites: usize) -> BeliefAtlas {
        let timelines = vec![BeliefTimeline::always(BelievedPolicy::Unfetched); bots.len() * sites];
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

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_weblog::time::Timestamp;

    #[test]
    fn non_experiment_site_is_static_base() {
        let start = Timestamp::from_date(2025, 1, 15);
        let schedule = PhaseSchedule::paper_schedule(start, 0);
        let s = Timeline::from_schedule(&schedule, 7);
        assert_eq!(s.transitions(), 0);
        assert_eq!(s.at(0), PolicyVersion::Base);
        assert_eq!(s.at(u64::MAX), PolicyVersion::Base);
    }

    #[test]
    fn experiment_site_follows_schedule() {
        let start = Timestamp::from_date(2025, 1, 15);
        let schedule = PhaseSchedule::paper_schedule(start, 3);
        let s = Timeline::from_schedule(&schedule, 3);
        // Before the window: Base. Then each phase. After: Base again.
        assert_eq!(s.at(start.unix() - 1), PolicyVersion::Base);
        for (i, v) in PolicyVersion::ALL.iter().enumerate() {
            let mid = start.plus_secs((i as u64 * 14 + 7) * 86_400);
            assert_eq!(s.at(mid.unix()), *v, "phase {i}");
        }
        let after = start.plus_secs(57 * 86_400);
        assert_eq!(s.at(after.unix()), PolicyVersion::Base);
        // Swap instants: v1, v2, v3 starts plus the final restore. The
        // schedule's first phase *is* Base, so it collapses into the
        // initial segment.
        let swaps = &s.segments()[1..];
        assert_eq!(swaps.len(), 4);
        assert_eq!(swaps[0], (start.plus_secs(14 * 86_400).unix(), PolicyVersion::V1CrawlDelay));
        assert_eq!(swaps[3].1, PolicyVersion::Base);
        assert_eq!(s.since(after.unix()), swaps[3].0);
    }

    #[test]
    fn boundary_instants_belong_to_the_new_segment() {
        let start = Timestamp::from_date(2025, 1, 15);
        let schedule = PhaseSchedule::paper_schedule(start, 0);
        let s = Timeline::from_schedule(&schedule, 0);
        let v1_start = start.plus_secs(14 * 86_400).unix();
        assert_eq!(s.at(v1_start - 1), PolicyVersion::Base);
        assert_eq!(s.at(v1_start), PolicyVersion::V1CrawlDelay);
    }

    #[test]
    fn always_base_schedule_collapses_to_static() {
        let start = Timestamp::from_date(2025, 2, 12);
        let schedule = PhaseSchedule::always_base(0, start, start.plus_secs(86_400));
        let s = Timeline::from_schedule(&schedule, 0);
        assert_eq!(s.transitions(), 0, "base-only schedule should not record swaps: {s:?}");
    }

    #[test]
    fn timeline_steps_and_lookup() {
        let mut t = BeliefTimeline::always(BelievedPolicy::Unfetched);
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
        let mut t = BeliefTimeline::always(BelievedPolicy::Unfetched);
        t.record(10, BelievedPolicy::AllowAll);
        t.record(20, BelievedPolicy::AllowAll);
        assert_eq!(t.segments().len(), 2);
        // Same-instant overwrite: the later record wins.
        t.record(30, BelievedPolicy::DisallowAll);
        t.record(30, BelievedPolicy::Version(PolicyVersion::Base));
        assert_eq!(t.at(30), BelievedPolicy::Version(PolicyVersion::Base));
        // Overwrite back to the predecessor collapses the segment.
        let mut t = BeliefTimeline::always(BelievedPolicy::Unfetched);
        t.record(10, BelievedPolicy::AllowAll);
        t.record(20, BelievedPolicy::DisallowAll);
        t.record(20, BelievedPolicy::AllowAll);
        assert_eq!(t.segments().len(), 2);
        assert_eq!(t.at(25), BelievedPolicy::AllowAll);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn timeline_rejects_backwards_time() {
        let mut t = BeliefTimeline::always(BelievedPolicy::Unfetched);
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
}
