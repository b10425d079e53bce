//! Site → robots.txt server-model adapter.
//!
//! The monitoring daemon (`botscope-monitor`) needs the *server side* of
//! the estate: which robots.txt document each site serves at each
//! instant. The experiment's mid-study policy swaps are already encoded
//! by [`PhaseSchedule`]; this module projects a schedule into a flat,
//! binary-searchable per-site timeline ([`SitePolicyServer`]) and
//! renders/parses the four policy files exactly once ([`PolicyCorpus`])
//! so a 100k-site estate shares four bodies instead of building 100k.

use botscope_robotstxt::compiled::CompiledPolicy;
use botscope_robotstxt::RobotsTxt;

use crate::phases::{PhaseSchedule, PolicyVersion};

/// The four experimental policy files, rendered once (the text a server
/// puts on the wire), parsed once (the document a crawler-side cache
/// evaluates and diffs), and compiled once (the automaton every admission
/// check runs against).
#[derive(Debug, Clone)]
pub struct PolicyCorpus {
    texts: [String; 4],
    docs: [RobotsTxt; 4],
    compiled: [CompiledPolicy; 4],
}

impl Default for PolicyCorpus {
    fn default() -> Self {
        PolicyCorpus::new()
    }
}

impl PolicyCorpus {
    /// Render, parse and compile all four versions.
    pub fn new() -> PolicyCorpus {
        let docs = PolicyVersion::ALL.map(super::phases::PolicyVersion::robots_txt);
        let texts = [0, 1, 2, 3].map(|i: usize| docs[i].to_string());
        let compiled = [0, 1, 2, 3].map(|i: usize| CompiledPolicy::compile(&docs[i]));
        PolicyCorpus { texts, docs, compiled }
    }

    /// The serialized robots.txt body of `version`.
    pub fn text(&self, version: PolicyVersion) -> &str {
        &self.texts[version.index()]
    }

    /// The parsed document of `version`.
    pub fn doc(&self, version: PolicyVersion) -> &RobotsTxt {
        &self.docs[version.index()]
    }

    /// The compiled automaton of `version`.
    pub fn compiled(&self, version: PolicyVersion) -> &CompiledPolicy {
        &self.compiled[version.index()]
    }

    /// Whether `agent` may fetch `path` under `version`, via the compiled
    /// automaton. Tests check it against the RFC 9309 oracle on every
    /// corpus decision.
    pub fn check(&self, version: PolicyVersion, agent: &str, path: &str) -> bool {
        self.compiled[version.index()].check(agent, path).allow
    }

    /// The crawl delay `version` declares for `agent`, via the compiled
    /// automaton.
    pub fn delay(&self, version: PolicyVersion, agent: &str) -> Option<f64> {
        self.compiled[version.index()].crawl_delay(agent)
    }
}

/// One site's serving timeline: which [`PolicyVersion`] is live when.
///
/// Stored as `(from_unix_sec, version)` segments in ascending time
/// order; the first segment always starts at 0, so every instant maps to
/// exactly one version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SitePolicyServer {
    segments: Vec<(u64, PolicyVersion)>,
}

impl SitePolicyServer {
    /// A site that serves one version forever.
    pub fn always(version: PolicyVersion) -> SitePolicyServer {
        SitePolicyServer { segments: vec![(0, version)] }
    }

    /// Project `schedule` onto `site`: the experiment site swaps through
    /// the scheduled phases (Base before the window, Base again after
    /// it — the operator restores the standard file); every other site
    /// serves Base forever.
    pub fn from_schedule(schedule: &PhaseSchedule, site: usize) -> SitePolicyServer {
        if site != schedule.experiment_site || schedule.phases.is_empty() {
            return SitePolicyServer::always(PolicyVersion::Base);
        }
        let mut segments: Vec<(u64, PolicyVersion)> = vec![(0, PolicyVersion::Base)];
        for phase in &schedule.phases {
            segments.push((phase.start.unix(), phase.version));
        }
        let (_, end) = schedule.bounds();
        segments.push((end.unix(), PolicyVersion::Base));
        // Collapse adjacent segments serving the same version (a schedule
        // starting with Base would otherwise yield a zero-information
        // boundary) and zero-length segments (contiguous phases share
        // their boundary instant).
        segments.sort_by_key(|&(at, _)| at);
        let mut collapsed: Vec<(u64, PolicyVersion)> = Vec::with_capacity(segments.len());
        for (at, version) in segments {
            if let Some(&mut (last_at, ref mut last_v)) = collapsed.last_mut() {
                if last_at == at {
                    *last_v = version;
                    continue;
                }
                if *last_v == version {
                    continue;
                }
            }
            collapsed.push((at, version));
        }
        SitePolicyServer { segments: collapsed }
    }

    /// The version live at `unix` seconds.
    pub fn version_at(&self, unix: u64) -> PolicyVersion {
        let idx = self.segments.partition_point(|&(at, _)| at <= unix);
        // partition_point ≥ 1 because segment 0 starts at time 0.
        self.segments[idx.saturating_sub(1)].1
    }

    /// The instant the segment live at `unix` began — the `Last-Modified`
    /// a server would advertise for the currently served body.
    pub fn live_since(&self, unix: u64) -> u64 {
        let idx = self.segments.partition_point(|&(at, _)| at <= unix);
        self.segments[idx.saturating_sub(1)].0
    }

    /// The timeline's swap instants (excluding the initial segment):
    /// the ground truth a change-detection test compares against.
    pub fn swaps(&self) -> &[(u64, PolicyVersion)] {
        &self.segments[1..]
    }

    /// Whether this site ever changes its served file.
    pub fn is_static(&self) -> bool {
        self.segments.len() == 1
    }

    /// The raw `(from_unix_sec, version)` segments.
    pub fn segments(&self) -> &[(u64, PolicyVersion)] {
        &self.segments
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

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_weblog::time::Timestamp;

    #[test]
    fn corpus_matches_versions() {
        let corpus = PolicyCorpus::new();
        for v in PolicyVersion::ALL {
            assert_eq!(corpus.text(v), v.robots_txt().to_string());
            assert_eq!(corpus.doc(v).groups, v.robots_txt().groups);
        }
        // The four files are genuinely distinct bodies.
        let texts: std::collections::BTreeSet<&str> =
            PolicyVersion::ALL.iter().map(|&v| corpus.text(v)).collect();
        assert_eq!(texts.len(), 4);
    }

    #[test]
    fn matcher_modes_agree_on_corpus_decisions() {
        // The compiled automata against the RFC 9309 oracle over the
        // corpus's own documents.
        let corpus = PolicyCorpus::new();
        let agents = ["Googlebot", "Googlebot-Image", "GPTBot", "ClaudeBot", "*", "ia_archiver"];
        let paths = [
            "/",
            "/news/item-001",
            "/page-data/item-001/page-data.json",
            "/secure/admin",
            "/404",
            "/robots.txt",
        ];
        for v in PolicyVersion::ALL {
            let doc = corpus.doc(v);
            for agent in agents {
                for path in paths {
                    assert_eq!(
                        corpus.check(v, agent, path),
                        crate::rep_oracle::decide(doc, agent, path).allow,
                        "{v:?} {agent} {path}"
                    );
                }
                assert_eq!(
                    corpus.delay(v, agent),
                    crate::rep_oracle::crawl_delay(doc, agent),
                    "{v:?} {agent}"
                );
            }
        }
    }

    #[test]
    fn non_experiment_site_is_static_base() {
        let start = Timestamp::from_date(2025, 1, 15);
        let schedule = PhaseSchedule::paper_schedule(start, 0);
        let s = SitePolicyServer::from_schedule(&schedule, 7);
        assert!(s.is_static());
        assert_eq!(s.version_at(0), PolicyVersion::Base);
        assert_eq!(s.version_at(u64::MAX), PolicyVersion::Base);
    }

    #[test]
    fn experiment_site_follows_schedule() {
        let start = Timestamp::from_date(2025, 1, 15);
        let schedule = PhaseSchedule::paper_schedule(start, 3);
        let s = SitePolicyServer::from_schedule(&schedule, 3);
        assert!(!s.is_static());
        // Before the window: Base. Then each phase. After: Base again.
        assert_eq!(s.version_at(start.unix() - 1), PolicyVersion::Base);
        for (i, v) in PolicyVersion::ALL.iter().enumerate() {
            let mid = start.plus_secs((i as u64 * 14 + 7) * 86_400);
            assert_eq!(s.version_at(mid.unix()), *v, "phase {i}");
        }
        let after = start.plus_secs(57 * 86_400);
        assert_eq!(s.version_at(after.unix()), PolicyVersion::Base);
        // Swap instants: v1, v2, v3 starts plus the final restore. The
        // schedule's first phase *is* Base, so it collapses into the
        // initial segment.
        assert_eq!(s.swaps().len(), 4);
        assert_eq!(
            s.swaps()[0],
            (start.plus_secs(14 * 86_400).unix(), PolicyVersion::V1CrawlDelay)
        );
        assert_eq!(s.swaps()[3].1, PolicyVersion::Base);
    }

    #[test]
    fn boundary_instants_belong_to_the_new_segment() {
        let start = Timestamp::from_date(2025, 1, 15);
        let schedule = PhaseSchedule::paper_schedule(start, 0);
        let s = SitePolicyServer::from_schedule(&schedule, 0);
        let v1_start = start.plus_secs(14 * 86_400).unix();
        assert_eq!(s.version_at(v1_start - 1), PolicyVersion::Base);
        assert_eq!(s.version_at(v1_start), PolicyVersion::V1CrawlDelay);
    }

    #[test]
    fn always_base_schedule_collapses_to_static() {
        let start = Timestamp::from_date(2025, 2, 12);
        let schedule = PhaseSchedule::always_base(0, start, start.plus_secs(86_400));
        let s = SitePolicyServer::from_schedule(&schedule, 0);
        assert!(s.is_static(), "base-only schedule should not record swaps: {s:?}");
    }
}
