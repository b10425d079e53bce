//! The four-phase robots.txt experiment (paper §4.1, Figures 5–8).
//!
//! Four policy files of increasing strictness, each deployed for two weeks
//! on the experiment site:
//!
//! * **Base** (Fig. 5) — allow everything except `/404`, `/dev-404-page`,
//!   `/secure/*`;
//! * **V1** (Fig. 6) — base plus `Crawl-delay: 30` for everyone;
//! * **V2** (Fig. 7) — eight SEO bots keep base access; everyone else may
//!   only fetch `/page-data/*`;
//! * **V3** (Fig. 8) — eight SEO bots keep base access; everyone else is
//!   denied entirely.
//!
//! [`phase_study_schedule`] is the paper's deployment of those files on
//! [`EXPERIMENT_SITE`]; [`site_name`] is the hostname every estate site
//! logs under.

use botscope_robotstxt::{RobotsTxt, RobotsTxtBuilder};
use botscope_weblog::time::Timestamp;

/// Index of the high-traffic experiment site (robots.txt phases apply
/// here).
pub const EXPERIMENT_SITE: usize = 0;

/// The hostname estate site `index` logs under, `site-NN.example.edu`.
pub fn site_name(index: usize) -> String {
    format!("site-{index:02}.example.edu")
}

/// The paper's schedule: the 8-week four-phase experiment on the
/// high-traffic site, starting 2025-01-15 (the paper's January
/// baseline).
pub fn phase_study_schedule() -> PhaseSchedule {
    PhaseSchedule::paper_schedule(Timestamp::from_date(2025, 1, 15), EXPERIMENT_SITE)
}

/// The eight search-engine bots exempted from v2/v3 restrictions "per our
/// institution's request, to ensure the sites remain easily findable
/// online" (paper §4.1).
pub const EXEMPT_AGENTS: [&str; 8] = [
    "Googlebot",
    "Slurp",
    "bingbot",
    "Yandexbot",
    "DuckDuckBot",
    "BaiduSpider",
    "DuckAssistBot",
    "ia_archiver",
];

/// Which robots.txt file is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PolicyVersion {
    /// The institution's standard file (Figure 5).
    Base,
    /// 30-second crawl delay for all bots (Figure 6).
    V1CrawlDelay,
    /// `/page-data/*` only, SEO bots exempt (Figure 7).
    V2EndpointOnly,
    /// Full denial, SEO bots exempt (Figure 8).
    V3DisallowAll,
}

impl PolicyVersion {
    /// All four versions in deployment order.
    pub const ALL: [PolicyVersion; 4] = [
        PolicyVersion::Base,
        PolicyVersion::V1CrawlDelay,
        PolicyVersion::V2EndpointOnly,
        PolicyVersion::V3DisallowAll,
    ];

    /// Position of this version in [`PolicyVersion::ALL`] — a stable
    /// small integer for array indexing (policy corpora, change
    /// matrices).
    pub fn index(self) -> usize {
        match self {
            PolicyVersion::Base => 0,
            PolicyVersion::V1CrawlDelay => 1,
            PolicyVersion::V2EndpointOnly => 2,
            PolicyVersion::V3DisallowAll => 3,
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PolicyVersion::Base => "Base",
            PolicyVersion::V1CrawlDelay => "v1 (crawl delay)",
            PolicyVersion::V2EndpointOnly => "v2 (endpoint access)",
            PolicyVersion::V3DisallowAll => "v3 (disallow all)",
        }
    }

    /// Construct the robots.txt document for this version, exactly as the
    /// paper's figures show.
    pub fn robots_txt(self) -> RobotsTxt {
        let base_rules = |g: botscope_robotstxt::builder::GroupBuilder| {
            g.allow("/").disallow("/404").disallow("/dev-404-page").disallow("/secure/*")
        };
        match self {
            PolicyVersion::Base => RobotsTxtBuilder::new().group(["*"], base_rules).build(),
            PolicyVersion::V1CrawlDelay => {
                RobotsTxtBuilder::new().group(["*"], |g| base_rules(g).crawl_delay(30.0)).build()
            }
            PolicyVersion::V2EndpointOnly => {
                let mut b = RobotsTxtBuilder::new();
                for agent in EXEMPT_AGENTS {
                    b = b.group([agent], base_rules);
                }
                b.group(["*"], |g| g.allow("/page-data/*").disallow("/")).build()
            }
            PolicyVersion::V3DisallowAll => {
                let mut b = RobotsTxtBuilder::new();
                for agent in EXEMPT_AGENTS {
                    b = b.group([agent], base_rules);
                }
                b.group(["*"], |g| g.disallow("/")).build()
            }
        }
    }
}

/// One deployment window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// The live file.
    pub version: PolicyVersion,
    /// Start (inclusive).
    pub start: Timestamp,
    /// End (exclusive).
    pub end: Timestamp,
}

/// The deployment schedule on the experiment site. Sites other than
/// `experiment_site` always serve the base file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSchedule {
    /// Phases in time order, contiguous.
    pub phases: Vec<Phase>,
    /// The site index the schedule applies to.
    pub experiment_site: usize,
}

impl PhaseSchedule {
    /// The paper's schedule: four contiguous two-week phases starting at
    /// `start`.
    pub fn paper_schedule(start: Timestamp, experiment_site: usize) -> PhaseSchedule {
        const TWO_WEEKS: u64 = 14 * 86_400;
        let phases = PolicyVersion::ALL
            .iter()
            .enumerate()
            .map(|(i, &version)| Phase {
                version,
                start: start.plus_secs(i as u64 * TWO_WEEKS),
                end: start.plus_secs((i as u64 + 1) * TWO_WEEKS),
            })
            .collect();
        PhaseSchedule { phases, experiment_site }
    }

    /// A schedule that serves the base file everywhere, forever (study 1).
    pub fn always_base(experiment_site: usize, start: Timestamp, end: Timestamp) -> PhaseSchedule {
        PhaseSchedule {
            phases: vec![Phase { version: PolicyVersion::Base, start, end }],
            experiment_site,
        }
    }

    /// The policy live on `site` at `time`.
    pub fn policy_at(&self, site: usize, time: Timestamp) -> PolicyVersion {
        if site != self.experiment_site {
            return PolicyVersion::Base;
        }
        for p in &self.phases {
            if time >= p.start && time < p.end {
                return p.version;
            }
        }
        PolicyVersion::Base
    }

    /// Total schedule window.
    pub fn bounds(&self) -> (Timestamp, Timestamp) {
        (
            self.phases.first().expect("non-empty schedule").start,
            self.phases.last().expect("non-empty schedule").end,
        )
    }

    /// The window of one version, if scheduled.
    pub fn window_of(&self, version: PolicyVersion) -> Option<(Timestamp, Timestamp)> {
        self.phases.iter().find(|p| p.version == version).map(|p| (p.start, p.end))
    }
}

/// Whether an agent token is one of the eight exempt SEO bots.
pub fn is_exempt_agent(token: &str) -> bool {
    EXEMPT_AGENTS.iter().any(|a| a.eq_ignore_ascii_case(token))
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_robotstxt::CompiledPolicy;

    #[test]
    fn figure5_text() {
        let text = PolicyVersion::Base.robots_txt().to_string();
        assert_eq!(
            text,
            "User-agent: *\nAllow: /\nDisallow: /404\nDisallow: /dev-404-page\nDisallow: /secure/*\n"
        );
    }

    fn compiled(version: PolicyVersion) -> CompiledPolicy {
        CompiledPolicy::compile(&version.robots_txt())
    }

    #[test]
    fn figure6_adds_crawl_delay() {
        let p = compiled(PolicyVersion::V1CrawlDelay);
        assert_eq!(p.crawl_delay("GPTBot"), Some(30.0));
        assert_eq!(p.crawl_delay("Googlebot"), Some(30.0));
        assert!(p.check("GPTBot", "/news/item-001").allow);
        assert!(!p.check("GPTBot", "/secure/admin-0").allow);
    }

    #[test]
    fn figure7_endpoint_semantics() {
        let p = compiled(PolicyVersion::V2EndpointOnly);
        // Exempt bots retain full access.
        assert!(p.check("Googlebot", "/news/item-001").allow);
        assert!(p.check("bingbot", "/people/person-0001").allow);
        assert!(!p.check("Googlebot", "/secure/x").allow);
        // Everyone else: page-data only.
        assert!(p.check("GPTBot", "/page-data/item-001/page-data.json").allow);
        assert!(!p.check("GPTBot", "/news/item-001").allow);
        assert!(!p.check("ClaudeBot", "/").allow);
    }

    #[test]
    fn figure8_disallow_all_semantics() {
        let p = compiled(PolicyVersion::V3DisallowAll);
        assert!(p.check("Googlebot", "/news/item-001").allow);
        assert!(!p.check("GPTBot", "/page-data/x").allow);
        assert!(!p.check("GPTBot", "/").allow);
        // robots.txt itself always fetchable.
        assert!(p.check("GPTBot", "/robots.txt").allow);
    }

    #[test]
    fn exempt_list_matches_paper() {
        assert_eq!(EXEMPT_AGENTS.len(), 8);
        assert!(is_exempt_agent("googlebot"));
        assert!(is_exempt_agent("ia_archiver"));
        assert!(!is_exempt_agent("GPTBot"));
    }

    #[test]
    fn site_names_are_zero_padded() {
        assert_eq!(site_name(EXPERIMENT_SITE), "site-00.example.edu");
        assert_eq!(site_name(35), "site-35.example.edu");
        assert_eq!(site_name(1234), "site-1234.example.edu");
    }

    #[test]
    fn schedule_windows() {
        let start = Timestamp::from_date(2025, 1, 15);
        let s = PhaseSchedule::paper_schedule(start, 0);
        assert_eq!(s.phases.len(), 4);
        let (lo, hi) = s.bounds();
        assert_eq!(hi.days_since(lo), 56);
        // Contiguity.
        for w in s.phases.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn policy_at_lookup() {
        let start = Timestamp::from_date(2025, 1, 15);
        let s = PhaseSchedule::paper_schedule(start, 0);
        assert_eq!(s.policy_at(0, start), PolicyVersion::Base);
        assert_eq!(s.policy_at(0, start.plus_secs(15 * 86_400)), PolicyVersion::V1CrawlDelay);
        assert_eq!(s.policy_at(0, start.plus_secs(29 * 86_400)), PolicyVersion::V2EndpointOnly);
        assert_eq!(s.policy_at(0, start.plus_secs(55 * 86_400)), PolicyVersion::V3DisallowAll);
        // Out of window → base; other sites → always base.
        assert_eq!(s.policy_at(0, start.plus_secs(100 * 86_400)), PolicyVersion::Base);
        assert_eq!(s.policy_at(7, start.plus_secs(29 * 86_400)), PolicyVersion::Base);
    }

    #[test]
    fn window_of_versions() {
        let start = Timestamp::from_date(2025, 1, 15);
        let s = PhaseSchedule::paper_schedule(start, 0);
        let (v2s, v2e) = s.window_of(PolicyVersion::V2EndpointOnly).unwrap();
        assert_eq!(v2e.days_since(v2s), 14);
        let always = PhaseSchedule::always_base(0, start, start.plus_secs(86_400));
        assert!(always.window_of(PolicyVersion::V1CrawlDelay).is_none());
    }

    #[test]
    fn all_versions_parse_and_roundtrip() {
        for v in PolicyVersion::ALL {
            let doc = v.robots_txt();
            let reparsed = botscope_robotstxt::parser::parse(&doc.to_string());
            assert_eq!(reparsed.groups, doc.groups, "{v:?}");
            assert!(reparsed.warnings.is_empty(), "{v:?}");
        }
    }
}
