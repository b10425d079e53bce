//! How the generation engine reads the belief layer.
//!
//! The policy a bot acts on comes from a [`PolicyOracle`]: the
//! schedule-driven baseline ([`ScheduleOracle`]) answers with the
//! scheduled version; the coupled mode answers from a [`BeliefAtlas`]
//! of belief timelines, monitored or (for a crawler with an
//! always-fresh cache) copied from the per-site ground truth. The
//! engine then sees a believed policy only through its [`PolicyLens`]:
//! the three behavioural axes the policy's matcher decisions imply for
//! one bot, probed once per bot into a [`LensTable`].

use botscope_study::{BeliefAtlas, BelievedPolicy, PhaseSchedule, PolicyCorpus, PolicyVersion};
use botscope_weblog::time::Timestamp;

/// Project `version` onto the generation engine's three behavioural
/// axes by probing the policy through the corpus matcher.
///
/// `agent` is the bot's canonical product token and `exempt` the
/// engine's planted exemption flag: exempt bots read their own named
/// group, everyone else the wildcard group. (Group choice is gated on
/// the planted flag rather than pure matcher selection so that fleet
/// variants like `Googlebot-Image` — not on the exemption list, but a
/// boundary-prefix match for the exempt `googlebot` group — keep the
/// behaviour the study assigns them.)
fn version_lens(
    version: PolicyVersion,
    corpus: &PolicyCorpus,
    agent: &str,
    exempt: bool,
) -> PolicyLens {
    let token = if exempt { agent } else { "*" };
    let content = corpus.check(version, token, PROBE_CONTENT);
    let pagedata = corpus.check(version, token, PROBE_PAGEDATA);
    PolicyLens {
        disallow_all: !content && !pagedata,
        endpoint_only: !content && pagedata,
        delayed: corpus.delay(version, token).is_some(),
    }
}

/// Representative content path probed by [`LensTable`]: blocked
/// only by a full disallow.
pub const PROBE_CONTENT: &str = "/news/item-001";

/// Representative page-data endpoint probed by [`LensTable`]:
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
        LensTable { versions: PolicyVersion::ALL.map(|v| version_lens(v, corpus, agent, exempt)) }
    }

    /// The lens for `believed`, as the bot this table was built for
    /// sees it.
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

impl PolicyOracle for BeliefAtlas {
    fn believed(&self, bot: usize, site: usize, at: Timestamp) -> BelievedPolicy {
        self.timeline(bot, site).at(at.unix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let table = LensTable::for_bot(&corpus, agent, bot.exempt);
            for believed in beliefs {
                let lens = table.lens(believed);
                // Every probe the lens sends through the compiled automata
                // must agree with the RFC 9309 oracle.
                if let BelievedPolicy::Version(v) = believed {
                    let token = if bot.exempt { agent } else { "*" };
                    let doc = corpus.doc(v);
                    for probe in [PROBE_CONTENT, PROBE_PAGEDATA] {
                        assert_eq!(
                            corpus.check(v, token, probe),
                            crate::rep_oracle::decide(doc, token, probe).allow,
                            "matchers disagree: {agent} {believed:?} {probe}"
                        );
                    }
                    assert_eq!(
                        corpus.delay(v, token),
                        crate::rep_oracle::crawl_delay(doc, token),
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
}
