//! Ground-truth-aware compliance scoring: believed vs served policy,
//! with per-bot violation attribution.
//!
//! The schedule-driven analysis treats every disallowed fetch as
//! non-compliance. With the belief layer
//! ([`botscope_study::timeline`]) the question splits in two:
//!
//! * **served** — was the fetch allowed under the policy the site was
//!   *actually* serving at that instant (outage windows resolved per
//!   RFC 9309)?
//! * **believed** — was it allowed under the policy the bot's last
//!   robots.txt fetch *entitled it to assume*?
//!
//! Every served-policy violation then attributes to exactly one cause:
//!
//! * **deliberate** — the bot's own believed policy forbade the fetch
//!   too (it knew), or the bot never consulted robots.txt at all
//!   (choosing ignorance is not an excuse);
//! * **stale cache** — the bot's cached *document* allowed the fetch;
//!   the site had swapped files since. An artifact of re-check cadence,
//!   not defiance;
//! * **fetch artifact** — the bot's last fetch resolved 4xx (or a
//!   redirect chain past the hop budget), entitling it to crawl without
//!   restriction while the served file said otherwise.
//!
//! This is the attribution gap that makes mislabelled non-compliance
//! legally and ethically fraught (*The Liabilities of Robots.txt*,
//! arXiv:2503.06035): a scraper crawling through a disallow on a stale
//! cache is operating exactly as RFC 9309 permits.
//!
//! **Execution shape.** [`attribute_rows`] is one chunked sweep over
//! the table's rows in storage order: each distinct user agent is
//! standardized once, and fixed 65,536-row chunks are judged over the
//! `run_indexed` worker pool. A chunk keeps per-bot counts beside its
//! slice of the excusal mask, so the attribution report and the rows a
//! believed-basis analysis drops come from the same verdicts; chunks
//! merge by summation. The believed-basis compliance tables are not
//! scored here: [`Experiment::analyze_table_excluding`] runs the one
//! §4 engine over the rows the mask keeps. Timelines are stepwise and
//! log rows arrive in chronological order, so per-(bot, site) timeline
//! cursors replace the per-row binary searches with amortized-O(1)
//! forward steps. The `attribution_equiv` tests pin the counts and the
//! mask against serial oracles written over the public belief and
//! corpus APIs.
//!
//! [`Experiment::analyze_table_excluding`]: crate::analyze::Experiment::analyze_table_excluding
//!
//! **Granularity caveat.** Scoring is per access, at the access's own
//! instant — the only vantage point a log analyst has. The generation
//! engine, like a real crawler, applies one believed policy per crawl
//! *session*, so the handful of accesses between a mid-session belief
//! transition and the session's end are scored against a newer belief
//! than the one the bot acted on (and vice versa). Belief transitions
//! are sparse (a few dozen per (bot, site) over an 8-week horizon)
//! while sessions are minutes long, so the mislabelled tail is bounded
//! by pages-per-session per transition; the real-world analysis has
//! exactly the same ambiguity, because a bot's internal cache-refresh
//! timing is not observable from access logs.

use std::collections::BTreeMap;

use botscope_study::{
    run_indexed, site_name, BeliefAtlas, BeliefTimeline, BelievedPolicy, PolicyCorpus,
};
use botscope_weblog::hash::FxHashMap;
use botscope_weblog::intern::Sym;
use botscope_weblog::table::LogTable;

use crate::pipeline::AgentBots;

/// Which policy a metric is computed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyBasis {
    /// The policy each bot believed (its own fetch history).
    Believed,
    /// The policy the site actually served (ground truth).
    Served,
}

impl PolicyBasis {
    /// Parse a CLI token: `believed` or `served`.
    pub fn parse(s: &str) -> Option<PolicyBasis> {
        match s {
            "believed" => Some(PolicyBasis::Believed),
            "served" => Some(PolicyBasis::Served),
            _ => None,
        }
    }
}

/// Per-bot attribution of page accesses against served ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttributionCounts {
    /// Page accesses examined (robots.txt fetches are always allowed
    /// and are not attribution targets).
    pub accesses: u64,
    /// Allowed under the served policy — no violation occurred.
    pub allowed_served: u64,
    /// Served violations committed knowingly: the believed policy
    /// forbade the fetch too, or the bot never fetched robots.txt.
    pub deliberate: u64,
    /// Served violations excused by a stale cached document.
    pub stale_cache: u64,
    /// Served violations excused by an RFC 9309 fetch-layer
    /// entitlement (4xx / over-budget redirect ⇒ allow all).
    pub fetch_artifact: u64,
    /// Accesses the bot's *own* believed policy forbade, regardless of
    /// what was served — the intent signal.
    pub believed_violations: u64,
}

impl AttributionCounts {
    /// Total served-policy violations.
    pub fn violations_served(&self) -> u64 {
        self.deliberate + self.stale_cache + self.fetch_artifact
    }

    /// Served violations the belief layer excuses (stale cache or
    /// fetch-layer entitlement) — the rows a believed-basis analysis
    /// drops from the non-compliant pool.
    pub fn excused(&self) -> u64 {
        self.stale_cache + self.fetch_artifact
    }

    /// Served-policy compliance ratio (`None` with no accesses).
    pub fn served_compliance(&self) -> Option<f64> {
        if self.accesses == 0 {
            None
        } else {
            Some(self.allowed_served as f64 / self.accesses as f64)
        }
    }

    /// Merge another bot-slice's counts.
    pub fn merge(&mut self, other: AttributionCounts) {
        self.accesses += other.accesses;
        self.allowed_served += other.allowed_served;
        self.deliberate += other.deliberate;
        self.stale_cache += other.stale_cache;
        self.fetch_artifact += other.fetch_artifact;
        self.believed_violations += other.believed_violations;
    }
}

/// A per-bot allow-decision cache: `allows` is pure in
/// `(policy, path)` for a fixed agent, and a run touches few distinct
/// pairs, so rows never re-evaluate the matcher.
struct AllowCache<'a> {
    corpus: &'a PolicyCorpus,
    agent: &'a str,
    memo: FxHashMap<(Sym, BelievedPolicy), bool>,
}

impl<'a> AllowCache<'a> {
    fn new(corpus: &'a PolicyCorpus, agent: &'a str) -> AllowCache<'a> {
        AllowCache { corpus, agent, memo: FxHashMap::default() }
    }

    fn allows(&mut self, table: &LogTable, policy: BelievedPolicy, path: Sym) -> bool {
        *self
            .memo
            .entry((path, policy))
            .or_insert_with(|| policy.allows(self.corpus, self.agent, table.resolve(path)))
    }
}

/// Map each interned sitename of `table` onto an estate index
/// (`site-NN.example.edu` → `NN`), for sites below `n_sites`.
fn site_index_of(table: &LogTable, n_sites: usize) -> Vec<Option<usize>> {
    let mut map = vec![None; table.interner().len()];
    for site in 0..n_sites {
        if let Some(sym) = table.interner().get(&site_name(site)) {
            map[sym.index()] = Some(site);
        }
    }
    map
}

// ---------------------------------------------------------------------
// Monotone timeline cursors.
// ---------------------------------------------------------------------

/// Amortized-O(1) stepwise-timeline lookup for time-ascending sweeps.
///
/// [`BeliefTimeline::at`] binary-searches its segment list on every
/// call. Log rows arrive in (near-)chronological order, so a cursor
/// that remembers its seat and only steps forward answers each lookup
/// in amortized O(1). A query earlier than the seated segment re-seats
/// by binary search and counts a reset; a chronological row sweep
/// essentially never does.
struct TimelineCursor<'a> {
    segments: &'a [(u64, BelievedPolicy)],
    /// Index of the segment the last query landed in.
    idx: usize,
}

impl<'a> TimelineCursor<'a> {
    fn new(timeline: &'a BeliefTimeline) -> TimelineCursor<'a> {
        // Timelines always carry a segment from t=0, so index 0 is a
        // valid seat for any query.
        TimelineCursor { segments: timeline.segments(), idx: 0 }
    }

    /// The policy live at `t` — identical to [`BeliefTimeline::at`].
    fn at(&mut self, t: u64, stats: &mut SweepStats) -> BelievedPolicy {
        stats.lookups += 1;
        if self.segments[self.idx].0 > t {
            // Time ran backwards past the seated segment: re-seat.
            stats.resets += 1;
            self.idx = self.segments.partition_point(|&(from, _)| from <= t).saturating_sub(1);
        } else {
            while self.idx + 1 < self.segments.len() && self.segments[self.idx + 1].0 <= t {
                self.idx += 1;
            }
        }
        self.segments[self.idx].1
    }
}

/// One sweep's per-site cursors over a timeline family.
struct SiteCursors<'a> {
    cursors: Vec<TimelineCursor<'a>>,
}

impl<'a> SiteCursors<'a> {
    fn over_beliefs(beliefs: &'a BeliefAtlas, bot: usize, n_sites: usize) -> SiteCursors<'a> {
        SiteCursors {
            cursors: (0..n_sites).map(|s| TimelineCursor::new(beliefs.timeline(bot, s))).collect(),
        }
    }

    fn over_served(served: &'a [BeliefTimeline], n_sites: usize) -> SiteCursors<'a> {
        SiteCursors { cursors: served[..n_sites].iter().map(TimelineCursor::new).collect() }
    }

    fn at(&mut self, site: usize, t: u64, stats: &mut SweepStats) -> BelievedPolicy {
        self.cursors[site].at(t, stats)
    }
}

/// Telemetry accumulated by one sweep chunk. Chunks return their stats
/// and the caller merges them serially in chunk order, so counter
/// totals are worker-count invariant.
#[derive(Debug, Clone, Copy)]
struct SweepStats {
    rows: u64,
    lookups: u64,
    resets: u64,
    event_lo: u64,
    event_hi: u64,
}

impl Default for SweepStats {
    fn default() -> SweepStats {
        SweepStats { rows: 0, lookups: 0, resets: 0, event_lo: u64::MAX, event_hi: 0 }
    }
}

impl SweepStats {
    fn observe_row(&mut self, t: u64) {
        self.rows += 1;
        self.event_lo = self.event_lo.min(t);
        self.event_hi = self.event_hi.max(t);
    }

    fn merge(&mut self, other: SweepStats) {
        self.rows += other.rows;
        self.lookups += other.lookups;
        self.resets += other.resets;
        self.event_lo = self.event_lo.min(other.event_lo);
        self.event_hi = self.event_hi.max(other.event_hi);
    }

    /// Flush into the global registry under a per-pass label.
    fn flush(&self, pass: &str) {
        let obs = botscope_obs::global();
        obs.counter(&format!("attribution_rows_total{{pass=\"{pass}\"}}")).add(self.rows);
        obs.counter(&format!("attribution_policy_lookups_total{{pass=\"{pass}\"}}"))
            .add(self.lookups);
        obs.counter(&format!("attribution_cursor_resets_total{{pass=\"{pass}\"}}"))
            .add(self.resets);
    }
}

// ---------------------------------------------------------------------
// Violation attribution.
// ---------------------------------------------------------------------

/// One attribution sweep's results: the per-bot counts and the per-row
/// excusal verdicts, both from the same row verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    /// Per-bot attribution, keyed by canonical bot name; bots with no
    /// examined page access are absent.
    pub counts: BTreeMap<String, AttributionCounts>,
    /// One verdict per table row: `true` marks a served-policy
    /// violation the belief layer excuses (stale cache or fetch-layer
    /// entitlement) — exactly the rows a believed-basis analysis drops
    /// ([`Experiment::analyze_table_excluding`](crate::analyze::Experiment::analyze_table_excluding)).
    /// Robots.txt fetches, anonymous rows, unmonitored bots, foreign
    /// sites, allowed fetches and deliberate violations are all `false`.
    pub excused: Vec<bool>,
}

/// The per-bot counts of [`attribute_rows`]: every fleet bot's page
/// accesses in `table`, judged against the monitored beliefs and the
/// served ground truth. Bots absent from the atlas (anonymous traffic,
/// unknown agents) and rows on sites outside the estate are skipped;
/// robots.txt fetches are always allowed and not counted. Output is
/// identical at any worker count.
pub fn attribute_table_with_threads(
    table: &LogTable,
    beliefs: &BeliefAtlas,
    served: &[BeliefTimeline],
    corpus: &PolicyCorpus,
    threads: usize,
) -> BTreeMap<String, AttributionCounts> {
    attribute_rows(table, beliefs, served, corpus, threads).counts
}

/// Rows per sweep chunk. The grid is fixed, independent of `threads`,
/// so cursor telemetry is worker-count invariant.
const CHUNK_ROWS: usize = 1 << 16;

/// Attribute every row of `table` in one sweep: each distinct user
/// agent is standardized once, then contiguous row chunks are judged
/// over `threads` workers. Each chunk keeps per-bot
/// [`AttributionCounts`] beside its slice of the excusal mask; chunks
/// merge by summation and concatenation, so the output is identical at
/// any worker count.
pub fn attribute_rows(
    table: &LogTable,
    beliefs: &BeliefAtlas,
    served: &[BeliefTimeline],
    corpus: &PolicyCorpus,
    threads: usize,
) -> Attribution {
    let obs = botscope_obs::global();
    let mut span = obs.span("attribution_attribute_rows");
    let rows = table.rows();
    let n = rows.len();
    let n_bots = beliefs.bots.len();
    let n_sites = served.len().min(beliefs.n_sites());
    let site_of = site_index_of(table, n_sites);
    let robots = table.interner().get("/robots.txt");
    let bot_index: BTreeMap<&str, usize> =
        beliefs.bots.iter().enumerate().map(|(i, name)| (name.as_str(), i)).collect();
    // Atlas bot of each user-agent symbol (None = anonymous or
    // unmonitored), read by every chunk worker.
    let strings = table.interner();
    let mut agents = AgentBots::new(());
    for row in rows {
        agents.bot_mut(row.useragent, strings);
    }
    let bot_of: Vec<Option<usize>> = strings
        .iter()
        .map(|(ua, _)| agents.get(ua).and_then(|bot| bot_index.get(bot.canonical).copied()))
        .collect();

    // Contiguous row chunks: rows are chronological, so each chunk's
    // cursors sweep forward from a fresh seat.
    let chunks = n.div_ceil(CHUNK_ROWS).max(1);
    let parts: Vec<(Vec<AttributionCounts>, Vec<bool>, SweepStats)> =
        run_indexed(chunks, threads, |c| {
            let lo = c * CHUNK_ROWS;
            let hi = ((c + 1) * CHUNK_ROWS).min(n);
            let mut stats = SweepStats::default();
            let mut counts = vec![AttributionCounts::default(); n_bots];
            let mut caches: Vec<Option<AllowCache<'_>>> = (0..n_bots).map(|_| None).collect();
            let mut believed_cur: Vec<Option<SiteCursors<'_>>> =
                (0..n_bots).map(|_| None).collect();
            let mut served_cur = SiteCursors::over_served(served, n_sites);
            let mut mask = vec![false; hi - lo];
            for (slot, row) in rows[lo..hi].iter().enumerate() {
                let Some(bot) = bot_of[row.useragent.index()] else {
                    continue;
                };
                if Some(row.uri_path) == robots {
                    continue;
                }
                let Some(site) = site_of[row.sitename.index()] else {
                    continue;
                };
                let t = row.timestamp.unix();
                stats.observe_row(t);
                let believed = believed_cur[bot]
                    .get_or_insert_with(|| SiteCursors::over_beliefs(beliefs, bot, n_sites))
                    .at(site, t, &mut stats);
                let served_policy = served_cur.at(site, t, &mut stats);
                let cache =
                    caches[bot].get_or_insert_with(|| AllowCache::new(corpus, &beliefs.bots[bot]));
                let allowed_believed = cache.allows(table, believed, row.uri_path);
                let allowed_served = cache.allows(table, served_policy, row.uri_path);

                let c = &mut counts[bot];
                c.accesses += 1;
                if !allowed_believed {
                    c.believed_violations += 1;
                }
                if allowed_served {
                    c.allowed_served += 1;
                    continue;
                }
                // A served-policy violation: attribute it.
                if !allowed_believed || believed == BelievedPolicy::Unfetched {
                    c.deliberate += 1;
                    continue;
                }
                match believed {
                    BelievedPolicy::Version(_) => c.stale_cache += 1,
                    BelievedPolicy::AllowAll => c.fetch_artifact += 1,
                    // Unfetched handled above; DisallowAll allows only
                    // robots.txt, so an allowed-believed page fetch
                    // under it cannot exist.
                    BelievedPolicy::Unfetched | BelievedPolicy::DisallowAll => {
                        unreachable!("allowed page fetch under {believed:?}")
                    }
                }
                mask[slot] = true;
            }
            (counts, mask, stats)
        });

    let mut stats = SweepStats::default();
    let mut totals = vec![AttributionCounts::default(); n_bots];
    let mut excused = Vec::with_capacity(n);
    for (part_counts, part_mask, part_stats) in parts {
        for (total, part) in totals.iter_mut().zip(part_counts) {
            total.merge(part);
        }
        excused.extend(part_mask);
        stats.merge(part_stats);
    }
    stats.flush("attribute");
    if stats.rows > 0 {
        span.event_range(stats.event_lo, stats.event_hi);
    }
    let counts = beliefs
        .bots
        .iter()
        .zip(totals)
        .filter(|(_, c)| c.accesses > 0)
        .map(|(name, c)| (name.clone(), c))
        .collect();
    Attribution { counts, excused }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_study::PolicyVersion;
    use botscope_weblog::record::AccessRecord;
    use botscope_weblog::time::Timestamp;

    const GPT_UA: &str = "Mozilla/5.0 (compatible; GPTBot/1.1)";
    const SITE: &str = "site-00.example.edu";

    fn rec(t: u64, path: &str) -> AccessRecord {
        AccessRecord {
            useragent: GPT_UA.into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: 7,
            asn: "MICROSOFT-CORP".into(),
            sitename: SITE.into(),
            uri_path: path.into(),
            status: 200,
            bytes: 1,
            referer: None,
        }
    }

    fn atlas_with(timeline: BeliefTimeline) -> BeliefAtlas {
        let mut atlas = BeliefAtlas::new(vec!["GPTBot".into()], 1);
        *atlas.timeline_mut(0, 0) = timeline;
        atlas
    }

    fn v(version: PolicyVersion) -> BelievedPolicy {
        BelievedPolicy::Version(version)
    }

    #[test]
    fn cursor_matches_binary_search_everywhere() {
        let mut tl = BeliefTimeline::always(BelievedPolicy::Unfetched);
        tl.record(100, v(PolicyVersion::Base));
        tl.record(500, BelievedPolicy::AllowAll);
        tl.record(900, v(PolicyVersion::V3DisallowAll));
        let mut stats = SweepStats::default();
        let mut cursor = TimelineCursor::new(&tl);
        // Forward sweep, then rewinds, then forward again.
        for t in [0, 99, 100, 499, 500, 901, 10, 500, 899, 2_000, 0] {
            assert_eq!(cursor.at(t, &mut stats), tl.at(t), "t={t}");
        }
        assert_eq!(stats.lookups, 11);
        assert!(stats.resets >= 2, "rewinds re-seat: {stats:?}");
    }

    #[test]
    fn stale_cache_crawl_is_an_artifact_not_a_violation() {
        // Served swaps Base → v3 at t=1000; the bot's belief stays at
        // the stale Base document throughout. Page fetches after the
        // swap violate the served policy but attribute to the stale
        // cache — zero deliberate violations.
        let corpus = PolicyCorpus::new();
        let beliefs = atlas_with(BeliefTimeline::always(v(PolicyVersion::Base)));
        let mut served_tl = BeliefTimeline::always(v(PolicyVersion::Base));
        served_tl.record(1_000, v(PolicyVersion::V3DisallowAll));
        let served = vec![served_tl];

        let records = vec![
            rec(100, "/news/item-001"),   // allowed under both
            rec(1_500, "/news/item-001"), // served v3 forbids, stale Base allows
            rec(1_600, "/news/item-002"),
            rec(1_700, "/robots.txt"), // never an attribution target
        ];
        let table = LogTable::from_records(&records);
        let out = attribute_rows(&table, &beliefs, &served, &corpus, 1);
        let c = out.counts["GPTBot"];
        assert_eq!(c.accesses, 3);
        assert_eq!(c.allowed_served, 1);
        assert_eq!(c.stale_cache, 2, "{c:?}");
        assert_eq!(c.deliberate, 0);
        assert_eq!(c.fetch_artifact, 0);
        assert_eq!(c.believed_violations, 0, "its own belief allowed everything");
        assert_eq!(c.violations_served(), 2);

        // The excusal mask marks exactly the two stale-cache rows.
        assert_eq!(out.excused, vec![false, true, true, false]);
    }

    #[test]
    fn believed_violations_are_deliberate() {
        // The bot's own belief is the v3 document (it fetched it!) and
        // it crawls pages anyway: deliberate, whatever is served.
        let corpus = PolicyCorpus::new();
        let beliefs = atlas_with(BeliefTimeline::always(v(PolicyVersion::V3DisallowAll)));
        let served = vec![BeliefTimeline::always(v(PolicyVersion::V3DisallowAll))];
        let records = vec![rec(10, "/news/item-001"), rec(20, "/people/person-0001")];
        let table = LogTable::from_records(&records);
        let out = attribute_rows(&table, &beliefs, &served, &corpus, 1);
        let c = out.counts["GPTBot"];
        assert_eq!(c.deliberate, 2);
        assert_eq!(c.believed_violations, 2);
        assert_eq!(c.stale_cache + c.fetch_artifact, 0);
        // Deliberate violations are never excused.
        assert_eq!(out.excused, vec![false, false]);
    }

    #[test]
    fn never_fetching_robots_is_deliberate() {
        let corpus = PolicyCorpus::new();
        let beliefs = atlas_with(BeliefTimeline::always(BelievedPolicy::Unfetched));
        let served = vec![BeliefTimeline::always(v(PolicyVersion::V3DisallowAll))];
        let table = LogTable::from_records(&[rec(10, "/news/item-001")]);
        let c = attribute_rows(&table, &beliefs, &served, &corpus, 1).counts["GPTBot"];
        assert_eq!(c.deliberate, 1, "choosing ignorance is not an excuse: {c:?}");
        assert_eq!(c.believed_violations, 0, "it believed nothing forbade it");
    }

    #[test]
    fn fetch_layer_entitlement_is_an_artifact() {
        // The bot's last robots.txt fetch resolved 4xx: RFC 9309 says
        // crawl without restriction. The served file forbids the path —
        // an artifact of the fetch layer, not defiance.
        let corpus = PolicyCorpus::new();
        let beliefs = atlas_with(BeliefTimeline::always(BelievedPolicy::AllowAll));
        let served = vec![BeliefTimeline::always(v(PolicyVersion::V3DisallowAll))];
        let table = LogTable::from_records(&[rec(10, "/news/item-001")]);
        let out = attribute_rows(&table, &beliefs, &served, &corpus, 1);
        let c = out.counts["GPTBot"];
        assert_eq!(c.fetch_artifact, 1, "{c:?}");
        assert_eq!(c.deliberate, 0);
        assert_eq!(out.excused, vec![true], "fetch artifacts are excused");
    }

    #[test]
    fn restricted_paths_violate_under_base_too() {
        // /secure/* is disallowed even by the Base file: a fetch there
        // with a fresh Base belief is deliberate under both bases.
        let corpus = PolicyCorpus::new();
        let beliefs = atlas_with(BeliefTimeline::always(v(PolicyVersion::Base)));
        let served = vec![BeliefTimeline::always(v(PolicyVersion::Base))];
        let table = LogTable::from_records(&[rec(10, "/secure/admin-0"), rec(20, "/about")]);
        let c = attribute_rows(&table, &beliefs, &served, &corpus, 1).counts["GPTBot"];
        assert_eq!(c.accesses, 2);
        assert_eq!(c.allowed_served, 1);
        assert_eq!(c.deliberate, 1);
        assert_eq!(c.believed_violations, 1);
    }

    #[test]
    fn unknown_agents_and_foreign_sites_are_skipped() {
        let corpus = PolicyCorpus::new();
        let beliefs = atlas_with(BeliefTimeline::always(v(PolicyVersion::Base)));
        let served = vec![BeliefTimeline::always(v(PolicyVersion::Base))];
        let mut records = vec![rec(10, "/about")];
        records.push(AccessRecord { useragent: "curl/8.0".into(), ..rec(20, "/about") });
        records.push(AccessRecord { sitename: "elsewhere.example.com".into(), ..rec(30, "/x") });
        let table = LogTable::from_records(&records);
        let out = attribute_rows(&table, &beliefs, &served, &corpus, 2);
        assert_eq!(out.counts.len(), 1);
        assert_eq!(out.counts["GPTBot"].accesses, 1);
        assert_eq!(out.excused, vec![false, false, false]);
    }
}
