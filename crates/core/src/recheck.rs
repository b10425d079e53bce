//! robots.txt re-check-frequency analysis (paper §5.1).
//!
//! Two outputs:
//!
//! * per-bot window coverage — did the bot re-fetch `robots.txt` within
//!   every 12/24/48/72/168-hour window of the observation period?
//!   (Figure 10 aggregates the proportion of bots per category that did),
//! * per-bot-per-phase check booleans — did the bot fetch `robots.txt`
//!   at all while a given experimental file was live? (Table 7's
//!   "Checked robots.txt" columns).
//!
//! One engine computes both: [`RecheckAccumulator`], a bounded-memory
//! row sink. Its order contract: rows arrive in nondecreasing timestamp
//! order, as the monitor's k-way shard merge streams them. The table
//! entry points [`profiles_from_table`] and [`phase_check_matrix`] feed
//! it a table's rows in that order, sorting only a table whose
//! timestamps go back. The §3 report's Figure 10 reuses its per-bot
//! state on the robots.txt fetch times its per-bot fold already holds,
//! so it makes no second pass over the table.

use std::collections::BTreeMap;

use botscope_stats::window::PAPER_WINDOWS_HOURS;
use botscope_study::PolicyVersion;
use botscope_useragent::{BotCategory, BotSpec};
use botscope_weblog::intern::{StringInterner, Sym};
use botscope_weblog::table::{LogTable, RecordRow};

use crate::metrics::PathClasses;
use crate::pipeline::{for_each_in_time_order, AgentBots};

/// Per-bot re-check profile.
#[derive(Debug, Clone, PartialEq)]
pub struct RecheckProfile {
    /// Canonical bot name.
    pub bot: String,
    /// Category.
    pub category: BotCategory,
    /// Number of robots.txt fetches.
    pub checks: u64,
    /// For each paper window length (hours → fully covered?).
    pub covered: BTreeMap<u64, bool>,
}

impl RecheckProfile {
    /// Whether the bot checked robots.txt at all.
    pub fn ever_checked(&self) -> bool {
        self.checks > 0
    }
}

/// Figure 10's series: per category, the proportion of (checking) bots
/// that re-check within each window length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecheckByCategory {
    /// (category, window hours) → proportion in [0, 1].
    pub proportions: BTreeMap<(BotCategory, u64), f64>,
    /// Bots per category that fetched robots.txt at least once.
    pub checking_bots: BTreeMap<BotCategory, usize>,
}

/// Per-bot re-check profiles of an interned table over an observation
/// horizon — the entry point for *monitored* fetch logs, whose
/// `/robots.txt` rows use the ordinary access-record schema. Windows
/// are anchored at each bot's first robots.txt fetch, per the paper;
/// `horizon_end` is the end of the dataset (unix secs).
pub fn profiles_from_table(table: &LogTable, horizon_end: u64) -> Vec<RecheckProfile> {
    let mut acc = RecheckAccumulator::new(SiteVersionWindows::new(), horizon_end);
    acc.push_table(table);
    acc.profiles()
}

/// Aggregate profiles into Figure 10's category proportions. Only bots
/// that checked robots.txt at least once enter the denominator ("if they
/// check it at all", §5.1).
pub fn by_category(profiles: &[RecheckProfile]) -> RecheckByCategory {
    let mut out = RecheckByCategory::default();
    let mut per_cat: BTreeMap<BotCategory, Vec<&RecheckProfile>> = BTreeMap::new();
    for p in profiles {
        if p.ever_checked() {
            per_cat.entry(p.category).or_default().push(p);
        }
    }
    for (cat, ps) in per_cat {
        out.checking_bots.insert(cat, ps.len());
        for &h in &PAPER_WINDOWS_HOURS {
            let covered = ps.iter().filter(|p| p.covered[&h]).count();
            out.proportions.insert((cat, h), covered as f64 / ps.len() as f64);
        }
    }
    out
}

/// Per-site policy deployment windows: site name →
/// `(version, from_unix, to_unix)` spans, time-ascending — the shape
/// `Timeline::version_windows` exports per monitored site.
pub type SiteVersionWindows = BTreeMap<String, Vec<(PolicyVersion, u64, u64)>>;

/// Coalesce deployment windows across non-behavioral transitions.
///
/// `is_behavioral(from, to)` decides whether swapping `from` for `to`
/// changed any decision (the robots.txt semantic analyzer's
/// `classify_change` is the intended oracle; this crate stays
/// parser-agnostic by taking a closure). Contiguous spans whose
/// boundary transition is *not* behavioral merge into one span that
/// keeps the earlier version label — a bot that checked during either
/// half saw the same effective policy, so Table 7's "checked while vN
/// was live" columns should not credit (or debit) the cosmetic swap.
pub fn coalesce_behavioral_windows(
    windows: &SiteVersionWindows,
    is_behavioral: impl Fn(PolicyVersion, PolicyVersion) -> bool,
) -> SiteVersionWindows {
    let mut out = SiteVersionWindows::new();
    for (site, spans) in windows {
        let mut merged: Vec<(PolicyVersion, u64, u64)> = Vec::with_capacity(spans.len());
        for &(version, from, to) in spans {
            match merged.last_mut() {
                Some(prev) if prev.2 == from && !is_behavioral(prev.0, version) => {
                    prev.2 = to;
                }
                _ => merged.push((version, from, to)),
            }
        }
        out.insert(site.clone(), merged);
    }
    out
}

/// One bot's Table 7 digest-window row: per policy version, whether the
/// bot fetched robots.txt *on a site while that site was serving the
/// version* (`None` = the version was never live anywhere the bot could
/// have seen it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseCheckRow {
    /// Canonical bot name.
    pub bot: String,
    /// Category.
    pub category: BotCategory,
    /// version index (via [`PolicyVersion::index`]) → checked?
    pub checked: [Option<bool>; 4],
    /// Total robots.txt fetches attributed to the bot.
    pub checks: u64,
}

/// Derive per-phase "checked robots.txt while vN was live" columns from
/// monitored fetch logs: thread each site's deployment windows through
/// every bot's robots.txt fetch trace. A version's cell is `Some(true)`
/// once any fetch lands inside any site's window for that version,
/// `Some(false)` when windows existed but no fetch hit them, and `None`
/// when the version was never deployed. Rows come back in bot-name
/// order; bots with no robots.txt fetch at all still appear (all
/// deployed cells `Some(false)`) — those are Table 7's never-checkers.
pub fn phase_check_matrix(table: &LogTable, windows: &SiteVersionWindows) -> Vec<PhaseCheckRow> {
    // The horizon only bounds the coverage windows, which go unread.
    let mut acc = RecheckAccumulator::new(windows.clone(), 0);
    acc.push_table(table);
    acc.phase_rows()
}

// ---------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------

/// Incremental [`window_coverage`] over one bot's robots.txt fetch
/// times, arriving in nondecreasing order.
///
/// State is O(1): the anchor, the complete-window count (fixed the
/// moment the anchor lands), the highest window index hit so far, and
/// whether any window was skipped. For sorted input this equals
/// [`window_coverage`] over all the times: the window index only ever
/// advances, so a gap (`idx > hi + 1`) can never be filled by a later
/// fetch.
///
/// [`window_coverage`]: botscope_stats::window::window_coverage
#[derive(Debug, Clone, Copy)]
struct WindowAccum {
    window_secs: u64,
    anchored: bool,
    first: u64,
    total: u64,
    hi: u64,
    missed: bool,
}

impl WindowAccum {
    fn new(window_secs: u64) -> WindowAccum {
        WindowAccum { window_secs, anchored: false, first: 0, total: 0, hi: 0, missed: false }
    }

    fn push(&mut self, t: u64, horizon_end: u64) {
        if !self.anchored {
            self.anchored = true;
            self.first = t;
            // The anchor fetch itself hits window 0: `hi` starts there.
            self.total = if t >= horizon_end { 0 } else { (horizon_end - t) / self.window_secs };
            return;
        }
        debug_assert!(t >= self.first, "rows must arrive in nondecreasing time order");
        if t < self.first || t >= horizon_end {
            return;
        }
        let idx = (t - self.first) / self.window_secs;
        if idx >= self.total {
            return;
        }
        if idx > self.hi + 1 {
            self.missed = true;
        }
        if idx > self.hi {
            self.hi = idx;
        }
    }

    /// The paper's predicate: every complete window contained a fetch.
    fn fully_covered(&self) -> bool {
        self.total > 0 && !self.missed && self.hi + 1 == self.total
    }
}

/// Per-bot state: O(windows) coverage accumulators plus the Table 7
/// hit flags.
#[derive(Debug, Clone)]
struct BotAccum {
    checks: u64,
    hit: [bool; 4],
    windows: [WindowAccum; 5],
}

impl BotAccum {
    fn new() -> BotAccum {
        BotAccum {
            checks: 0,
            hit: [false; 4],
            windows: PAPER_WINDOWS_HOURS.map(|h| WindowAccum::new(h * 3600)),
        }
    }

    /// Count one robots.txt fetch at unix second `t`.
    fn check(&mut self, t: u64, horizon_end: u64) {
        self.checks += 1;
        for w in &mut self.windows {
            w.push(t, horizon_end);
        }
    }

    fn profile(&self, spec: &BotSpec) -> RecheckProfile {
        RecheckProfile {
            bot: spec.canonical.to_string(),
            category: spec.category,
            checks: self.checks,
            covered: PAPER_WINDOWS_HOURS
                .iter()
                .zip(&self.windows)
                .map(|(&h, w)| (h, w.fully_covered()))
                .collect(),
        }
    }
}

/// The re-check profile of bot `spec` from its robots.txt fetch times
/// (unix seconds, nondecreasing) — what [`RecheckAccumulator::profiles`]
/// gives for that bot, for a caller that already holds the times.
pub(crate) fn fetch_profile(spec: &BotSpec, fetches: &[u64], horizon_end: u64) -> RecheckProfile {
    let mut acc = BotAccum::new();
    for &t in fetches {
        acc.check(t, horizon_end);
    }
    acc.profile(spec)
}

/// One site's `(version, from_unix, to_unix)` deployment spans.
type Spans = Vec<(PolicyVersion, u64, u64)>;

/// `site_slot` sentinel: a site symbol not looked up yet.
const UNSEEN: u32 = u32::MAX;
/// `site_slot` sentinel: a site without deployment windows.
const NONE: u32 = u32::MAX - 1;

/// The §5.1 engine: a bounded-memory accumulator for the per-category
/// re-check coverage table ([`by_category`]`(&`[`profiles`](Self::profiles)`())`)
/// and the monitored Table 7 matrix ([`phase_rows`](Self::phase_rows)).
///
/// Feed it rows in nondecreasing timestamp order (the module's order
/// contract): the daemon's streamed fetch rows as a
/// [`RowSink`](botscope_weblog::sink::RowSink), or a table through
/// [`push_table`](Self::push_table). State is O(bots × windows +
/// symbols), never O(rows), so `monitor --stream` prints the same report
/// bytes as the materialized path without ever holding the table.
///
/// Every verdict is keyed by symbol in dense arrays that grow with the
/// interner: each user agent is standardized once (by the crate's one
/// `AgentBots` table), each path classified once and each site's
/// windows looked up once, so a row costs a few array indexes.
pub struct RecheckAccumulator {
    horizon_end: u64,
    /// Deployment windows, site-name-ascending (binary-searched once
    /// per site symbol).
    sites: Vec<(String, Spans)>,
    deployed: [bool; 4],
    agents: AgentBots<BotAccum>,
    paths: PathClasses,
    /// The `sites` index of each site symbol, indexed by [`Sym::index`].
    site_slot: Vec<u32>,
}

impl RecheckAccumulator {
    /// An empty accumulator over `windows` (per-site deployment spans,
    /// known before streaming starts) and the observation horizon.
    pub fn new(windows: SiteVersionWindows, horizon_end: u64) -> RecheckAccumulator {
        let mut deployed = [false; 4];
        for spans in windows.values() {
            for &(version, _, _) in spans {
                deployed[version.index()] = true;
            }
        }
        RecheckAccumulator {
            horizon_end,
            sites: windows.into_iter().collect(),
            deployed,
            agents: AgentBots::new(BotAccum::new()),
            paths: PathClasses::default(),
            site_slot: Vec::new(),
        }
    }

    /// Absorb one row; `strings` is the one growing interner its symbols
    /// come from. Known bots register even when the row is not a
    /// robots.txt fetch (Table 7's never-checker rows); anonymous agents
    /// are ignored, as in standardization.
    pub fn push(&mut self, row: &RecordRow, strings: &StringInterner) {
        if self.site_slot.len() < strings.len() {
            self.site_slot.resize(strings.len(), UNSEEN);
            self.paths.grow(strings);
        }
        let Some(bot) = self.agents.bot_mut(row.useragent, strings) else {
            return;
        };
        if !self.paths.is_robots(row.uri_path) {
            return;
        }
        let t = row.timestamp.unix();
        let site = site_index(&mut self.site_slot, &self.sites, row.sitename, strings);
        bot.check(t, self.horizon_end);
        if let Some((_, spans)) = site.and_then(|i| self.sites.get(i)) {
            if let Some(&(version, _, _)) = spans.iter().find(|&&(_, from, to)| t >= from && t < to)
            {
                bot.hit[version.index()] = true;
            }
        }
    }

    /// Absorb every row of `table` in time order.
    pub fn push_table(&mut self, table: &LogTable) {
        let strings = table.interner();
        for_each_in_time_order(table, table.rows().iter(), |row| self.push(row, strings));
    }

    /// Per-bot re-check profiles (Figure 10's input), one per known
    /// bot in canonical-name order.
    pub fn profiles(&self) -> Vec<RecheckProfile> {
        self.agents.by_name().map(|(spec, b)| b.profile(spec)).collect()
    }

    /// The monitored Table 7 matrix, one row per known bot in
    /// canonical-name order (see [`phase_check_matrix`]).
    pub fn phase_rows(&self) -> Vec<PhaseCheckRow> {
        self.agents
            .by_name()
            .map(|(spec, b)| PhaseCheckRow {
                bot: spec.canonical.to_string(),
                category: spec.category,
                checked: std::array::from_fn(|i| self.deployed[i].then_some(b.hit[i])),
                checks: b.checks,
            })
            .collect()
    }
}

/// The `sites` index of a site symbol, looked up on first sight and
/// cached in `site_slot`.
fn site_index(
    site_slot: &mut [u32],
    sites: &[(String, Spans)],
    site: Sym,
    strings: &StringInterner,
) -> Option<usize> {
    let slot = &mut site_slot[site.index()];
    if *slot == UNSEEN {
        let name = strings.resolve(site);
        *slot = sites.binary_search_by(|(s, _)| s.as_str().cmp(name)).map_or(NONE, |i| i as u32);
    }
    (*slot != NONE).then_some(*slot as usize)
}

impl botscope_weblog::sink::RowSink for RecheckAccumulator {
    fn write_row(&mut self, row: &RecordRow, strings: &StringInterner) -> std::io::Result<()> {
        self.push(row, strings);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_weblog::record::AccessRecord;
    use botscope_weblog::time::Timestamp;

    fn rec(ua: &str, t: u64, path: &str) -> AccessRecord {
        AccessRecord {
            useragent: ua.into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: 1,
            asn: "GOOGLE".into(),
            sitename: "s".into(),
            uri_path: path.into(),
            status: 200,
            bytes: 1,
            referer: None,
        }
    }

    const H: u64 = 3600;

    #[test]
    fn frequent_checker_covers_all_windows() {
        // GPTBot checks every 10 hours for 15 days.
        let mut records = Vec::new();
        for i in 0..36 {
            records.push(rec("Mozilla/5.0 (compatible; GPTBot/1.1)", i * 10 * H, "/robots.txt"));
        }
        let ps = profiles_from_table(&LogTable::from_records(&records), 360 * H);
        let gpt = ps.iter().find(|p| p.bot == "GPTBot").unwrap();
        assert!(gpt.ever_checked());
        for &h in &PAPER_WINDOWS_HOURS {
            assert!(gpt.covered[&h], "window {h}h");
        }
    }

    #[test]
    fn sparse_checker_covers_only_long_windows() {
        // Checks every 100 hours.
        let mut records = Vec::new();
        for i in 0..10 {
            records.push(rec("Mozilla/5.0 (compatible; bingbot/2.0)", i * 100 * H, "/robots.txt"));
        }
        let ps = profiles_from_table(&LogTable::from_records(&records), 1000 * H);
        let bing = ps.iter().find(|p| p.bot == "bingbot").unwrap();
        assert!(!bing.covered[&12]);
        assert!(!bing.covered[&24]);
        assert!(bing.covered[&168]);
    }

    #[test]
    fn never_checker_excluded_from_category_proportions() {
        let records = vec![
            rec("axios/1.6.2", 0, "/a"),
            rec("axios/1.6.2", 10, "/b"),
            rec("Mozilla/5.0 (compatible; SemrushBot/7~bl)", 0, "/robots.txt"),
        ];
        let ps = profiles_from_table(&LogTable::from_records(&records), 100 * H);
        let axios = ps.iter().find(|p| p.bot == "Axios").unwrap();
        assert!(!axios.ever_checked());
        let agg = by_category(&ps);
        assert!(
            !agg.checking_bots.contains_key(&BotCategory::Other)
                || agg.checking_bots[&BotCategory::Other] == 0
                || {
                    // Axios is Other; SemrushBot is SEO. Other must not count Axios.
                    agg.checking_bots.get(&BotCategory::Other).copied().unwrap_or(0) == 0
                }
        );
        assert_eq!(agg.checking_bots[&BotCategory::SeoCrawler], 1);
    }

    #[test]
    fn category_proportions_bounds() {
        let mut records = Vec::new();
        // Two SEO bots: one dense checker, one single check.
        for i in 0..40 {
            records.push(rec(
                "Mozilla/5.0 (compatible; SemrushBot/7~bl)",
                i * 6 * H,
                "/robots.txt",
            ));
        }
        records.push(rec("Mozilla/5.0 (compatible; AhrefsBot/7.0)", 0, "/robots.txt"));
        let ps = profiles_from_table(&LogTable::from_records(&records), 240 * H);
        let agg = by_category(&ps);
        assert_eq!(agg.checking_bots[&BotCategory::SeoCrawler], 2);
        for &h in &PAPER_WINDOWS_HOURS {
            let p = agg.proportions[&(BotCategory::SeoCrawler, h)];
            assert!((0.0..=1.0).contains(&p));
        }
        // Dense checker covers 12h windows, single-check bot does not →
        // proportion is 0.5 at 12h.
        assert!((agg.proportions[&(BotCategory::SeoCrawler, 12)] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn phase_check_matrix_threads_site_windows() {
        use botscope_study::PolicyVersion as V;
        // Site A deploys Base then v1; site B stays Base. GPTBot checks
        // A during v1 and B during Base; bingbot checks nothing inside
        // any window; axios never checks at all.
        let rec_on = |ua: &str, site: &str, t: u64, path: &str| AccessRecord {
            useragent: ua.into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: 1,
            asn: "GOOGLE".into(),
            sitename: site.into(),
            uri_path: path.into(),
            status: 200,
            bytes: 1,
            referer: None,
        };
        let gpt = "Mozilla/5.0 (compatible; GPTBot/1.1)";
        let bing = "Mozilla/5.0 (compatible; bingbot/2.0)";
        let records = vec![
            rec_on(gpt, "a.example.edu", 1_500, "/robots.txt"), // A: inside v1
            rec_on(gpt, "b.example.edu", 10, "/robots.txt"),    // B: inside Base
            rec_on(bing, "a.example.edu", 5_000, "/robots.txt"), // A: past every window
            rec_on("axios/1.6.2", "a.example.edu", 100, "/page"),
        ];
        let table = LogTable::from_records(&records);
        let mut windows = SiteVersionWindows::new();
        windows.insert(
            "a.example.edu".into(),
            vec![(V::Base, 0, 1_000), (V::V1CrawlDelay, 1_000, 2_000)],
        );
        windows.insert("b.example.edu".into(), vec![(V::Base, 0, 2_000)]);
        let matrix = phase_check_matrix(&table, &windows);
        let row = |bot: &str| matrix.iter().find(|r| r.bot == bot).unwrap();

        let g = row("GPTBot");
        assert_eq!(g.checked[V::Base.index()], Some(true));
        assert_eq!(g.checked[V::V1CrawlDelay.index()], Some(true));
        assert_eq!(g.checked[V::V2EndpointOnly.index()], None, "never deployed");
        assert_eq!(g.checks, 2);

        let b = row("bingbot");
        assert_eq!(b.checked[V::Base.index()], Some(false), "check landed outside the windows");
        assert_eq!(b.checks, 1);

        let a = row("Axios");
        assert_eq!(a.checks, 0);
        assert_eq!(a.checked[V::Base.index()], Some(false), "Table 7 never-checker row");
    }

    #[test]
    fn coalesce_merges_only_cosmetic_contiguous_spans() {
        use PolicyVersion as V;
        let mut windows = SiteVersionWindows::new();
        windows.insert(
            "a.example.edu".into(),
            vec![
                (V::Base, 0, 1_000),
                (V::V1CrawlDelay, 1_000, 2_000),
                (V::V2EndpointOnly, 2_000, 3_000),
            ],
        );
        // Gap between spans: never merged, even if cosmetic.
        windows
            .insert("b.example.edu".into(), vec![(V::Base, 0, 500), (V::V1CrawlDelay, 600, 900)]);

        // Oracle: only Base -> V1 is cosmetic.
        let cosmetic = |from: V, to: V| !(from == V::Base && to == V::V1CrawlDelay);
        let merged = coalesce_behavioral_windows(&windows, cosmetic);
        assert_eq!(
            merged["a.example.edu"],
            vec![(V::Base, 0, 2_000), (V::V2EndpointOnly, 2_000, 3_000)],
            "cosmetic boundary folds into the earlier span"
        );
        assert_eq!(
            merged["b.example.edu"],
            vec![(V::Base, 0, 500), (V::V1CrawlDelay, 600, 900)],
            "non-contiguous spans stay separate"
        );

        // All-behavioral oracle: identity.
        let same = coalesce_behavioral_windows(&windows, |_, _| true);
        assert_eq!(same, windows);
    }
}
