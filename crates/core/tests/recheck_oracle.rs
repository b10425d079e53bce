//! The §5.1 engine against the paper's definitions, written naively
//! over plain `(user agent, site, unix secs, path)` tuples:
//!
//! * Figure 10 — per canonical bot, the sorted `/robots.txt` fetch
//!   times go through [`window_coverage`] at every paper window length
//!   (windows start at the bot's first fetch; only complete windows
//!   before the horizon count, and each must hold a fetch);
//! * Table 7 — every robots.txt fetch is scanned linearly against its
//!   site's deployment spans; a version's cell is `None` when no site
//!   ever served it.
//!
//! The row feed ([`RecheckAccumulator::push`], time-sorted rows through
//! one growing interner) and the table entry points
//! ([`profiles_from_table`], [`phase_check_matrix`], rows in any order)
//! must both agree with it.

use std::collections::BTreeMap;

use botscope_core::recheck::{
    by_category, phase_check_matrix, profiles_from_table, PhaseCheckRow, RecheckAccumulator,
    RecheckProfile, SiteVersionWindows,
};
use botscope_stats::window::{window_coverage, PAPER_WINDOWS_HOURS};
use botscope_study::PolicyVersion;
use botscope_useragent::{BotCategory, Standardizer};
use botscope_weblog::record::AccessRecord;
use botscope_weblog::table::LogTable;
use botscope_weblog::time::Timestamp;
use proptest::prelude::*;

const H: u64 = 3600;

/// `(user agent, site, unix secs, path)`.
type Row = (&'static str, &'static str, u64, &'static str);

const GPT_1_1: &str = "Mozilla/5.0 (compatible; GPTBot/1.1)";
/// A second raw variant of the same canonical bot.
const GPT_1_2: &str = "Mozilla/5.0 (compatible; GPTBot/1.2)";
const BING: &str = "Mozilla/5.0 (compatible; bingbot/2.0)";

/// Known-bot UA headers plus one agent no corpus entry matches.
const AGENTS: [&str; 6] = [
    GPT_1_1,
    GPT_1_2,
    BING,
    "Mozilla/5.0 (compatible; SemrushBot/7~bl)",
    "Mozilla/5.0 (compatible; AhrefsBot/7.0)",
    "totally-unknown-client/0.1",
];

const SITES: [&str; 3] = ["a.example.edu", "b.example.edu", "c.example.edu"];
const ROBOTS: &str = "/robots.txt";

/// Site a swaps Base for v1 at 400 h; site b serves v2 throughout; site
/// c has no deployment windows; v3 is never deployed.
fn sample_windows() -> SiteVersionWindows {
    use PolicyVersion as V;
    let mut windows = SiteVersionWindows::new();
    windows
        .insert(SITES[0].into(), vec![(V::Base, 0, 400 * H), (V::V1CrawlDelay, 400 * H, 900 * H)]);
    windows.insert(SITES[1].into(), vec![(V::V2EndpointOnly, 0, 900 * H)]);
    windows
}

/// Both §5.1 outputs straight from the paper's definitions.
fn oracle(
    rows: &[Row],
    windows: &SiteVersionWindows,
    horizon_end: u64,
) -> (Vec<RecheckProfile>, Vec<PhaseCheckRow>) {
    let mut standardizer = Standardizer::new();
    // canonical bot → (category, its robots.txt fetches as (site, t)).
    type Fetches = Vec<(&'static str, u64)>;
    let mut bots: BTreeMap<String, (BotCategory, Fetches)> = BTreeMap::new();
    for &(ua, site, t, path) in rows {
        let Some(spec) = standardizer.standardize(ua) else { continue };
        let (_, fetches) = bots
            .entry(spec.bot.canonical.to_string())
            .or_insert_with(|| (spec.bot.category, Vec::new()));
        if path == ROBOTS {
            fetches.push((site, t));
        }
    }
    let deployed =
        |v: PolicyVersion| windows.values().flatten().any(|&(version, _, _)| version == v);
    let live_on = |v: PolicyVersion, site: &str, t: u64| {
        windows.get(site).is_some_and(|spans| {
            spans.iter().any(|&(version, from, to)| version == v && from <= t && t < to)
        })
    };

    let mut profiles = Vec::new();
    let mut matrix = Vec::new();
    for (bot, (category, fetches)) in bots {
        let mut times: Vec<u64> = fetches.iter().map(|&(_, t)| t).collect();
        times.sort_unstable();
        let covered = PAPER_WINDOWS_HOURS
            .iter()
            .map(|&h| {
                let cov = window_coverage(&times, h * H, horizon_end);
                (h, cov.is_some_and(|c| c.fully_covered()))
            })
            .collect();
        let mut checked = [None; 4];
        for v in PolicyVersion::ALL {
            if deployed(v) {
                checked[v.index()] = Some(fetches.iter().any(|&(site, t)| live_on(v, site, t)));
            }
        }
        let checks = fetches.len() as u64;
        profiles.push(RecheckProfile { bot: bot.clone(), category, checks, covered });
        matrix.push(PhaseCheckRow { bot, category, checked, checks });
    }
    (profiles, matrix)
}

fn record(&(ua, site, t, path): &Row) -> AccessRecord {
    AccessRecord {
        useragent: ua.into(),
        timestamp: Timestamp::from_unix(t),
        ip_hash: 1,
        asn: "GOOGLE".into(),
        sitename: site.into(),
        uri_path: path.into(),
        status: 200,
        bytes: 1,
        referer: None,
    }
}

/// Assert the engine equals the oracle through every entry point, and
/// return the oracle's outputs for further checks.
fn assert_engine_matches_oracle(
    rows: &[Row],
    windows: &SiteVersionWindows,
    horizon_end: u64,
) -> (Vec<RecheckProfile>, Vec<PhaseCheckRow>) {
    let (profiles, matrix) = oracle(rows, windows, horizon_end);

    // Table entry points, over the rows in their given order.
    let records: Vec<AccessRecord> = rows.iter().map(record).collect();
    let table = LogTable::from_records(&records);
    assert_eq!(profiles_from_table(&table, horizon_end), profiles, "profiles_from_table");
    assert_eq!(phase_check_matrix(&table, windows), matrix, "phase_check_matrix");

    // Row feed: time-sorted rows, each pushed as soon as it is interned,
    // so the interner grows under the accumulator.
    let mut sorted = records;
    sorted.sort_by_key(|r| r.timestamp);
    let mut streamed = LogTable::new();
    let mut acc = RecheckAccumulator::new(windows.clone(), horizon_end);
    for r in &sorted {
        streamed.push_record(r);
        acc.push(streamed.rows().last().expect("just pushed"), streamed.interner());
    }
    assert_eq!(acc.profiles(), profiles, "push: profiles");
    assert_eq!(acc.phase_rows(), matrix, "push: phase rows");
    (profiles, matrix)
}

fn profile<'p>(profiles: &'p [RecheckProfile], bot: &str) -> &'p RecheckProfile {
    profiles.iter().find(|p| p.bot == bot).expect("bot profiled")
}

#[test]
fn raw_variants_pool_into_one_canonical_bot() {
    let mut standardizer = Standardizer::new();
    for ua in [GPT_1_1, GPT_1_2] {
        assert_eq!(standardizer.standardize(ua).expect("known bot").bot.canonical, "GPTBot");
    }
    // Alternating variants each miss every other 12 h window; pooled,
    // the bot covers them all.
    let rows: Vec<Row> = (0..8)
        .map(|i| (if i % 2 == 0 { GPT_1_1 } else { GPT_1_2 }, SITES[2], i * 12 * H, ROBOTS))
        .collect();
    let (profiles, _) = assert_engine_matches_oracle(&rows, &sample_windows(), 96 * H);
    assert_eq!(profiles.len(), 1);
    let gpt = profile(&profiles, "GPTBot");
    assert_eq!(gpt.checks, 8);
    assert!(gpt.covered[&12]);
}

#[test]
fn fetches_on_window_boundaries_and_at_the_horizon() {
    let horizon_end = 48 * H;
    let rows: Vec<Row> = vec![
        // GPTBot: one fetch at the start of each 12 h window.
        (GPT_1_1, SITES[2], 0, ROBOTS),
        (GPT_1_1, SITES[2], 12 * H, ROBOTS),
        (GPT_1_1, SITES[2], 24 * H, ROBOTS),
        (GPT_1_1, SITES[2], 36 * H, ROBOTS),
        // bingbot: the last 12 h window's only fetch lands exactly on the
        // horizon, which lies outside every complete window.
        (BING, SITES[2], 0, ROBOTS),
        (BING, SITES[2], 12 * H, ROBOTS),
        (BING, SITES[2], 24 * H, ROBOTS),
        (BING, SITES[2], 48 * H, ROBOTS),
    ];
    let (profiles, _) = assert_engine_matches_oracle(&rows, &sample_windows(), horizon_end);
    let gpt = profile(&profiles, "GPTBot");
    assert!(gpt.covered[&12] && gpt.covered[&24] && gpt.covered[&48]);
    assert!(!gpt.covered[&72], "no complete 72 h window before the horizon");
    let bing = profile(&profiles, "bingbot");
    assert_eq!(bing.checks, 4, "the horizon fetch still counts as a check");
    assert!(!bing.covered[&12], "window [36 h, 48 h) holds no fetch");
    assert!(bing.covered[&24]);
}

#[test]
fn same_instant_fetches_on_different_sites() {
    use PolicyVersion as V;
    // At 400 h site a has just swapped to v1 and site b still serves v2;
    // one instant checks both versions, and a fetch at a span's end
    // belongs to the next span.
    let t = 400 * H;
    let rows: Vec<Row> = vec![
        (GPT_1_1, SITES[0], t, ROBOTS),
        (GPT_1_2, SITES[1], t, ROBOTS),
        (BING, SITES[2], t, ROBOTS),
        (BING, SITES[0], t, "/news/item-001"),
    ];
    let (_, matrix) = assert_engine_matches_oracle(&rows, &sample_windows(), 800 * H);
    let gpt = matrix.iter().find(|r| r.bot == "GPTBot").expect("GPTBot row");
    assert_eq!(gpt.checked[V::Base.index()], Some(false));
    assert_eq!(gpt.checked[V::V1CrawlDelay.index()], Some(true));
    assert_eq!(gpt.checked[V::V2EndpointOnly.index()], Some(true));
    assert_eq!(gpt.checked[V::V3DisallowAll.index()], None, "never deployed");
    let bing = matrix.iter().find(|r| r.bot == "bingbot").expect("bingbot row");
    assert_eq!(bing.checks, 1);
    assert_eq!(&bing.checked[..3], &[Some(false); 3], "site c has no windows");
}

#[test]
fn first_fetch_past_the_horizon_covers_nothing() {
    let rows: Vec<Row> =
        vec![(GPT_1_1, SITES[0], 900 * H, ROBOTS), (GPT_1_1, SITES[0], 901 * H, ROBOTS)];
    let (profiles, _) = assert_engine_matches_oracle(&rows, &sample_windows(), 800 * H);
    let gpt = profile(&profiles, "GPTBot");
    assert!(gpt.ever_checked());
    assert!(gpt.covered.values().all(|&c| !c));
    // A bot that checked enters Figure 10's denominator even so.
    let agg = by_category(&profiles);
    assert_eq!(agg.checking_bots[&gpt.category], 1);
    assert_eq!(agg.proportions[&(gpt.category, 12)], 0.0);
}

#[test]
fn unsorted_tables_are_fed_in_time_order() {
    let mut rows: Vec<Row> =
        (0..30).map(|i| (AGENTS[i % 3], SITES[i % 3], i as u64 * 11 * H, ROBOTS)).collect();
    rows.reverse();
    let (profiles, _) = assert_engine_matches_oracle(&rows, &sample_windows(), 330 * H);
    assert!(profile(&profiles, "GPTBot").covered[&48]);
}

#[test]
fn never_checkers_and_anonymous_agents() {
    let rows: Vec<Row> =
        vec![(AGENTS[3], SITES[0], 50 * H, "/page"), (AGENTS[5], SITES[0], 60 * H, ROBOTS)];
    let (profiles, matrix) = assert_engine_matches_oracle(&rows, &sample_windows(), 800 * H);
    assert_eq!(profiles.len(), 1, "the unknown agent is not a bot");
    assert!(!profiles[0].ever_checked());
    assert!(by_category(&profiles).checking_bots.is_empty());
    assert_eq!(matrix[0].checked[PolicyVersion::Base.index()], Some(false));
}

#[test]
fn empty_input() {
    let (profiles, matrix) = assert_engine_matches_oracle(&[], &sample_windows(), 800 * H);
    assert!(profiles.is_empty() && matrix.is_empty());
    assert_eq!(by_category(&profiles), by_category(&[]));
}

/// Times below `hours` h: half on hour marks (so they often sit exactly
/// on window boundaries, span edges and the horizon), half anywhere.
fn time(hours: u64) -> impl Strategy<Value = u64> {
    (0..hours, 0..H, 0u8..2)
        .prop_map(|(h, off, on_mark)| h * H + if on_mark == 0 { 0 } else { off })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]
    #[test]
    fn engine_matches_the_paper_oracle_on_unsorted_streams(
        raw in prop::collection::vec(
            (0usize..AGENTS.len(), 0usize..SITES.len(), time(1_000), 0u8..4),
            0..120,
        ),
        horizon_end in time(1_200),
    ) {
        let rows: Vec<Row> = raw
            .into_iter()
            .map(|(agent, site, t, kind)| {
                // Mostly robots fetches (the monitor emits only those),
                // with some plain traffic in the mix.
                let path = if kind > 0 { ROBOTS } else { "/news/item-001" };
                (AGENTS[agent], SITES[site], t, path)
            })
            .collect();
        assert_engine_matches_oracle(&rows, &sample_windows(), horizon_end);
    }
}
