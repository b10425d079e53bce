//! Ablations of four choices the paper makes: RFC 9309 longest-match
//! precedence, τ-tuple stratification of crawl delays, the 5-minute
//! session gap, and the 90 % spoof-dominance threshold. Each test pins
//! the quantity that moves when the choice changes, on one shared
//! dataset (10 days, scale 0.05, default seed), so a change to the
//! matcher, the fold, sessionization or the §5.2 rule that shifts it
//! shows up here.

use std::sync::OnceLock;

use botscope::core::pipeline::tally_bots;
use botscope::robots::{CompiledPolicy, RuleVerb};
use botscope::simnet::scenario::full_study_table;
use botscope::simnet::SimConfig;
use botscope::useragent::Standardizer;
use botscope::weblog::table::LogTable;

fn dataset() -> &'static LogTable {
    static TABLE: OnceLock<LogTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        full_study_table(&SimConfig { days: 10, scale: 0.05, ..SimConfig::default() }).table
    })
}

/// Longest-match precedence (RFC 9309 §2.2.2) against naive first-match
/// in file order: the two disagree wherever a later, longer Allow
/// overrides the leading `Disallow: /`.
#[test]
fn first_match_flips_the_decision_on_two_of_four_paths() {
    let policy = CompiledPolicy::from_text(
        "User-agent: *\nDisallow: /\nAllow: /page-data/*\nAllow: /news/\nDisallow: /news/private\n",
    );
    let (_, group) = policy.resolve_view("bot").expect("wildcard group");
    let first_match = |path: &str| {
        let hit = group.rules().iter().find(|rule| rule.pattern.matches(path));
        hit.is_none_or(|rule| rule.verb == RuleVerb::Allow)
    };
    let paths = ["/page-data/x.json", "/news/item", "/news/private/x", "/other"];
    let longest: Vec<bool> = paths.iter().map(|p| policy.check("bot", p).allow).collect();
    let first: Vec<bool> = paths.iter().map(|p| first_match(p)).collect();
    assert_eq!(longest, [true, true, false, false]);
    assert_eq!(first, [false, false, false, false]);
}

/// τ-stratified crawl-delay compliance against pooling all of a bot's
/// accesses: on the busiest bot, which crawls from many clients,
/// interleaved clients make pooled deltas look shorter than they are.
#[test]
fn pooling_the_busiest_bot_understates_its_crawl_delay_compliance() {
    let table = dataset();
    let tallies = tally_bots(table);
    let (bot, tally) = tallies.bots.iter().max_by_key(|(_, t)| t.records).expect("known bots");
    let stratified = tally.crawl_delay().ratio().expect("accesses");

    let mut standardizer = Standardizer::new();
    let mut times: Vec<u64> = table
        .rows()
        .iter()
        .filter(|r| {
            standardizer
                .standardize(table.resolve(r.useragent))
                .is_some_and(|s| s.bot.canonical == bot.canonical)
        })
        .map(|r| r.timestamp.unix())
        .collect();
    assert_eq!(times.len() as u64, tally.records);
    times.sort_unstable();
    let compliant = times.windows(2).filter(|w| w[1] - w[0] >= 30).count();
    let pooled = compliant as f64 / (times.len() - 1) as f64;

    assert_eq!(format!("{stratified:.3} {pooled:.3}"), "0.809 0.797");
}

/// Sessionization-gap sweep around the paper's 5 minutes: sessions
/// fall as the gap grows, steeply below 5 min and barely above it.
#[test]
fn session_counts_fall_as_the_gap_grows() {
    let table = dataset();
    let sessions: Vec<usize> =
        [1u64, 5, 15, 60].iter().map(|gap_min| table.sessionize(gap_min * 60).len()).collect();
    assert_eq!(sessions, [2528, 1710, 1707, 1691]);
}

/// Spoof-dominance threshold sweep around the paper's 90 % (§5.2 calls
/// the choice "somewhat arbitrary"): a stricter threshold flags fewer
/// bots, never more.
#[test]
fn flagged_bots_do_not_rise_with_the_dominance_threshold() {
    let tallies = tally_bots(dataset());
    let flagged: Vec<usize> = [0.5, 0.75, 0.9, 0.99]
        .iter()
        .map(|&threshold| tallies.spoof_report(threshold, 10).findings.len())
        .collect();
    assert_eq!(flagged, [12, 12, 7, 1]);
}
