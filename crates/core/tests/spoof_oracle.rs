//! The §5.2 spoof rule against the paper's text, written naively over
//! plain `(bot, ASN)` tuples: "if a bot's traffic is associated ≥90 %
//! of the time with one ASN, other ASNs associated with this user agent
//! are likely spoofed". A bot enters the rule with at least 10 requests
//! from at least 2 ASNs; its main ASN is the one with the most
//! requests, ties going to the smaller name; the minority ASNs are
//! listed by request count, most first, then by name.
//!
//! Both places the crate applies the rule must agree with it: the
//! per-bot detector [`detect_rows_with`] at any threshold in `[0, 1]`,
//! and the §4 engine's [`Experiment::spoof_report`], which counts only
//! the experiment site's rows.

use std::collections::BTreeMap;

use botscope_core::analyze::Experiment;
use botscope_core::spoofdetect::{
    detect_rows_with, SpoofFinding, SpoofReport, DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS,
};
use botscope_study::PhaseSchedule;
use botscope_weblog::record::AccessRecord;
use botscope_weblog::table::{LogTable, RecordRow};
use botscope_weblog::time::Timestamp;
use proptest::prelude::*;

/// ASN names, deliberately not in interning order: rows intern them in
/// whatever order they arrive, so a tie-break on symbol order would
/// show.
const ASNS: [&str; 4] = ["ZAYO", "AMAZON-02", "M247", "GOOGLE"];

/// The rule for one bot, over the ASN of each of its requests.
fn oracle_bot(bot: &str, asns: &[&str], threshold: f64, min_requests: u64) -> Option<SpoofFinding> {
    let total = asns.len() as u64;
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for &asn in asns {
        *counts.entry(asn).or_default() += 1;
    }
    if total < min_requests || counts.len() < 2 {
        return None;
    }
    // Names ascend, so the first ASN with the highest count is the
    // smallest name among the tied.
    let most = *counts.values().max().expect("two ASNs");
    let main_asn = *counts.iter().find(|&(_, &c)| c == most).expect("a maximum").0;
    let main_share = most as f64 / total as f64;
    if main_share < threshold {
        return None;
    }
    let mut suspicious: Vec<(String, u64)> = counts
        .iter()
        .filter(|&(&asn, _)| asn != main_asn)
        .map(|(&asn, &c)| (asn.to_string(), c))
        .collect();
    suspicious.sort_by_key(|(asn, c)| (std::cmp::Reverse(*c), asn.clone()));
    Some(SpoofFinding {
        bot: bot.to_string(),
        main_asn: main_asn.to_string(),
        main_share,
        spoofed_requests: suspicious.iter().map(|(_, c)| c).sum(),
        suspicious,
        total_requests: total,
    })
}

/// The rule over a whole `(bot, ASN)` list: one finding per flagged
/// bot, by bot name.
fn oracle(pairs: &[(&str, &str)], threshold: f64, min_requests: u64) -> SpoofReport {
    let mut per_bot: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for &(bot, asn) in pairs {
        per_bot.entry(bot).or_default().push(asn);
    }
    SpoofReport {
        findings: per_bot
            .into_iter()
            .filter_map(|(bot, asns)| oracle_bot(bot, &asns, threshold, min_requests))
            .collect(),
    }
}

fn record(useragent: &str, asn: &str, site: &str, t: u64) -> AccessRecord {
    AccessRecord {
        useragent: useragent.into(),
        timestamp: Timestamp::from_unix(t),
        ip_hash: 1,
        asn: asn.into(),
        sitename: site.into(),
        uri_path: "/news/item-001".into(),
        status: 200,
        bytes: 1,
        referer: None,
    }
}

/// [`detect_rows_with`] over `(bot, ASN)` pairs, each bot's rows keyed
/// by its name as the raw user agent.
fn detector(pairs: &[(&str, &str)], threshold: f64, min_requests: u64) -> SpoofReport {
    let records: Vec<AccessRecord> =
        pairs.iter().enumerate().map(|(t, &(bot, asn))| record(bot, asn, "s", t as u64)).collect();
    let table = LogTable::from_records(&records);
    let mut per_bot: BTreeMap<String, Vec<&RecordRow>> = BTreeMap::new();
    for row in table.rows() {
        per_bot.entry(table.resolve(row.useragent).to_string()).or_default().push(row);
    }
    detect_rows_with(&table, &per_bot, threshold, min_requests)
}

/// Raw user agents of known bots with their canonical names; two
/// spellings of GPTBot pool into one bot. `None` is an agent no corpus
/// entry matches.
const AGENTS: [(&str, Option<&str>); 5] = [
    ("Mozilla/5.0 (compatible; GPTBot/1.1)", Some("GPTBot")),
    ("Mozilla/5.0 (compatible; GPTBot/1.2)", Some("GPTBot")),
    ("Mozilla/5.0 (compatible; bingbot/2.0)", Some("bingbot")),
    ("Mozilla/5.0 (compatible; AhrefsBot/7.0)", Some("AhrefsBot")),
    ("totally-unknown-client/0.1", None),
];

const EXPERIMENT_SITE: &str = "site-00.example.edu";
const OTHER_SITE: &str = "site-01.example.edu";
const START: u64 = 1_700_000_000;

/// `(agent index, ASN index, on the experiment site?, seconds after
/// the schedule start)`.
type LogRow = (usize, usize, bool, u64);

/// [`Experiment::analyze_table`]'s §5.2 report against the oracle over
/// the experiment site's known-bot rows, with the rows in the given
/// order (the engine sorts them by time).
fn assert_experiment_matches_oracle(rows: &[LogRow]) {
    let schedule = PhaseSchedule::paper_schedule(Timestamp::from_unix(START), 0);
    let records: Vec<AccessRecord> = rows
        .iter()
        .map(|&(agent, asn, on_site, dt)| {
            let site = if on_site { EXPERIMENT_SITE } else { OTHER_SITE };
            record(AGENTS[agent].0, ASNS[asn], site, START + dt)
        })
        .collect();
    let table = LogTable::from_records(&records);
    let pairs: Vec<(&str, &str)> = rows
        .iter()
        .filter(|&&(_, _, on_site, _)| on_site)
        .filter_map(|&(agent, asn, _, _)| AGENTS[agent].1.map(|bot| (bot, ASNS[asn])))
        .collect();
    let expected = oracle(&pairs, DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS);
    assert_eq!(Experiment::analyze_table(&table, &schedule).spoof_report, expected);
}

/// `main` rows from `ASNS[0]` and `minority` from `ASNS[1]`.
fn split(bot: &'static str, main: usize, minority: usize) -> Vec<(&'static str, &'static str)> {
    let mut pairs = vec![(bot, ASNS[0]); main];
    pairs.extend(vec![(bot, ASNS[1]); minority]);
    pairs
}

#[test]
fn ninety_percent_is_dominant_and_eighty_nine_is_not() {
    for (main, minority, flagged) in [(90, 10, true), (89, 11, false), (9, 1, true), (8, 1, false)]
    {
        let pairs = split("b", main, minority);
        let expected = oracle(&pairs, DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS);
        assert_eq!(expected.findings.len(), usize::from(flagged), "{main}/{minority}");
        assert_eq!(detector(&pairs, DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS), expected);

        // The same split on the experiment site, plus off-site traffic
        // from the minority ASN that must not count.
        let mut rows: Vec<LogRow> = (0..main).map(|i| (2, 0, true, i as u64)).collect();
        rows.extend((0..minority).map(|i| (2, 1, true, 1_000 + i as u64)));
        rows.extend((0..50).map(|i| (2, 1, false, 2_000 + i)));
        assert_experiment_matches_oracle(&rows);
    }
}

#[test]
fn exact_ties_go_to_the_smaller_name_at_any_interning_order() {
    // 5/5 at threshold 0.5: AMAZON-02 wins over ZAYO whichever interns
    // first.
    for pairs in [split("b", 5, 5), split("b", 5, 5).into_iter().rev().collect()] {
        let report = detector(&pairs, 0.5, 1);
        assert_eq!(report, oracle(&pairs, 0.5, 1));
        assert_eq!(report.findings[0].main_asn, "AMAZON-02");
    }
}

/// A threshold: the paper's, the tie-prone 1/2 and 1/3, the extremes,
/// or anything in `[0, 1)`.
fn threshold() -> impl Strategy<Value = f64> {
    (0u8..6, 0.0..1.0f64).prop_map(|(pick, any)| match pick {
        0 => DOMINANCE_THRESHOLD,
        1 => 0.5,
        2 => 1.0 / 3.0,
        3 => 0.0,
        4 => 1.0,
        _ => any,
    })
}

/// Tie-heavy per-bot shapes: each of three bots sends the same count
/// `n` from every ASN it uses, in ASN order rotated by `turn`.
fn tied_pairs(shapes: &[(usize, u8, usize)]) -> Vec<(&'static str, &'static str)> {
    const BOTS: [&str; 3] = ["alpha", "beta", "gamma"];
    let mut pairs = Vec::new();
    for (bot, &(n, used, turn)) in BOTS.iter().zip(shapes) {
        for k in 0..ASNS.len() {
            let asn = (k + turn) % ASNS.len();
            if used & (1 << asn) != 0 {
                pairs.extend(vec![(*bot, ASNS[asn]); n]);
            }
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn detector_matches_the_paper_rule(
        raw in prop::collection::vec((0usize..3, 0usize..ASNS.len()), 0..120),
        threshold in threshold(),
        min_requests in 0u64..15,
    ) {
        const BOTS: [&str; 3] = ["alpha", "beta", "gamma"];
        let pairs: Vec<(&str, &str)> = raw.iter().map(|&(b, a)| (BOTS[b], ASNS[a])).collect();
        prop_assert_eq!(
            detector(&pairs, threshold, min_requests),
            oracle(&pairs, threshold, min_requests)
        );
    }

    #[test]
    fn detector_matches_the_paper_rule_on_ties(
        shapes in prop::collection::vec((1usize..8, 0u8..16, 0usize..4), 3..4),
        threshold in threshold(),
        min_requests in 0u64..15,
    ) {
        let pairs = tied_pairs(&shapes);
        prop_assert_eq!(
            detector(&pairs, threshold, min_requests),
            oracle(&pairs, threshold, min_requests)
        );
    }

    #[test]
    fn experiment_matches_the_paper_rule_on_site_rows(
        rows in prop::collection::vec(
            (0usize..AGENTS.len(), 0usize..ASNS.len(), (0u8..4).prop_map(|s| s > 0), 0u64..5_000_000),
            0..200,
        ),
        dominant in prop::collection::vec((0usize..AGENTS.len(), 0usize..ASNS.len()), 0..3),
    ) {
        // Random rows rarely reach 90 % dominance; add a dominant block
        // per drawn (agent, ASN) so findings are common.
        let mut rows = rows;
        for (i, &(agent, asn)) in dominant.iter().enumerate() {
            rows.extend((0..40).map(|k| (agent, asn, true, (i * 40 + k) as u64 * 997)));
        }
        assert_experiment_matches_oracle(&rows);
    }
}
