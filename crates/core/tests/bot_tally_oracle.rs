//! The per-bot fold [`tally_bots`] against the paper's definitions,
//! written naively over plain `(agent, ASN, IP hash, path, t)` tuples:
//!
//! * §4.2 crawl delay: a bot's accesses are grouped "into sets of
//!   accesses associated with a unique triple τᵢ = (ASN, IP hash,
//!   user-agent)", the raw user agent, so two spellings of one bot are
//!   two clients. Within a τ, each delta between consecutive accesses
//!   in time order is one trial, compliant when it is at least 30 s; a
//!   τ with a single access "counts as an instance of compliance" (1/1).
//! * §5.2 dominance: a bot with at least 10 requests from at least 2
//!   ASNs, one of which carries at least 90 % of them, is flagged; its
//!   other ASNs' requests are possibly spoofed.
//! * per bot: its records, bytes, trap-path hits (`/404`,
//!   `/dev-404-page`, `/secure/*`) and robots.txt fetch times.
//!
//! The fold and the stream engine share one crawl-delay counter, so
//! only a check against an independent reading of the rule can catch a
//! bug in it. The rows come in drawn order (out of time order, with
//! equal-timestamp ties) and sorted; the benchmark shim
//! `metrics::crawl_delay_counts_rows` must agree too.

use std::collections::BTreeMap;

use botscope_core::metrics::{crawl_delay_counts_rows, DirectiveCounts, CRAWL_DELAY_SECS};
use botscope_core::pipeline::tally_bots;
use botscope_core::spoofdetect::{SpoofFinding, SpoofReport, DOMINANCE_THRESHOLD};
use botscope_weblog::record::AccessRecord;
use botscope_weblog::table::{LogTable, RecordRow};
use botscope_weblog::time::Timestamp;
use proptest::prelude::*;

/// Raw user agents with the bot each names; GPTBot has two spellings.
/// `None` is an agent no corpus entry matches.
const AGENTS: [(&str, Option<&str>); 5] = [
    ("Mozilla/5.0 (compatible; GPTBot/1.1)", Some("GPTBot")),
    ("Mozilla/5.0 (compatible; GPTBot/1.2)", Some("GPTBot")),
    ("Mozilla/5.0 (compatible; bingbot/2.0)", Some("bingbot")),
    ("Mozilla/5.0 (compatible; AhrefsBot/7.0)", Some("AhrefsBot")),
    ("totally-unknown-client/0.1", None),
];

/// Not in name order, so a tie-break on interning order would show.
const ASNS: [&str; 3] = ["ZAYO", "AMAZON-02", "GOOGLE"];

const PATHS: [&str; 5] = ["/news/item-001", "/robots.txt", "/404", "/secure/admin-1", "/secure"];

/// `(agent, ASN, IP hash, path, t)`, each an index into the tables
/// above except the IP hash and the unix second.
type Row = (usize, usize, u64, usize, u64);

/// What the paper's definitions give for one bot.
#[derive(Debug, Default, PartialEq)]
struct Expected {
    records: u64,
    bytes: u64,
    trap_hits: u64,
    robots_fetches: Vec<u64>,
    crawl_delay: DirectiveCounts,
}

fn is_trap(path: &str) -> bool {
    path == "/404" || path == "/dev-404-page" || path.starts_with("/secure/")
}

fn bytes_of(row: &Row) -> u64 {
    100 + row.4 % 7
}

/// §4.2 crawl delay over one bot's τ groups.
fn oracle_crawl_delay(rows: &[&Row]) -> DirectiveCounts {
    let mut by_tau: BTreeMap<(usize, u64, usize), Vec<u64>> = BTreeMap::new();
    for &&(agent, asn, ip, _, t) in rows {
        by_tau.entry((asn, ip, agent)).or_default().push(t);
    }
    let mut counts = DirectiveCounts::default();
    for times in by_tau.values_mut() {
        times.sort();
        if times.len() == 1 {
            counts.successes += 1;
            counts.trials += 1;
        }
        for pair in times.windows(2) {
            counts.trials += 1;
            if pair[1] - pair[0] >= 30 {
                counts.successes += 1;
            }
        }
    }
    counts
}

/// §5.2 over one bot's requests.
fn oracle_finding(bot: &str, rows: &[&Row], threshold: f64, floor: u64) -> Option<SpoofFinding> {
    let mut per_asn: BTreeMap<&str, u64> = BTreeMap::new();
    for row in rows {
        *per_asn.entry(ASNS[row.1]).or_default() += 1;
    }
    let total = rows.len() as u64;
    if total < floor || per_asn.len() < 2 {
        return None;
    }
    // Names ascend: the first ASN with the most requests wins ties.
    let most = *per_asn.values().max()?;
    let main_asn = *per_asn.iter().find(|&(_, &n)| n == most)?.0;
    let main_share = most as f64 / total as f64;
    if main_share < threshold {
        return None;
    }
    let mut suspicious: Vec<(String, u64)> = per_asn
        .iter()
        .filter(|&(&asn, _)| asn != main_asn)
        .map(|(&asn, &n)| (asn.to_string(), n))
        .collect();
    suspicious.sort_by_key(|(asn, n)| (std::cmp::Reverse(*n), asn.clone()));
    Some(SpoofFinding {
        bot: bot.to_string(),
        main_asn: main_asn.to_string(),
        main_share,
        suspicious,
        total_requests: total,
        spoofed_requests: total - most,
    })
}

/// Each known bot's rows, by name.
fn per_bot(rows: &[Row]) -> BTreeMap<&'static str, Vec<&Row>> {
    let mut bots: BTreeMap<&str, Vec<&Row>> = BTreeMap::new();
    for row in rows {
        if let Some(bot) = AGENTS[row.0].1 {
            bots.entry(bot).or_default().push(row);
        }
    }
    bots
}

fn oracle(rows: &[Row]) -> BTreeMap<&'static str, Expected> {
    per_bot(rows)
        .into_iter()
        .map(|(bot, rows)| {
            let mut robots_fetches: Vec<u64> =
                rows.iter().filter(|r| PATHS[r.3] == "/robots.txt").map(|r| r.4).collect();
            robots_fetches.sort();
            let expected = Expected {
                records: rows.len() as u64,
                bytes: rows.iter().map(|r| bytes_of(r)).sum(),
                trap_hits: rows.iter().filter(|r| is_trap(PATHS[r.3])).count() as u64,
                robots_fetches,
                crawl_delay: oracle_crawl_delay(&rows),
            };
            (bot, expected)
        })
        .collect()
}

fn table_of(rows: &[Row]) -> LogTable {
    let records: Vec<AccessRecord> = rows
        .iter()
        .map(|row @ &(agent, asn, ip, path, t)| AccessRecord {
            useragent: AGENTS[agent].0.into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: ip,
            asn: ASNS[asn].into(),
            sitename: "site-00.example.edu".into(),
            uri_path: PATHS[path].into(),
            status: 200,
            bytes: bytes_of(row),
            referer: None,
        })
        .collect();
    LogTable::from_records(&records)
}

/// The fold, the shim and the spoof report against the oracle over
/// `rows` in the given order.
fn assert_fold_matches_oracle(rows: &[Row], threshold: f64, floor: u64) {
    let table = table_of(rows);
    let tallies = tally_bots(&table);
    let got: BTreeMap<&str, Expected> = tallies
        .bots
        .iter()
        .map(|(bot, tally)| {
            let expected = Expected {
                records: tally.records,
                bytes: tally.bytes,
                trap_hits: tally.trap_hits(),
                robots_fetches: tally.robots_fetches.clone(),
                crawl_delay: tally.crawl_delay(),
            };
            (bot.canonical, expected)
        })
        .collect();
    let want = oracle(rows);
    assert_eq!(got, want);
    let known: u64 = want.values().map(|e| e.records).sum();
    assert_eq!(
        (tallies.known_records, tallies.anonymous_records),
        (known, rows.len() as u64 - known)
    );

    // The shim over each bot's rows, in table order.
    let mut views: BTreeMap<&str, Vec<&RecordRow>> = BTreeMap::new();
    for (row, drawn) in table.rows().iter().zip(rows) {
        if let Some(bot) = AGENTS[drawn.0].1 {
            views.entry(bot).or_default().push(row);
        }
    }
    for (bot, view) in &views {
        assert_eq!(crawl_delay_counts_rows(view, CRAWL_DELAY_SECS), want[bot].crawl_delay, "{bot}");
    }

    let findings = per_bot(rows)
        .into_iter()
        .filter_map(|(bot, rows)| oracle_finding(bot, &rows, threshold, floor))
        .collect();
    assert_eq!(tallies.spoof_report(threshold, floor), SpoofReport { findings });
}

/// [`assert_fold_matches_oracle`] on the rows as drawn and sorted by
/// time (the fold's fast path).
fn check(rows: &[Row], threshold: f64, floor: u64) {
    assert_fold_matches_oracle(rows, threshold, floor);
    let mut sorted = rows.to_vec();
    sorted.sort_by_key(|row| row.4);
    assert_fold_matches_oracle(&sorted, threshold, floor);
}

#[test]
fn a_delta_of_exactly_thirty_seconds_is_compliant() {
    // One τ: deltas 30, 29, 0 (a tie) and 31.
    let rows: Vec<Row> = [0, 30, 59, 59, 90].map(|t| (2, 0, 1, 0, t)).to_vec();
    check(&rows, DOMINANCE_THRESHOLD, 10);
    let table = table_of(&rows);
    let tallies = tally_bots(&table);
    let bing = tallies.get("bingbot").expect("tallied");
    assert_eq!(bing.crawl_delay(), DirectiveCounts { successes: 2, trials: 4 });
}

#[test]
fn spellings_of_one_bot_are_separate_tau_groups() {
    // GPTBot/1.1 and /1.2 from one ASN and IP, interleaved 5 s apart:
    // pooled, every delta would be 5 s; as two τ groups both pace at 60 s.
    let rows: Vec<Row> = vec![(0, 0, 1, 0, 0), (1, 0, 1, 0, 5), (0, 0, 1, 0, 60), (1, 0, 1, 0, 65)];
    check(&rows, DOMINANCE_THRESHOLD, 10);
    let table = table_of(&rows);
    let tallies = tally_bots(&table);
    let gpt = tallies.get("GPTBot").expect("tallied");
    assert_eq!((gpt.records, gpt.crawl_delay()), (4, DirectiveCounts { successes: 2, trials: 2 }));
}

#[test]
fn ninety_percent_from_one_asn_flags_the_rest() {
    // AhrefsBot: 9 of 10 from GOOGLE; bingbot 8 of 10.
    let mut rows: Vec<Row> = (0..9).map(|t| (3, 2, 1, 0, t * 40)).collect();
    rows.push((3, 0, 2, 0, 1_000));
    rows.extend((0..8).map(|t| (2, 2, 1, 0, t * 40)));
    rows.extend((0..2).map(|t| (2, 1, 3, 2, 2_000 + t)));
    check(&rows, DOMINANCE_THRESHOLD, 10);
    let table = table_of(&rows);
    let spoof = tally_bots(&table).spoof_report(DOMINANCE_THRESHOLD, 10);
    let flagged: Vec<&str> = spoof.findings.iter().map(|f| f.bot.as_str()).collect();
    assert_eq!(flagged, ["AhrefsBot"]);
    assert_eq!(spoof.findings[0].suspicious, [("ZAYO".to_string(), 1)]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn fold_matches_the_paper_definitions(
        rows in prop::collection::vec(
            (0usize..AGENTS.len(), 0usize..ASNS.len(), 0u64..3, 0usize..PATHS.len(), 0u64..40),
            0..150,
        ),
        threshold in (0u8..4, 0.0..1.0f64).prop_map(|(pick, any)| {
            [DOMINANCE_THRESHOLD, 0.5, 1.0, any][usize::from(pick)]
        }),
        floor in 0u64..15,
    ) {
        // Times on a 10 s grid: many equal-timestamp ties and deltas of
        // exactly 30 s.
        let rows: Vec<Row> = rows.into_iter().map(|(a, s, ip, p, k)| (a, s, ip, p, k * 10)).collect();
        check(&rows, threshold, floor);
    }

    #[test]
    fn fold_matches_the_paper_definitions_on_dominant_bots(
        bot in 0usize..4,
        main in 9u64..60,
        minority in prop::collection::vec((0usize..ASNS.len(), 0u64..600), 0..8),
    ) {
        // One bot mostly from one ASN: findings form at the paper's
        // threshold, and its minority rows land anywhere in time.
        let mut rows: Vec<Row> = (0..main).map(|k| (bot, 2, k % 2, 0, k * 15)).collect();
        rows.extend(minority.iter().map(|&(asn, t)| (bot, asn, 5, 2, t)));
        check(&rows, DOMINANCE_THRESHOLD, 10);
    }
}
