//! The memoizing [`Standardizer`] against [`standardize_oracle`], the
//! per-header standardizer it replaced: every (bot, kind, score) verdict
//! and every candidate token must match, whether the memo is cold or
//! warm.

mod standardize_oracle;

use botscope_monitor::{run_coupled_with_threads, CoupledConfig};
use botscope_simnet::scenario::phase_study_table;
use botscope_simnet::SimConfig;
use botscope_useragent::parse::UserAgent;
use botscope_useragent::standardize::{MatchKind, Standardized};
use botscope_useragent::{registry, Standardizer};
use botscope_weblog::LogTable;
use proptest::prelude::*;

/// A verdict as comparable plain data.
fn key(verdict: Option<Standardized>) -> Option<(&'static str, MatchKind, f64)> {
    verdict.map(|v| (v.bot.canonical, v.kind, v.score))
}

/// Standardize `headers` in order through one memoizing standardizer and
/// check each verdict, and each header's candidate tokens, against the
/// oracle.
fn check_in_order<'h>(
    standardizer: &mut Standardizer,
    oracle: &standardize_oracle::Standardizer,
    headers: impl IntoIterator<Item = &'h str>,
) {
    for header in headers {
        assert_eq!(
            key(standardizer.standardize(header)),
            key(oracle.standardize(header)),
            "verdict differs on {header:?}"
        );
        let tokens: Vec<&str> = UserAgent::parse(header).candidate_tokens().collect();
        assert_eq!(
            tokens,
            standardize_oracle::UserAgent::parse(header).candidate_tokens(),
            "candidate tokens differ on {header:?}"
        );
    }
}

/// Check `headers` forward through a fresh standardizer (cold memo),
/// then reversed through the same one (warm memo).
fn check_forward_and_reversed(headers: &[&str]) {
    let oracle = standardize_oracle::Standardizer::new();
    let mut standardizer = Standardizer::new();
    check_in_order(&mut standardizer, &oracle, headers.iter().copied());
    check_in_order(&mut standardizer, &oracle, headers.iter().rev().copied());
}

/// Every distinct user agent of a table, in symbol order.
fn distinct_agents(table: &LogTable) -> Vec<&str> {
    let mut seen = vec![false; table.interner().len()];
    let mut agents = Vec::new();
    for row in table.rows() {
        if !std::mem::replace(&mut seen[row.useragent.index()], true) {
            agents.push(table.resolve(row.useragent));
        }
    }
    agents
}

#[test]
fn phase_study_agents_match_oracle() {
    let cfg = SimConfig { scale: 0.25, seed: 42, ..SimConfig::default() };
    let table = phase_study_table(&cfg).sim.table;
    let agents = distinct_agents(&table);
    assert!(agents.len() > 500, "only {} distinct agents", agents.len());
    check_forward_and_reversed(&agents);
}

#[test]
fn coupled_agents_match_oracle() {
    let cfg = CoupledConfig {
        sim: SimConfig { scale: 0.1, sites: 6, seed: 7, ..SimConfig::default() },
        ..CoupledConfig::default()
    };
    let table = run_coupled_with_threads(&cfg, 1).sim.table;
    let agents = distinct_agents(&table);
    assert!(agents.len() > 100, "only {} distinct agents", agents.len());
    check_forward_and_reversed(&agents);
}

#[test]
fn hostile_headers_match_oracle() {
    check_forward_and_reversed(&[
        "",
        " ",
        "(",
        ")",
        "((((",
        "Claude-Bot/2.1 (+https://anthropic.com)",
        "Mozilla/5.0 (compatible; Claude-Bot/1.0; GPT-Bot/1.2",
        "Googlebot-Image/1.0 (compatible; Googlebot/2.1)",
        "bingbot dotbot DotBot BINGBOT",
        "Sémrush-Bot/7 (compatible; 中文; 😀)",
        "\u{2028}GPTBot\u{00A0}",
        "compatible; +http://x; http://y",
    ]);
}

/// Near-miss spellings of every canonical name (one separator inserted,
/// one character dropped or doubled, separator-split in two tokens), so
/// many distinct fuzzy tokens share a prefix and a bot: a memo keyed or
/// filled wrongly hands one spelling another's score.
#[test]
fn near_miss_families_match_oracle() {
    let mut headers = Vec::new();
    for bot in registry().all() {
        let name: Vec<char> = bot.canonical.chars().collect();
        for at in 0..name.len() {
            let (head, tail): (String, String) =
                (name[..at].iter().collect(), name[at..].iter().collect());
            headers.push(format!("{head}-{tail}/1.0"));
            headers.push(format!("Mozilla/5.0 (compatible; {head} {tail})"));
            let mut dropped = name.clone();
            dropped.remove(at);
            headers.push(dropped.into_iter().collect());
            let mut doubled = name.clone();
            doubled.insert(at, name[at]);
            headers.push(format!("x/1 ({})", doubled.into_iter().collect::<String>()));
        }
    }
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    check_forward_and_reversed(&headers);
}

/// One header fragment. The selector picks the kind; `index` picks a bot
/// from the case's small `pool` (so fragments of one bot recur) or a
/// position; `mask` flips letter case; `noise` is free text.
fn fragment(pool: &[usize], selector: u8, index: usize, mask: u64, noise: &str) -> String {
    let bots = registry().all();
    let bot = &bots[pool[index % pool.len()] % bots.len()];
    let flip_case = |s: &str| -> String {
        s.chars()
            .enumerate()
            .map(|(i, c)| if mask >> (i % 64) & 1 == 1 { c.to_ascii_uppercase() } else { c })
            .collect()
    };
    match selector % 10 {
        // A registry pattern verbatim, with its case scrambled.
        0 => flip_case(bot.patterns[index % bot.patterns.len()]),
        1 => format!("{}/{}.{}", bot.patterns[0], index % 10, mask % 10),
        // A canonical name with one separator inserted: `Claude-Bot`.
        2 => {
            let name = bot.canonical;
            let at = name.char_indices().map(|(i, _)| i).nth(index % name.len()).unwrap_or(0);
            let sep = ["-", "_", ".", " "][(mask % 4) as usize];
            format!("{}{sep}{}/1.0", &name[..at], &name[at..])
        }
        // A canonical name with one character dropped or doubled.
        3 => {
            let mut chars: Vec<char> = flip_case(bot.canonical).chars().collect();
            let at = index % chars.len();
            if mask & 1 == 0 {
                chars.remove(at);
            } else {
                chars.insert(at, chars[at]);
            }
            chars.into_iter().collect()
        }
        4 => format!("({noise}; {}", bot.canonical),
        5 => format!("(compatible; {}/2.1; +http://{noise})", bot.canonical),
        6 => ")".to_string(),
        7 => ["Mozilla/5.0", "AppleWebKit/537.36", "(KHTML, like Gecko)", "Chrome/120.0"]
            [index % 4]
            .to_string(),
        _ => noise.to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn synthesized_headers_match_oracle(
        pieces in prop::collection::vec(
            prop::collection::vec(
                (0u8..10, any::<usize>(), any::<u64>(), "[a-zA-Z0-9;()/+ ._-]{0,10}\\PC{0,3}"),
                0..6,
            ),
            1..24,
        ),
        pool in prop::collection::vec(any::<usize>(), 1..4),
        separators in "[ ;/]{6}",
    ) {
        let headers: Vec<String> = pieces
            .iter()
            .map(|header| {
                let mut out = String::new();
                for (i, (selector, index, mask, noise)) in header.iter().enumerate() {
                    if i > 0 {
                        out.push(separators.as_bytes()[i % separators.len()] as char);
                    }
                    out.push_str(&fragment(&pool, *selector, *index, *mask, noise));
                }
                out
            })
            .collect();
        let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
        check_forward_and_reversed(&headers);
    }
}
