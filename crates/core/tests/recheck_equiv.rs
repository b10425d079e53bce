//! The streaming [`RecheckAccumulator`] must reproduce the batch §5.1
//! computations exactly: [`by_category`] over [`profiles_from_table`]
//! and [`phase_check_matrix`], for any record stream delivered in
//! nondecreasing timestamp order (the k-way merge's canonical order).

use botscope_core::recheck::{
    by_category, phase_check_matrix, profiles_from_table, RecheckAccumulator, SiteVersionWindows,
};
use botscope_simnet::PolicyVersion;
use botscope_weblog::record::AccessRecord;
use botscope_weblog::table::LogTable;
use botscope_weblog::time::Timestamp;
use proptest::prelude::*;

const H: u64 = 3600;

/// Known-bot UA headers (standardize to GPTBot, bingbot, SemrushBot,
/// AhrefsBot) plus one agent no corpus entry matches.
const AGENTS: [&str; 5] = [
    "Mozilla/5.0 (compatible; GPTBot/1.1)",
    "Mozilla/5.0 (compatible; bingbot/2.0)",
    "Mozilla/5.0 (compatible; SemrushBot/7~bl)",
    "Mozilla/5.0 (compatible; AhrefsBot/7.0)",
    "totally-unknown-client/0.1",
];

const SITES: [&str; 3] = ["a.example.edu", "b.example.edu", "c.example.edu"];

fn rec(ua: &str, site: &str, t: u64, path: &str) -> AccessRecord {
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

fn sample_windows() -> SiteVersionWindows {
    use PolicyVersion as V;
    let mut windows = SiteVersionWindows::new();
    windows.insert(
        "a.example.edu".into(),
        vec![(V::Base, 0, 400 * H), (V::V1CrawlDelay, 400 * H, 900 * H)],
    );
    windows.insert("b.example.edu".into(), vec![(V::V2EndpointOnly, 0, 900 * H)]);
    // c.example.edu has no deployment windows at all.
    windows
}

/// Push `records` (already time-sorted) through the accumulator and
/// assert both reports equal the batch computation over the same rows.
fn assert_stream_matches_batch(
    records: &[AccessRecord],
    windows: &SiteVersionWindows,
    horizon_end: u64,
) {
    let table = LogTable::from_records(records);
    let mut acc = RecheckAccumulator::new(windows.clone(), horizon_end);
    for row in table.rows() {
        acc.push(row, table.interner());
    }

    let batch_agg = by_category(&profiles_from_table(&table, horizon_end));
    let batch_matrix = phase_check_matrix(&table, windows);

    assert_eq!(acc.by_category(), batch_agg, "by_category mismatch");
    assert_eq!(acc.phase_rows(), batch_matrix, "phase matrix mismatch");
}

#[test]
fn accumulator_matches_batch_on_mixed_stream() {
    let gpt = AGENTS[0];
    let bing = AGENTS[1];
    let semrush = AGENTS[2];
    let mut records = Vec::new();
    // GPTBot: dense checker across both windowed sites.
    for i in 0..70 {
        let site = SITES[(i % 2) as usize];
        records.push(rec(gpt, site, i * 10 * H, "/robots.txt"));
    }
    // bingbot: sparse checker, plus non-robots traffic.
    for i in 0..8 {
        records.push(rec(bing, SITES[2], i * 100 * H, "/robots.txt"));
        records.push(rec(bing, SITES[0], i * 100 * H + 1, "/news/item-001"));
    }
    // SemrushBot: never fetches robots.txt (Table 7 never-checker row).
    records.push(rec(semrush, SITES[0], 50 * H, "/page"));
    // Unknown agent: ignored entirely.
    records.push(rec(AGENTS[4], SITES[0], 60 * H, "/robots.txt"));
    records.sort_by_key(|r| r.timestamp.unix());

    assert_stream_matches_batch(&records, &sample_windows(), 800 * H);
}

#[test]
fn accumulator_matches_batch_when_first_check_is_past_horizon() {
    // Anchor at/after the horizon: zero complete windows, never covered.
    let records = vec![
        rec(AGENTS[0], SITES[0], 900 * H, "/robots.txt"),
        rec(AGENTS[0], SITES[0], 901 * H, "/robots.txt"),
    ];
    assert_stream_matches_batch(&records, &sample_windows(), 800 * H);
}

#[test]
fn accumulator_handles_empty_stream() {
    let windows = sample_windows();
    let acc = RecheckAccumulator::new(windows.clone(), 800 * H);
    assert_eq!(acc.by_category(), by_category(&[]));
    assert!(acc.phase_rows().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]
    #[test]
    fn accumulator_matches_batch_on_random_sorted_streams(
        raw in prop::collection::vec(
            (0usize..AGENTS.len(), 0usize..SITES.len(), 0u64..1_000, 0u8..4),
            0..120,
        ),
        horizon_hours in 1u64..1_200,
    ) {
        let mut records: Vec<AccessRecord> = raw
            .into_iter()
            .map(|(agent, site, t_hours, kind)| {
                // Bias toward robots fetches (the monitor emits only
                // those), but keep some plain traffic in the mix.
                let path = if kind > 0 { "/robots.txt" } else { "/news/item-001" };
                rec(AGENTS[agent], SITES[site], t_hours * H, path)
            })
            .collect();
        records.sort_by_key(|r| r.timestamp.unix());
        assert_stream_matches_batch(&records, &sample_windows(), horizon_hours * H);
    }
}
