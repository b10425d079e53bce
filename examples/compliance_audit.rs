//! Compliance audit: the workflow a site operator would run on their own
//! access logs — standardize user agents, compute per-bot compliance with
//! a crawl delay, and flag likely user-agent spoofing.
//!
//! The example generates a week of synthetic logs (stand-in for the
//! operator's real CSV export; swap in
//! `botscope::weblog::codec::decode_table` to load your own), then runs
//! the audit.
//!
//! Run with: `cargo run --example compliance_audit`

use botscope::core::metrics::{crawl_delay_counts_rows, CRAWL_DELAY_SECS};
use botscope::core::pipeline::standardize_table;
use botscope::core::spoofdetect::detect_rows;
use botscope::simnet::{scenario, SimConfig};
use botscope::weblog::{codec, LogTable};

fn main() {
    // Stand-in for: let table = codec::decode_table(&std::fs::read_to_string("access.csv")?)?;
    let cfg = SimConfig { days: 7, scale: 0.05, sites: 8, ..SimConfig::default() };
    let table = scenario::full_study_table(&cfg).table;
    println!("Loaded {} access records", table.len());

    // Round-trip through the CSV codec to show the persistence path.
    let rows = table.rows().iter().take(100).copied().collect();
    let head = LogTable::from_parts(table.interner().clone(), rows);
    let reloaded = codec::decode_table(&codec::encode_table(&head)).expect("codec roundtrip");
    println!("CSV codec roundtrip: {} records re-read\n", reloaded.len());

    // 1. Standardize user agents against the known-bot corpus.
    let logs = standardize_table(&table);
    println!(
        "Known bots: {} ({} records); anonymous agents: {} records\n",
        logs.bots.len(),
        logs.known_bot_records(),
        logs.anonymous.len()
    );

    // 2. Per-bot crawl-delay compliance (would this bot honour a 30 s
    //    delay if we deployed one? Its current pacing is the base rate).
    println!("{:<28} {:>8} {:>12}", "Bot", "accesses", "pace>=30s");
    println!("{}", "-".repeat(52));
    let mut rows: Vec<(String, usize, f64)> = logs
        .bots
        .values()
        .filter(|v| v.rows.len() >= 20)
        .map(|v| {
            let counts = crawl_delay_counts_rows(&v.rows, CRAWL_DELAY_SECS);
            (v.name.clone(), v.rows.len(), counts.ratio().unwrap_or(0.0))
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (name, n, ratio) in rows.iter().take(15) {
        println!("{name:<28} {n:>8} {ratio:>12.3}");
    }

    // 3. Spoofing scan: bots whose traffic is ≥90% one network but shows
    //    residual requests from elsewhere.
    let spoof = detect_rows(&table, logs.bots.iter().map(|(n, v)| (n, &v.rows)));
    println!("\nPossible spoofing ({} bots flagged):", spoof.findings.len());
    for f in &spoof.findings {
        let asns: Vec<&str> = f.suspicious.iter().map(|(n, _)| n.as_str()).collect();
        println!(
            "  {:<24} main {} ({:.1}%), {} suspicious request(s) from {}",
            f.bot,
            f.main_asn,
            f.main_share * 100.0,
            f.spoofed_requests,
            asns.join(", ")
        );
    }
}
