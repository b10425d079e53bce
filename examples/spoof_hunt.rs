//! Spoof hunt: run the §5.2 ASN-dominance heuristic over the passive
//! study's logs and validate the findings against the generator's planted
//! ground truth — the closed loop that replaces access to the paper's raw
//! data.
//!
//! Run with: `cargo run --release --example spoof_hunt`

use std::collections::BTreeSet;

use botscope::asn::catalog::SPOOF_CATALOG;
use botscope::core::pipeline::tally_bots;
use botscope::core::spoofdetect::DOMINANCE_THRESHOLD;
use botscope::simnet::{scenario, SimConfig};

fn main() {
    let cfg = SimConfig { scale: 0.2, ..SimConfig::default() };
    println!("Generating 46 days of traffic across {} sites (seed {})...", cfg.sites, cfg.seed);
    let out = scenario::full_study_table(&cfg);
    println!(
        "{} records; {} bots have planted spoof traffic\n",
        out.table.len(),
        out.truth.spoofed_requests.len()
    );

    let tallies = tally_bots(&out.table);

    // Run the paper's heuristic.
    let report = tallies.spoof_report(DOMINANCE_THRESHOLD, 10);
    println!("{:<26} {:>7} {:>9}  suspicious ASNs", "flagged bot", "share", "spoofed");
    println!("{}", "-".repeat(70));
    for f in &report.findings {
        let asns: Vec<&str> = f.suspicious.iter().map(|(n, _)| n.as_str()).collect();
        println!(
            "{:<26} {:>6.1}% {:>9}  {}",
            f.bot,
            f.main_share * 100.0,
            f.spoofed_requests,
            asns.join(", ")
        );
    }

    // Score against ground truth.
    let planted: BTreeSet<&str> = out.truth.spoofed_requests.keys().map(|s| s.as_str()).collect();
    let flagged: BTreeSet<&str> = report.findings.iter().map(|f| f.bot.as_str()).collect();
    let hits = planted.intersection(&flagged).count();
    let missed: Vec<&&str> = planted.difference(&flagged).collect();
    let false_pos: Vec<&&str> = flagged.difference(&planted).collect();
    println!("\nGround truth: detected {hits}/{} planted spoof victims", planted.len());
    if !missed.is_empty() {
        println!("  missed (volume below the heuristic's radar): {missed:?}");
    }
    if !false_pos.is_empty() {
        println!("  false positives: {false_pos:?}");
    }

    // The §5.2 limitation: the threshold is arbitrary. Sweep it.
    println!("\nThreshold sweep (paper uses 0.90):");
    for threshold in [0.5, 0.75, 0.9, 0.99] {
        let n = tallies.spoof_report(threshold, 10).findings.len();
        println!("  dominance >= {threshold:<4} -> {n} flagged bots");
    }

    // Which Table 8 rows does the detector rediscover?
    let table8: BTreeSet<&str> = SPOOF_CATALOG.iter().map(|p| p.bot).collect();
    let rediscovered = table8.intersection(&flagged).count();
    println!("\nPaper Table 8 rows rediscovered: {rediscovered}/{}", table8.len());
}
