//! Cross-crate integration: monitor-emitted fetch logs must be
//! first-class citizens of the §5.1 re-check analysis, and the daemon
//! must be byte-deterministic across worker counts at estate scale.

use std::collections::BTreeMap;

use botscope_core::recheck::{by_category, profiles_from_table, RecheckProfile};
use botscope_monitor::daemon::{run, run_with_threads, MonitorConfig, TtlPolicy};
use botscope_monitor::scenario::ScenarioKind;
use botscope_stats::window::{window_coverage, PAPER_WINDOWS_HOURS};
use botscope_useragent::{BotCategory, Standardizer};
use botscope_weblog::{codec, LogTable};

fn encode(table: &LogTable) -> Vec<u8> {
    let mut out = Vec::new();
    codec::write_table(&mut out, table).expect("in-memory encode");
    out
}

/// The §5.1 re-check profiles written straight from the paper's
/// definition: every record of a known bot (grouped by canonical name)
/// contributes its `/robots.txt` fetch times, and a window length counts
/// as covered when every complete window from the first fetch to the
/// horizon holds a fetch.
fn oracle_profiles(table: &LogTable, horizon_end: u64) -> Vec<RecheckProfile> {
    let mut standardizer = Standardizer::new();
    let mut by_bot: BTreeMap<String, (BotCategory, Vec<u64>)> = BTreeMap::new();
    for r in table.iter_records() {
        let Some(spec) = standardizer.standardize(&r.useragent) else { continue };
        let (_, times) = by_bot
            .entry(spec.bot.canonical.to_string())
            .or_insert_with(|| (spec.bot.category, Vec::new()));
        if r.uri_path == "/robots.txt" {
            times.push(r.timestamp.unix());
        }
    }
    by_bot
        .into_iter()
        .map(|(bot, (category, mut check_times))| {
            check_times.sort_unstable();
            let covered = PAPER_WINDOWS_HOURS
                .iter()
                .map(|&h| {
                    let cov = window_coverage(&check_times, h * 3600, horizon_end);
                    (h, cov.is_some_and(|c| c.fully_covered()))
                })
                .collect();
            RecheckProfile { bot, category, checks: check_times.len() as u64, covered }
        })
        .collect()
}

#[test]
fn monitor_profiles_match_the_paper_oracle() {
    let cfg = MonitorConfig {
        sites: 30,
        days: 21,
        bots: 5,
        scenario: ScenarioKind::Mixed,
        ..MonitorConfig::default()
    };
    let out = run(&cfg);
    assert!(!out.table.is_empty());

    // The monitor path: profiles straight from the interned fetch table.
    let from_monitor = profiles_from_table(&out.table, out.horizon_end);

    // The oracle: the same events read back as ordinary access records
    // and profiled straight from the §5.1 definition.
    let expected = oracle_profiles(&out.table, out.horizon_end);

    assert_eq!(from_monitor, expected);
    // And the Figure 10 aggregation agrees too.
    assert_eq!(by_category(&from_monitor), by_category(&expected));

    // Profiles carry real content: every monitored bot appears, and the
    // recorded checks are exactly the table's robots.txt rows.
    assert!(!from_monitor.is_empty());
    let total_profile_checks: u64 = from_monitor.iter().map(|p| p.checks).sum();
    let total_table_checks =
        out.table.rows().iter().filter(|row| out.table.is_robots_fetch(row)).count();
    assert_eq!(total_profile_checks, total_table_checks as u64);
}

#[test]
fn dense_fixed_ttl_agents_cover_their_window() {
    // Fixed 12 h TTL on a stable estate: every bot re-checks inside
    // every 24 h window, so Figure 10 coverage must be total at 24 h+.
    let cfg = MonitorConfig {
        sites: 6,
        days: 14,
        bots: 3,
        ttl: TtlPolicy::FixedHours(12),
        scenario: ScenarioKind::Stable,
        swap_every: 0,
        ..MonitorConfig::default()
    };
    let out = run(&cfg);
    let profiles = profiles_from_table(&out.table, out.horizon_end);
    for p in &profiles {
        assert!(p.ever_checked());
        assert!(p.covered[&24], "{} must cover 24h windows", p.bot);
        assert!(p.covered[&168], "{} must cover 168h windows", p.bot);
    }
}

#[test]
fn estate_scale_determinism_across_worker_counts() {
    // Large enough to span many scheduler chunks (>64 agents per chunk
    // boundary effect): 200 sites × 4 bots = 800 agents ≈ 13 chunks.
    let cfg = MonitorConfig {
        sites: 200,
        days: 12,
        bots: 4,
        scenario: ScenarioKind::Mixed,
        swap_every: 3,
        ..MonitorConfig::default()
    };
    let serial = run_with_threads(&cfg, 1);
    let bytes = encode(&serial.table);
    assert!(!bytes.is_empty());
    for threads in [2, 8] {
        let parallel = run_with_threads(&cfg, threads);
        assert_eq!(bytes, encode(&parallel.table), "CSV bytes differ at {threads} workers");
        assert_eq!(serial.stats, parallel.stats, "stats differ at {threads} workers");
        assert_eq!(serial.changes, parallel.changes, "digests differ at {threads} workers");
    }
}
