//! End-to-end coupled-mode tests: monitored beliefs drive generation,
//! and attribution separates deliberate violations from fetch-layer
//! artifacts (the acceptance scenarios of the belief-coupling work).

use botscope::core::analyze::BeliefContext;
use botscope::core::attribution::{score_table, AttributionCounts, PolicyBasis};
use botscope::monitor::{
    run_coupled_with_threads, CoupledConfig, CoupledOutput, RefreshModel, ScenarioKind,
};
use botscope::simnet::scenario::phase_study_table;
use botscope::simnet::SimConfig;
use botscope::study::{BelievedPolicy, PolicyCorpus};

fn small_sim(scale: f64, sites: usize) -> SimConfig {
    SimConfig { scale, sites, spoofing: false, anon_traffic: false, ..SimConfig::default() }
}

fn attribution(out: &CoupledOutput) -> std::collections::BTreeMap<String, AttributionCounts> {
    let corpus = PolicyCorpus::new();
    let ctx = BeliefContext { beliefs: &out.beliefs, served: &out.served, corpus: &corpus };
    score_table(&out.sim.table, &out.schedule, &ctx, PolicyBasis::Served).0
}

#[test]
fn stale_cache_violations_appear_under_fleet_refresh_only() {
    // Fleet refresh on a healthy estate: slow-cadence bots crawl the
    // experiment site on stale Base beliefs through v1/v2/v3 — served
    // violations that attribution must flag as stale-cache artifacts,
    // not deliberate defiance.
    let fleet_cfg = CoupledConfig {
        sim: small_sim(0.1, 4),
        scenario: ScenarioKind::Stable,
        refresh: RefreshModel::Fleet,
    };
    let fleet_run = run_coupled_with_threads(&fleet_cfg, 2);
    let fleet_counts = attribution(&fleet_run);
    let stale: u64 = fleet_counts.values().map(|c| c.stale_cache).sum();
    assert!(stale > 0, "stale-cache artifacts must appear under fleet refresh");
    // The excused accesses are precisely NOT in the deliberate bucket:
    // per-bot, deliberate + stale + artifact partitions the violations.
    for (bot, c) in &fleet_counts {
        assert_eq!(
            c.violations_served(),
            c.accesses - c.allowed_served,
            "{bot}: attribution must partition violations: {c:?}"
        );
    }

    // Instant refresh on the same estate: belief ≡ served, so staleness
    // and fetch artifacts are impossible — every violation is deliberate.
    let instant_run =
        run_coupled_with_threads(&CoupledConfig { refresh: RefreshModel::Instant, ..fleet_cfg }, 2);
    let instant_counts = attribution(&instant_run);
    let stale: u64 = instant_counts.values().map(|c| c.stale_cache).sum();
    let artifact: u64 = instant_counts.values().map(|c| c.fetch_artifact).sum();
    assert_eq!(stale, 0, "no staleness with instant refresh");
    assert_eq!(artifact, 0, "no fetch artifacts on a healthy estate");
}

#[test]
fn obedient_bots_halt_through_served_disallow_windows() {
    // Outage weather + instant refresh: during a 5xx window every bot
    // believes disallow-all. Obedient bots halt; the schedule-driven
    // baseline (which cannot see outages) keeps crawling — the coupled
    // layer's signature traffic shift.
    let cfg = CoupledConfig {
        sim: small_sim(0.1, 8),
        scenario: ScenarioKind::Outages,
        refresh: RefreshModel::Instant,
    };
    let coupled = run_coupled_with_threads(&cfg, 2);
    let baseline = phase_study_table(&cfg.sim);

    // Every served disallow-all span, per site.
    let mut windows: Vec<(String, u64, u64)> = Vec::new();
    for (site, timeline) in coupled.served.iter().enumerate() {
        let segments = timeline.segments();
        for (i, &(at, policy)) in segments.iter().enumerate() {
            if policy == BelievedPolicy::DisallowAll {
                let end = segments.get(i + 1).map_or(u64::MAX, |&(next, _)| next);
                windows.push((format!("site-{site:02}.example.edu"), at, end));
            }
        }
    }
    assert!(!windows.is_empty(), "outage scenario must script 5xx windows");

    let pages_in_windows = |records: &[botscope::weblog::AccessRecord], ua: Option<&str>| {
        records
            .iter()
            .filter(|r| {
                !r.is_robots_fetch()
                    && ua.is_none_or(|needle| r.useragent.contains(needle))
                    && windows.iter().any(|(site, lo, hi)| {
                        r.sitename == *site && r.timestamp.unix() >= *lo && r.timestamp.unix() < *hi
                    })
            })
            .count()
    };
    let coupled_records = coupled.sim.table.to_records();
    let baseline_records = baseline.sim.table.to_records();

    let baseline_pages = pages_in_windows(&baseline_records, None);
    let coupled_pages = pages_in_windows(&coupled_records, None);
    assert!(baseline_pages > 0, "the windows must contain baseline traffic");
    assert!(
        coupled_pages < baseline_pages,
        "believed disallow-all must suppress traffic: {coupled_pages} vs {baseline_pages}"
    );
    // The fully obedient bot halts completely.
    assert_eq!(
        pages_in_windows(&coupled_records, Some("ChatGPT-User")),
        0,
        "a disallow-compliance-1.0 bot fetches nothing through a believed 5xx window"
    );
}
