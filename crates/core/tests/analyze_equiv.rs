//! Equivalence of `Experiment::analyze_table` — the single-pass
//! `StreamAnalyzer` fed a table — with a straightforward reference
//! implementation of the §4 analysis, field for field, on generated
//! tables in their generated order and in reverse order.
//!
//! The reference below is the readable multi-pass formulation:
//! standardize the site subset into per-bot row views, split
//! legit/spoofed per directive, and re-filter each window per directive,
//! scoring each window with row-slice metrics. It sorts each τ group
//! itself, so it does not care about row order. Its helpers (per-bot
//! views, the row-slice metrics and the legit/spoofed split) are the
//! batch implementations the library once shipped, kept here verbatim
//! so the engine is checked against code that shares none of it.

use std::collections::BTreeMap;

use botscope_weblog::hash::FxHashMap;

use botscope_core::analyze::{BotDirectiveResult, Directive, Experiment};
use botscope_core::metrics::{DirectiveCounts, PathClasses, CRAWL_DELAY_SECS};
use botscope_core::spoofdetect::{detect_rows, SpoofFinding};
use botscope_simnet::scenario::phase_study_table;
use botscope_simnet::SimConfig;
use botscope_stats::ztest::two_proportion_z_test;
use botscope_study::{is_exempt_agent, PhaseSchedule, PolicyVersion};
use botscope_useragent::{BotSpec, Standardizer};
use botscope_weblog::intern::Sym;
use botscope_weblog::session::SESSION_GAP_SECS;
use botscope_weblog::table::{LogTable, RecordRow};
use botscope_weblog::time::Timestamp;

use proptest::prelude::*;

/// The §4.1 minimum accesses per phase.
const MIN_ACCESSES: usize = 5;

/// A known bot's rows, in input order.
struct BotView<'t> {
    bot: &'static BotSpec,
    rows: Vec<&'t RecordRow>,
}

/// Standardize `rows` into per-bot views keyed by canonical name; rows
/// of agents that match no known bot are dropped.
fn standardize_rows<'t>(
    table: &'t LogTable,
    rows: impl IntoIterator<Item = &'t RecordRow>,
) -> BTreeMap<String, BotView<'t>> {
    let mut standardizer = Standardizer::new();
    let mut verdicts: FxHashMap<Sym, Option<&'static BotSpec>> = FxHashMap::default();
    let mut views: BTreeMap<String, BotView<'t>> = BTreeMap::new();
    for row in rows {
        let bot = *verdicts.entry(row.useragent).or_insert_with(|| {
            standardizer.standardize(table.resolve(row.useragent)).map(|found| found.bot)
        });
        if let Some(bot) = bot {
            views
                .entry(bot.canonical.to_string())
                .or_insert_with(|| BotView { bot, rows: Vec::new() })
                .rows
                .push(row);
        }
    }
    views
}

/// Crawl-delay compliance for a row set, stratified by the full
/// (ASN, IP hash, raw user agent) τ-tuple; rows may be unsorted.
fn crawl_delay_counts_rows(rows: &[&RecordRow], delay_secs: u64) -> DirectiveCounts {
    let mut by_tau: FxHashMap<(Sym, u64, Sym), Vec<u64>> = FxHashMap::default();
    for r in rows {
        by_tau.entry((r.asn, r.ip_hash, r.useragent)).or_default().push(r.timestamp.unix());
    }
    let mut counts = DirectiveCounts::default();
    for (_, mut times) in by_tau {
        times.sort_unstable();
        if times.len() == 1 {
            // Single access: counted as compliant.
            counts.successes += 1;
            counts.trials += 1;
            continue;
        }
        for pair in times.windows(2) {
            let delta = pair[1] - pair[0];
            counts.trials += 1;
            if delta >= delay_secs {
                counts.successes += 1;
            }
        }
    }
    counts
}

/// Endpoint-access compliance: allowed targets are `/robots.txt` and the
/// `/page-data/` prefix (paper §4.2, v2 analysis).
fn endpoint_counts_rows(classes: &PathClasses, rows: &[&RecordRow]) -> DirectiveCounts {
    let mut counts = DirectiveCounts::default();
    for r in rows {
        counts.trials += 1;
        if classes.is_robots(r.uri_path) || classes.is_page_data(r.uri_path) {
            counts.successes += 1;
        }
    }
    counts
}

/// Disallow compliance: the only allowed target is `/robots.txt`
/// (paper §4.2, v3 analysis).
fn disallow_counts_rows(classes: &PathClasses, rows: &[&RecordRow]) -> DirectiveCounts {
    let mut counts = DirectiveCounts::default();
    for r in rows {
        counts.trials += 1;
        if classes.is_robots(r.uri_path) {
            counts.successes += 1;
        }
    }
    counts
}

/// Partition one bot's rows into (legitimate, possibly-spoofed) using a
/// finding.
fn split_rows<'t>(
    finding: &SpoofFinding,
    table: &LogTable,
    rows: &[&'t RecordRow],
) -> (Vec<&'t RecordRow>, Vec<&'t RecordRow>) {
    match table.interner().get(&finding.main_asn) {
        Some(main) => rows.iter().partition(|r| r.asn == main),
        // The main ASN never occurs in this table: everything is minority.
        None => (Vec::new(), rows.to_vec()),
    }
}

/// One directive's compliance counts over a row set (§4.2).
fn counts_rows(
    directive: Directive,
    classes: &PathClasses,
    rows: &[&RecordRow],
) -> DirectiveCounts {
    match directive {
        Directive::CrawlDelay => crawl_delay_counts_rows(rows, CRAWL_DELAY_SECS),
        Directive::Endpoint => endpoint_counts_rows(classes, rows),
        Directive::Disallow => disallow_counts_rows(classes, rows),
    }
}

/// Reference analysis: the readable, multi-pass formulation.
fn reference_analyze(table: &LogTable, schedule: &PhaseSchedule) -> Experiment {
    let site_name = format!("site-{:02}.example.edu", schedule.experiment_site);
    let classes = PathClasses::new(table);
    let site_rows: Vec<&RecordRow> = match table.interner().get(&site_name) {
        Some(site) => table.rows().iter().filter(|r| r.sitename == site).collect(),
        None => Vec::new(),
    };

    let logs = standardize_rows(table, site_rows.iter().copied());
    let spoof_report = detect_rows(table, logs.iter().map(|(name, view)| (name, &view.rows)));

    let all_logs = standardize_rows(table, table.rows());
    let robots_times: BTreeMap<String, Vec<u64>> = all_logs
        .iter()
        .map(|(name, view)| {
            let times: Vec<u64> = view
                .rows
                .iter()
                .filter(|r| classes.is_robots(r.uri_path))
                .map(|r| r.timestamp.unix())
                .collect();
            (name.clone(), times)
        })
        .collect();

    let phase_of = |version: PolicyVersion| -> (Timestamp, Timestamp) {
        schedule.window_of(version).expect("version scheduled")
    };
    let in_window =
        |r: &&RecordRow, lo: Timestamp, hi: Timestamp| r.timestamp >= lo && r.timestamp < hi;
    let (base_lo, base_hi) = phase_of(PolicyVersion::Base);

    let make_row = |view: &BotView<'_>,
                    directive: Directive,
                    base: &[&RecordRow],
                    phase: &[&RecordRow]|
     -> BotDirectiveResult {
        let baseline = counts_rows(directive, &classes, base);
        let experiment = counts_rows(directive, &classes, phase);
        let ztest = two_proportion_z_test(
            experiment.successes,
            experiment.trials,
            baseline.successes,
            baseline.trials,
        );
        BotDirectiveResult {
            bot: view.bot.canonical.to_string(),
            category: view.bot.category,
            promise: view.bot.respects_robots,
            sponsor: view.bot.sponsor,
            baseline,
            experiment,
            ztest,
            checked_robots: phase.iter().any(|r| classes.is_robots(r.uri_path)),
            accesses: phase.len() as u64,
        }
    };

    let mut per_directive: BTreeMap<Directive, Vec<BotDirectiveResult>> = BTreeMap::new();
    let mut spoofed_per_directive: BTreeMap<Directive, Vec<BotDirectiveResult>> = BTreeMap::new();
    let mut spoof_volume: BTreeMap<Directive, (u64, u64)> = BTreeMap::new();

    for directive in Directive::ALL {
        let (lo, hi) = phase_of(directive.version());
        let mut rows = Vec::new();
        let mut spoofed_rows = Vec::new();
        let mut volume = (0u64, 0u64);

        for (name, view) in &logs {
            let (legit, spoofed) = match spoof_report.finding_for(name) {
                Some(f) => split_rows(f, table, &view.rows),
                None => (view.rows.clone(), Vec::new()),
            };

            let legit_base: Vec<&RecordRow> =
                legit.iter().filter(|r| in_window(r, base_lo, base_hi)).copied().collect();
            let legit_phase: Vec<&RecordRow> =
                legit.iter().filter(|r| in_window(r, lo, hi)).copied().collect();
            volume.0 += legit_phase.len() as u64;

            let exempt = is_exempt_agent(name);
            if !exempt && legit_base.len() >= MIN_ACCESSES && legit_phase.len() >= MIN_ACCESSES {
                let checked = robots_times
                    .get(name)
                    .is_some_and(|ts| ts.iter().any(|&t| t >= lo.unix() && t < hi.unix()));
                let mut row = make_row(view, directive, &legit_base, &legit_phase);
                row.checked_robots = checked || row.checked_robots;
                rows.push(row);
            }

            if !spoofed.is_empty() {
                let sp_base: Vec<&RecordRow> =
                    spoofed.iter().filter(|r| in_window(r, base_lo, base_hi)).copied().collect();
                let sp_phase: Vec<&RecordRow> =
                    spoofed.iter().filter(|r| in_window(r, lo, hi)).copied().collect();
                volume.1 += sp_phase.len() as u64;
                if !sp_base.is_empty() && !sp_phase.is_empty() {
                    spoofed_rows.push(make_row(view, directive, &sp_base, &sp_phase));
                }
            }
        }
        rows.sort_by(|a, b| a.bot.cmp(&b.bot));
        spoofed_rows.sort_by(|a, b| a.bot.cmp(&b.bot));
        per_directive.insert(directive, rows);
        spoofed_per_directive.insert(directive, spoofed_rows);
        spoof_volume.insert(directive, volume);
    }

    let phase_traffic = schedule
        .phases
        .iter()
        .map(|p| botscope_core::analyze::PhaseTraffic {
            version: p.version,
            unique_site_visits: table.count_sessions(
                site_rows.iter().filter(|r| r.timestamp >= p.start && r.timestamp < p.end).copied(),
                SESSION_GAP_SECS,
            ),
            unique_bot_visitors: logs
                .values()
                .filter(|v| v.rows.iter().any(|r| r.timestamp >= p.start && r.timestamp < p.end))
                .count(),
        })
        .collect();

    Experiment {
        per_directive,
        spoofed_per_directive,
        phase_traffic,
        spoof_report,
        spoof_volume,
        schedule: schedule.clone(),
    }
}

/// Field-for-field comparison of two experiments (asserts on mismatch).
fn assert_experiments_equal(a: &Experiment, b: &Experiment, label: &str) {
    assert_eq!(a.schedule, b.schedule, "{label}: schedule");
    assert_eq!(a.phase_traffic, b.phase_traffic, "{label}: phase_traffic");
    assert_eq!(a.spoof_report, b.spoof_report, "{label}: spoof_report");
    assert_eq!(a.spoof_volume, b.spoof_volume, "{label}: spoof_volume");
    for (map_a, map_b, what) in [
        (&a.per_directive, &b.per_directive, "per_directive"),
        (&a.spoofed_per_directive, &b.spoofed_per_directive, "spoofed_per_directive"),
    ] {
        assert_eq!(map_a.len(), map_b.len(), "{label}: {what} directive count");
        for (directive, rows_a) in map_a {
            let rows_b = &map_b[directive];
            assert_eq!(rows_a, rows_b, "{label}: {what}[{directive:?}]");
        }
    }
}

fn check_config(cfg: &SimConfig) -> Experiment {
    let out = phase_study_table(cfg);
    let table = &out.sim.table;
    let reference = reference_analyze(table, &out.schedule);
    let engine = Experiment::analyze_table(table, &out.schedule);
    assert_experiments_equal(&engine, &reference, &format!("seed {}", cfg.seed));

    // The same rows newest first: the engine must sort them back.
    let reversed = LogTable::from_parts(
        table.interner().clone(),
        table.rows().iter().rev().copied().collect(),
    );
    let engine = Experiment::analyze_table(&reversed, &out.schedule);
    assert_experiments_equal(&engine, &reference, &format!("seed {} reversed", cfg.seed));
    engine
}

#[test]
fn engine_matches_reference_at_default_seed() {
    let cfg = SimConfig { scale: 0.15, sites: 4, ..SimConfig::default() };
    check_config(&cfg);
}

#[test]
fn engine_matches_reference_at_scale() {
    // A denser run: more bots clear the ≥5-accesses filter, and more
    // spoof findings form.
    let cfg = SimConfig { scale: 0.3, sites: 6, ..SimConfig::default() };
    let exp = check_config(&cfg);
    assert!(
        exp.per_directive.values().any(|rows| rows.len() >= 10),
        "scale 0.3 should produce a dense experiment"
    );
}

proptest! {
    // Generation dominates the runtime of each case; a handful of cases
    // over seed × scale × sites exercises sparse and dense tables,
    // including ones where some bots fail the per-phase minimum and
    // where spoof findings shift.
    #![proptest_config(ProptestConfig { cases: 6 })]
    #[test]
    fn engine_matches_reference_on_generated_tables(
        seed in 0u64..1_000_000,
        scale_pct in 2u32..12,
        sites in 2usize..6,
    ) {
        let cfg = SimConfig {
            seed,
            scale: scale_pct as f64 / 100.0,
            sites,
            ..SimConfig::default()
        };
        check_config(&cfg);
    }
}
