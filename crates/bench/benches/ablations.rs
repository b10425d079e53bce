//! Ablation benches for four choices the paper makes: RFC 9309
//! longest-match precedence, τ-tuple stratification of crawl delays,
//! the 5-minute session gap, and the 90 % spoof-dominance threshold.
//!
//! These are correctness-shaped ablations wrapped in Criterion so their
//! outputs land in the bench log: each run prints the quantity that
//! changes (decision flips, session counts, flagged bots) alongside the
//! timing, demonstrating *why* the paper's choice matters. All dataset
//! ablations run on the interned [`LogTable`] API — the native path.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use botscope_core::metrics::{crawl_delay_by_useragent, crawl_delay_counts_rows};
use botscope_core::pipeline::standardize_table;
use botscope_core::spoofdetect::detect_rows_with;
use botscope_robotstxt::{CompiledPolicy, RuleVerb};
use botscope_simnet::scenario::full_study_table;
use botscope_simnet::SimConfig;
use botscope_weblog::table::LogTable;

fn dataset() -> LogTable {
    let cfg = SimConfig { days: 10, scale: 0.05, ..SimConfig::default() };
    full_study_table(&cfg).table
}

/// Ablation 1: RFC 9309 longest-match precedence vs naive first-match.
fn ablation_match_precedence(c: &mut Criterion) {
    let policy = CompiledPolicy::from_text(
        "User-agent: *\nDisallow: /\nAllow: /page-data/*\nAllow: /news/\nDisallow: /news/private\n",
    );
    let paths = ["/page-data/x.json", "/news/item", "/news/private/x", "/other"];

    // First-match semantics: the first rule in file order that matches.
    let (_, group) = policy.resolve_view("bot").expect("wildcard group");
    let first_match = |path: &str| -> bool {
        for rule in group.rules() {
            if rule.pattern.matches(path) {
                return rule.verb == RuleVerb::Allow;
            }
        }
        true
    };

    let flips: usize =
        paths.iter().filter(|p| policy.check("bot", p).allow != first_match(p)).count();
    println!("[ablation] longest-match vs first-match decision flips: {flips}/{}", paths.len());

    let mut g = c.benchmark_group("ablation_precedence");
    g.bench_function("longest_match_rfc9309", |b| {
        b.iter(|| paths.iter().filter(|p| policy.check("bot", black_box(p)).allow).count());
    });
    g.bench_function("first_match_naive", |b| {
        b.iter(|| paths.iter().filter(|p| first_match(black_box(p))).count());
    });
    g.finish();
}

/// Ablation 2: τ-tuple stratification vs naive per-UA pooling for the
/// crawl-delay metric.
fn ablation_tau_stratification(c: &mut Criterion) {
    let table = dataset();
    let logs = standardize_table(&table);
    let busiest = logs.bots.values().max_by_key(|v| v.rows.len()).expect("non-empty").rows.clone();

    // Naive pooling: sort all of the bot's accesses together regardless
    // of requesting IP/ASN/raw agent and measure deltas across
    // interleaved clients.
    let naive = |rows: &[&botscope_weblog::table::RecordRow]| {
        let mut times: Vec<u64> = rows.iter().map(|r| r.timestamp.unix()).collect();
        times.sort_unstable();
        let mut ok = 0u64;
        let mut n = 0u64;
        for w in times.windows(2) {
            n += 1;
            if w[1] - w[0] >= 30 {
                ok += 1;
            }
        }
        (ok, n.max(1))
    };

    let strat = crawl_delay_counts_rows(&busiest, 30);
    let (nok, nn) = naive(&busiest);
    println!(
        "[ablation] crawl-delay ratio stratified={:.3} pooled={:.3} (pooling corrupts the measure when a bot crawls from many IPs)",
        strat.ratio().unwrap_or(0.0),
        nok as f64 / nn as f64,
    );
    // The per-raw-agent convenience view covers the whole estate.
    let per_ua = crawl_delay_by_useragent(&table, 30);
    println!("[ablation] per-raw-agent crawl-delay groups: {}", per_ua.len());

    let mut g = c.benchmark_group("ablation_tau");
    g.bench_function("tau_stratified", |b| {
        b.iter(|| crawl_delay_counts_rows(black_box(&busiest), 30));
    });
    g.bench_function("naive_pooled", |b| b.iter(|| naive(black_box(&busiest))));
    g.finish();
}

/// Ablation 3: sessionization-gap sweep (paper uses 5 minutes).
fn ablation_session_gap(c: &mut Criterion) {
    let table = dataset();
    let mut g = c.benchmark_group("ablation_session_gap");
    g.sample_size(10);
    for &gap_min in &[1u64, 5, 15, 60] {
        let sessions = table.sessionize(gap_min * 60).len();
        println!("[ablation] session gap {gap_min}min -> {sessions} sessions");
        g.bench_with_input(BenchmarkId::from_parameter(gap_min), &gap_min, |b, &gap| {
            b.iter(|| black_box(&table).sessionize(gap * 60).len());
        });
    }
    g.finish();
}

/// Ablation 4: spoof-dominance threshold sweep (paper uses 90 %, §5.2
/// calls the choice "somewhat arbitrary").
fn ablation_spoof_threshold(c: &mut Criterion) {
    let table = dataset();
    let logs = standardize_table(&table);
    let per_bot = logs.per_bot_rows();
    let mut g = c.benchmark_group("ablation_spoof_threshold");
    for &threshold in &[0.5f64, 0.75, 0.9, 0.99] {
        let flagged = detect_rows_with(&table, &per_bot, threshold, 10).findings.len();
        println!("[ablation] dominance threshold {threshold} -> {flagged} flagged bots");
        g.bench_with_input(BenchmarkId::from_parameter(threshold), &threshold, |b, &t| {
            b.iter(|| detect_rows_with(&table, black_box(&per_bot), t, 10).findings.len());
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablation_match_precedence,
    ablation_tau_stratification,
    ablation_session_gap,
    ablation_spoof_threshold
);
criterion_main!(benches);
