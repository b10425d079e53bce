//! Equivalence of the cursor-based attribution sweep (its counts and
//! each row's verdict) with serial oracles, and of the believed-basis
//! experiment with a post-hoc correction of the served-basis input — on
//! generated tables in time order and shuffled.
//!
//! The oracles below restate attribution and the excusal verdicts from
//! their definitions over public APIs only: per-row
//! [`BeliefTimeline::at`] binary searches, the RFC 9309 test oracle over
//! [`PolicyCorpus::doc`], and sitenames parsed from their strings. They share no cursor, cache or compiled-automaton code with
//! the pipeline.
//!
//! Belief atlases and served timelines are synthesized from a seed (an
//! xorshift walk over policy states), independently of the generated
//! traffic, so the equivalence is exercised on timelines the traffic
//! never "agreed" with: every attribution class (deliberate,
//! stale-cache, fetch-artifact) shows up.

#[path = "../../robotstxt/tests/rep_oracle/mod.rs"]
mod rep_oracle;

use botscope_core::analyze::{BeliefContext, Experiment};
use std::collections::BTreeMap;

use botscope_weblog::hash::FxHashMap;

use botscope_core::attribution::{
    attribute_table_with_threads, score_table, AttributionCounts, Judge, PolicyBasis, Verdict,
};
use botscope_core::pipeline::standardize_table;
use botscope_simnet::scenario::phase_study_table;
use botscope_simnet::SimConfig;
use botscope_study::{
    BeliefAtlas, BeliefTimeline, BelievedPolicy, PhaseSchedule, PolicyCorpus, PolicyVersion,
};
use botscope_useragent::Standardizer;
use botscope_weblog::intern::Sym;
use botscope_weblog::record::AccessRecord;
use botscope_weblog::table::LogTable;

use proptest::prelude::*;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Whether `agent` may fetch `path` under `policy`: a believed version
/// answers through the RFC oracle; a fetch-layer allow-all (or no fetch
/// yet) allows everything; disallow-all leaves only robots.txt itself
/// reachable.
fn oracle_allows(corpus: &PolicyCorpus, policy: BelievedPolicy, agent: &str, path: &str) -> bool {
    match policy {
        BelievedPolicy::Unfetched | BelievedPolicy::AllowAll => true,
        BelievedPolicy::Version(v) => rep_oracle::decide(corpus.doc(v), agent, path).allow,
        BelievedPolicy::DisallowAll => path == "/robots.txt",
    }
}

/// Estate index of `site-NN.example.edu`, for sites below `n_sites`.
fn oracle_site(name: &str, n_sites: usize) -> Option<usize> {
    let digits = name.strip_prefix("site-")?.strip_suffix(".example.edu")?;
    let site: usize = digits.parse().ok()?;
    (site < n_sites && format!("site-{site:02}.example.edu") == name).then_some(site)
}

/// Memoized [`oracle_allows`] for one bot: the oracle is slow in debug
/// builds, and a run touches few (policy, path) pairs.
struct OracleAllows<'a> {
    corpus: &'a PolicyCorpus,
    agent: &'a str,
    memo: FxHashMap<(BelievedPolicy, Sym), bool>,
}

impl OracleAllows<'_> {
    fn allows(&mut self, table: &LogTable, policy: BelievedPolicy, path: Sym) -> bool {
        let Self { corpus, agent, memo } = self;
        *memo
            .entry((policy, path))
            .or_insert_with(|| oracle_allows(corpus, policy, agent, table.resolve(path)))
    }
}

/// Serial oracle for `attribute_table_with_threads`: every monitored bot's page
/// accesses on estate sites, judged at their own instant against the
/// believed and the served policy. A served violation is deliberate when
/// the bot's belief forbade it too or it never fetched robots.txt, a
/// stale cache when a believed version allowed it, and a fetch artifact
/// when a fetch-layer allow-all did.
fn attribute_oracle(
    table: &LogTable,
    beliefs: &BeliefAtlas,
    served: &[BeliefTimeline],
    corpus: &PolicyCorpus,
) -> BTreeMap<String, AttributionCounts> {
    let n_sites = served.len().min(beliefs.n_sites());
    let mut out = BTreeMap::new();
    for view in standardize_table(table).bots.values() {
        let Some(bot) = beliefs.bots.iter().position(|b| *b == view.name) else {
            continue;
        };
        let mut allows = OracleAllows { corpus, agent: &view.name, memo: FxHashMap::default() };
        let mut counts = AttributionCounts::default();
        for row in &view.rows {
            if table.resolve(row.uri_path) == "/robots.txt" {
                continue;
            }
            let Some(site) = oracle_site(table.resolve(row.sitename), n_sites) else {
                continue;
            };
            let t = row.timestamp.unix();
            let believed = beliefs.timeline(bot, site).at(t);
            let allowed_believed = allows.allows(table, believed, row.uri_path);
            let allowed_served = allows.allows(table, served[site].at(t), row.uri_path);
            counts.accesses += 1;
            counts.believed_violations += u64::from(!allowed_believed);
            match believed {
                _ if allowed_served => counts.allowed_served += 1,
                _ if !allowed_believed => counts.deliberate += 1,
                BelievedPolicy::Unfetched => counts.deliberate += 1,
                BelievedPolicy::Version(_) => counts.stale_cache += 1,
                BelievedPolicy::AllowAll => counts.fetch_artifact += 1,
                BelievedPolicy::DisallowAll => {
                    unreachable!("allowed page fetch under disallow-all")
                }
            }
        }
        if counts.accesses > 0 {
            out.insert(view.name.clone(), counts);
        }
    }
    out
}

/// Serial oracle for the excusal verdicts: row by row in table order, a row
/// is excused when its agent standardizes to a monitored bot, it is a
/// page access on an estate site, the served policy forbade it, and a
/// believed version (stale cache) or fetch-layer allow-all permitted it.
fn excusal_oracle(
    table: &LogTable,
    beliefs: &BeliefAtlas,
    served: &[BeliefTimeline],
    corpus: &PolicyCorpus,
) -> Vec<bool> {
    let n_sites = served.len().min(beliefs.n_sites());
    let mut standardizer = Standardizer::new();
    let mut allows: FxHashMap<&str, OracleAllows<'_>> = FxHashMap::default();
    table
        .rows()
        .iter()
        .map(|row| {
            let Some(spec) = standardizer.standardize(table.resolve(row.useragent)) else {
                return false;
            };
            let agent = spec.bot.canonical;
            let Some(bot) = beliefs.bots.iter().position(|b| b == agent) else {
                return false;
            };
            if table.resolve(row.uri_path) == "/robots.txt" {
                return false;
            }
            let Some(site) = oracle_site(table.resolve(row.sitename), n_sites) else {
                return false;
            };
            let t = row.timestamp.unix();
            let believed = beliefs.timeline(bot, site).at(t);
            let allows = allows.entry(agent).or_insert_with(|| OracleAllows {
                corpus,
                agent,
                memo: FxHashMap::default(),
            });
            !allows.allows(table, served[site].at(t), row.uri_path)
                && allows.allows(table, believed, row.uri_path)
                && matches!(believed, BelievedPolicy::Version(_) | BelievedPolicy::AllowAll)
        })
        .collect()
}

/// Tiny deterministic generator for timeline synthesis.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A pseudo-random believed policy, covering every variant.
fn random_policy(rng: &mut XorShift) -> BelievedPolicy {
    match rng.below(6) {
        0 => BelievedPolicy::Version(PolicyVersion::Base),
        1 => BelievedPolicy::Version(PolicyVersion::V1CrawlDelay),
        2 => BelievedPolicy::Version(PolicyVersion::V2EndpointOnly),
        3 => BelievedPolicy::Version(PolicyVersion::V3DisallowAll),
        4 => BelievedPolicy::AllowAll,
        _ => BelievedPolicy::DisallowAll,
    }
}

/// A stepwise timeline with up to `max_transitions` pseudo-random
/// transitions inside `[lo, hi)`.
fn random_timeline(rng: &mut XorShift, lo: u64, hi: u64, max_transitions: u64) -> BeliefTimeline {
    let mut tl = match rng.below(4) {
        0 => BeliefTimeline::always(BelievedPolicy::Unfetched),
        _ => BeliefTimeline::always(random_policy(rng)),
    };
    let n = rng.below(max_transitions + 1);
    let mut times: Vec<u64> =
        (0..n).map(|_| lo + rng.below(hi.saturating_sub(lo).max(1))).collect();
    times.sort_unstable();
    for t in times {
        tl.record(t, random_policy(rng));
    }
    tl
}

/// Generated traffic plus synthetic belief/served state.
struct Fixture {
    table: LogTable,
    schedule: PhaseSchedule,
    beliefs: BeliefAtlas,
    served: Vec<BeliefTimeline>,
}

fn fixture(seed: u64, scale: f64, sites: usize) -> Fixture {
    let cfg = SimConfig { seed, scale, sites, ..SimConfig::default() };
    let out = phase_study_table(&cfg);
    let (lo, hi) = out.schedule.bounds();
    let (lo, hi) = (lo.unix(), hi.unix());

    // Atlas bots: every canonical bot the generated table contains, so
    // no view is skipped for being unmonitored.
    let bots: Vec<String> = standardize_table(&out.sim.table).bots.keys().cloned().collect();

    let mut rng = XorShift::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x00C0_FFEE);
    let served: Vec<BeliefTimeline> =
        (0..sites).map(|_| random_timeline(&mut rng, lo, hi, 8)).collect();
    let mut beliefs = BeliefAtlas::new(bots, sites);
    for bot in 0..beliefs.bots.len() {
        for site in 0..sites {
            *beliefs.timeline_mut(bot, site) = random_timeline(&mut rng, lo, hi, 8);
        }
    }
    Fixture { table: out.sim.table, schedule: out.schedule, beliefs, served }
}

/// A copy of `fx` whose table holds the same rows in a scrambled order.
fn shuffled(fx: &Fixture) -> Fixture {
    let mut records: Vec<AccessRecord> =
        fx.table.rows().iter().map(|row| fx.table.materialize(row)).collect();
    let mut rng = XorShift::new(0x5EED_5EED);
    for i in (1..records.len()).rev() {
        records.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Fixture {
        table: LogTable::from_records(&records),
        schedule: fx.schedule.clone(),
        beliefs: fx.beliefs.clone(),
        served: fx.served.clone(),
    }
}

/// Each row's verdict, judging the rows in table order.
fn verdicts(fx: &Fixture, corpus: &PolicyCorpus) -> Vec<Verdict> {
    let ctx = BeliefContext { beliefs: &fx.beliefs, served: &fx.served, corpus };
    let mut judge = Judge::new(&fx.table, &ctx);
    fx.table.rows().iter().map(|row| judge.judge(row)).collect()
}

/// `fx` scored under `basis` by the one sweep.
fn score(
    fx: &Fixture,
    corpus: &PolicyCorpus,
    basis: PolicyBasis,
) -> (BTreeMap<String, AttributionCounts>, Experiment) {
    let ctx = BeliefContext { beliefs: &fx.beliefs, served: &fx.served, corpus };
    score_table(&fx.table, &fx.schedule, &ctx, basis)
}

fn assert_same_experiment(a: &Experiment, b: &Experiment, what: &str) {
    assert_eq!(a.per_directive, b.per_directive, "{what}");
    assert_eq!(a.spoofed_per_directive, b.spoofed_per_directive, "{what}");
    assert_eq!(a.spoof_volume, b.spoof_volume, "{what}");
    assert_eq!(a.phase_traffic, b.phase_traffic, "{what}");
    assert_eq!(a.spoof_report, b.spoof_report, "{what}");
}

/// The sweep's counts ≡ the serial oracle, under both bases and through
/// `attribute_table_with_threads` (whose worker count is ignored).
fn check_attribution_equiv(fx: &Fixture) {
    let corpus = PolicyCorpus::new();
    let attr_ref = attribute_oracle(&fx.table, &fx.beliefs, &fx.served, &corpus);
    assert!(
        attr_ref.values().any(|c| c.violations_served() > 0),
        "synthetic timelines should produce violations"
    );
    for basis in [PolicyBasis::Served, PolicyBasis::Believed] {
        assert_eq!(score(fx, &corpus, basis).0, attr_ref, "score_table, {basis:?}");
    }
    for threads in WORKER_COUNTS {
        let attr =
            attribute_table_with_threads(&fx.table, &fx.beliefs, &fx.served, &corpus, threads);
        assert_eq!(attr, attr_ref, "attribute_table_with_threads at {threads} workers");
    }
}

/// Each row's verdict ≡ the excusal oracle, and the verdicts agree with
/// the counts: each bot's excused count is the number of excused rows
/// whose agent standardizes to that bot.
fn check_verdicts(fx: &Fixture) {
    let corpus = PolicyCorpus::new();
    let counts_ref = attribute_oracle(&fx.table, &fx.beliefs, &fx.served, &corpus);
    let excused_ref = excusal_oracle(&fx.table, &fx.beliefs, &fx.served, &corpus);
    let verdicts = verdicts(fx, &corpus);
    assert_eq!(verdicts.len(), fx.table.len());
    for (i, (verdict, &excused)) in verdicts.iter().zip(&excused_ref).enumerate() {
        assert_eq!(verdict.excused(), excused, "row {i}: {verdict:?}");
    }
    let mut standardizer = Standardizer::new();
    let mut excused_per_bot: BTreeMap<&str, u64> = BTreeMap::new();
    let judged = fx.table.rows().iter().zip(&verdicts);
    for (row, _) in judged.filter(|(_, verdict)| verdict.excused()) {
        let spec = standardizer.standardize(fx.table.resolve(row.useragent)).expect("bot row");
        *excused_per_bot.entry(spec.bot.canonical).or_default() += 1;
    }
    for (bot, c) in &counts_ref {
        let excused = excused_per_bot.get(bot.as_str()).copied().unwrap_or(0);
        assert_eq!(c.excused(), excused, "{bot}");
    }
    let total: u64 = counts_ref.values().map(AttributionCounts::excused).sum();
    assert_eq!(total, excused_per_bot.values().sum::<u64>(), "excused totals");
}

/// Believed-basis analysis ≡ dropping the oracle's excused rows by hand
/// and re-running the plain served-basis analysis on a re-interned
/// table; the served basis ≡ the plain analysis.
fn check_believed_basis_equiv(fx: &Fixture) {
    let corpus = PolicyCorpus::new();
    let ctx = BeliefContext { beliefs: &fx.beliefs, served: &fx.served, corpus: &corpus };

    let excused = excusal_oracle(&fx.table, &fx.beliefs, &fx.served, &corpus);
    let kept: Vec<AccessRecord> = fx
        .table
        .rows()
        .iter()
        .zip(&excused)
        .filter(|&(_, &excused)| !excused)
        .map(|(row, _)| fx.table.materialize(row))
        .collect();
    let posthoc_table = LogTable::from_records(&kept);
    let posthoc = Experiment::analyze_table(&posthoc_table, &fx.schedule);

    let (_, believed) = score(fx, &corpus, PolicyBasis::Believed);
    assert_same_experiment(&believed, &posthoc, "score_table, believed");
    let believed = Experiment::analyze_table_with_basis(
        &fx.table,
        &fx.schedule,
        &ctx,
        PolicyBasis::Believed,
        2,
    );
    assert_same_experiment(&believed, &posthoc, "analyze_table_with_basis, believed");
    let (_, served) = score(fx, &corpus, PolicyBasis::Served);
    let plain = Experiment::analyze_table(&fx.table, &fx.schedule);
    assert_same_experiment(&served, &plain, "score_table, served");
}

/// A shuffled copy of the table gives the same counts and the same
/// believed-basis experiment as the table in time order, and each of
/// its rows gets the verdict the excusal oracle gives it.
fn check_shuffled(fx: &Fixture) {
    let corpus = PolicyCorpus::new();
    let scrambled = shuffled(fx);
    assert!(
        scrambled.table.rows().windows(2).any(|w| w[0].timestamp > w[1].timestamp),
        "the copy must go back in time"
    );
    let (counts, believed) = score(fx, &corpus, PolicyBasis::Believed);
    let (shuffled_counts, shuffled_believed) = score(&scrambled, &corpus, PolicyBasis::Believed);
    assert_eq!(shuffled_counts, counts, "counts, shuffled");
    assert_same_experiment(&shuffled_believed, &believed, "believed basis, shuffled");
    check_verdicts(&scrambled);
}

/// With beliefs that mirror the served timelines exactly, no row's
/// verdict is excused and the believed basis degenerates to the served
/// one.
#[test]
fn believed_basis_degenerates_when_beliefs_track_served() {
    let cfg = SimConfig { scale: 0.1, sites: 4, ..SimConfig::default() };
    let out = phase_study_table(&cfg);
    let (lo, hi) = out.schedule.bounds();
    let mut rng = XorShift::new(42);
    let served: Vec<BeliefTimeline> =
        (0..4).map(|_| random_timeline(&mut rng, lo.unix(), hi.unix(), 8)).collect();
    let bots: Vec<String> = standardize_table(&out.sim.table).bots.keys().cloned().collect();
    let mut beliefs = BeliefAtlas::new(bots, 4);
    for bot in 0..beliefs.bots.len() {
        for (site, timeline) in served.iter().enumerate() {
            *beliefs.timeline_mut(bot, site) = timeline.clone();
        }
    }
    let fx = Fixture { table: out.sim.table, schedule: out.schedule, beliefs, served };
    let corpus = PolicyCorpus::new();

    let verdicts = verdicts(&fx, &corpus);
    assert_eq!(verdicts.len(), fx.table.len());
    assert!(verdicts.iter().all(|verdict| !verdict.excused()), "beliefs ≡ served excuses nothing");

    let (counts, believed) = score(&fx, &corpus, PolicyBasis::Believed);
    assert!(counts.values().all(|c| c.excused() == 0), "no bot has an excused row");
    let (_, served) = score(&fx, &corpus, PolicyBasis::Served);
    assert_same_experiment(&believed, &served, "believed ≡ served");
}

#[test]
fn attribution_matches_reference_at_default_seed() {
    let fx = fixture(9309, 0.15, 4);
    check_attribution_equiv(&fx);
}

#[test]
fn verdicts_match_excusal_oracle_at_default_seed() {
    let fx = fixture(9309, 0.15, 4);
    check_verdicts(&fx);
}

#[test]
fn shuffled_table_scores_like_sorted_at_default_seed() {
    let fx = fixture(9309, 0.15, 4);
    check_shuffled(&fx);
}

#[test]
fn believed_basis_matches_posthoc_at_default_seed() {
    let fx = fixture(9309, 0.15, 4);
    check_believed_basis_equiv(&fx);
}

proptest! {
    // Generation dominates each case's runtime; a handful of cases over
    // seed × scale × sites covers sparse and dense tables against
    // timelines with every believed-policy variant.
    #![proptest_config(ProptestConfig { cases: 5 })]
    #[test]
    fn attribution_equivalences_hold_on_generated_tables(
        seed in 0u64..1_000_000,
        scale_pct in 2u32..10,
        sites in 2usize..6,
    ) {
        let fx = fixture(seed, scale_pct as f64 / 100.0, sites);
        check_attribution_equiv(&fx);
        check_verdicts(&fx);
        check_believed_basis_equiv(&fx);
        check_shuffled(&fx);
    }
}
