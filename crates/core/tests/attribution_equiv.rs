//! Equivalence of the parallel, cursor-based attribution pipeline (its
//! counts and its per-row excusal mask) with serial oracles — across
//! worker counts — and of the believed-basis experiment analysis with a
//! post-hoc correction of the served-basis input.
//!
//! The oracles below restate attribution and the excusal mask from
//! their definitions over public APIs only: per-row
//! [`BeliefTimeline::at`] binary searches, the interpreted matcher
//! behind [`PolicyCorpus::doc`], and sitenames parsed from their
//! strings. They share no cursor, cache or compiled-automaton code with
//! the pipeline.
//!
//! Belief atlases and served timelines are synthesized from a seed (an
//! xorshift walk over policy states), independently of the generated
//! traffic, so the equivalence is exercised on timelines the traffic
//! never "agreed" with: every attribution class (deliberate,
//! stale-cache, fetch-artifact) shows up.

use botscope_core::analyze::{BeliefContext, Experiment};
use std::collections::{BTreeMap, HashMap};

use botscope_core::attribution::{
    attribute_rows, attribute_table_with_threads, AttributionCounts, PolicyBasis,
};
use botscope_core::pipeline::standardize_table;
use botscope_simnet::belief::{BeliefAtlas, BeliefTimeline, BelievedPolicy};
use botscope_simnet::phases::PolicyVersion;
use botscope_simnet::scenario::phase_study_table;
use botscope_simnet::server::PolicyCorpus;
use botscope_simnet::SimConfig;
use botscope_useragent::Standardizer;
use botscope_weblog::intern::Sym;
use botscope_weblog::record::AccessRecord;
use botscope_weblog::table::LogTable;

use proptest::prelude::*;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Whether `agent` may fetch `path` under `policy`: a believed version
/// answers through the interpreted matcher; a fetch-layer allow-all (or
/// no fetch yet) allows everything; disallow-all leaves only
/// robots.txt itself reachable.
fn oracle_allows(corpus: &PolicyCorpus, policy: BelievedPolicy, agent: &str, path: &str) -> bool {
    match policy {
        BelievedPolicy::Unfetched | BelievedPolicy::AllowAll => true,
        BelievedPolicy::Version(v) => corpus.doc(v).is_allowed(agent, path).allow,
        BelievedPolicy::DisallowAll => path == "/robots.txt",
    }
}

/// Estate index of `site-NN.example.edu`, for sites below `n_sites`.
fn oracle_site(name: &str, n_sites: usize) -> Option<usize> {
    let digits = name.strip_prefix("site-")?.strip_suffix(".example.edu")?;
    let site: usize = digits.parse().ok()?;
    (site < n_sites && format!("site-{site:02}.example.edu") == name).then_some(site)
}

/// Memoized [`oracle_allows`] for one bot: the interpreted matcher is
/// slow in debug builds, and a run touches few (policy, path) pairs.
struct OracleAllows<'a> {
    corpus: &'a PolicyCorpus,
    agent: &'a str,
    memo: HashMap<(BelievedPolicy, Sym), bool>,
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
        let mut allows = OracleAllows { corpus, agent: &view.name, memo: HashMap::new() };
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

/// Serial oracle for the excusal mask: row by row in table order, a row
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
    let mut allows: HashMap<&str, OracleAllows<'_>> = HashMap::new();
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
                memo: HashMap::new(),
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
        0 => BeliefTimeline::new(), // Unfetched until the first record
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
    schedule: botscope_simnet::phases::PhaseSchedule,
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

/// Parallel attribution ≡ its serial oracle at 1/2/8 workers.
fn check_attribution_equiv(fx: &Fixture) {
    let corpus = PolicyCorpus::new();
    let attr_ref = attribute_oracle(&fx.table, &fx.beliefs, &fx.served, &corpus);
    assert!(
        attr_ref.values().any(|c| c.violations_served() > 0),
        "synthetic timelines should produce violations"
    );
    for threads in WORKER_COUNTS {
        let attr =
            attribute_table_with_threads(&fx.table, &fx.beliefs, &fx.served, &corpus, threads);
        assert_eq!(attr, attr_ref, "attribute_table_with_threads at {threads} workers");
    }
}

/// One `attribute_rows` sweep ≡ both oracles at 1/2/8 workers, and its
/// two outputs agree: each bot's excused count is the number of masked
/// rows whose agent standardizes to that bot.
fn check_one_sweep(fx: &Fixture) {
    let corpus = PolicyCorpus::new();
    let counts_ref = attribute_oracle(&fx.table, &fx.beliefs, &fx.served, &corpus);
    let mask_ref = excusal_oracle(&fx.table, &fx.beliefs, &fx.served, &corpus);
    let mut standardizer = Standardizer::new();
    let mut masked_per_bot: BTreeMap<&str, u64> = BTreeMap::new();
    for (row, _) in fx.table.rows().iter().zip(&mask_ref).filter(|&(_, &excused)| excused) {
        let spec = standardizer.standardize(fx.table.resolve(row.useragent)).expect("bot row");
        *masked_per_bot.entry(spec.bot.canonical).or_default() += 1;
    }
    for threads in WORKER_COUNTS {
        let attr = attribute_rows(&fx.table, &fx.beliefs, &fx.served, &corpus, threads);
        assert_eq!(attr.counts, counts_ref, "counts at {threads} workers");
        assert_eq!(attr.excused, mask_ref, "excused at {threads} workers");
        for (bot, c) in &attr.counts {
            let masked = masked_per_bot.get(bot.as_str()).copied().unwrap_or(0);
            assert_eq!(c.excused(), masked, "{bot} at {threads} workers");
        }
        let total: u64 = attr.counts.values().map(AttributionCounts::excused).sum();
        let masked = attr.excused.iter().filter(|&&excused| excused).count() as u64;
        assert_eq!(total, masked, "excused totals at {threads} workers");
    }
}

/// Believed-basis analysis ≡ dropping the excused rows by hand and
/// re-running the plain served-basis analysis on a re-interned table.
fn check_believed_basis_equiv(fx: &Fixture) {
    let corpus = PolicyCorpus::new();
    let ctx = BeliefContext { beliefs: &fx.beliefs, served: &fx.served, corpus: &corpus };

    let mask = attribute_rows(&fx.table, &fx.beliefs, &fx.served, &corpus, 2).excused;
    let kept: Vec<AccessRecord> = fx
        .table
        .rows()
        .iter()
        .zip(&mask)
        .filter(|&(_, &excused)| !excused)
        .map(|(row, _)| fx.table.materialize(row))
        .collect();
    let posthoc_table = LogTable::from_records(&kept);
    let posthoc = Experiment::analyze_table(&posthoc_table, &fx.schedule);

    for threads in WORKER_COUNTS {
        let believed = Experiment::analyze_table_with_basis(
            &fx.table,
            &fx.schedule,
            &ctx,
            PolicyBasis::Believed,
            threads,
        );
        assert_eq!(believed.per_directive, posthoc.per_directive, "{threads} workers");
        assert_eq!(
            believed.spoofed_per_directive, posthoc.spoofed_per_directive,
            "{threads} workers"
        );
        assert_eq!(believed.spoof_volume, posthoc.spoof_volume, "{threads} workers");
        assert_eq!(believed.phase_traffic, posthoc.phase_traffic, "{threads} workers");
        assert_eq!(believed.spoof_report, posthoc.spoof_report, "{threads} workers");
    }
}

/// With beliefs that mirror the served timelines exactly, nothing is
/// excused and the believed basis degenerates to the served one.
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
    let corpus = PolicyCorpus::new();
    let mask = attribute_rows(&out.sim.table, &beliefs, &served, &corpus, 2).excused;
    assert!(mask.iter().all(|&m| !m), "beliefs ≡ served excuses nothing");

    let ctx = BeliefContext { beliefs: &beliefs, served: &served, corpus: &corpus };
    let believed = Experiment::analyze_table_with_basis(
        &out.sim.table,
        &out.schedule,
        &ctx,
        PolicyBasis::Believed,
        2,
    );
    let served_exp = Experiment::analyze_table_with_basis(
        &out.sim.table,
        &out.schedule,
        &ctx,
        PolicyBasis::Served,
        2,
    );
    assert_eq!(believed.per_directive, served_exp.per_directive);
    assert_eq!(believed.phase_traffic, served_exp.phase_traffic);
    assert_eq!(believed.spoof_report, served_exp.spoof_report);
}

#[test]
fn parallel_attribution_matches_reference_at_default_seed() {
    let fx = fixture(9309, 0.15, 4);
    check_attribution_equiv(&fx);
}

#[test]
fn one_sweep_matches_both_oracles_at_default_seed() {
    let fx = fixture(9309, 0.15, 4);
    check_one_sweep(&fx);
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
        check_one_sweep(&fx);
        check_believed_basis_equiv(&fx);
    }
}
