//! Full-experiment analysis: the §4 pipeline end to end.
//!
//! Given the 8-week phase-study logs (generated or real), this module:
//!
//! 1. standardizes user agents to canonical bots — **once** per symbol,
//!    estate-wide — and carves out each bot's experiment-site rows and
//!    robots.txt fetch times in the same sweep,
//! 2. flags possible spoofing with the §5.2 rule (`spoofdetect::dominance`)
//!    and sets the flagged minority-network requests aside,
//! 3. buckets every bot's rows into the four deployment-phase windows
//!    (legit and spoofed separately) in one pass,
//! 4. computes, per bot per directive, the §4.2 compliance counts under
//!    the experimental file and under the baseline file, with the pooled
//!    two-proportion z-test between them (Table 10, Figures 9/11),
//! 5. aggregates categories with access-weighted averages (Table 5),
//! 6. derives the traffic summary per version (Table 4) and the
//!    skipped-robots.txt rows (Table 7).
//!
//! Steps 1–4 and 6 run in [`StreamAnalyzer`], the one §4 engine: the
//! table entry points here push the table's rows through it in time
//! order, exactly as a streamed log would arrive.

use std::collections::BTreeMap;

use botscope_stats::describe::WeightedMeanAccumulator;
use botscope_stats::ztest::ZTestResult;
use botscope_useragent::{BotCategory, RobotsPromise};
use botscope_weblog::table::LogTable;

use botscope_study::{BeliefAtlas, BeliefTimeline, PhaseSchedule, PolicyCorpus, PolicyVersion};

use crate::attribution::{score_table, PolicyBasis};
use crate::metrics::DirectiveCounts;
use crate::pipeline::for_each_in_time_order;
use crate::spoofdetect::SpoofReport;
use crate::stream::StreamAnalyzer;

/// The three experimental directives (paper §4.1, v1–v3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Directive {
    /// v1: 30-second crawl delay.
    CrawlDelay,
    /// v2: `/page-data/*` endpoint only.
    Endpoint,
    /// v3: disallow everything.
    Disallow,
}

impl Directive {
    /// All directives in deployment order.
    pub const ALL: [Directive; 3] =
        [Directive::CrawlDelay, Directive::Endpoint, Directive::Disallow];

    /// Table column label.
    pub fn label(self) -> &'static str {
        match self {
            Directive::CrawlDelay => "Crawl delay",
            Directive::Endpoint => "Endpoint access",
            Directive::Disallow => "Disallow all",
        }
    }

    /// The robots.txt version that deploys this directive.
    pub fn version(self) -> PolicyVersion {
        match self {
            Directive::CrawlDelay => PolicyVersion::V1CrawlDelay,
            Directive::Endpoint => PolicyVersion::V2EndpointOnly,
            Directive::Disallow => PolicyVersion::V3DisallowAll,
        }
    }
}

/// One bot × directive analysis row.
#[derive(Debug, Clone, PartialEq)]
pub struct BotDirectiveResult {
    /// Canonical bot name.
    pub bot: String,
    /// Category.
    pub category: BotCategory,
    /// Public robots.txt promise.
    pub promise: RobotsPromise,
    /// Sponsoring entity.
    pub sponsor: &'static str,
    /// Counts under the baseline file.
    pub baseline: DirectiveCounts,
    /// Counts under the experimental file.
    pub experiment: DirectiveCounts,
    /// Pooled two-proportion z-test baseline→experiment (`None` = the
    /// paper's `N/A`).
    pub ztest: Option<ZTestResult>,
    /// Whether the bot fetched robots.txt during the experimental phase.
    pub checked_robots: bool,
    /// Record count during the experimental phase (the Table 5 weight).
    pub accesses: u64,
}

impl BotDirectiveResult {
    /// Experiment-phase compliance ratio, if defined.
    pub fn compliance(&self) -> Option<f64> {
        self.experiment.ratio()
    }

    /// Whether the baseline→experiment shift is significant at p ≤ 0.05.
    pub fn significant(&self) -> bool {
        self.ztest.as_ref().is_some_and(|t| t.significant_at(0.05))
    }
}

/// Table 4 row: traffic under one robots.txt version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTraffic {
    /// The deployed version.
    pub version: PolicyVersion,
    /// Sessionized site visits during the phase.
    pub unique_site_visits: usize,
    /// Distinct known bots observed.
    pub unique_bot_visitors: usize,
}

/// Table 5 cell: weighted compliance and its total weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryCell {
    /// Access-weighted mean compliance.
    pub compliance: f64,
    /// Total accesses behind the mean.
    pub weight: u64,
}

/// Table 5: category × directive.
#[derive(Debug, Clone, Default)]
pub struct CategoryTable {
    /// Rows in category order.
    pub rows: Vec<(BotCategory, BTreeMap<Directive, CategoryCell>, f64)>,
    /// The access-weighted all-bot average per directive (bottom row).
    pub directive_average: BTreeMap<Directive, f64>,
}

/// Everything the evaluation section needs.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Non-spoofed per-bot rows, per directive (Fig 9 / Tables 6, 10).
    pub per_directive: BTreeMap<Directive, Vec<BotDirectiveResult>>,
    /// Spoof-flagged per-bot rows, per directive (Fig 11 / Appendix A.2).
    pub spoofed_per_directive: BTreeMap<Directive, Vec<BotDirectiveResult>>,
    /// Table 4.
    pub phase_traffic: Vec<PhaseTraffic>,
    /// The §5.2 detection over the experiment-site logs (Table 8 inputs).
    pub spoof_report: SpoofReport,
    /// Legit vs spoofed request counts per directive phase (Table 9).
    pub spoof_volume: BTreeMap<Directive, (u64, u64)>,
    /// The schedule analyzed.
    pub schedule: PhaseSchedule,
}

/// Minimum accesses per phase for a bot to enter the per-bot analysis
/// (paper §4.1: "filter out bots that accessed the site less than 5 times
/// under any robots.txt version").
pub const MIN_ACCESSES: usize = 5;

/// Borrowed belief-layer inputs for attribution and basis-corrected
/// analysis ([`score_table`], [`Experiment::analyze_table_with_basis`]).
pub struct BeliefContext<'a> {
    /// Per-(bot, site) believed-policy timelines from the monitor.
    pub beliefs: &'a BeliefAtlas,
    /// Served ground-truth timelines per estate site.
    pub served: &'a [BeliefTimeline],
    /// The policy corpus the timelines reference.
    pub corpus: &'a PolicyCorpus,
}

impl Experiment {
    /// Analyze an interned table against a schedule: its rows, in time
    /// order, through one [`StreamAnalyzer`]. The rows may be in any
    /// order; an unsorted table is sorted by timestamp first.
    pub fn analyze_table(table: &LogTable, schedule: &PhaseSchedule) -> Experiment {
        let interner = table.interner();
        let mut analyzer = StreamAnalyzer::new(schedule);
        for_each_in_time_order(table, table.rows().iter(), |row| analyzer.push_row(row, interner));
        analyzer.finish(interner)
    }

    /// [`Experiment::analyze_table`]; the engine is serial, so the
    /// worker count is ignored.
    #[doc(hidden)]
    pub fn analyze_table_with_threads(
        table: &LogTable,
        schedule: &PhaseSchedule,
        _threads: usize,
    ) -> Experiment {
        Experiment::analyze_table(table, schedule)
    }

    /// Analyze under a policy basis: the experiment of
    /// [`score_table`]'s one sweep — Tables 5/6/10 over every row
    /// (`Served`) or over the rows the belief layer does not excuse
    /// (`Believed`, attribution-corrected compliance). With beliefs
    /// that track the served timelines exactly (instant refresh,
    /// always-healthy weather) no row is excused and the two bases
    /// coincide. The sweep is serial, so the worker count is ignored.
    pub fn analyze_table_with_basis(
        table: &LogTable,
        schedule: &PhaseSchedule,
        ctx: &BeliefContext<'_>,
        basis: PolicyBasis,
        _threads: usize,
    ) -> Experiment {
        score_table(table, schedule, ctx, basis).1
    }

    /// Table 5: access-weighted category compliance. Categories with no
    /// dedicated row in the paper's table (archivers, developer helpers,
    /// scrapers, AI agents, uncategorized) fold into "Other", matching the
    /// paper's presentation.
    pub fn category_table(&self) -> CategoryTable {
        let mut categories: Vec<BotCategory> = Vec::new();
        for rows in self.per_directive.values() {
            for r in rows {
                let cat = table5_category(r.category);
                if !categories.contains(&cat) {
                    categories.push(cat);
                }
            }
        }
        categories.sort();

        let mut table = CategoryTable::default();
        for cat in categories {
            let mut cells: BTreeMap<Directive, CategoryCell> = BTreeMap::new();
            let mut row_avg = Vec::new();
            for directive in Directive::ALL {
                let mut acc = WeightedMeanAccumulator::new();
                let mut weight = 0u64;
                for r in &self.per_directive[&directive] {
                    if table5_category(r.category) == cat {
                        if let Some(c) = r.compliance() {
                            acc.add(c, r.accesses as f64);
                            weight += r.accesses;
                        }
                    }
                }
                if let Some(m) = acc.finish() {
                    cells.insert(directive, CategoryCell { compliance: m, weight });
                    row_avg.push(m);
                }
            }
            if cells.is_empty() {
                continue;
            }
            let avg = row_avg.iter().sum::<f64>() / row_avg.len() as f64;
            table.rows.push((cat, cells, avg));
        }

        for directive in Directive::ALL {
            let mut acc = WeightedMeanAccumulator::new();
            for r in &self.per_directive[&directive] {
                if let Some(c) = r.compliance() {
                    acc.add(c, r.accesses as f64);
                }
            }
            if let Some(m) = acc.finish() {
                table.directive_average.insert(directive, m);
            }
        }
        table
    }

    /// Bots that skipped the robots.txt check during at least one
    /// experimental phase (Table 7): (bot, per-directive (checked,
    /// compliance)).
    pub fn skipped_checks(&self) -> Vec<(String, SkippedChecks)> {
        let mut per_bot: BTreeMap<String, SkippedChecks> = BTreeMap::new();
        for (&directive, rows) in &self.per_directive {
            for r in rows {
                per_bot
                    .entry(r.bot.clone())
                    .or_default()
                    .insert(directive, (r.checked_robots, r.compliance()));
            }
        }
        per_bot
            .into_iter()
            .filter(|(_, dirs)| dirs.values().any(|&(checked, _)| !checked))
            .collect()
    }
}

/// Per-directive (checked robots.txt?, compliance) map of one bot —
/// the Table 7 row payload.
pub type SkippedChecks = BTreeMap<Directive, (bool, Option<f64>)>;

/// The display category a bot takes in Table 5: the paper's nine rows,
/// with everything else under "Other".
pub fn table5_category(cat: BotCategory) -> BotCategory {
    match cat {
        BotCategory::AiAssistant
        | BotCategory::AiDataScraper
        | BotCategory::AiSearchCrawler
        | BotCategory::Fetcher
        | BotCategory::HeadlessBrowser
        | BotCategory::IntelligenceGatherer
        | BotCategory::SeoCrawler
        | BotCategory::SearchEngineCrawler => cat,
        _ => BotCategory::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_simnet::scenario::phase_study_table;
    use botscope_simnet::SimConfig;
    use botscope_study::is_exempt_agent;

    fn test_experiment() -> Experiment {
        // Small but dense enough for per-bot rows to form.
        let out = phase_study_table(&SimConfig { scale: 0.25, sites: 3, ..SimConfig::default() });
        Experiment::analyze_table(&out.sim.table, &out.schedule)
    }

    #[test]
    fn directive_plumbing() {
        assert_eq!(Directive::CrawlDelay.version(), PolicyVersion::V1CrawlDelay);
        assert_eq!(Directive::Endpoint.version(), PolicyVersion::V2EndpointOnly);
        assert_eq!(Directive::Disallow.version(), PolicyVersion::V3DisallowAll);
        assert_eq!(Directive::ALL.len(), 3);
    }

    #[test]
    fn end_to_end_rows_exist() {
        let exp = test_experiment();
        for d in Directive::ALL {
            assert!(
                exp.per_directive[&d].len() >= 10,
                "{d:?} produced only {} rows",
                exp.per_directive[&d].len()
            );
        }
    }

    #[test]
    fn exempt_bots_absent_from_rows() {
        let exp = test_experiment();
        for d in Directive::ALL {
            for row in &exp.per_directive[&d] {
                assert!(!is_exempt_agent(&row.bot), "{} must be excluded", row.bot);
            }
        }
    }

    #[test]
    fn obedient_bot_measures_high_disallow_compliance() {
        let exp = test_experiment();
        let rows = &exp.per_directive[&Directive::Disallow];
        let gpt = rows.iter().find(|r| r.bot == "GPTBot");
        if let Some(gpt) = gpt {
            let c = gpt.compliance().unwrap();
            assert!(c > 0.8, "GPTBot planted disallow=1.0, measured {c}");
        }
        let chat = rows.iter().find(|r| r.bot == "ChatGPT-User");
        if let Some(chat) = chat {
            assert!(chat.compliance().unwrap() > 0.8);
        }
    }

    #[test]
    fn defiant_bot_measures_low_disallow_compliance() {
        let exp = test_experiment();
        let rows = &exp.per_directive[&Directive::Disallow];
        if let Some(headless) = rows.iter().find(|r| r.bot == "HeadlessChrome") {
            let c = headless.compliance().unwrap();
            assert!(c < 0.3, "HeadlessChrome planted disallow=0.011, measured {c}");
        }
    }

    #[test]
    fn crawl_delay_recovers_planted_ordering() {
        let exp = test_experiment();
        let rows = &exp.per_directive[&Directive::CrawlDelay];
        let get = |name: &str| {
            rows.iter().find(|r| r.bot == name).and_then(super::BotDirectiveResult::compliance)
        };
        if let (Some(chat), Some(headless)) = (get("ChatGPT-User"), get("HeadlessChrome")) {
            assert!(chat > headless + 0.3, "planted 0.91 vs 0.036; measured {chat} vs {headless}");
        }
    }

    #[test]
    fn category_table_shape() {
        let exp = test_experiment();
        let t = exp.category_table();
        assert!(!t.rows.is_empty());
        assert_eq!(t.directive_average.len(), 3);
        for (_, cells, avg) in &t.rows {
            for cell in cells.values() {
                assert!((0.0..=1.0 + 1e-9).contains(&cell.compliance));
                assert!(cell.weight > 0);
            }
            assert!((0.0..=1.0 + 1e-9).contains(avg));
        }
    }

    #[test]
    fn headline_result_strictness_ordering() {
        // The paper's RQ1: compliance decreases as directives tighten —
        // crawl delay beats both endpoint and disallow averages.
        let exp = test_experiment();
        let t = exp.category_table();
        let cd = t.directive_average[&Directive::CrawlDelay];
        let ep = t.directive_average[&Directive::Endpoint];
        let da = t.directive_average[&Directive::Disallow];
        assert!(cd > ep, "crawl delay {cd} should beat endpoint {ep}");
        assert!(cd > da, "crawl delay {cd} should beat disallow {da}");
    }

    #[test]
    fn phase_traffic_covers_four_versions() {
        let exp = test_experiment();
        assert_eq!(exp.phase_traffic.len(), 4);
        let versions: Vec<PolicyVersion> = exp.phase_traffic.iter().map(|p| p.version).collect();
        assert_eq!(versions, PolicyVersion::ALL.to_vec());
        for p in &exp.phase_traffic {
            assert!(p.unique_site_visits > 0, "{:?}", p.version);
            assert!(p.unique_bot_visitors > 10, "{:?}", p.version);
        }
    }

    #[test]
    fn spoof_volume_is_small_minority() {
        let exp = test_experiment();
        for (d, &(legit, spoofed)) in &exp.spoof_volume {
            assert!(legit > 0, "{d:?}");
            // Paper Table 9: spoofed ≪ legit.
            assert!(spoofed * 5 < legit, "{d:?}: {spoofed} spoofed vs {legit} legit");
        }
    }

    #[test]
    fn skipped_checks_contains_never_checkers() {
        let exp = test_experiment();
        let skipped = exp.skipped_checks();
        let names: Vec<&str> = skipped.iter().map(|(n, _)| n.as_str()).collect();
        // Axios and friends never check robots.txt (Table 7).
        assert!(
            names.iter().any(|n| [
                "Axios",
                "Iframely",
                "MicrosoftPreview",
                "Apache-HttpClient",
                "Slack-ImgProxy",
                "BrightEdge Crawler"
            ]
            .contains(n)),
            "expected a Table 7 never-checker among {names:?}"
        );
    }
}
