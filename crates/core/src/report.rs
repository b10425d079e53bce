//! Rendering every table and figure of the paper's evaluation.
//!
//! Two entry points:
//!
//! * [`FullStudyReport`] — computed over the 46-day passive dataset
//!   (paper §3, §5): Tables 2/3/8, Figures 2/3/4/10;
//! * the [`Experiment`] renderers — Tables
//!   4/5/6/7/9/10 and Figures 9/11.
//!
//! Renderers return plain text; the `repro_all` bench binary prints
//! them in paper order.

use std::collections::BTreeMap;

use botscope_stats::ecdf::TimeSeriesCdf;
use botscope_useragent::BotCategory;
use botscope_weblog::session::{Session, SESSION_GAP_SECS};
use botscope_weblog::summary::DatasetSummary;
use botscope_weblog::table::LogTable;
use botscope_weblog::time::Timestamp;

use crate::analyze::{Directive, Experiment};
use crate::pipeline::tally_bots;
use crate::recheck::{by_category, RecheckAccumulator, RecheckByCategory, SiteVersionWindows};
use crate::spoofdetect::{SpoofReport, DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS};
use crate::tables::{f, ratio, series, TextTable};

/// Per-bot aggregate used by Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct BotStat {
    /// Canonical name.
    pub name: String,
    /// Category.
    pub category: BotCategory,
    /// Total page hits.
    pub hits: u64,
    /// Total bytes scraped.
    pub bytes: u64,
}

/// All aggregates of the passive 46-day study.
#[derive(Debug, Clone)]
pub struct FullStudyReport {
    /// Table 2 top row.
    pub all: DatasetSummary,
    /// Table 2 bottom row (known bots only).
    pub known: DatasetSummary,
    /// Per-bot stats, descending by hits.
    pub bot_stats: Vec<BotStat>,
    /// Sessions per category (Figure 2).
    pub category_sessions: BTreeMap<BotCategory, u64>,
    /// Sessions per (category, day index) (Figure 4).
    pub category_daily_sessions: BTreeMap<(BotCategory, u64), u64>,
    /// Byte-weighted time series per category (Figure 3).
    pub category_bytes_cdf: BTreeMap<BotCategory, TimeSeriesCdf>,
    /// Figure 10 aggregation.
    pub recheck: RecheckByCategory,
    /// Table 8 detection.
    pub spoof: SpoofReport,
    /// Dataset start.
    pub start: Timestamp,
    /// Dataset length in days.
    pub days: u64,
}

impl FullStudyReport {
    /// Compute all aggregates from an interned table: one per-bot fold
    /// ([`tally_bots`]) gives the Table 3 stats and the spoofing
    /// findings, and its verdict per user agent picks out the known-bot
    /// rows and sessions and serves the re-check pass.
    pub fn from_table(table: &LogTable) -> FullStudyReport {
        let tallies = tally_bots(table);
        let agents = &tallies.agents;
        let all = DatasetSummary::compute_table(table);

        let known_rows = || table.rows().iter().filter(|r| agents.get(r.useragent).is_some());
        let known = DatasetSummary::compute_rows_with_gap(known_rows(), SESSION_GAP_SECS);

        let mut bot_stats: Vec<BotStat> = tallies
            .bots
            .iter()
            .map(|(bot, tally)| BotStat {
                name: bot.canonical.to_string(),
                category: bot.category,
                hits: tally.records,
                bytes: tally.bytes,
            })
            .collect();
        bot_stats.sort_by(|a, b| b.hits.cmp(&a.hits).then(a.name.cmp(&b.name)));

        let start = table.rows().iter().map(|r| r.timestamp).min().unwrap_or_default().day_start();
        let end = table.rows().iter().map(|r| r.timestamp).max().unwrap_or_default();
        let days = end.days_since(start) + 1;

        // Category of a session = category of its (standardized) agent.
        let category = |ua: &str| Some(agents.get(table.interner().get(ua)?)?.category);
        let sessions: Vec<Session> = table.sessionize_rows(known_rows(), SESSION_GAP_SECS);
        let mut category_sessions: BTreeMap<BotCategory, u64> = BTreeMap::new();
        let mut category_daily_sessions: BTreeMap<(BotCategory, u64), u64> = BTreeMap::new();
        let mut category_bytes_cdf: BTreeMap<BotCategory, TimeSeriesCdf> = BTreeMap::new();
        for s in &sessions {
            let Some(cat) = category(&s.useragent) else { continue };
            *category_sessions.entry(cat).or_default() += 1;
            let day = s.start.days_since(start);
            *category_daily_sessions.entry((cat, day)).or_default() += 1;
            category_bytes_cdf.entry(cat).or_default().add(s.start.unix(), s.bytes as f64);
        }

        let spoof = tallies.spoof_report(DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS);
        let horizon_end = end.unix() + 1;
        let mut recheck =
            RecheckAccumulator::with_agents(SiteVersionWindows::new(), horizon_end, tallies.agents);
        recheck.push_table(table);
        let recheck = by_category(&recheck.profiles());

        FullStudyReport {
            all,
            known,
            bot_stats,
            category_sessions,
            category_daily_sessions,
            category_bytes_cdf,
            recheck,
            spoof,
            start,
            days,
        }
    }

    /// Table 2: dataset overview.
    pub fn table2(&self) -> String {
        let mut t = TextTable::new(
            "Table 2. Dataset overview (all data vs known bots)",
            &[
                "Data subset",
                "Unique IPs",
                "Unique UAs",
                "Avg bytes/session",
                "Unique ASNs",
                "Total bytes",
                "Total page visits",
                "Unique page visits",
            ],
        );
        for (label, s) in [("All data", &self.all), ("Known bots", &self.known)] {
            t.row(vec![
                label.to_string(),
                s.unique_ips.to_string(),
                s.unique_user_agents.to_string(),
                f(s.avg_bytes_per_session, 0),
                s.unique_asns.to_string(),
                s.total_bytes.to_string(),
                s.total_page_visits.to_string(),
                s.unique_page_visits.to_string(),
            ]);
        }
        t.render()
    }

    /// Table 3: the 20 most active bots.
    pub fn table3(&self) -> String {
        let total_hits: u64 = self.all.raw_records as u64;
        let mut t = TextTable::new(
            "Table 3. Most active bots (top 20 by hits)",
            &["Bot name", "Total hits", "% of all traffic", "GB scraped"],
        );
        for b in self.bot_stats.iter().take(20) {
            t.row(vec![
                b.name.clone(),
                b.hits.to_string(),
                f(100.0 * b.hits as f64 / total_hits.max(1) as f64, 2),
                f(b.bytes as f64 / 1e9, 3),
            ]);
        }
        t.render()
    }

    /// Figure 2: sessions per bot category (descending).
    pub fn figure2(&self) -> String {
        let mut rows: Vec<(String, f64)> = self
            .category_sessions
            .iter()
            .map(|(cat, &n)| (cat.name().to_string(), n as f64))
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        series("Figure 2. Scraper sessions per bot category", &rows)
    }

    /// The top `n` categories by total value of `map`.
    fn top_categories<T: Copy + Into<f64>>(
        map: &BTreeMap<BotCategory, T>,
        n: usize,
    ) -> Vec<BotCategory> {
        let mut cats: Vec<(BotCategory, f64)> = map.iter().map(|(&c, &v)| (c, v.into())).collect();
        cats.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        cats.into_iter().take(n).map(|(c, _)| c).collect()
    }

    /// Figure 3: CDF of bytes downloaded over time, top-5 categories by
    /// bytes. One block per category, one line per day.
    pub fn figure3(&self) -> String {
        let totals: BTreeMap<BotCategory, f64> =
            self.category_bytes_cdf.iter().map(|(&c, s)| (c, s.total())).collect();
        let mut cats: Vec<(BotCategory, f64)> = totals.into_iter().collect();
        cats.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let edges: Vec<u64> =
            (0..self.days).map(|d| self.start.plus_secs((d + 1) * 86_400 - 1).unix()).collect();
        let mut out = String::from(
            "Figure 3. CDF of bytes downloaded over time (top 5 categories by bytes)\n",
        );
        for (cat, _) in cats.into_iter().take(5) {
            let curve = self.category_bytes_cdf[&cat].curve(&edges);
            let points: Vec<(String, f64)> = curve
                .iter()
                .enumerate()
                .map(|(d, &y)| {
                    (self.start.plus_secs(d as u64 * 86_400).to_iso8601()[..10].to_string(), y)
                })
                .collect();
            out.push_str(&series(&format!("-- {}", cat.name()), &points));
        }
        out
    }

    /// Figure 4: sessions per day, top-5 categories by session count.
    pub fn figure4(&self) -> String {
        let top = Self::top_categories(
            &self.category_sessions.iter().map(|(&c, &v)| (c, v as f64)).collect(),
            5,
        );
        let mut out =
            String::from("Figure 4. Scraper sessions per day (top 5 categories by sessions)\n");
        for cat in top {
            let points: Vec<(String, f64)> = (0..self.days)
                .map(|d| {
                    let n = self.category_daily_sessions.get(&(cat, d)).copied().unwrap_or(0);
                    (self.start.plus_secs(d * 86_400).to_iso8601()[..10].to_string(), n as f64)
                })
                .collect();
            out.push_str(&series(&format!("-- {}", cat.name()), &points));
        }
        out
    }

    /// Figure 10: proportion of bots re-checking robots.txt per window.
    pub fn figure10(&self) -> String {
        let mut out = String::from("Figure 10. Frequency of robots.txt checks across bot types\n");
        let mut t = TextTable::new(
            "(proportion of checking bots that re-check within each window)",
            &["Category", "12h", "24h", "48h", "72h", "168h", "#bots"],
        );
        for (&cat, &n) in &self.recheck.checking_bots {
            let cell = |h: u64| {
                self.recheck.proportions.get(&(cat, h)).map_or_else(|| "-".into(), |&p| f(p, 2))
            };
            t.row(vec![
                cat.name().to_string(),
                cell(12),
                cell(24),
                cell(48),
                cell(72),
                cell(168),
                n.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out
    }

    /// Table 8: dominant vs suspicious ASNs per flagged bot.
    pub fn table8(&self) -> String {
        let mut t = TextTable::new(
            "Table 8. Bots with one dominant ASN and infrequent minority ASNs (possible spoofing)",
            &["Bot", "Main ASN (>90%)", "Possible spoofing ASNs", "Spoofed reqs"],
        );
        for finding in &self.spoof.findings {
            let suspicious: Vec<&str> =
                finding.suspicious.iter().map(|(n, _)| n.as_str()).collect();
            t.row(vec![
                finding.bot.clone(),
                format!("{} ({:.1}%)", finding.main_asn, finding.main_share * 100.0),
                suspicious.join(", "),
                finding.spoofed_requests.to_string(),
            ]);
        }
        t.render()
    }
}

// ---------------------------------------------------------------------
// Experiment (phase study) renderers.
// ---------------------------------------------------------------------

/// Table 4: traffic summary per robots.txt version.
pub fn table4(exp: &Experiment) -> String {
    let mut t = TextTable::new(
        "Table 4. Web traffic captured under each robots.txt version",
        &["robots.txt version", "unique site visits", "unique bot visitors"],
    );
    for p in &exp.phase_traffic {
        t.row(vec![
            p.version.label().to_string(),
            p.unique_site_visits.to_string(),
            p.unique_bot_visitors.to_string(),
        ]);
    }
    t.render()
}

/// Table 5: weighted category compliance per directive.
pub fn table5(exp: &Experiment) -> String {
    let table = exp.category_table();
    let mut t = TextTable::new(
        "Table 5. Compliance by bot category (access-weighted)",
        &["Bot category", "Crawl delay", "Endpoint access", "Disallow all", "Category average"],
    );
    for (cat, cells, avg) in &table.rows {
        let cell = |d: Directive| {
            cells
                .get(&d)
                .map_or_else(|| "-".into(), |c| format!("{} ({})", f(c.compliance, 3), c.weight))
        };
        t.row(vec![
            cat.name().to_string(),
            cell(Directive::CrawlDelay),
            cell(Directive::Endpoint),
            cell(Directive::Disallow),
            f(*avg, 3),
        ]);
    }
    let davg =
        |d: Directive| table.directive_average.get(&d).map_or_else(|| "-".into(), |&v| f(v, 3));
    t.row(vec![
        "Directive average".to_string(),
        davg(Directive::CrawlDelay),
        davg(Directive::Endpoint),
        davg(Directive::Disallow),
        String::new(),
    ]);
    t.render()
}

/// Table 6: per-bot metadata and compliance across the three directives.
pub fn table6(exp: &Experiment) -> String {
    let mut t = TextTable::new(
        "Table 6. Individual bot responses to the robots.txt directives",
        &["Bot", "Sponsor", "Category", "Promise", "Crawl delay", "Endpoint", "Disallow"],
    );
    // Union of bots across directives.
    let mut bots: BTreeMap<String, [Option<f64>; 3]> = BTreeMap::new();
    let mut meta: BTreeMap<String, (&'static str, BotCategory, &'static str)> = BTreeMap::new();
    for (i, d) in Directive::ALL.iter().enumerate() {
        for r in &exp.per_directive[d] {
            bots.entry(r.bot.clone()).or_default()[i] = r.compliance();
            meta.entry(r.bot.clone()).or_insert((r.sponsor, r.category, r.promise.label()));
        }
    }
    for (bot, cols) in &bots {
        let (sponsor, cat, promise) = meta[bot];
        t.row(vec![
            bot.clone(),
            sponsor.to_string(),
            cat.name().to_string(),
            promise.to_string(),
            ratio(cols[0]),
            ratio(cols[1]),
            ratio(cols[2]),
        ]);
    }
    t.render()
}

/// Table 7: bots that skipped a robots.txt check but (sometimes) complied.
pub fn table7(exp: &Experiment) -> String {
    let mut t = TextTable::new(
        "Table 7. Bots that skipped the robots.txt check during one or more experiments",
        &[
            "Bot",
            "Checked (crawl delay)",
            "Compliance",
            "Checked (endpoint)",
            "Compliance",
            "Checked (disallow)",
            "Compliance",
        ],
    );
    for (bot, dirs) in exp.skipped_checks() {
        let cell = |d: Directive| -> (String, String) {
            match dirs.get(&d) {
                Some(&(checked, comp)) => {
                    ((if checked { "Yes" } else { "No" }).to_string(), ratio(comp))
                }
                None => ("-".to_string(), "-".to_string()),
            }
        };
        let (c1, r1) = cell(Directive::CrawlDelay);
        let (c2, r2) = cell(Directive::Endpoint);
        let (c3, r3) = cell(Directive::Disallow);
        t.row(vec![bot, c1, r1, c2, r2, c3, r3]);
    }
    t.render()
}

/// Table 7 from *monitored* logs: per bot, whether it fetched
/// robots.txt on some site while each policy version was live there —
/// the digest-window columns derived by
/// [`crate::recheck::phase_check_matrix`].
pub fn table7_from_monitor(matrix: &[crate::recheck::PhaseCheckRow]) -> String {
    use crate::tables::yes_no;
    let mut t = TextTable::new(
        "Table 7 (monitored). Checked robots.txt while each version was live",
        &["Bot", "Category", "Checks", "Base", "v1", "v2", "v3"],
    );
    for row in matrix {
        t.row(vec![
            row.bot.clone(),
            row.category.to_string(),
            row.checks.to_string(),
            yes_no(row.checked[0]),
            yes_no(row.checked[1]),
            yes_no(row.checked[2]),
            yes_no(row.checked[3]),
        ]);
    }
    t.render()
}

/// Behavioral-only Table 7: the same digest-window columns, but over
/// deployment windows first coalesced across cosmetic transitions
/// (see [`crate::recheck::coalesce_behavioral_windows`]), so a column
/// only counts versions whose deployment actually changed a decision.
pub fn table7_behavioral(matrix: &[crate::recheck::PhaseCheckRow]) -> String {
    use crate::tables::yes_no;
    let mut t = TextTable::new(
        "Table 7 (monitored, behavioral transitions only). Checked robots.txt while each behaviorally distinct version was live",
        &["Bot", "Category", "Checks", "Base", "v1", "v2", "v3"],
    );
    for row in matrix {
        t.row(vec![
            row.bot.clone(),
            row.category.to_string(),
            row.checks.to_string(),
            yes_no(row.checked[0]),
            yes_no(row.checked[1]),
            yes_no(row.checked[2]),
            yes_no(row.checked[3]),
        ]);
    }
    t.render()
}

/// The coupled mode's attribution table: per bot, served-policy
/// compliance and the deliberate / stale-cache / fetch-artifact split
/// of its violations (see [`crate::attribution`]).
pub fn attribution_report(
    counts: &BTreeMap<String, crate::attribution::AttributionCounts>,
) -> String {
    let mut t = TextTable::new(
        "Attribution. Served-policy violations split by cause",
        &[
            "Bot",
            "Accesses",
            "Served-compliant",
            "Violations",
            "Deliberate",
            "Stale cache",
            "Fetch artifact",
            "Believed-violations",
        ],
    );
    for (bot, c) in counts {
        t.row(vec![
            bot.clone(),
            c.accesses.to_string(),
            ratio(c.served_compliance()),
            c.violations_served().to_string(),
            c.deliberate.to_string(),
            c.stale_cache.to_string(),
            c.fetch_artifact.to_string(),
            c.believed_violations.to_string(),
        ]);
    }
    t.render()
}

/// Table 9: legitimate vs potentially spoofed request volume per phase.
pub fn table9(exp: &Experiment) -> String {
    let mut t = TextTable::new(
        "Table 9. Legitimate vs potentially spoofed requests per directive",
        &["Directive", "Legitimate requests", "Potentially spoofed requests"],
    );
    for d in Directive::ALL {
        let (legit, spoofed) = exp.spoof_volume.get(&d).copied().unwrap_or((0, 0));
        t.row(vec![d.label().to_string(), legit.to_string(), spoofed.to_string()]);
    }
    t.render()
}

/// Table 10: z-scores and p-values per bot per directive.
pub fn table10(exp: &Experiment) -> String {
    let mut t = TextTable::new(
        "Table 10. Statistical significance of compliance changes (two-proportion z-test)",
        &["Bot", "CD z", "CD p", "EP z", "EP p", "DA z", "DA p"],
    );
    let mut bots: BTreeMap<String, [Option<(f64, f64)>; 3]> = BTreeMap::new();
    for (i, d) in Directive::ALL.iter().enumerate() {
        for r in &exp.per_directive[d] {
            bots.entry(r.bot.clone()).or_default()[i] = r.ztest.as_ref().map(|z| (z.z, z.p_value));
        }
    }
    let cell = |v: Option<(f64, f64)>| -> (String, String) {
        match v {
            Some((z, p)) => (f(z, 2), format!("{p:.2e}")),
            None => ("N/A".to_string(), "N/A".to_string()),
        }
    };
    for (bot, cols) in &bots {
        let (z1, p1) = cell(cols[0]);
        let (z2, p2) = cell(cols[1]);
        let (z3, p3) = cell(cols[2]);
        t.row(vec![bot.clone(), z1, p1, z2, p2, z3, p3]);
    }
    t.render()
}

/// Figure 9 (or 11 when `spoofed` is true): per-bot baseline vs
/// experiment compliance with significance markers.
pub fn figure9(exp: &Experiment, spoofed: bool) -> String {
    let source = if spoofed { &exp.spoofed_per_directive } else { &exp.per_directive };
    let title = if spoofed {
        "Figure 11. Compliance shifts for potentially spoofed bots"
    } else {
        "Figure 9. Compliance shifts per bot (default → experiment)"
    };
    let mut out = String::from(title);
    out.push('\n');
    for d in Directive::ALL {
        let mut t = TextTable::new(
            &format!("-- {}", d.label()),
            &["Bot", "Default", "Experiment", "Shift", "Significant (p<=0.05)"],
        );
        for r in &source[&d] {
            t.row(vec![
                r.bot.clone(),
                ratio(r.baseline.ratio()),
                ratio(r.experiment.ratio()),
                r.ztest.as_ref().map_or_else(|| "N/A".into(), |z| f(z.effect(), 3)),
                if r.significant() { "yes".into() } else { "no".into() },
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// The four policy files, as deployed (Figures 5–8).
pub fn policies() -> String {
    use botscope_simnet::phases::PolicyVersion;
    let mut out = String::new();
    for (fig, v) in [
        (5, PolicyVersion::Base),
        (6, PolicyVersion::V1CrawlDelay),
        (7, PolicyVersion::V2EndpointOnly),
        (8, PolicyVersion::V3DisallowAll),
    ] {
        out.push_str(&format!("Figure {fig}. {} robots.txt\n", v.label()));
        out.push_str(&v.robots_txt().to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_simnet::scenario::full_study_table;
    use botscope_simnet::SimConfig;

    fn small_full_study() -> FullStudyReport {
        let cfg = SimConfig { days: 5, scale: 0.05, sites: 6, ..SimConfig::default() };
        FullStudyReport::from_table(&full_study_table(&cfg).table)
    }

    #[test]
    fn table2_shape() {
        let r = small_full_study();
        let text = r.table2();
        assert!(text.contains("All data"));
        assert!(text.contains("Known bots"));
        // All-data counts dominate known-bot counts.
        assert!(r.all.unique_user_agents > r.known.unique_user_agents);
        assert!(r.all.total_bytes >= r.known.total_bytes);
    }

    #[test]
    fn table3_top_bot_is_yisou_or_applebot() {
        let r = small_full_study();
        assert!(!r.bot_stats.is_empty());
        let top = &r.bot_stats[0];
        assert!(
            top.name == "YisouSpider" || top.name == "Applebot",
            "unexpected top bot {}",
            top.name
        );
        let text = r.table3();
        assert!(text.lines().count() >= 10);
    }

    #[test]
    fn figure2_has_search_engines_on_top() {
        let r = small_full_study();
        let text = r.figure2();
        let first_data_line = text.lines().nth(1).unwrap();
        assert!(
            first_data_line.starts_with("Search Engine Crawlers")
                || first_data_line.starts_with("AI Search Crawlers"),
            "{first_data_line}"
        );
    }

    #[test]
    fn figure3_curves_end_at_one() {
        let r = small_full_study();
        let text = r.figure3();
        // Every category block's last line approaches 1.0.
        for block in text.split("-- ").skip(1) {
            let last = block.lines().last().unwrap();
            let y: f64 = last.split_whitespace().last().unwrap().parse().unwrap();
            assert!(y > 0.99, "CDF must end at 1, got {y} in block {block}");
        }
    }

    #[test]
    fn figure4_renders_five_categories() {
        let r = small_full_study();
        let text = r.figure4();
        assert_eq!(text.matches("-- ").count(), 5.min(r.category_sessions.len()));
    }

    #[test]
    fn figure10_and_table8_render() {
        let r = small_full_study();
        let f10 = r.figure10();
        assert!(f10.contains("Category"));
        let t8 = r.table8();
        assert!(t8.contains("Main ASN"));
    }

    #[test]
    fn experiment_tables_render() {
        let cfg = SimConfig { scale: 0.15, sites: 3, ..SimConfig::default() };
        let exp = crate::analyze::Experiment::run(&cfg);
        for text in
            [table4(&exp), table5(&exp), table6(&exp), table7(&exp), table9(&exp), table10(&exp)]
        {
            assert!(text.lines().count() >= 4, "{text}");
        }
        let f9 = figure9(&exp, false);
        assert!(f9.contains("Crawl delay"));
        assert!(f9.contains("Significant"));
        let f11 = figure9(&exp, true);
        assert!(f11.contains("Figure 11"));
        let pol = policies();
        assert!(pol.contains("Figure 5"));
        assert!(pol.contains("Crawl-delay: 30"));
        assert!(pol.contains("Disallow: /"));
    }
}
