//! Adaptation-speed analysis (extension).
//!
//! The study's §4.1 names a second goal — "measuring how quickly scrapers
//! adapted to new robots.txt restrictions" — and its §6 warns that
//! robots.txt edits "would not be noticed by the scraper for significant
//! time". This module quantifies that: for every bot and every phase
//! flip, the **awareness lag** — the time from the new file going live to
//! the bot's first robots.txt fetch under it — and per-category medians.
//! Each bot's robots.txt fetch times come from the per-bot fold
//! [`crate::pipeline::tally_bots`].

use std::collections::BTreeMap;

use botscope_stats::describe::percentile;
use botscope_useragent::BotCategory;

use botscope_simnet::phases::{PhaseSchedule, PolicyVersion};

use crate::pipeline::BotTallies;

/// One bot's awareness lag for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct AwarenessLag {
    /// Canonical bot name.
    pub bot: String,
    /// Category.
    pub category: BotCategory,
    /// The phase that went live.
    pub version: PolicyVersion,
    /// Seconds from phase start to the bot's first robots.txt fetch in
    /// the phase; `None` if it never fetched the file during the phase —
    /// the bot spent the whole deployment on stale (or no) policy.
    pub lag_secs: Option<u64>,
}

/// Compute awareness lags for every known bot and every scheduled phase.
///
/// Lags use estate-wide robots.txt fetches (a bot that refreshed any of
/// the institution's policy files demonstrably re-consulted policy).
pub fn awareness_lags(tallies: &BotTallies<'_>, schedule: &PhaseSchedule) -> Vec<AwarenessLag> {
    let mut out = Vec::new();
    for (bot, tally) in &tallies.bots {
        for phase in &schedule.phases {
            // Fetch times are in time order: the first in the window.
            let first = tally
                .robots_fetches
                .iter()
                .find(|&&t| t >= phase.start.unix() && t < phase.end.unix())
                .copied();
            out.push(AwarenessLag {
                bot: bot.canonical.to_string(),
                category: bot.category,
                version: phase.version,
                lag_secs: first.map(|t| t - phase.start.unix()),
            });
        }
    }
    out
}

/// Per-category adaptation summary.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryAdaptation {
    /// Category.
    pub category: BotCategory,
    /// Median awareness lag in hours over (bot, phase) pairs that did
    /// re-check; `None` when no bot in the category ever re-checked.
    pub median_lag_hours: Option<f64>,
    /// Fraction of (bot, phase) pairs where the bot never saw the new
    /// file at all during its two-week deployment.
    pub never_saw_fraction: f64,
    /// Number of (bot, phase) observations.
    pub observations: usize,
}

/// Aggregate lags per category.
pub fn by_category(lags: &[AwarenessLag]) -> Vec<CategoryAdaptation> {
    let mut grouped: BTreeMap<BotCategory, Vec<&AwarenessLag>> = BTreeMap::new();
    for lag in lags {
        grouped.entry(lag.category).or_default().push(lag);
    }
    grouped
        .into_iter()
        .map(|(category, ls)| {
            let seen: Vec<f64> =
                ls.iter().filter_map(|l| l.lag_secs).map(|s| s as f64 / 3600.0).collect();
            let never = ls.iter().filter(|l| l.lag_secs.is_none()).count();
            CategoryAdaptation {
                category,
                median_lag_hours: percentile(&seen, 0.5),
                never_saw_fraction: never as f64 / ls.len() as f64,
                observations: ls.len(),
            }
        })
        .collect()
}

/// Render the adaptation table.
pub fn render(categories: &[CategoryAdaptation]) -> String {
    use crate::tables::{f, TextTable};
    let mut t = TextTable::new(
        "Extension: how quickly do bots notice a new robots.txt? (awareness lag)",
        &["Category", "Median lag (hours)", "Never saw the file", "Observations"],
    );
    for c in categories {
        t.row(vec![
            c.category.name().to_string(),
            c.median_lag_hours.map_or_else(|| "never".into(), |h| f(h, 1)),
            format!("{:.0}%", c.never_saw_fraction * 100.0),
            c.observations.to_string(),
        ]);
    }
    t.render()
}

/// Convenience: lags for one bot across phases.
pub fn for_bot<'a>(lags: &'a [AwarenessLag], bot: &str) -> Vec<&'a AwarenessLag> {
    lags.iter().filter(|l| l.bot == bot).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tally_bots;
    use botscope_simnet::phases::PhaseSchedule;
    use botscope_weblog::record::AccessRecord;
    use botscope_weblog::table::LogTable;
    use botscope_weblog::time::Timestamp;

    fn rec(ua: &str, t: u64, path: &str) -> AccessRecord {
        AccessRecord {
            useragent: ua.into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: 1,
            asn: "GOOGLE".into(),
            sitename: "site-00.example.edu".into(),
            uri_path: path.into(),
            status: 200,
            bytes: 1,
            referer: None,
        }
    }

    const DAY: u64 = 86_400;

    fn schedule() -> PhaseSchedule {
        PhaseSchedule::paper_schedule(Timestamp::from_unix(0), 0)
    }

    #[test]
    fn lag_is_time_to_first_check_in_phase() {
        // GPTBot checks robots 2 days into the v1 phase (phase 2 starts
        // at day 14).
        let records = vec![
            rec("Mozilla/5.0 (compatible; GPTBot/1.1)", DAY, "/robots.txt"),
            rec("Mozilla/5.0 (compatible; GPTBot/1.1)", 16 * DAY, "/robots.txt"),
        ];
        let table = LogTable::from_records(&records);
        let lags = awareness_lags(&tally_bots(&table), &schedule());
        let gpt = for_bot(&lags, "GPTBot");
        assert_eq!(gpt.len(), 4);
        assert_eq!(gpt[0].lag_secs, Some(DAY)); // base phase
        assert_eq!(gpt[1].lag_secs, Some(2 * DAY)); // v1 phase
        assert_eq!(gpt[2].lag_secs, None); // never during v2
        assert_eq!(gpt[3].lag_secs, None); // never during v3
    }

    #[test]
    fn never_checker_has_all_none() {
        let records = vec![rec("axios/1.6.2", DAY, "/page"), rec("axios/1.6.2", 20 * DAY, "/x")];
        let table = LogTable::from_records(&records);
        let lags = awareness_lags(&tally_bots(&table), &schedule());
        assert!(for_bot(&lags, "Axios").iter().all(|l| l.lag_secs.is_none()));
    }

    #[test]
    fn category_aggregation() {
        let records = vec![
            // SemrushBot (SEO): checks 6h into every phase.
            rec("Mozilla/5.0 (compatible; SemrushBot/7~bl)", 6 * 3600, "/robots.txt"),
            rec("Mozilla/5.0 (compatible; SemrushBot/7~bl)", 14 * DAY + 6 * 3600, "/robots.txt"),
            rec("Mozilla/5.0 (compatible; SemrushBot/7~bl)", 28 * DAY + 6 * 3600, "/robots.txt"),
            rec("Mozilla/5.0 (compatible; SemrushBot/7~bl)", 42 * DAY + 6 * 3600, "/robots.txt"),
            // Axios (Other): never.
            rec("axios/1.6.2", DAY, "/page"),
        ];
        let table = LogTable::from_records(&records);
        let lags = awareness_lags(&tally_bots(&table), &schedule());
        let cats = by_category(&lags);
        let seo = cats.iter().find(|c| c.category == BotCategory::SeoCrawler).unwrap();
        assert_eq!(seo.median_lag_hours, Some(6.0));
        assert_eq!(seo.never_saw_fraction, 0.0);
        let other = cats.iter().find(|c| c.category == BotCategory::Other).unwrap();
        assert_eq!(other.median_lag_hours, None);
        assert_eq!(other.never_saw_fraction, 1.0);
    }

    #[test]
    fn render_has_all_categories() {
        let records = vec![rec("Mozilla/5.0 (compatible; SemrushBot/7~bl)", 100, "/robots.txt")];
        let table = LogTable::from_records(&records);
        let lags = awareness_lags(&tally_bots(&table), &schedule());
        let text = render(&by_category(&lags));
        assert!(text.contains("SEO Crawlers"));
        assert!(text.contains("Median lag"));
    }
}
