//! Promise-vs-practice analysis (extension).
//!
//! Table 6 records each bot's public promise to respect robots.txt; the
//! paper's RQ3 discussion contrasts bots like PerplexityBot ("explicitly
//! stated they will not respect robots.txt \[but\] have somewhat high
//! compliance") with BrightEdge ("claim to respect robots.txt but have
//! low compliance"). This module systematizes that contrast: compliance
//! aggregated by promise class, plus the named promise-breakers and
//! surprise-compliers.

use std::collections::BTreeMap;

use botscope_stats::describe::WeightedMeanAccumulator;
use botscope_useragent::RobotsPromise;

use crate::analyze::{BotDirectiveResult, Directive, Experiment};

/// Compliance aggregated over one promise class for one directive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PromiseCell {
    /// Access-weighted mean compliance.
    pub compliance: f64,
    /// Number of bots in the class.
    pub bots: usize,
    /// Total accesses behind the mean.
    pub weight: u64,
}

/// The promise × directive cross-tab.
#[derive(Debug, Clone, Default)]
pub struct PromiseTable {
    /// (promise, directive) → cell.
    pub cells: BTreeMap<(&'static str, Directive), PromiseCell>,
}

/// A bot whose behaviour contradicts its stated policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Contradiction {
    /// Canonical bot name.
    pub bot: String,
    /// Its public promise.
    pub promise: RobotsPromise,
    /// The directive where the contradiction shows.
    pub directive: Directive,
    /// Measured compliance.
    pub compliance: f64,
}

/// Build the promise × directive cross-tab from an experiment.
pub fn promise_table(exp: &Experiment) -> PromiseTable {
    let mut table = PromiseTable::default();
    for directive in Directive::ALL {
        for promise in [RobotsPromise::Yes, RobotsPromise::No, RobotsPromise::Unknown] {
            let rows: Vec<&BotDirectiveResult> =
                exp.per_directive[&directive].iter().filter(|r| r.promise == promise).collect();
            let mut acc = WeightedMeanAccumulator::new();
            let mut weight = 0u64;
            for r in &rows {
                if let Some(c) = r.compliance() {
                    acc.add(c, r.accesses as f64);
                    weight += r.accesses;
                }
            }
            if let Some(m) = acc.finish() {
                table.cells.insert(
                    (promise.label(), directive),
                    PromiseCell { compliance: m, bots: rows.len(), weight },
                );
            }
        }
    }
    table
}

/// Find contradictions: promisers with compliance below `low` (the
/// BrightEdge pattern) and refusers with compliance above `high` (the
/// PerplexityBot pattern).
pub fn contradictions(exp: &Experiment, low: f64, high: f64) -> Vec<Contradiction> {
    assert!(low < high, "thresholds inverted");
    let mut out = Vec::new();
    for directive in Directive::ALL {
        for r in &exp.per_directive[&directive] {
            let Some(c) = r.compliance() else { continue };
            let contradicts = match r.promise {
                RobotsPromise::Yes => c < low,
                RobotsPromise::No => c > high,
                RobotsPromise::Unknown => false,
            };
            if contradicts {
                out.push(Contradiction {
                    bot: r.bot.clone(),
                    promise: r.promise,
                    directive,
                    compliance: c,
                });
            }
        }
    }
    out.sort_by(|a, b| a.bot.cmp(&b.bot).then(a.directive.cmp(&b.directive)));
    out
}

/// Render both outputs.
pub fn render(exp: &Experiment) -> String {
    use crate::tables::{f, TextTable};
    let table = promise_table(exp);
    let mut t = TextTable::new(
        "Extension: does a public promise to respect robots.txt predict compliance?",
        &["Promise", "Crawl delay", "Endpoint access", "Disallow all"],
    );
    for promise in ["Yes", "No", "Unknown"] {
        let cell = |d: Directive| {
            table
                .cells
                .get(&(promise, d))
                .map_or_else(|| "-".into(), |c| format!("{} ({} bots)", f(c.compliance, 3), c.bots))
        };
        t.row(vec![
            promise.to_string(),
            cell(Directive::CrawlDelay),
            cell(Directive::Endpoint),
            cell(Directive::Disallow),
        ]);
    }
    let mut out = t.render();
    out.push('\n');
    let mut t = TextTable::new(
        "Contradictions (promise broken <0.25 / refusal outperformed >0.75)",
        &["Bot", "Promise", "Directive", "Measured compliance"],
    );
    for c in contradictions(exp, 0.25, 0.75) {
        t.row(vec![
            c.bot,
            c.promise.label().to_string(),
            c.directive.label().to_string(),
            f(c.compliance, 3),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_simnet::scenario::phase_study_table;
    use botscope_simnet::SimConfig;
    use std::sync::OnceLock;

    fn experiment() -> &'static Experiment {
        static EXP: OnceLock<Experiment> = OnceLock::new();
        EXP.get_or_init(|| {
            let out =
                phase_study_table(&SimConfig { scale: 0.2, sites: 4, ..SimConfig::default() });
            Experiment::analyze_table(&out.sim.table, &out.schedule)
        })
    }

    #[test]
    fn table_covers_promise_classes() {
        let t = promise_table(experiment());
        assert!(t.cells.keys().any(|(p, _)| *p == "Yes"));
        assert!(t.cells.keys().any(|(p, _)| *p == "Unknown"));
        for cell in t.cells.values() {
            assert!((0.0..=1.0 + 1e-9).contains(&cell.compliance));
            assert!(cell.bots > 0);
        }
    }

    #[test]
    fn promisers_beat_unknowns_on_access_directives() {
        // The registry's Unknown class is dominated by HTTP libraries and
        // headless tooling; self-identified promisers should comply more
        // with the disallow directive.
        let t = promise_table(experiment());
        let yes = t.cells.get(&("Yes", Directive::Disallow));
        let unknown = t.cells.get(&("Unknown", Directive::Disallow));
        if let (Some(yes), Some(unknown)) = (yes, unknown) {
            assert!(
                yes.compliance > unknown.compliance,
                "promisers {} vs unknown {}",
                yes.compliance,
                unknown.compliance
            );
        }
    }

    #[test]
    fn brightedge_pattern_detected() {
        // BrightEdge promises Yes but was planted with disallow = 0.0.
        let cs = contradictions(experiment(), 0.25, 0.75);
        assert!(
            cs.iter().any(|c| c.bot == "BrightEdge Crawler" && c.promise == RobotsPromise::Yes),
            "BrightEdge should appear among promise-breakers: {cs:?}"
        );
    }

    #[test]
    fn perplexity_pattern_detected() {
        // PerplexityBot says No but complies with crawl delay (~0.93)
        // and endpoint (~0.90).
        let cs = contradictions(experiment(), 0.25, 0.75);
        assert!(
            cs.iter().any(|c| c.bot == "PerplexityBot" && c.promise == RobotsPromise::No),
            "PerplexityBot should appear among surprise-compliers: {cs:?}"
        );
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn threshold_order_enforced() {
        let _ = contradictions(experiment(), 0.9, 0.1);
    }

    #[test]
    fn render_smoke() {
        let text = render(experiment());
        assert!(text.contains("Promise"));
        assert!(text.contains("Contradictions"));
    }
}
