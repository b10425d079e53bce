//! End-to-end validation: the generator plants behaviour, the analyzer
//! must measure it back — the closed loop that substitutes for the
//! paper's (private) raw logs. One shared experiment run keeps the suite
//! fast; each test checks a different published finding against it.

use std::sync::OnceLock;

use botscope::core::analyze::{Directive, Experiment};
use botscope::core::report::FullStudyReport;
use botscope::simnet::scenario::{full_study_table, phase_study_table};
use botscope::simnet::SimConfig;
use botscope::useragent::BotCategory;

/// Generate the phase study with `cfg` and analyze it.
fn run(cfg: &SimConfig) -> Experiment {
    let out = phase_study_table(cfg);
    Experiment::analyze_table(&out.sim.table, &out.schedule)
}

fn experiment() -> &'static Experiment {
    static EXP: OnceLock<Experiment> = OnceLock::new();
    EXP.get_or_init(|| run(&SimConfig { scale: 0.25, ..SimConfig::default() }))
}

fn full_report() -> &'static FullStudyReport {
    static REP: OnceLock<FullStudyReport> = OnceLock::new();
    REP.get_or_init(|| {
        let cfg = SimConfig { scale: 0.1, ..SimConfig::default() };
        FullStudyReport::from_table(&full_study_table(&cfg).table)
    })
}

// ---- RQ1: stricter directives, less compliance -------------------------

#[test]
fn rq1_compliance_decreases_with_strictness() {
    let t = experiment().category_table();
    let cd = t.directive_average[&Directive::CrawlDelay];
    let ep = t.directive_average[&Directive::Endpoint];
    let da = t.directive_average[&Directive::Disallow];
    assert!(
        cd > ep && cd > da,
        "crawl delay {cd:.3} must beat endpoint {ep:.3} and disallow {da:.3}"
    );
}

// ---- RQ2: SEO crawlers most respectful, headless least -----------------

#[test]
fn rq2_seo_most_compliant_headless_least() {
    let t = experiment().category_table();
    let avg = |cat: BotCategory| t.rows.iter().find(|(c, _, _)| *c == cat).map(|(_, _, a)| *a);
    let seo = avg(BotCategory::SeoCrawler).expect("SEO row");
    let headless = avg(BotCategory::HeadlessBrowser).expect("headless row");
    for (cat, _, a) in &t.rows {
        assert!(seo >= *a - 1e-9, "SEO ({seo:.3}) must top the table; {} has {a:.3}", cat.name());
        assert!(
            headless <= *a + 0.12,
            "headless ({headless:.3}) must be near the bottom; {} has {a:.3}",
            cat.name()
        );
    }
}

// ---- Per-bot planted values are recovered (Table 6 spot checks) --------

#[test]
fn table6_planted_values_recovered() {
    let exp = experiment();
    let get = |d: Directive, bot: &str| {
        exp.per_directive[&d].iter().find(|r| r.bot == bot).and_then(|r| r.compliance())
    };
    // (bot, directive, paper value, tolerance)
    let cases = [
        ("ChatGPT-User", Directive::CrawlDelay, 0.910, 0.10),
        ("ChatGPT-User", Directive::Disallow, 1.000, 0.05),
        ("GPTBot", Directive::Disallow, 1.000, 0.05),
        ("HeadlessChrome", Directive::CrawlDelay, 0.036, 0.08),
        ("HeadlessChrome", Directive::Disallow, 0.011, 0.08),
        ("Applebot", Directive::CrawlDelay, 0.841, 0.10),
        ("Applebot", Directive::Disallow, 0.043, 0.08),
        ("SemrushBot", Directive::Endpoint, 0.986, 0.10),
    ];
    for (bot, d, want, tol) in cases {
        if let Some(got) = get(d, bot) {
            assert!(
                (got - want).abs() <= tol,
                "{bot} {d:?}: paper {want}, measured {got:.3} (tol {tol})"
            );
        }
    }
}

// ---- Promise vs practice (RQ3 flavour) ----------------------------------

#[test]
fn bytespider_breaks_promise_amazonbot_keeps_it() {
    let exp = experiment();
    let rows = &exp.per_directive[&Directive::Endpoint];
    if let Some(byte) = rows.iter().find(|r| r.bot == "Bytespider") {
        assert!(byte.compliance().unwrap() < 0.4, "Bytespider does not respect robots.txt");
    }
    if let Some(amazon) = rows.iter().find(|r| r.bot == "Amazonbot") {
        assert!(amazon.compliance().unwrap() > 0.8, "Amazonbot honours its promise");
    }
}

// ---- Table 4: stable traffic across versions ----------------------------

#[test]
fn table4_traffic_stable_across_versions() {
    let exp = experiment();
    let visits: Vec<usize> = exp.phase_traffic.iter().map(|p| p.unique_site_visits).collect();
    let max = *visits.iter().max().unwrap() as f64;
    let min = *visits.iter().min().unwrap() as f64;
    assert!(max / min < 2.0, "site visits should stay roughly stable: {visits:?}");
    let bots: Vec<usize> = exp.phase_traffic.iter().map(|p| p.unique_bot_visitors).collect();
    assert!(bots.iter().all(|&b| b >= 30), "dozens of unique bots per phase: {bots:?}");
}

// ---- Spoofing: planted Table 8 rows rediscovered ------------------------

#[test]
fn spoofing_detected_for_planted_victims() {
    let rep = full_report();
    // The heavy planted spoof victims must be flagged.
    for bot in ["Baiduspider", "Googlebot"] {
        assert!(
            rep.spoof.finding_for(bot).is_some(),
            "{bot} has planted spoof traffic and must be flagged"
        );
    }
    // Every finding's minority share must be below 10%.
    for f in &rep.spoof.findings {
        assert!(f.main_share >= 0.90, "{}: {}", f.bot, f.main_share);
    }
}

#[test]
fn spoofed_requests_are_a_tiny_minority() {
    let exp = experiment();
    for (d, &(legit, spoofed)) in &exp.spoof_volume {
        assert!(
            (spoofed as f64) < 0.1 * legit as f64,
            "{d:?}: spoofed {spoofed} vs legit {legit} (paper Table 9: <0.1%-ish)"
        );
    }
}

// ---- Figure 10: AI bots re-check robots.txt least -----------------------

#[test]
fn figure10_ai_categories_recheck_least() {
    let rep = full_report();
    let p = |cat: BotCategory| rep.recheck.proportions.get(&(cat, 168)).copied();
    let assistants = p(BotCategory::AiAssistant);
    let scrapers = p(BotCategory::Scraper).or(p(BotCategory::IntelligenceGatherer));
    if let (Some(ai), Some(diligent)) = (assistants, scrapers) {
        assert!(
            ai <= diligent + 1e-9,
            "AI assistants ({ai:.2}) must re-check no more than scrapers/intel ({diligent:.2})"
        );
        assert!(ai < 0.8, "paper: fewer than 40% of AI bots re-check within 168h; ours {ai:.2}");
    }
}

// ---- Table 2/3 and figures: dataset overview shape ----------------------

#[test]
fn table2_all_data_dominates_known_bots() {
    let rep = full_report();
    assert!(rep.all.unique_ips > rep.known.unique_ips);
    assert!(rep.all.unique_user_agents > 2 * rep.known.unique_user_agents);
    assert!(rep.all.unique_asns > rep.known.unique_asns);
    assert!(rep.all.total_bytes >= rep.known.total_bytes);
}

#[test]
fn table3_yisou_and_applebot_dominate() {
    let rep = full_report();
    let names: Vec<&str> = rep.bot_stats.iter().take(2).map(|b| b.name.as_str()).collect();
    assert!(names.contains(&"YisouSpider"), "top-2: {names:?}");
    assert!(names.contains(&"Applebot"), "top-2: {names:?}");
    // Together they drive a large share of bot traffic (paper: 30% of all).
    let top2: u64 = rep.bot_stats.iter().take(2).map(|b| b.hits).sum();
    let all: u64 = rep.bot_stats.iter().map(|b| b.hits).sum();
    assert!(top2 as f64 / all as f64 > 0.4, "{top2}/{all}");
}

#[test]
fn figure2_search_categories_lead() {
    let rep = full_report();
    let sessions = |cat: BotCategory| rep.category_sessions.get(&cat).copied().unwrap_or(0);
    let search = sessions(BotCategory::SearchEngineCrawler);
    let ai_search = sessions(BotCategory::AiSearchCrawler);
    let seo = sessions(BotCategory::SeoCrawler);
    let archivers = sessions(BotCategory::Archiver);
    assert!(search > seo, "search engines above SEO in Fig 2");
    assert!(ai_search > archivers, "AI search above archivers in Fig 2");
}

// ---- Determinism across the whole stack ---------------------------------

#[test]
fn same_seed_same_analysis() {
    let cfg = SimConfig { scale: 0.05, sites: 6, ..SimConfig::default() };
    let a = run(&cfg);
    let b = run(&cfg);
    for d in Directive::ALL {
        let ra = &a.per_directive[&d];
        let rb = &b.per_directive[&d];
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert_eq!(x.bot, y.bot);
            assert_eq!(x.experiment, y.experiment);
            assert_eq!(x.baseline, y.baseline);
        }
    }
}
