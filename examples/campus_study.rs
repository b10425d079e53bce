//! The paper's controlled experiment, end to end at laptop scale: deploy
//! four robots.txt versions of increasing strictness on the busiest site,
//! watch the fleet for eight simulated weeks, and measure which directives
//! bots actually honour.
//!
//! Run with: `cargo run --release --example campus_study`

use botscope::core::analyze::Directive;
use botscope::core::report;
use botscope::core::Experiment;
use botscope::simnet::scenario::phase_study_table;
use botscope::simnet::SimConfig;

fn main() {
    let cfg = SimConfig { scale: 0.15, ..SimConfig::default() };
    println!(
        "Simulating the 8-week robots.txt experiment (seed {}, scale {})...\n",
        cfg.seed, cfg.scale
    );
    let out = phase_study_table(&cfg);
    let exp = Experiment::analyze_table(&out.sim.table, &out.schedule);

    // Traffic stayed stable across deployments (paper Table 4).
    println!("{}", report::table4(&exp));

    // The headline result: compliance by category and directive.
    println!("{}", report::table5(&exp));

    // RQ1: which directive do bots comply with most?
    let t = exp.category_table();
    let avg = |d: Directive| t.directive_average.get(&d).copied().unwrap_or(f64::NAN);
    println!(
        "RQ1  Crawl delay {:.3}  >  Endpoint {:.3}  ~  Disallow {:.3}",
        avg(Directive::CrawlDelay),
        avg(Directive::Endpoint),
        avg(Directive::Disallow)
    );
    println!("     => bots are less likely to comply with stricter directives\n");

    // RQ2: which category is most compliant overall?
    if let Some((cat, _, best)) =
        t.rows.iter().max_by(|a, b| a.2.partial_cmp(&b.2).expect("no NaN"))
    {
        println!("RQ2  Most compliant category: {} (average {:.3})\n", cat.name(), best);
    }

    // RQ3: individual variation — the biggest significant movers.
    println!("RQ3  Largest significant compliance shifts (baseline -> experiment):");
    let mut movers: Vec<(String, &'static str, f64)> = Vec::new();
    for d in Directive::ALL {
        for r in &exp.per_directive[&d] {
            if r.significant() {
                if let Some(z) = &r.ztest {
                    movers.push((r.bot.clone(), d.label(), z.effect()));
                }
            }
        }
    }
    movers.sort_by(|a, b| b.2.abs().partial_cmp(&a.2.abs()).expect("no NaN"));
    for (bot, directive, shift) in movers.iter().take(10) {
        println!("     {bot:<24} {directive:<16} {shift:+.3}");
    }
}
