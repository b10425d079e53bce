//! Quickstart: parse a robots.txt file, compile it, ask access questions,
//! build the paper's experimental policies, and check a crawler's
//! obligations.
//!
//! Run with: `cargo run --example quickstart`

use botscope::robots::{
    CompiledPolicy, EffectivePolicy, FetchOutcome, RobotsTxt, RobotsTxtBuilder,
};

fn main() {
    // 1. Parse the file from the paper's Figure 1.
    let robots = RobotsTxt::parse(
        "User-agent: Googlebot\n\
         Allow: /\n\
         Crawl-delay: 15\n\
         \n\
         User-agent: *\n\
         Allow: /allowed-data/\n\
         Disallow: /restricted-data/\n\
         Crawl-delay: 30\n\
         \n\
         Sitemap: https://example.edu/sitemap/sitemap-0.xml\n",
    );

    println!(
        "Parsed {} groups, {} rules, {} sitemap(s)\n",
        robots.groups.len(),
        robots.rule_count(),
        robots.sitemaps().len()
    );

    // 2. Compile it once, then ask access questions for different crawlers.
    let policy = CompiledPolicy::compile(&robots);
    for (agent, path) in [
        ("Googlebot", "/restricted-data/report.pdf"),
        ("GPTBot", "/restricted-data/report.pdf"),
        ("GPTBot", "/allowed-data/catalog.json"),
        ("ClaudeBot", "/robots.txt"),
    ] {
        let decision = policy.check(agent, path);
        println!(
            "{agent:<10} {path:<32} -> {}{}",
            if decision.allow { "ALLOW" } else { "DENY " },
            match &decision.matched_rule {
                Some(rule) => format!("  (rule: {}: {})", rule.verb.as_str(), rule.pattern),
                None => "  (no matching rule; default allow)".to_string(),
            }
        );
    }

    // 3. Crawl-delay obligations.
    println!();
    for agent in ["Googlebot", "GPTBot"] {
        println!("{agent:<10} crawl delay: {:?} seconds", policy.crawl_delay(agent));
    }

    // 4. Build a policy programmatically (the paper's v3 disallow-all).
    let v3 = RobotsTxtBuilder::new()
        .group(["Googlebot"], |g| g.allow("/").disallow("/secure/*"))
        .group(["*"], |g| g.disallow("/"))
        .build();
    println!("\nGenerated v3-style policy:\n{v3}");

    // 5. RFC 9309 fetch semantics: what must a compliant crawler assume?
    for (label, outcome) in [
        ("robots.txt returns 404", FetchOutcome::ClientError(404)),
        ("robots.txt returns 503", FetchOutcome::ServerError(503)),
    ] {
        let policy = EffectivePolicy::from_outcome(outcome);
        println!("{label}: may fetch /anything? {}", policy.is_allowed("anybot", "/anything"));
    }
}
