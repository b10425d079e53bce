//! Cross-crate consistency: the static data in the useragent, asn and
//! simnet crates must agree with each other — the generator and analyzer
//! meet through these tables — and the paper's policy files must decide
//! every fleet bot's requests exactly as the RFC 9309 oracle does.

#[path = "../crates/robotstxt/tests/rep_oracle/mod.rs"]
mod rep_oracle;

use std::collections::BTreeSet;

use botscope::asn::catalog::SPOOF_CATALOG;
use botscope::asn::registry::lookup;
use botscope::robots::parser::parse;
use botscope::robots::{CompiledPolicy, RobotsTxt};
use botscope::simnet::fleet::build_fleet;
use botscope::study::{PolicyVersion, EXEMPT_AGENTS};
use botscope::useragent::registry::registry;

#[test]
fn every_bot_home_asn_resolves() {
    for bot in registry().all() {
        assert!(
            lookup(bot.home_asn).is_some(),
            "{}'s home ASN {} missing from the whois directory",
            bot.canonical,
            bot.home_asn
        );
    }
}

#[test]
fn spoof_catalog_bots_exist_in_registry() {
    let reg = registry();
    for profile in SPOOF_CATALOG {
        assert!(
            reg.by_name(profile.bot).is_some(),
            "Table 8 bot {} missing from registry",
            profile.bot
        );
    }
}

#[test]
fn spoof_catalog_main_asn_matches_registry_home() {
    let reg = registry();
    for profile in SPOOF_CATALOG {
        let spec = reg.by_name(profile.bot).unwrap();
        assert_eq!(
            spec.home_asn, profile.main_asn,
            "{}: registry home ASN and Table 8 main ASN disagree",
            profile.bot
        );
    }
}

#[test]
fn exempt_agents_resolve_in_registry() {
    let reg = registry();
    for agent in EXEMPT_AGENTS {
        assert!(reg.by_name(agent).is_some(), "exempt agent {agent} missing from registry");
    }
}

#[test]
fn policy_files_grant_exempt_agents_access() {
    for version in [PolicyVersion::V2EndpointOnly, PolicyVersion::V3DisallowAll] {
        let policy = CompiledPolicy::compile(&version.robots_txt());
        for agent in EXEMPT_AGENTS {
            assert!(
                policy.check(agent, "/news/item-001").allow,
                "{agent} should keep access under {version:?}"
            );
            assert!(
                !policy.check(agent, "/secure/x").allow,
                "{agent} still barred from /secure under {version:?}"
            );
        }
        // A non-exempt agent is restricted.
        assert!(!policy.check("GPTBot", "/news/item-001").allow);
    }
}

#[test]
fn policy_files_roundtrip_through_own_parser() {
    // The paper validated its files with the Google parser; we validate
    // with ours: serialize, reparse, same semantics (the reparsed file's
    // compiled policy against the oracle on the built one), no warnings.
    for version in PolicyVersion::ALL {
        let doc = version.robots_txt();
        let reparsed = parse(&doc.to_string());
        assert!(reparsed.warnings.is_empty(), "{version:?}: {:?}", reparsed.warnings);
        let policy = CompiledPolicy::compile(&reparsed);
        for agent in ["GPTBot", "Googlebot", "randombot"] {
            for path in ["/", "/page-data/x/page-data.json", "/secure/a", "/404", "/news/item"] {
                assert_eq!(
                    rep_oracle::decide(&doc, agent, path).allow,
                    policy.check(agent, path).allow,
                    "{version:?} {agent} {path}"
                );
            }
        }
    }
}

#[test]
fn paper_corpus_files_decide_like_the_oracle() {
    // Every fleet token, the wildcard and an unlisted bot, probing each
    // rule's path, a child under it, the root and robots.txt itself:
    // verdict, winning rule, agent group and crawl delay all match.
    let mut agents: Vec<&str> = build_fleet().iter().map(|b| b.spec.canonical).collect();
    agents.extend(["*", "unlistedbot"]);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/audit");
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).expect("fixture dir") {
        let path = entry.expect("entry").path();
        let name = path.file_name().expect("name").to_string_lossy().into_owned();
        if !(name.starts_with("corpus-") && name.ends_with(".robots.txt")) {
            continue;
        }
        files += 1;
        let doc = RobotsTxt::parse_bytes(&std::fs::read(&path).expect("fixture"));
        let policy = CompiledPolicy::compile(&doc);
        let mut probes = vec!["/".to_string(), "/robots.txt".to_string()];
        for rule in doc.groups.iter().flat_map(|g| &g.rules) {
            let raw = rule.pattern.as_str().trim_end_matches(['*', '$']);
            probes.push(raw.to_string());
            probes.push(format!("{}/probe", raw.trim_end_matches('/')));
        }
        for agent in &agents {
            assert_eq!(
                policy.crawl_delay(agent),
                rep_oracle::crawl_delay(&doc, agent),
                "{name}: delay for {agent}"
            );
            for probe in &probes {
                assert_eq!(
                    policy.check(agent, probe),
                    rep_oracle::decide(&doc, agent, probe),
                    "{name}: {agent} {probe}"
                );
            }
        }
    }
    assert_eq!(files, 4, "the four paper policy files");
}

#[test]
fn registry_patterns_do_not_shadow_each_other_exactly() {
    // Two bots must never share an identical pattern.
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for bot in registry().all() {
        for pat in bot.patterns {
            assert!(seen.insert(pat), "pattern {pat:?} appears twice ({})", bot.canonical);
        }
    }
}

#[test]
fn suspicious_asns_are_distinct_from_home_networks() {
    // A Table 8 suspicious ASN must not be the flagged bot's own home —
    // otherwise the generator would plant legitimate traffic there and
    // the detector could never separate them.
    for profile in SPOOF_CATALOG {
        for asn in profile.suspicious_asns {
            assert_ne!(*asn, profile.main_asn, "{}", profile.bot);
        }
    }
}
