//! Policy auditing: lint a robots.txt document for mistakes that silently
//! weaken it.
//!
//! The paper's §2.2 observes that the REP "requires web hosts to maintain
//! extensive knowledge of user agents" and that misconfigured files are
//! common. The auditor flags the classes of mistake that turn an intended
//! restriction into a no-op: rules that can never win, duplicate groups,
//! empty patterns, unreachable agents, and crawl delays outside the range
//! real bots honour.

use std::collections::BTreeSet;

use crate::analysis::{Finding, FindingCode, Severity};
use crate::model::{Group, RobotsTxt, RuleVerb};

/// A group-scoped syntactic finding (no witness path).
fn finding(severity: Severity, code: FindingCode, agent: &str, message: String) -> Finding {
    Finding { severity, code, agent: Some(agent.to_string()), message, witness: None }
}

/// Audit a parsed document: the syntactic findings, in the order the
/// passes find them ([`crate::analysis::analyze`] sorts them in with
/// the semantic ones).
pub fn audit(doc: &RobotsTxt) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Split groups.
    let mut seen_agents: BTreeSet<&str> = BTreeSet::new();
    let mut split: BTreeSet<&str> = BTreeSet::new();
    for g in &doc.groups {
        for a in &g.user_agents {
            if !seen_agents.insert(a) {
                split.insert(a);
            }
        }
    }
    for agent in split {
        findings.push(finding(
            Severity::Info,
            FindingCode::SplitGroup,
            agent,
            "agent token appears in more than one group".to_string(),
        ));
    }

    // Per merged agent: contradictions, duplicates, shadowing, empties.
    let mut all_agents: Vec<&str> = Vec::new();
    for g in &doc.groups {
        for a in &g.user_agents {
            if !all_agents.contains(&a.as_str()) {
                all_agents.push(a);
            }
        }
    }
    for agent in &all_agents {
        let rules: Vec<_> = doc
            .groups
            .iter()
            .filter(|g| g.user_agents.iter().any(|a| a == agent))
            .flat_map(|g| g.rules.iter())
            .collect();

        let mut seen: BTreeSet<(RuleVerb, &str)> = BTreeSet::new();
        for rule in &rules {
            let key = (rule.verb, rule.pattern.as_str());
            if !seen.insert(key) {
                findings.push(finding(
                    Severity::Warning,
                    FindingCode::DuplicateRule,
                    agent,
                    format!("`{}: {}` appears more than once", rule.verb.as_str(), rule.pattern),
                ));
            }
            if rule.pattern.is_empty() {
                findings.push(finding(
                    Severity::Info,
                    FindingCode::EmptyPattern,
                    agent,
                    format!("`{}:` with an empty value matches nothing", rule.verb.as_str()),
                ));
            }
        }
        for rule in &rules {
            let opposite = match rule.verb {
                RuleVerb::Allow => RuleVerb::Disallow,
                RuleVerb::Disallow => RuleVerb::Allow,
            };
            if seen.contains(&(opposite, rule.pattern.as_str())) && rule.verb == RuleVerb::Disallow
            {
                findings.push(finding(
                    Severity::Warning,
                    FindingCode::ContradictoryRules,
                    agent,
                    format!(
                        "`{}` is both allowed and disallowed; Allow wins the tie",
                        rule.pattern
                    ),
                ));
            }
        }
        // Shadowing: a wildcard-free rule `a` is dead when an
        // opposite-verb rule `b = a + "*"` exists — `b` matches every
        // path `a` matches, is strictly more specific, and therefore
        // always wins. (Exact shadow analysis over arbitrary `*` patterns
        // is regular-language inclusion; this covers the mistake class
        // seen in real files.)
        for a in &rules {
            if a.pattern.is_empty() || a.pattern.as_str().contains('*') {
                continue;
            }
            // `a` is fully shadowed if an opposite-verb rule `b` is a
            // prefix of `a` *and* every path matching `a` also matches a
            // longer opposite rule — the practical case: an Allow that is
            // an extension of this Disallow hides the whole subtree.
            for b in &rules {
                if b.verb != a.verb
                    && !b.pattern.is_empty()
                    && b.pattern.as_str() != a.pattern.as_str()
                    && b.pattern.as_str().starts_with(a.pattern.as_str())
                    && b.pattern.as_str().trim_start_matches(a.pattern.as_str()) == "*"
                {
                    findings.push(finding(
                        Severity::Warning,
                        FindingCode::PrefixShadowedRule,
                        agent,
                        format!("`{}` is textually shadowed by `{}`", a.pattern, b.pattern),
                    ));
                }
            }
        }
    }

    // Crawl delays: Google ignores the directive entirely and Bing caps
    // it at ~180 s.
    for g in &doc.groups {
        if let Some(delay) = g.crawl_delay {
            if delay > 180.0 {
                findings.push(finding(
                    Severity::Warning,
                    FindingCode::ExcessiveCrawlDelay,
                    g.user_agents.first().map_or("", String::as_str),
                    format!("crawl delay of {delay}s exceeds what major crawlers honor"),
                ));
            }
        }
    }

    // Wildcard coverage.
    if !doc.groups.iter().any(Group::is_wildcard) && !doc.groups.is_empty() {
        findings.push(Finding {
            severity: Severity::Info,
            code: FindingCode::NoWildcardGroup,
            agent: None,
            message: "no `*` group: unlisted bots are entirely unrestricted".to_string(),
            witness: None,
        });
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn clean_file_has_no_findings() {
        let doc = parse("User-agent: *\nAllow: /\nDisallow: /secure/*\nCrawl-delay: 30\n");
        assert!(audit(&doc).is_empty(), "{:?}", audit(&doc));
    }

    #[test]
    fn contradiction_detected() {
        let doc = parse("User-agent: *\nAllow: /x\nDisallow: /x\n");
        let f = audit(&doc);
        assert!(f.iter().any(|x| x.code == FindingCode::ContradictoryRules
            && x.message.starts_with("`/x` ")
            && x.severity == Severity::Warning));
    }

    #[test]
    fn duplicate_detected() {
        let doc = parse("User-agent: *\nDisallow: /x\nDisallow: /x\n");
        let f = audit(&doc);
        assert!(f.iter().any(|x| x.code == FindingCode::DuplicateRule));
    }

    #[test]
    fn empty_pattern_detected() {
        let doc = parse("User-agent: *\nDisallow:\n");
        let f = audit(&doc);
        assert!(f.iter().any(|x| x.code == FindingCode::EmptyPattern
            && x.message.starts_with("`Disallow:`")
            && x.severity == Severity::Info));
    }

    #[test]
    fn shadow_detected() {
        // Disallow /private is fully hidden by Allow /private* — every
        // path the Disallow matches, the longer Allow matches and wins.
        let doc = parse("User-agent: *\nDisallow: /private\nAllow: /private*\n");
        let f = audit(&doc);
        assert!(
            f.iter().any(|x| x.code == FindingCode::PrefixShadowedRule
                && x.message == "`/private` is textually shadowed by `/private*`"),
            "{f:?}"
        );
        // And the matcher agrees the Disallow is dead.
        assert!(crate::CompiledPolicy::compile(&doc).check("bot", "/private/x").allow);
    }

    #[test]
    fn split_group_detected() {
        let doc = parse("User-agent: a\nDisallow: /x\n\nUser-agent: b\nDisallow: /\n\nUser-agent: a\nDisallow: /y\n");
        let f = audit(&doc);
        assert!(f
            .iter()
            .any(|x| x.code == FindingCode::SplitGroup && x.agent.as_deref() == Some("a")));
    }

    #[test]
    fn excessive_delay_detected() {
        let doc = parse("User-agent: slowbot\nCrawl-delay: 3600\n");
        let f = audit(&doc);
        assert!(f.iter().any(|x| x.code == FindingCode::ExcessiveCrawlDelay
            && x.message.starts_with("crawl delay of 3600s ")
            && x.agent.as_deref() == Some("slowbot")));
    }

    #[test]
    fn missing_wildcard_detected() {
        let doc = parse("User-agent: googlebot\nDisallow: /x\n");
        let f = audit(&doc);
        let no_wildcard = |f: &[Finding]| f.iter().any(|x| x.code == FindingCode::NoWildcardGroup);
        assert!(no_wildcard(&f));
        // Empty docs are fine (nothing to protect).
        assert!(!no_wildcard(&audit(&parse(""))));
    }

    #[test]
    fn paper_policies_are_clean() {
        // The four experimental files must audit clean — they were
        // validated against the Google parser in the paper.
        for text in [
            "User-agent: *\nAllow: /\nDisallow: /404\nDisallow: /dev-404-page\nDisallow: /secure/*\n",
            "User-agent: *\nAllow: /page-data/*\nDisallow: /\n",
            "User-agent: *\nDisallow: /\n",
        ] {
            let doc = parse(text);
            assert!(audit(&doc).is_empty(), "{text}: {:?}", audit(&doc));
        }
    }
}
