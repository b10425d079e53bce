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

use crate::model::{Group, RobotsTxt, RuleVerb};

/// One audit finding.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditFinding {
    /// Two rules in the same merged group have the same pattern and
    /// opposite verbs; the Allow always wins ties, so the Disallow is
    /// dead.
    ContradictoryRules {
        /// Group agent token.
        agent: String,
        /// The pattern written twice.
        pattern: String,
    },
    /// The identical rule appears more than once for the same agent.
    DuplicateRule {
        /// Group agent token.
        agent: String,
        /// The repeated pattern.
        pattern: String,
        /// Allow or Disallow.
        verb: RuleVerb,
    },
    /// An empty-pattern rule matches nothing; `Disallow:` (empty) is a
    /// common "disallow nothing" trap for authors who meant `Disallow: /`.
    EmptyPattern {
        /// Group agent token.
        agent: String,
        /// Allow or Disallow.
        verb: RuleVerb,
    },
    /// A rule is shadowed: a strictly more specific rule of the opposite
    /// verb matches everything this rule matches (prefix relation), so
    /// this rule never decides an outcome alone on its own prefix.
    ShadowedRule {
        /// Group agent token.
        agent: String,
        /// The shadowed pattern.
        pattern: String,
        /// The pattern that overrides it.
        by: String,
    },
    /// A group's agent token appears in more than one group; legal (they
    /// merge) but usually an editing accident.
    SplitGroup {
        /// The repeated agent token.
        agent: String,
    },
    /// A crawl delay large enough that major crawlers are documented to
    /// ignore it (Google ignores the directive entirely; Bing caps at
    /// ~180 s).
    ExcessiveCrawlDelay {
        /// Group agent token.
        agent: String,
        /// The configured delay.
        seconds: f64,
    },
    /// No wildcard (`*`) group: unlisted bots are entirely unrestricted.
    NoWildcardGroup,
}

/// Audit a parsed document.
pub fn audit(doc: &RobotsTxt) -> Vec<AuditFinding> {
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
        findings.push(AuditFinding::SplitGroup { agent: agent.to_string() });
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
                findings.push(AuditFinding::DuplicateRule {
                    agent: agent.to_string(),
                    pattern: rule.pattern.as_str().to_string(),
                    verb: rule.verb,
                });
            }
            if rule.pattern.is_empty() {
                findings
                    .push(AuditFinding::EmptyPattern { agent: agent.to_string(), verb: rule.verb });
            }
        }
        for rule in &rules {
            let opposite = match rule.verb {
                RuleVerb::Allow => RuleVerb::Disallow,
                RuleVerb::Disallow => RuleVerb::Allow,
            };
            if seen.contains(&(opposite, rule.pattern.as_str())) && rule.verb == RuleVerb::Disallow
            {
                findings.push(AuditFinding::ContradictoryRules {
                    agent: agent.to_string(),
                    pattern: rule.pattern.as_str().to_string(),
                });
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
                    findings.push(AuditFinding::ShadowedRule {
                        agent: agent.to_string(),
                        pattern: a.pattern.as_str().to_string(),
                        by: b.pattern.as_str().to_string(),
                    });
                }
            }
        }
    }

    // Crawl delays.
    for g in &doc.groups {
        if let Some(delay) = g.crawl_delay {
            if delay > 180.0 {
                findings.push(AuditFinding::ExcessiveCrawlDelay {
                    agent: g.user_agents.first().cloned().unwrap_or_default(),
                    seconds: delay,
                });
            }
        }
    }

    // Wildcard coverage.
    if !doc.groups.iter().any(Group::is_wildcard) && !doc.groups.is_empty() {
        findings.push(AuditFinding::NoWildcardGroup);
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
        assert!(f.iter().any(
            |x| matches!(x, AuditFinding::ContradictoryRules { pattern, .. } if pattern == "/x")
        ));
    }

    #[test]
    fn duplicate_detected() {
        let doc = parse("User-agent: *\nDisallow: /x\nDisallow: /x\n");
        let f = audit(&doc);
        assert!(f.iter().any(|x| matches!(x, AuditFinding::DuplicateRule { .. })));
    }

    #[test]
    fn empty_pattern_detected() {
        let doc = parse("User-agent: *\nDisallow:\n");
        let f = audit(&doc);
        assert!(f
            .iter()
            .any(|x| matches!(x, AuditFinding::EmptyPattern { verb: RuleVerb::Disallow, .. })));
    }

    #[test]
    fn shadow_detected() {
        // Disallow /private is fully hidden by Allow /private* — every
        // path the Disallow matches, the longer Allow matches and wins.
        let doc = parse("User-agent: *\nDisallow: /private\nAllow: /private*\n");
        let f = audit(&doc);
        assert!(
            f.iter().any(|x| matches!(x, AuditFinding::ShadowedRule { pattern, by, .. } if pattern == "/private" && by == "/private*")),
            "{f:?}"
        );
        // And the matcher agrees the Disallow is dead.
        assert!(crate::CompiledPolicy::compile(&doc).check("bot", "/private/x").allow);
    }

    #[test]
    fn split_group_detected() {
        let doc = parse("User-agent: a\nDisallow: /x\n\nUser-agent: b\nDisallow: /\n\nUser-agent: a\nDisallow: /y\n");
        let f = audit(&doc);
        assert!(f.iter().any(|x| matches!(x, AuditFinding::SplitGroup { agent } if agent == "a")));
    }

    #[test]
    fn excessive_delay_detected() {
        let doc = parse("User-agent: slowbot\nCrawl-delay: 3600\n");
        let f = audit(&doc);
        assert!(f.iter().any(
            |x| matches!(x, AuditFinding::ExcessiveCrawlDelay { seconds, .. } if *seconds == 3600.0)
        ));
    }

    #[test]
    fn missing_wildcard_detected() {
        let doc = parse("User-agent: googlebot\nDisallow: /x\n");
        let f = audit(&doc);
        assert!(f.contains(&AuditFinding::NoWildcardGroup));
        // Empty docs are fine (nothing to protect).
        assert!(!audit(&parse("")).contains(&AuditFinding::NoWildcardGroup));
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
