//! Data model: rules, groups, and the parsed `robots.txt` document.
//!
//! A `robots.txt` file is a sequence of *groups*. Each group names one or
//! more user agents (`User-agent:` lines) and carries the rules that apply
//! to them (`Allow:`/`Disallow:` lines, paper Table 1), plus the de-facto
//! `Crawl-delay` extension. `Sitemap:` lines are global, outside any group.

use crate::pattern::PathPattern;

/// Whether a rule grants or denies access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleVerb {
    /// `Allow:` — the named paths may be fetched.
    Allow,
    /// `Disallow:` — the named paths must not be fetched.
    Disallow,
}

impl RuleVerb {
    /// The canonical directive name as written in a file.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleVerb::Allow => "Allow",
            RuleVerb::Disallow => "Disallow",
        }
    }
}

/// One `Allow`/`Disallow` line.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    /// Allow or Disallow.
    pub verb: RuleVerb,
    /// The compiled path pattern.
    pub pattern: PathPattern,
}

impl Rule {
    /// Construct a rule from a verb and a raw pattern string.
    pub fn new(verb: RuleVerb, pattern: &str) -> Self {
        Self { verb, pattern: PathPattern::new(pattern) }
    }

    /// Shorthand for an `Allow` rule.
    pub fn allow(pattern: &str) -> Self {
        Self::new(RuleVerb::Allow, pattern)
    }

    /// Shorthand for a `Disallow` rule.
    pub fn disallow(pattern: &str) -> Self {
        Self::new(RuleVerb::Disallow, pattern)
    }
}

/// A group: one or more user agents and the rules applying to them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Group {
    /// The `User-agent:` product tokens heading this group. `*` is the
    /// wildcard group. Stored lowercased (matching is case-insensitive).
    pub user_agents: Vec<String>,
    /// Rules in file order.
    pub rules: Vec<Rule>,
    /// Optional `Crawl-delay:` in seconds.
    pub crawl_delay: Option<f64>,
}

impl Group {
    /// A group for the given agents (any case; stored lowercased).
    pub fn for_agents<I, S>(agents: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Self {
            user_agents: agents.into_iter().map(|a| a.as_ref().to_ascii_lowercase()).collect(),
            rules: Vec::new(),
            crawl_delay: None,
        }
    }

    /// Whether this is the wildcard (`*`) group.
    pub fn is_wildcard(&self) -> bool {
        self.user_agents.iter().any(|a| a == "*")
    }
}

/// A non-fatal problem found while parsing (the parser never fails).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseWarning {
    /// A line had no `:` separator and was not empty/comment.
    MalformedLine {
        /// 1-based line number.
        line: usize,
        /// The offending text (truncated to 80 bytes).
        text: String,
    },
    /// A rule appeared before any `User-agent:` line and was ignored.
    RuleOutsideGroup {
        /// 1-based line number.
        line: usize,
    },
    /// A `Crawl-delay:` value was not a number.
    BadCrawlDelay {
        /// 1-based line number.
        line: usize,
        /// The unparsable value.
        value: String,
    },
    /// An unknown directive was skipped (e.g. `Host:`, `Clean-param:`).
    UnknownDirective {
        /// 1-based line number.
        line: usize,
        /// The directive key, lowercased.
        key: String,
    },
    /// The input was not valid UTF-8: every octet outside a valid
    /// sequence was percent-encoded as `%XX` before parsing (RFC 9309
    /// §2.2.2), so a pattern such as `/caf\xE9` survives as `/caf%E9`.
    InvalidUtf8 {
        /// 1-based line of the first invalid octet.
        line: usize,
        /// Number of octets percent-encoded.
        octets: usize,
    },
    /// Input exceeded the 500 KiB cap and was truncated (RFC 9309 §2.5
    /// requires parsers to handle at least 500 KiB; we parse exactly that
    /// much and ignore the rest).
    Truncated {
        /// Total input size in bytes.
        input_bytes: usize,
    },
}

/// A parsed `robots.txt` document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RobotsTxt {
    /// Groups in file order.
    pub groups: Vec<Group>,
    /// Global `Sitemap:` URLs in file order.
    pub sitemaps: Vec<String>,
    /// Non-fatal parse warnings.
    pub warnings: Vec<ParseWarning>,
}

impl RobotsTxt {
    /// An empty document: no groups, which means everything is allowed.
    pub fn allow_all() -> Self {
        Self::default()
    }

    /// A document with a single `User-agent: * / Disallow: /` group.
    pub fn disallow_all() -> Self {
        let mut g = Group::for_agents(["*"]);
        g.rules.push(Rule::disallow("/"));
        Self { groups: vec![g], sitemaps: Vec::new(), warnings: Vec::new() }
    }

    /// The sitemap URLs declared in the file.
    pub fn sitemaps(&self) -> &[String] {
        &self.sitemaps
    }

    /// Total number of rules across all groups.
    pub fn rule_count(&self) -> usize {
        self.groups.iter().map(|g| g.rules.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_lowercases_agents() {
        let g = Group::for_agents(["GoogleBot", "GPTBot"]);
        assert_eq!(g.user_agents, vec!["googlebot", "gptbot"]);
        assert!(!g.is_wildcard());
        assert!(Group::for_agents(["*"]).is_wildcard());
    }

    #[test]
    fn allow_all_has_no_rules() {
        let r = RobotsTxt::allow_all();
        assert_eq!(r.rule_count(), 0);
        assert!(r.groups.is_empty());
    }

    #[test]
    fn disallow_all_shape() {
        let r = RobotsTxt::disallow_all();
        assert_eq!(r.rule_count(), 1);
        assert!(r.groups[0].is_wildcard());
        assert_eq!(r.groups[0].rules[0].verb, RuleVerb::Disallow);
        assert_eq!(r.groups[0].rules[0].pattern.as_str(), "/");
    }

    #[test]
    fn rule_shorthands() {
        assert_eq!(Rule::allow("/x").verb, RuleVerb::Allow);
        assert_eq!(Rule::disallow("/x").verb, RuleVerb::Disallow);
        assert_eq!(RuleVerb::Allow.as_str(), "Allow");
        assert_eq!(RuleVerb::Disallow.as_str(), "Disallow");
    }
}
