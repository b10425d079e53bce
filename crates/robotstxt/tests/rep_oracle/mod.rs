//! A test-only Robots Exclusion Protocol oracle: RFC 9309 §2.2 read
//! literally over a parsed document's `groups`, sharing no decision code
//! with the production matcher (`CompiledPolicy`).
//!
//! * **Group selection** (§2.2.1): the crawler's product token is the
//!   leading run of `[A-Za-z0-9_-]` of the agent string, compared
//!   case-insensitively. A group token applies when it equals the product
//!   token or is a prefix of it ending at a `-`/`_` boundary; the longest
//!   applicable token wins, `*` is the fallback, and every group naming
//!   the winning token is merged.
//! * **Matching** (§2.2.2, §2.2.3): `*` matches any octet sequence, a
//!   final `$` anchors the end, and a pattern otherwise matches every
//!   path it is a prefix of. Matching here is a brute-force dynamic
//!   program over the pattern text, not the production trie or its greedy
//!   segment walk. Paths are compared in the parser's percent-normalized
//!   form (`pattern::normalize_path`), the form the parser already stores
//!   every pattern in.
//! * **Precedence** (§2.2.2): the matching rule with the most octets
//!   wins, `Allow` wins a tie, the earliest rule in merged document order
//!   is reported among equals, and no match means allow. `/robots.txt` is
//!   implicitly allowed, and a path without a leading `/` is read as `/`
//!   followed by the path.
//!
//! The deviant models (`first_match_allow`, `wildcard_unaware_allow`,
//! `dollar_literal_allow`) replay the static analyzer's parser-divergence
//! witnesses.
//!
//! Other crates' tests include this file with
//! `#[path = ".../robotstxt/tests/rep_oracle/mod.rs"] mod rep_oracle;`.

#![allow(dead_code)]

use botscope_robotstxt::pattern::normalize_path;
use botscope_robotstxt::{Decision, RobotsTxt, Rule, RuleVerb};

/// The crawler's product token, lowercased (`"*"` for a wildcard agent).
fn product_token(agent: &str) -> String {
    let agent = agent.trim();
    if agent.starts_with('*') {
        return "*".to_string();
    }
    agent
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
        .collect::<String>()
        .to_ascii_lowercase()
}

/// Whether the (lowercase) group token `group` applies to `crawler`.
fn applies(group: &str, crawler: &str) -> bool {
    match crawler.strip_prefix(group) {
        Some("") => true,
        Some(rest) => rest.starts_with('-') || rest.starts_with('_'),
        None => false,
    }
}

/// The group token whose groups apply to `agent`, if any.
pub fn winning_token<'a>(doc: &'a RobotsTxt, agent: &str) -> Option<&'a str> {
    let crawler = product_token(agent);
    let tokens = || doc.groups.iter().flat_map(|g| g.user_agents.iter().map(String::as_str));
    let mut best: Option<&str> = None;
    for token in tokens().filter(|t| *t != "*") {
        if applies(token, &crawler) && best.is_none_or(|b| token.len() > b.len()) {
            best = Some(token);
        }
    }
    best.or_else(|| tokens().find(|t| *t == "*"))
}

/// The merged rules (document order) of every group naming the winning
/// token, with that token.
pub fn applicable_rules<'a>(doc: &'a RobotsTxt, agent: &str) -> Option<(&'a str, Vec<&'a Rule>)> {
    let token = winning_token(doc, agent)?;
    let rules = doc
        .groups
        .iter()
        .filter(|g| g.user_agents.iter().any(|ua| ua == token))
        .flat_map(|g| g.rules.iter())
        .collect();
    Some((token, rules))
}

/// The crawl delay for `agent`: the largest one the merged groups declare.
pub fn crawl_delay(doc: &RobotsTxt, agent: &str) -> Option<f64> {
    let token = winning_token(doc, agent)?;
    doc.groups
        .iter()
        .filter(|g| g.user_agents.iter().any(|ua| ua == token))
        .filter_map(|g| g.crawl_delay)
        .reduce(f64::max)
}

/// Whether `glob` (where `*` matches any octet run) matches all of `text`:
/// `m[i][j]` says the first `i` glob octets match the first `j` text octets.
fn glob_full(glob: &[u8], text: &[u8]) -> bool {
    let mut m = vec![vec![false; text.len() + 1]; glob.len() + 1];
    m[0][0] = true;
    for i in 1..=glob.len() {
        for j in 0..=text.len() {
            m[i][j] = if glob[i - 1] == b'*' {
                m[i - 1][j] || (j > 0 && m[i][j - 1])
            } else {
                j > 0 && m[i - 1][j - 1] && glob[i - 1] == text[j - 1]
            };
        }
    }
    m[glob.len()][text.len()]
}

/// Whether `rule` matches an already normalized path. An empty pattern
/// matches nothing; a pattern without a final `$` matches as a prefix.
pub fn rule_matches(rule: &Rule, normalized_path: &str) -> bool {
    let text = rule.pattern.as_str();
    if text.is_empty() {
        return false;
    }
    match text.strip_suffix('$') {
        Some(body) => glob_full(body.as_bytes(), normalized_path.as_bytes()),
        None => glob_full(format!("{text}*").as_bytes(), normalized_path.as_bytes()),
    }
}

/// The octet count RFC 9309 ranks matches by.
fn octets(rule: &Rule) -> usize {
    rule.pattern.as_str().len()
}

/// The RFC winner among `rules` for a normalized path: most octets, then
/// `Allow`, then the earliest rule.
fn rfc_winner<'a>(
    rules: impl IntoIterator<Item = &'a Rule>,
    normalized_path: &str,
) -> Option<&'a Rule> {
    let mut best: Option<&Rule> = None;
    for rule in rules {
        if !rule_matches(rule, normalized_path) {
            continue;
        }
        let better = best.is_none_or(|b| {
            octets(rule) > octets(b)
                || (octets(rule) == octets(b)
                    && rule.verb == RuleVerb::Allow
                    && b.verb == RuleVerb::Disallow)
        });
        if better {
            best = Some(rule);
        }
    }
    best
}

/// The full RFC 9309 decision for `agent` fetching `path` under `doc`.
pub fn decide<'a>(doc: &'a RobotsTxt, agent: &str, path: &str) -> Decision<'a> {
    let path = if path.starts_with('/') { path.to_string() } else { format!("/{path}") };
    let default = |agent| Decision { allow: true, matched_rule: None, matched_agent: agent };
    if path == "/robots.txt" {
        return default(None);
    }
    let Some((token, rules)) = applicable_rules(doc, agent) else {
        return default(None);
    };
    match rfc_winner(rules, &normalize_path(&path)) {
        Some(rule) => Decision {
            allow: rule.verb == RuleVerb::Allow,
            matched_rule: Some(rule),
            matched_agent: Some(token),
        },
        None => default(Some(token)),
    }
}

/// RFC 9309 verdict over a rule list and a normalized path.
pub fn rfc_allow(rules: &[Rule], normalized_path: &str) -> bool {
    rfc_winner(rules, normalized_path).is_none_or(|r| r.verb == RuleVerb::Allow)
}

/// First-match model: the first rule in document order that matches
/// decides; no match means allow.
pub fn first_match_allow(rules: &[Rule], normalized_path: &str) -> bool {
    rules
        .iter()
        .find(|r| rule_matches(r, normalized_path))
        .is_none_or(|r| r.verb == RuleVerb::Allow)
}

/// Wildcard-unaware model: `*` is a literal octet (a final `$` still
/// anchors); precedence stays most-octets.
pub fn wildcard_unaware_allow(rules: &[Rule], normalized_path: &str) -> bool {
    let literal = |rule: &Rule| {
        let text = rule.pattern.as_str();
        !text.is_empty()
            && match text.strip_suffix('$') {
                Some(body) => normalized_path == body,
                None => normalized_path.starts_with(text),
            }
    };
    model_allow(rules, literal)
}

/// Dollar-literal model: a final `$` is a literal octet (the rule stays a
/// prefix glob); `*` keeps its meaning.
pub fn dollar_literal_allow(rules: &[Rule], normalized_path: &str) -> bool {
    let prefix_glob = |rule: &Rule| {
        let text = rule.pattern.as_str();
        !text.is_empty() && glob_full(format!("{text}*").as_bytes(), normalized_path.as_bytes())
    };
    model_allow(rules, prefix_glob)
}

/// Most-octets precedence (Allow wins ties) under a model's own notion
/// of which rules match.
fn model_allow(rules: &[Rule], matches: impl Fn(&Rule) -> bool) -> bool {
    let mut best: Option<&Rule> = None;
    for rule in rules.iter().filter(|r| matches(r)) {
        if best.is_none_or(|b| {
            octets(rule) > octets(b) || (octets(rule) == octets(b) && rule.verb == RuleVerb::Allow)
        }) {
            best = Some(rule);
        }
    }
    best.is_none_or(|r| r.verb == RuleVerb::Allow)
}
