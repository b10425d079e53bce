//! Group assembly: turning lexed lines into a [`RobotsTxt`] document.
//!
//! Implements the RFC 9309 §2.2.1 grouping rules:
//!
//! * consecutive `User-agent:` lines share one group ("start-of-group
//!   lines... are followed by the rules that apply to them"),
//! * a rule line after a rule line stays in the current group,
//! * a `User-agent:` line after a rule line starts a *new* group,
//! * rules appearing before any `User-agent:` line belong to no group and
//!   are ignored (with a warning),
//! * `Sitemap:` is global and does not interrupt a group,
//! * input beyond 500 KiB is ignored (RFC 9309 §2.5 minimum; matches the
//!   Google parser's cap).
//!
//! The parser **never fails**: every robots.txt body found in the wild —
//! including HTML error pages mistakenly served at `/robots.txt` — produces
//! a usable (possibly empty) document plus warnings.

use crate::lexer::{lex, Line};
use crate::model::{Group, ParseWarning, RobotsTxt, Rule, RuleVerb};

/// Maximum number of bytes parsed, per RFC 9309 §2.5 / Google parser cap.
pub const MAX_SIZE_BYTES: usize = 500 * 1024;

impl RobotsTxt {
    /// Parse a robots.txt body. Never fails; see module docs.
    pub fn parse(input: &str) -> RobotsTxt {
        parse(input)
    }

    /// Parse a robots.txt body given as raw bytes, as files and HTTP
    /// bodies arrive. Valid UTF-8 parses exactly like
    /// [`RobotsTxt::parse`]. Otherwise every octet outside a valid UTF-8
    /// sequence (a Latin-1 `é`, say) is percent-encoded as uppercase
    /// `%XX`, as RFC 9309 §2.2.2 asks for non-ASCII octets and as the
    /// pattern normalizer already spells raw octets, and the document
    /// leads with a [`ParseWarning::InvalidUtf8`]. Never fails.
    pub fn parse_bytes(input: &[u8]) -> RobotsTxt {
        if let Ok(text) = std::str::from_utf8(input) {
            return parse(text);
        }
        const HEX: &[u8; 16] = b"0123456789ABCDEF";
        let mut text = String::with_capacity(input.len() + 16);
        let (mut line, mut octets) = (0, 0);
        for chunk in input.utf8_chunks() {
            text.push_str(chunk.valid());
            if octets == 0 && !chunk.invalid().is_empty() {
                line = 1 + text.bytes().filter(|&b| b == b'\n').count();
            }
            for &b in chunk.invalid() {
                text.push('%');
                text.push(char::from(HEX[usize::from(b >> 4)]));
                text.push(char::from(HEX[usize::from(b & 0xF)]));
            }
            octets += chunk.invalid().len();
        }
        let mut doc = parse(&text);
        doc.warnings.insert(0, ParseWarning::InvalidUtf8 { line, octets });
        doc
    }
}

/// Parse a robots.txt body into a document. See [`RobotsTxt::parse`].
pub fn parse(input: &str) -> RobotsTxt {
    let mut warnings = Vec::new();
    let input = if input.len() > MAX_SIZE_BYTES {
        warnings.push(ParseWarning::Truncated { input_bytes: input.len() });
        // Cut at a char boundary at or below the cap.
        let mut end = MAX_SIZE_BYTES;
        while !input.is_char_boundary(end) {
            end -= 1;
        }
        &input[..end]
    } else {
        input
    };

    let mut groups: Vec<Group> = Vec::new();
    let mut sitemaps: Vec<String> = Vec::new();

    // State machine over line kinds.
    #[derive(PartialEq)]
    enum State {
        /// Before any user-agent line.
        Preamble,
        /// Collecting consecutive user-agent lines for a new group.
        CollectingAgents,
        /// Inside a group's rule list.
        InRules,
    }
    let mut state = State::Preamble;

    for spanned in lex(input) {
        match spanned.line {
            Line::UserAgent(token) => {
                let token = normalize_agent(&token);
                match state {
                    State::CollectingAgents => {
                        groups
                            .last_mut()
                            .expect("collecting implies a group exists")
                            .user_agents
                            .push(token);
                    }
                    _ => {
                        groups.push(Group { user_agents: vec![token], ..Group::default() });
                        state = State::CollectingAgents;
                    }
                }
            }
            Line::Allow(value) | Line::Disallow(value) if state == State::Preamble => {
                let _ = value;
                warnings.push(ParseWarning::RuleOutsideGroup { line: spanned.line_no });
            }
            Line::Allow(value) => {
                groups.last_mut().expect("in group").rules.push(Rule::new(RuleVerb::Allow, &value));
                state = State::InRules;
            }
            Line::Disallow(value) => {
                groups
                    .last_mut()
                    .expect("in group")
                    .rules
                    .push(Rule::new(RuleVerb::Disallow, &value));
                state = State::InRules;
            }
            Line::CrawlDelay(value) => {
                if state == State::Preamble {
                    warnings.push(ParseWarning::RuleOutsideGroup { line: spanned.line_no });
                    continue;
                }
                match value.parse::<f64>() {
                    Ok(secs) if secs >= 0.0 && secs.is_finite() => {
                        groups.last_mut().expect("in group").crawl_delay = Some(secs);
                    }
                    _ => {
                        warnings.push(ParseWarning::BadCrawlDelay { line: spanned.line_no, value });
                    }
                }
                state = State::InRules;
            }
            Line::Sitemap(url) => {
                if !url.is_empty() {
                    sitemaps.push(url);
                }
                // Sitemap is global; it does not change group state.
            }
            Line::Unknown { key, .. } => {
                warnings.push(ParseWarning::UnknownDirective { line: spanned.line_no, key });
                // Unknown directives close an agent-collection run (they
                // count as "rules" for grouping purposes per RFC 9309's
                // "other records" note).
                if state == State::CollectingAgents {
                    state = State::InRules;
                }
            }
            Line::Malformed(text) => {
                warnings.push(ParseWarning::MalformedLine { line: spanned.line_no, text });
            }
        }
    }

    RobotsTxt { groups, sitemaps, warnings }
}

/// Normalize a `User-agent:` value to a lowercase product token: the value
/// is cut at the first character that cannot appear in a product token
/// (anything other than `a-z A-Z 0-9 _ -`), except for the literal `*`.
///
/// This mirrors the reference parser: `User-agent: Googlebot/2.1 (+http://…)`
/// names the token `googlebot`.
pub fn normalize_agent(value: &str) -> String {
    let value = value.trim();
    if value.starts_with('*') {
        return "*".to_string();
    }
    let end = value
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
        .unwrap_or(value.len());
    value[..end].to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_group() {
        let r = parse("User-agent: *\nDisallow: /private/\nAllow: /private/ok\n");
        assert_eq!(r.groups.len(), 1);
        assert!(r.groups[0].is_wildcard());
        assert_eq!(r.groups[0].rules.len(), 2);
        assert!(r.warnings.is_empty());
    }

    #[test]
    fn consecutive_agents_share_group() {
        let r = parse("User-agent: a\nUser-agent: b\nDisallow: /\n");
        assert_eq!(r.groups.len(), 1);
        assert_eq!(r.groups[0].user_agents, vec!["a", "b"]);
    }

    #[test]
    fn agent_after_rule_starts_new_group() {
        let r = parse("User-agent: a\nDisallow: /x\nUser-agent: b\nDisallow: /y\n");
        assert_eq!(r.groups.len(), 2);
        assert_eq!(r.groups[0].user_agents, vec!["a"]);
        assert_eq!(r.groups[1].user_agents, vec!["b"]);
    }

    #[test]
    fn rules_before_any_group_warned_and_ignored() {
        let r = parse("Disallow: /x\nUser-agent: a\nDisallow: /y\n");
        assert_eq!(r.groups.len(), 1);
        assert_eq!(r.groups[0].rules.len(), 1);
        assert!(matches!(r.warnings[0], ParseWarning::RuleOutsideGroup { line: 1 }));
    }

    #[test]
    fn crawl_delay_parsing() {
        let r = parse("User-agent: *\nCrawl-delay: 30\n");
        assert_eq!(r.groups[0].crawl_delay, Some(30.0));
        let r = parse("User-agent: *\nCrawl-delay: 2.5\n");
        assert_eq!(r.groups[0].crawl_delay, Some(2.5));
    }

    #[test]
    fn bad_crawl_delay_warned() {
        let r = parse("User-agent: *\nCrawl-delay: soon\n");
        assert_eq!(r.groups[0].crawl_delay, None);
        assert!(
            matches!(&r.warnings[0], ParseWarning::BadCrawlDelay { value, .. } if value == "soon")
        );
        let r = parse("User-agent: *\nCrawl-delay: -5\n");
        assert_eq!(r.groups[0].crawl_delay, None);
    }

    #[test]
    fn sitemap_global_and_does_not_break_group() {
        let r = parse(
            "User-agent: a\nUser-agent: b\nSitemap: https://x/s.xml\nDisallow: /\nSitemap: https://x/t.xml\n",
        );
        assert_eq!(r.groups.len(), 1);
        assert_eq!(r.groups[0].user_agents, vec!["a", "b"]);
        assert_eq!(r.sitemaps, vec!["https://x/s.xml", "https://x/t.xml"]);
    }

    #[test]
    fn unknown_directive_closes_agent_run() {
        // `Host:` between user-agent lines separates the groups.
        let r = parse("User-agent: a\nHost: x\nUser-agent: b\nDisallow: /\n");
        assert_eq!(r.groups.len(), 2);
        assert!(r
            .warnings
            .iter()
            .any(|w| matches!(w, ParseWarning::UnknownDirective { key, .. } if key == "host")));
    }

    #[test]
    fn agent_token_normalization() {
        assert_eq!(normalize_agent("Googlebot/2.1 (+http://google.com/bot.html)"), "googlebot");
        assert_eq!(normalize_agent("GPTBot"), "gptbot");
        assert_eq!(normalize_agent("  Meta-ExternalAgent  "), "meta-externalagent");
        assert_eq!(normalize_agent("*"), "*");
        assert_eq!(normalize_agent("* wide"), "*");
        assert_eq!(normalize_agent("yandex.com/bots"), "yandex");
    }

    #[test]
    fn html_error_page_yields_empty_doc() {
        let r = parse("<!DOCTYPE html>\n<html><body>404</body></html>\n");
        assert!(r.groups.is_empty());
        assert!(!r.warnings.is_empty());
    }

    #[test]
    fn paper_figure1_file() {
        let r = parse(
            "User-agent: Googlebot\nAllow: /\nCrawl-delay: 15\n\nUser-agent: *\nAllow: /allowed-data/\nDisallow: /restricted-data/\nCrawl-delay: 30\n\nSitemap: https://X.X.X/sitemap/sitemap-0.xml\n",
        );
        assert_eq!(r.groups.len(), 2);
        assert_eq!(r.groups[0].user_agents, vec!["googlebot"]);
        assert_eq!(r.groups[0].crawl_delay, Some(15.0));
        assert_eq!(r.groups[1].crawl_delay, Some(30.0));
        assert_eq!(r.sitemaps.len(), 1);
        assert!(r.warnings.is_empty());
    }

    #[test]
    fn truncation_at_cap() {
        let mut big = String::from("User-agent: *\n");
        while big.len() <= MAX_SIZE_BYTES {
            big.push_str("Disallow: /padding/padding/padding\n");
        }
        big.push_str("Disallow: /after-the-cap\n");
        let r = parse(&big);
        assert!(matches!(r.warnings[0], ParseWarning::Truncated { .. }));
        assert!(!r.groups[0].rules.iter().any(|ru| ru.pattern.as_str() == "/after-the-cap"));
    }

    #[test]
    fn empty_input() {
        let r = parse("");
        assert!(r.groups.is_empty());
        assert!(r.warnings.is_empty());
        assert_eq!(r, RobotsTxt::allow_all());
    }

    #[test]
    fn parse_bytes_matches_parse_on_utf8() {
        let text = "User-agent: *\nDisallow: /café/\nAllow: /ok\n";
        assert_eq!(RobotsTxt::parse_bytes(text.as_bytes()), parse(text));
    }

    #[test]
    fn parse_bytes_percent_encodes_invalid_octets() {
        // Latin-1 é (0xE9) on line 2, plus a truncated UTF-8 sequence
        // (the first two bytes of a three-byte char) at the very end.
        let r = RobotsTxt::parse_bytes(b"User-agent: *\nDisallow: /caf\xE9/\nAllow: /x\xE2\x82");
        assert_eq!(r.warnings[0], ParseWarning::InvalidUtf8 { line: 2, octets: 3 });
        assert_eq!(r.groups[0].rules[0].pattern.as_str(), "/caf%E9/");
        assert_eq!(r.groups[0].rules[1].pattern.as_str(), "/x%E2%82");
        let p = crate::CompiledPolicy::compile(&r);
        assert!(!p.check("bot", "/caf%E9/menu").allow);
        assert!(!p.check("bot", "/caf%e9/menu").allow, "percent case is normalized");
        assert!(p.check("bot", "/café/").allow, "é in UTF-8 is a different path");
    }

    #[test]
    fn empty_disallow_produces_unmatched_rule() {
        let r = parse("User-agent: *\nDisallow:\n");
        assert_eq!(r.groups[0].rules.len(), 1);
        assert!(r.groups[0].rules[0].pattern.is_empty());
    }
}
