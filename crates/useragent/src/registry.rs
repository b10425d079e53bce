//! The known-bot registry.
//!
//! Mirrors the study's combination of a public user-agent corpus (for
//! pattern matching) and the Dark Visitors metadata (category, operator,
//! public robots.txt promise — paper §3.1 and Table 6). The registry is
//! the ground truth the traffic simulator draws its fleet from, and the
//! lookup structure the analysis pipeline standardizes raw user agents
//! against.

use crate::category::BotCategory;
use crate::data;

/// A bot's publicly stated position on robots.txt compliance
/// (the "Promise to respect robots.txt" column of the paper's Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RobotsPromise {
    /// The operator publicly promises to respect robots.txt.
    Yes,
    /// The operator states (or it is documented) that it does not.
    No,
    /// No public statement either way.
    Unknown,
}

impl RobotsPromise {
    /// Table-ready label.
    pub fn label(self) -> &'static str {
        match self {
            RobotsPromise::Yes => "Yes",
            RobotsPromise::No => "No",
            RobotsPromise::Unknown => "Unknown",
        }
    }
}

/// Static description of one known bot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BotSpec {
    /// Canonical display name (as the paper's tables print it).
    pub canonical: &'static str,
    /// Lowercase substrings that identify this bot inside a raw
    /// `User-Agent` header. The first pattern is the most specific.
    pub patterns: &'static [&'static str],
    /// Dark-Visitors-style category.
    pub category: BotCategory,
    /// Sponsoring entity ("Open Source" for community HTTP libraries).
    pub sponsor: &'static str,
    /// Public promise to respect robots.txt.
    pub respects_robots: RobotsPromise,
    /// The autonomous system the bot's legitimate traffic overwhelmingly
    /// originates from (the "Main ASN" column of the paper's Table 8).
    pub home_asn: &'static str,
}

/// Lookup structure over the static bot database.
#[derive(Debug)]
pub struct BotRegistry {
    bots: &'static [BotSpec],
}

impl BotRegistry {
    /// Construct over the built-in database.
    pub fn builtin() -> Self {
        Self { bots: data::BOTS }
    }

    /// All specs.
    pub fn all(&self) -> &'static [BotSpec] {
        self.bots
    }

    /// Number of bots in the registry.
    pub fn len(&self) -> usize {
        self.bots.len()
    }

    /// Whether the registry is empty (never, for the builtin).
    pub fn is_empty(&self) -> bool {
        self.bots.is_empty()
    }

    /// Find by substring pattern match against a raw UA header
    /// (case-insensitive). The bot with the **longest** matching pattern
    /// wins, so `Googlebot-Image` beats `Googlebot` for an image-bot UA.
    pub fn match_user_agent(&self, header: &str) -> Option<&'static BotSpec> {
        let lower = header.to_ascii_lowercase();
        let mut best: Option<(&'static BotSpec, usize)> = None;
        for bot in self.bots {
            for pat in bot.patterns {
                if lower.contains(pat) && best.is_none_or(|(_, len)| pat.len() > len) {
                    best = Some((bot, pat.len()));
                }
            }
        }
        best.map(|(b, _)| b)
    }

    /// Find by canonical name (case-insensitive exact match).
    pub fn by_name(&self, name: &str) -> Option<&'static BotSpec> {
        self.bots.iter().find(|b| b.canonical.eq_ignore_ascii_case(name))
    }
}

/// The built-in registry (convenience constructor).
pub fn registry() -> BotRegistry {
    BotRegistry::builtin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn builtin_has_paper_scale() {
        // The study analyzed "130 self-declared bots"; our registry is of
        // the same order.
        let reg = registry();
        assert!(reg.len() >= 120, "registry has {} bots", reg.len());
        assert!(!reg.is_empty());
    }

    #[test]
    fn canonical_names_unique() {
        let reg = registry();
        let names: BTreeSet<&str> = reg.all().iter().map(|b| b.canonical).collect();
        assert_eq!(names.len(), reg.len());
    }

    #[test]
    fn patterns_are_lowercase_and_nonempty() {
        for bot in registry().all() {
            assert!(!bot.patterns.is_empty(), "{} has no patterns", bot.canonical);
            for p in bot.patterns {
                assert!(!p.is_empty());
                assert_eq!(
                    *p,
                    p.to_ascii_lowercase(),
                    "{} pattern {p} not lowercase",
                    bot.canonical
                );
            }
        }
    }

    #[test]
    fn longest_pattern_wins() {
        let reg = registry();
        let image = reg.match_user_agent("Googlebot-Image/1.0").expect("image bot matched");
        assert_eq!(image.canonical, "Googlebot-Image");
        let plain = reg
            .match_user_agent("Mozilla/5.0 (compatible; Googlebot/2.1)")
            .expect("plain googlebot matched");
        assert_eq!(plain.canonical, "Googlebot");
    }

    #[test]
    fn paper_table6_bots_present_with_metadata() {
        let reg = registry();
        // Spot-check rows of the paper's Table 6.
        let cases: &[(&str, BotCategory, RobotsPromise, &str)] = &[
            ("GPTBot", BotCategory::AiDataScraper, RobotsPromise::Yes, "OpenAI"),
            ("ClaudeBot", BotCategory::AiDataScraper, RobotsPromise::Yes, "Anthropic"),
            ("Bytespider", BotCategory::AiDataScraper, RobotsPromise::No, "ByteDance"),
            ("PerplexityBot", BotCategory::AiSearchCrawler, RobotsPromise::No, "Perplexity"),
            ("ChatGPT-User", BotCategory::AiAssistant, RobotsPromise::Yes, "OpenAI"),
            ("Amazonbot", BotCategory::AiSearchCrawler, RobotsPromise::Yes, "Amazon"),
            ("AhrefsBot", BotCategory::SeoCrawler, RobotsPromise::Yes, "Ahrefs"),
            ("SemrushBot", BotCategory::SeoCrawler, RobotsPromise::Yes, "Semrush"),
            ("Applebot", BotCategory::AiSearchCrawler, RobotsPromise::Yes, "Apple"),
            ("PetalBot", BotCategory::SearchEngineCrawler, RobotsPromise::Yes, "Huawei"),
            ("Axios", BotCategory::Other, RobotsPromise::No, "Open Source"),
            ("SeznamBot", BotCategory::SearchEngineCrawler, RobotsPromise::Yes, "Seznam.cz"),
        ];
        for &(name, cat, promise, sponsor) in cases {
            let bot = reg.by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(bot.category, cat, "{name} category");
            assert_eq!(bot.respects_robots, promise, "{name} promise");
            assert_eq!(bot.sponsor, sponsor, "{name} sponsor");
        }
    }

    #[test]
    fn table8_home_asns() {
        let reg = registry();
        for (name, asn) in [
            ("Googlebot", "GOOGLE"),
            ("ClaudeBot", "AMAZON-02"),
            ("GPTBot", "MICROSOFT-CORP-MSN-AS-BLOCK"),
            ("Amazonbot", "AMAZON-AES"),
            ("AhrefsBot", "OVH"),
            ("Baiduspider", "CHINA169-Backbone"),
            ("facebookexternalhit", "FACEBOOK"),
            ("Twitterbot", "TWITTER"),
        ] {
            assert_eq!(reg.by_name(name).unwrap().home_asn, asn, "{name}");
        }
    }

    #[test]
    fn category_query() {
        let reg = registry();
        let seo = reg.all().iter().filter(|b| b.category == BotCategory::SeoCrawler).count();
        assert!(seo >= 8);
    }

    #[test]
    fn unknown_ua_matches_nothing() {
        let reg = registry();
        assert!(reg
            .match_user_agent("Mozilla/5.0 (Windows NT 10.0) Chrome/120 Safari/537")
            .is_none());
        assert!(reg.by_name("no-such-bot").is_none());
    }

    #[test]
    fn promise_labels() {
        assert_eq!(RobotsPromise::Yes.label(), "Yes");
        assert_eq!(RobotsPromise::No.label(), "No");
        assert_eq!(RobotsPromise::Unknown.label(), "Unknown");
    }
}
