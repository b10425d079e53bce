//! Coarse agent classification.
//!
//! The study's dataset splits traffic into "known bots" (self-declared,
//! well-documented user agents) versus everything else — browsers, generic
//! HTTP libraries, and headless browsers presumed to be unidentified
//! scrapers (paper §3.2, Figure 2's "Headless Browsers" category).
//! [`classify`] reproduces that split.

use crate::registry::{BotRegistry, BotSpec};

/// The coarse class of a web agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentClass {
    /// A self-declared, documented bot.
    KnownBot(&'static BotSpec),
    /// A browser running without a GUI — presumed scraper (the paper's
    /// "Headless Browsers" category is "mostly composed of likely scraper
    /// bots that do not identify themselves").
    HeadlessBrowser(&'static BotSpec),
    /// An ordinary interactive browser.
    Browser,
    /// Anything else: empty or unrecognizable user agents.
    Unknown,
}

/// Tokens that indicate an interactive browser when no bot pattern matched.
const BROWSER_MARKERS: [&str; 6] = ["mozilla/", "chrome/", "safari/", "firefox/", "edg/", "opera/"];

/// Classify a raw `User-Agent` header against the registry.
///
/// Order matters: headless markers are checked *before* the generic
/// browser markers because a headless Chrome UA contains both.
pub fn classify(registry: &BotRegistry, header: &str) -> AgentClass {
    let lower = header.to_ascii_lowercase();
    if lower.trim().is_empty() {
        return AgentClass::Unknown;
    }
    if let Some(bot) = registry.match_user_agent(header) {
        if bot.category == crate::category::BotCategory::HeadlessBrowser {
            return AgentClass::HeadlessBrowser(bot);
        }
        return AgentClass::KnownBot(bot);
    }
    if BROWSER_MARKERS.iter().any(|m| lower.contains(m)) {
        return AgentClass::Browser;
    }
    AgentClass::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;

    #[test]
    fn known_bots() {
        let reg = registry();
        let c = classify(&reg, "Mozilla/5.0 (compatible; GPTBot/1.1; +https://openai.com/gptbot)");
        match c {
            AgentClass::KnownBot(b) => assert_eq!(b.canonical, "GPTBot"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn headless_chrome_is_headless_not_browser() {
        let reg = registry();
        let c = classify(
            &reg,
            "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) HeadlessChrome/119.0.0.0 Safari/537.36",
        );
        match c {
            AgentClass::HeadlessBrowser(b) => assert_eq!(b.canonical, "HeadlessChrome"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ordinary_browser() {
        let reg = registry();
        let c = classify(
            &reg,
            "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/17.1 Safari/605.1.15",
        );
        assert_eq!(c, AgentClass::Browser);
    }

    #[test]
    fn empty_is_unknown() {
        let reg = registry();
        assert_eq!(classify(&reg, ""), AgentClass::Unknown);
        assert_eq!(classify(&reg, "   "), AgentClass::Unknown);
        assert_eq!(classify(&reg, "x"), AgentClass::Unknown);
    }

    #[test]
    fn http_libraries_are_known_bots_in_other_category() {
        let reg = registry();
        match classify(&reg, "python-requests/2.31.0") {
            AgentClass::KnownBot(b) => {
                assert_eq!(b.canonical, "Python-requests");
                assert_eq!(b.category, crate::category::BotCategory::Other);
            }
            other => panic!("{other:?}"),
        }
    }
}
