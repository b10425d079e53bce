//! The bot-category taxonomy.
//!
//! The study adopts the categories maintained by the Dark Visitors
//! industry tracker (paper §3.1): "AI Agents, AI Assistants, AI Data
//! Scrapers, Archivers, Developer Helpers, Fetchers, Headless Agents,
//! Intelligence Gatherers, Scrapers, Search Engine Crawlers, SEO Crawlers,
//! Uncategorized, and Undocumented AI Agents", plus the AI Search Crawler
//! category used throughout the evaluation and the "Other" catch-all of
//! Table 5.

use std::fmt;

/// Dark-Visitors-style bot categories (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BotCategory {
    /// Bots from AI companies operating as part of an agent pipeline.
    AiAgent,
    /// Bots retrieving content to supplement AI queries (e.g. ChatGPT-User).
    AiAssistant,
    /// Bots scraping AI training data (e.g. GPTBot, ClaudeBot, Bytespider).
    AiDataScraper,
    /// Crawlers feeding AI-powered search (e.g. Applebot, PerplexityBot,
    /// Amazonbot).
    AiSearchCrawler,
    /// Web-archiving crawlers (e.g. ia_archiver).
    Archiver,
    /// Site-health / developer tooling (validators, uptime monitors).
    DeveloperHelper,
    /// Link-preview and embed fetchers (e.g. facebookexternalhit).
    Fetcher,
    /// Browsers running without a GUI — typically unidentified scrapers.
    HeadlessBrowser,
    /// Data collection for non-SEO, non-AI purposes (paper §3.1).
    IntelligenceGatherer,
    /// Self-declared scraping frameworks (e.g. Scrapy).
    Scraper,
    /// Traditional search-engine indexing crawlers (e.g. Googlebot).
    SearchEngineCrawler,
    /// Search-engine-optimization auditing crawlers (e.g. SemrushBot).
    SeoCrawler,
    /// AI agents observed in the wild but not documented by their vendor.
    UndocumentedAiAgent,
    /// Known bots that fit none of the above (the paper's "Other" row:
    /// HTTP libraries with declared names, preview proxies, etc.).
    Other,
    /// Could not be categorized at all.
    Uncategorized,
}

impl BotCategory {
    /// All categories, in the display order used by the paper's Table 5
    /// followed by the remaining ones.
    pub const ALL: [BotCategory; 15] = [
        BotCategory::AiAssistant,
        BotCategory::AiDataScraper,
        BotCategory::AiSearchCrawler,
        BotCategory::Fetcher,
        BotCategory::HeadlessBrowser,
        BotCategory::IntelligenceGatherer,
        BotCategory::Other,
        BotCategory::SeoCrawler,
        BotCategory::SearchEngineCrawler,
        BotCategory::AiAgent,
        BotCategory::Archiver,
        BotCategory::DeveloperHelper,
        BotCategory::Scraper,
        BotCategory::UndocumentedAiAgent,
        BotCategory::Uncategorized,
    ];

    /// Human-readable name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            BotCategory::AiAgent => "AI Agents",
            BotCategory::AiAssistant => "AI Assistants",
            BotCategory::AiDataScraper => "AI Data Scrapers",
            BotCategory::AiSearchCrawler => "AI Search Crawlers",
            BotCategory::Archiver => "Archivers",
            BotCategory::DeveloperHelper => "Developer Helpers",
            BotCategory::Fetcher => "Fetchers",
            BotCategory::HeadlessBrowser => "Headless Browsers",
            BotCategory::IntelligenceGatherer => "Intelligence Gatherers",
            BotCategory::Scraper => "Scrapers",
            BotCategory::SearchEngineCrawler => "Search Engine Crawlers",
            BotCategory::SeoCrawler => "SEO Crawlers",
            BotCategory::UndocumentedAiAgent => "Undocumented AI Agents",
            BotCategory::Other => "Other",
            BotCategory::Uncategorized => "Uncategorized",
        }
    }
}

impl fmt::Display for BotCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique() {
        let names: BTreeSet<&str> = BotCategory::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), BotCategory::ALL.len());
    }

    #[test]
    fn display_matches_paper_table5_labels() {
        assert_eq!(BotCategory::AiAssistant.to_string(), "AI Assistants");
        assert_eq!(BotCategory::SeoCrawler.to_string(), "SEO Crawlers");
        assert_eq!(BotCategory::HeadlessBrowser.to_string(), "Headless Browsers");
        assert_eq!(BotCategory::Other.to_string(), "Other");
    }
}
