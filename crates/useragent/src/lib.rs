//! # botscope-useragent
//!
//! User-agent intelligence for the botscope pipeline: parsing `User-Agent`
//! header strings, standardizing self-declared bot names, classifying
//! agents into the Dark-Visitors-style category taxonomy the IMC '25 study
//! uses, and a registry of known bots with the metadata the study's tables
//! report (sponsoring entity, category, public promise to respect
//! robots.txt).
//!
//! The study standardizes bot names "via fuzzy string matching with a
//! public dataset of common useragent strings" and then maps bots to the
//! category taxonomy of the Dark Visitors site (paper §3.1). This crate
//! reproduces both steps:
//!
//! * [`registry`](mod@registry) — a curated database of ~130 self-declared crawlers and
//!   scrapers. Entries for every bot named in the paper carry exactly the
//!   metadata of the paper's Tables 3/6/7/8; the remainder is assembled
//!   from public bot-tracking corpora and is representative rather than
//!   exhaustive.
//! * [`standardize`] — substring pattern matching plus Levenshtein /
//!   Jaro-Winkler fuzzy fallback, mirroring the paper's pipeline.
//!
//! ```
//! use botscope_useragent::{BotCategory, Standardizer};
//!
//! let mut standardizer = Standardizer::new();
//! let ua = "Mozilla/5.0 AppleWebKit/537.36 (compatible; GPTBot/1.2; +https://openai.com/gptbot)";
//! let bot = standardizer.standardize(ua).expect("a known bot").bot;
//! assert_eq!(bot.canonical, "GPTBot");
//! assert_eq!(bot.category, BotCategory::AiDataScraper);
//! // A near-miss spelling still standardizes through the fuzzy fallback.
//! assert_eq!(standardizer.standardize("semrush-bot").map(|s| s.bot.canonical), Some("SemrushBot"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod category;
pub mod data;
pub mod distance;
pub mod parse;
pub mod registry;
pub mod standardize;

pub use category::BotCategory;
pub use registry::{registry, BotRegistry, BotSpec, RobotsPromise};
pub use standardize::Standardizer;
