//! The per-header standardizer the crate shipped before the token memo,
//! kept verbatim as a test oracle: pass 1 through the SipHash prefix
//! index, pass 2 over owned `UserAgent::parse` tokens, every token scored
//! afresh. A slow, obviously-correct reference for every (bot, kind,
//! score) verdict.

#![allow(dead_code)]

use botscope_useragent::distance::jaro_winkler;
use botscope_useragent::registry::{BotRegistry, BotSpec};
use botscope_useragent::standardize::{MatchKind, Standardized};

/// One `name/version` product token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Product {
    /// Product name (verbatim case).
    pub name: String,
    /// Version string, if a `/version` suffix was present.
    pub version: Option<String>,
}

/// A tokenized `User-Agent` header.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserAgent {
    /// Top-level products, in order.
    pub products: Vec<Product>,
    /// Comment fragments (the `;`-separated pieces inside parentheses),
    /// trimmed.
    pub comments: Vec<String>,
}

impl UserAgent {
    /// Tokenize a raw header value. Never fails; hostile input produces a
    /// (possibly empty) token list.
    pub fn parse(header: &str) -> UserAgent {
        let mut products = Vec::new();
        let mut comments = Vec::new();
        let mut rest = header.trim();

        while !rest.is_empty() {
            if let Some(stripped) = rest.strip_prefix('(') {
                // Comment: read to matching close paren (flat; UA comments
                // don't nest in practice, but tolerate missing close).
                let end = stripped.find(')').unwrap_or(stripped.len());
                for frag in stripped[..end].split(';') {
                    let frag = frag.trim();
                    if !frag.is_empty() {
                        comments.push(frag.to_string());
                    }
                }
                rest = stripped[end..].strip_prefix(')').unwrap_or(&stripped[end..]).trim_start();
            } else {
                let end = rest.find([' ', '\t', '(']).unwrap_or(rest.len());
                let token = &rest[..end];
                if !token.is_empty() {
                    let (name, version) = match token.split_once('/') {
                        Some((n, v)) => (n.to_string(), Some(v.to_string())),
                        None => (token.to_string(), None),
                    };
                    products.push(Product { name, version });
                }
                rest = rest[end..].trim_start();
            }
        }
        UserAgent { products, comments }
    }

    /// Every candidate identity token: product names plus the leading word
    /// of each comment fragment (e.g. `GPTBot/1.2` inside a comment).
    pub fn candidate_tokens(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in &self.products {
            out.push(p.name.clone());
        }
        for c in &self.comments {
            // "compatible" and URL fragments are noise.
            let word = c.split_whitespace().next().unwrap_or("");
            let word = word.split('/').next().unwrap_or("");
            if !word.is_empty()
                && !word.eq_ignore_ascii_case("compatible")
                && !word.starts_with('+')
                && !word.starts_with("http")
            {
                out.push(word.trim_end_matches(';').to_string());
            }
        }
        out
    }
}

/// Standardizer with a configurable fuzzy threshold.
#[derive(Debug)]
pub struct Standardizer {
    registry: BotRegistry,
    /// Minimum Jaro-Winkler similarity for a fuzzy match (default 0.93 —
    /// high enough that `bingbot` does not claim `dotbot`).
    pub fuzzy_threshold: f64,
    /// Canonical names pre-normalized once — with their character
    /// histograms — so the fuzzy pass can bound Jaro cheaply before
    /// running the quadratic comparison.
    normalized: Vec<(String, CharCounts, &'static BotSpec)>,
    /// Two-byte-prefix index over the registry's substring patterns.
    patterns: PatternIndex,
}

/// Histogram over the 36-symbol normalized alphabet (`[a-z0-9]`).
type CharCounts = [u8; 36];

/// One registry pattern in the [`PatternIndex`].
#[derive(Debug)]
struct IndexedPattern {
    pattern: &'static str,
    bot: &'static BotSpec,
    /// Position in the registry's bots × patterns iteration, for exact
    /// tie-breaking parity with [`BotRegistry::match_user_agent`].
    order: u32,
}

/// Substring-pattern index keyed on each pattern's first two bytes.
///
/// [`BotRegistry::match_user_agent`] scans every pattern with
/// `str::contains` — ~174 needle scans per header. The index instead
/// walks the lowercased header once: a 64 Ki-bit presence filter over
/// two-byte windows rejects almost every position, and the rare hits
/// verify only the handful of patterns sharing that prefix. Results are
/// identical (same longest-pattern, first-in-registry-order tie-break).
#[derive(Debug)]
struct PatternIndex {
    /// Presence bit per possible two-byte pattern prefix.
    bitmap: Vec<u64>,
    by_prefix: std::collections::HashMap<[u8; 2], Vec<IndexedPattern>>,
}

impl PatternIndex {
    fn build(registry: &BotRegistry) -> PatternIndex {
        let mut bitmap = vec![0u64; (1 << 16) / 64];
        let mut by_prefix: std::collections::HashMap<[u8; 2], Vec<IndexedPattern>> =
            std::collections::HashMap::new();
        let mut order = 0u32;
        for bot in registry.all() {
            for &pattern in bot.patterns {
                assert!(pattern.len() >= 2, "pattern {pattern:?} too short to index");
                let key = [pattern.as_bytes()[0], pattern.as_bytes()[1]];
                let bit = u16::from_be_bytes(key) as usize;
                bitmap[bit / 64] |= 1 << (bit % 64);
                by_prefix.entry(key).or_default().push(IndexedPattern { pattern, bot, order });
                order += 1;
            }
        }
        PatternIndex { bitmap, by_prefix }
    }

    /// Exact replica of [`BotRegistry::match_user_agent`]'s result: the
    /// longest matching pattern wins, ties go to the earliest registry
    /// entry.
    fn match_user_agent(&self, header: &str) -> Option<&'static BotSpec> {
        let lower = header.to_ascii_lowercase();
        let bytes = lower.as_bytes();
        // (pattern length, registry order, bot): max length, min order.
        let mut best: Option<(usize, u32, &'static BotSpec)> = None;
        for i in 0..bytes.len().saturating_sub(1) {
            let key = [bytes[i], bytes[i + 1]];
            let bit = u16::from_be_bytes(key) as usize;
            if self.bitmap[bit / 64] & (1 << (bit % 64)) == 0 {
                continue;
            }
            let Some(candidates) = self.by_prefix.get(&key) else { continue };
            for c in candidates {
                if bytes[i..].starts_with(c.pattern.as_bytes()) {
                    let better = match best {
                        None => true,
                        Some((len, order, _)) => {
                            c.pattern.len() > len || (c.pattern.len() == len && c.order < order)
                        }
                    };
                    if better {
                        best = Some((c.pattern.len(), c.order, c.bot));
                    }
                }
            }
        }
        best.map(|(_, _, bot)| bot)
    }
}

/// Count normalized characters (input is already `[a-z0-9]`-only).
fn char_counts(s: &str) -> CharCounts {
    let mut counts = [0u8; 36];
    for b in s.bytes() {
        let i = match b {
            b'a'..=b'z' => (b - b'a') as usize,
            b'0'..=b'9' => 26 + (b - b'0') as usize,
            _ => continue,
        };
        counts[i] = counts[i].saturating_add(1);
    }
    counts
}

/// Upper bound on the number of Jaro character matches: no matching can
/// pair more occurrences of a character than both strings contain.
fn common_chars_upper_bound(a: &CharCounts, b: &CharCounts) -> usize {
    a.iter().zip(b.iter()).map(|(&x, &y)| x.min(y) as usize).sum()
}

impl Standardizer {
    /// Standardizer over the built-in registry with the default threshold.
    pub fn new() -> Self {
        let registry = BotRegistry::builtin();
        let normalized = registry
            .all()
            .iter()
            .map(|b| {
                let norm = normalize_token(b.canonical);
                let counts = char_counts(&norm);
                (norm, counts, b)
            })
            .collect();
        let patterns = PatternIndex::build(&registry);
        Self { registry, fuzzy_threshold: 0.93, normalized, patterns }
    }

    /// Access the underlying registry.
    pub fn registry(&self) -> &BotRegistry {
        &self.registry
    }

    /// Standardize a raw header. Returns `None` for agents that match no
    /// known bot (ordinary browsers, anonymous scrapers).
    pub fn standardize(&self, header: &str) -> Option<Standardized> {
        // Pass 1: substring patterns (the paper's regex corpus
        // equivalent), via the prefix index — same result as
        // [`BotRegistry::match_user_agent`], one header scan.
        if let Some(bot) = self.patterns.match_user_agent(header) {
            return Some(Standardized { bot, kind: MatchKind::Exact, score: 1.0 });
        }

        // Pass 2: fuzzy matching over candidate tokens.
        let mut best: Option<(f64, &'static BotSpec)> = None;
        for token in UserAgent::parse(header).candidate_tokens() {
            let token_norm = normalize_token(&token);
            if let Some((score, bot)) = self.fuzzy_token(&token_norm) {
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, bot));
                }
            }
        }
        best.map(|(score, bot)| Standardized { bot, kind: MatchKind::Fuzzy, score })
    }

    /// Fuzzy-match one normalized candidate token against every
    /// canonical name. Jaro-Winkler is quadratic and allocates, so pairs
    /// that provably cannot clear the threshold are pruned first:
    /// jw = j + p·0.1·(1 − j) with prefix p ≤ 4 gives jw ≤ 0.4 + 0.6·j,
    /// so the Jaro part must reach j_min = (t − 0.4)/0.6; and with m
    /// character matches Jaro is at most (m/|a| + m/|b| + 1)/3, where m
    /// is bounded by the histogram overlap of the two strings.
    /// Normalized tokens are pure ASCII, so byte length == char count.
    fn fuzzy_token(&self, token_norm: &str) -> Option<(f64, &'static BotSpec)> {
        if token_norm.len() < 4 {
            return None; // too short to match confidently
        }
        let j_min = (self.fuzzy_threshold - 0.4) / 0.6;
        let token_counts = char_counts(token_norm);
        let mut best: Option<(f64, &'static BotSpec)> = None;
        for (canon_norm, canon_counts, bot) in &self.normalized {
            let m = common_chars_upper_bound(&token_counts, canon_counts) as f64;
            let j_bound = (m / token_norm.len() as f64 + m / canon_norm.len() as f64 + 1.0) / 3.0;
            if j_bound < j_min {
                continue;
            }
            let score = jaro_winkler(token_norm, canon_norm);
            if score >= self.fuzzy_threshold && best.is_none_or(|(s, _)| score > s) {
                best = Some((score, bot));
            }
        }
        best
    }
}

impl Default for Standardizer {
    fn default() -> Self {
        Self::new()
    }
}

/// Lowercase and strip separator characters so `Claude-Bot` and
/// `claudebot` compare equal.
fn normalize_token(s: &str) -> String {
    s.chars().filter(char::is_ascii_alphanumeric).map(|c| c.to_ascii_lowercase()).collect()
}
