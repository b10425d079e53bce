//! String-distance metrics for fuzzy bot-name standardization.
//!
//! The study standardizes bot names "via fuzzy string matching with a
//! public dataset of common useragent strings" (paper §3.1). We implement
//! the two metrics conventionally used for that task: Levenshtein edit
//! distance (with a normalized similarity form) and Jaro-Winkler
//! similarity, which favours shared prefixes — appropriate for bot tokens
//! like `Googlebot-Image` vs `Googlebot`.

/// Levenshtein edit distance between two strings, computed over Unicode
/// scalar values with the classic two-row dynamic program.
///
/// ```
/// use botscope_useragent::distance::levenshtein;
/// assert_eq!(levenshtein("kitten", "sitting"), 3);
/// assert_eq!(levenshtein("", "abc"), 3);
/// assert_eq!(levenshtein("same", "same"), 0);
/// ```
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a: Vec<char> = Vec::new();

    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                matches_a.push(ca);
                break;
            }
        }
    }
    if matches_a.is_empty() {
        return 0.0;
    }
    let matches_b: Vec<char> =
        b.iter().zip(b_used.iter()).filter(|&(_, &u)| u).map(|(&c, _)| c).collect();
    let transpositions =
        matches_a.iter().zip(matches_b.iter()).filter(|(x, y)| x != y).count() as f64 / 2.0;
    let m = matches_a.len() as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by up to 4 characters of common
/// prefix with the standard scaling factor 0.1.
///
/// ```
/// use botscope_useragent::distance::jaro_winkler;
/// let jw = jaro_winkler("googlebot", "googlebot-image");
/// assert!(jw > 0.9);
/// assert!(jaro_winkler("bytespider", "bytespider") == 1.0);
/// assert!(jaro_winkler("axios", "scrapy") < 0.6);
/// ```
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    const PREFIX_SCALE: f64 = 0.1;
    const MAX_PREFIX: usize = 4;
    let j = jaro(a, b);
    let prefix = a.chars().zip(b.chars()).take(MAX_PREFIX).take_while(|(x, y)| x == y).count();
    j + prefix as f64 * PREFIX_SCALE * (1.0 - j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_classic_cases() {
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("gumbo", "gambol"), 2);
        assert_eq!(levenshtein("a", ""), 1);
        assert_eq!(levenshtein("", ""), 0);
    }

    #[test]
    fn levenshtein_symmetry() {
        assert_eq!(levenshtein("abcdef", "azced"), levenshtein("azced", "abcdef"));
    }

    #[test]
    fn levenshtein_unicode() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn jaro_known_values() {
        // Classic worked examples.
        assert!((jaro("MARTHA", "MARHTA") - 0.944444).abs() < 1e-5);
        assert!((jaro("DIXON", "DICKSONX") - 0.766667).abs() < 1e-5);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        assert!((jaro_winkler("MARTHA", "MARHTA") - 0.961111).abs() < 1e-5);
        assert!((jaro_winkler("DIXON", "DICKSONX") - 0.813333).abs() < 1e-5);
    }

    #[test]
    fn jaro_winkler_prefers_prefix_matches() {
        // Same Jaro-level difference, but shared prefix boosts the first.
        let with_prefix = jaro_winkler("semrushbot", "semrushbot-sa");
        let without = jaro_winkler("semrushbot", "sa-semrushbot");
        assert!(with_prefix > without);
    }

    #[test]
    fn bot_name_variants_score_high() {
        for (a, b) in [
            ("bingbot", "bingbot/2.0"),
            ("claudebot", "claude-bot"),
            ("yandexbot", "yandex-bot"),
            ("facebookexternalhit", "facebookexternalhit/1.1"),
        ] {
            assert!(jaro_winkler(a, b) > 0.85, "{a} vs {b}");
        }
    }
}
