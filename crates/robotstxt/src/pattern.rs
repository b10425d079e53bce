//! Path patterns: the value of an `Allow`/`Disallow` line.
//!
//! RFC 9309 §2.2.3 defines two special characters inside rule values:
//!
//! * `*` — matches any sequence of characters (including none),
//! * `$` — when it is the final character, anchors the match to the end of
//!   the path (otherwise it is literal).
//!
//! A rule value without a trailing `$` matches any path it is a *prefix
//! pattern* of; equivalently, an implicit `*` is appended.
//!
//! Rule precedence is by **specificity**: "the match that has the most
//! octets" wins. Like Google's reference implementation we measure
//! specificity as the byte length of the (normalized) pattern text, which
//! reproduces the RFC's intent for all practical files.
//!
//! Both patterns and paths are percent-normalized before comparison:
//! `%XX` triplets are decoded, *except* `%2F` (the path separator `/`),
//! which RFC 9309 requires to stay encoded so that `/a%2Fb` and `/a/b`
//! remain distinct, and `%25` (a literal `%`), so that `/a%2541` does
//! not turn into the triplet `%41`. A `%` that starts no triplet is the
//! same literal `%` and is written `%25`.

use std::borrow::Cow;
use std::fmt;

/// A compiled `Allow`/`Disallow` rule value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathPattern {
    /// The normalized pattern text (percent-normalized, `$` retained).
    raw: String,
    /// Pattern split on `*` into literal segments. An empty trailing
    /// segment means the pattern ended with `*`.
    segments: Vec<String>,
    /// Whether the pattern is anchored at the end with `$`.
    anchored: bool,
}

impl PathPattern {
    /// Compile a rule value.
    ///
    /// The empty pattern is valid and matches nothing — RFC 9309 gives
    /// `Disallow:` (empty value) the meaning "no restriction".
    pub fn new(value: &str) -> Self {
        let normalized = normalize_percent(value.trim());
        let (body, anchored) = match normalized.strip_suffix('$') {
            Some(body) => (body.to_string(), true),
            None => (normalized.clone(), false),
        };
        let segments = body.split('*').map(str::to_string).collect();
        Self { raw: normalized, segments, anchored }
    }

    /// The normalized pattern text.
    pub fn as_str(&self) -> &str {
        &self.raw
    }

    /// Whether this pattern can never match anything (the empty pattern).
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Pattern specificity: the number of octets in the normalized pattern.
    /// Higher wins (RFC 9309 §2.2.2 "most octets").
    pub fn specificity(&self) -> usize {
        self.raw.len()
    }

    /// Whether the pattern is anchored at the end with `$`.
    pub fn is_anchored(&self) -> bool {
        self.anchored
    }

    /// The pattern body split on `*` into literal segments (the trailing
    /// `$` anchor removed). An empty trailing segment means the body ended
    /// with `*`.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// Whether the pattern matches `path`.
    ///
    /// `path` is percent-normalized with the same rules as the pattern. A
    /// non-anchored pattern matches prefixes; an anchored pattern must
    /// consume the entire path.
    ///
    /// ```
    /// use botscope_robotstxt::pattern::PathPattern;
    /// assert!(PathPattern::new("/secure/*").matches("/secure/x/y"));
    /// assert!(PathPattern::new("/page-data/").matches("/page-data/app.json"));
    /// assert!(!PathPattern::new("/page-data/").matches("/other"));
    /// assert!(PathPattern::new("/*.pdf$").matches("/docs/a.pdf"));
    /// assert!(!PathPattern::new("/*.pdf$").matches("/docs/a.pdf.html"));
    /// assert!(!PathPattern::new("").matches("/anything"));
    /// ```
    pub fn matches(&self, path: &str) -> bool {
        self.matches_normalized(&normalize_path(path))
    }

    /// Whether the pattern matches a path that has **already** been
    /// percent-normalized (via [`normalize_path`] or [`normalize_percent`]).
    ///
    /// This is the hot-path entry: callers that evaluate many rules against
    /// one path should normalize the path once and use this for every rule.
    pub fn matches_normalized(&self, path: &str) -> bool {
        if self.raw.is_empty() {
            return false;
        }
        let bytes = path.as_bytes();

        // Greedy wildcard matching over the `*`-split literal segments:
        // the first segment must match at the start; each subsequent
        // segment may float. If anchored, the final segment must end
        // exactly at the path end; otherwise prefix semantics apply
        // (an implicit trailing `*`).
        let mut pos = 0usize;
        for (i, seg) in self.segments.iter().enumerate() {
            let seg_bytes = seg.as_bytes();
            let is_first = i == 0;
            let is_last = i == self.segments.len() - 1;
            if is_first {
                if bytes.len() < seg_bytes.len() || &bytes[..seg_bytes.len()] != seg_bytes {
                    return false;
                }
                pos = seg_bytes.len();
            } else if is_last && self.anchored {
                // Must match at the very end, at or after `pos`.
                if bytes.len() < pos + seg_bytes.len() {
                    return false;
                }
                let start = bytes.len() - seg_bytes.len();
                if start < pos || &bytes[start..] != seg_bytes {
                    return false;
                }
                pos = bytes.len();
            } else {
                // Find the segment anywhere at or after `pos`.
                match find_from(bytes, seg_bytes, pos) {
                    Some(found) => pos = found + seg_bytes.len(),
                    None => return false,
                }
            }
        }
        if self.anchored
            && self.segments.len() > 1
            && self.segments.last().is_some_and(std::string::String::is_empty)
        {
            // Pattern ended `*$` — the `*` eats the rest; always fine.
            return true;
        }
        if self.anchored {
            pos == bytes.len()
        } else {
            true
        }
    }
}

impl fmt::Display for PathPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

/// Percent-normalize a request path, borrowing when normalization is the
/// identity (no `%` and pure ASCII — the overwhelmingly common case for
/// crawler request paths).
pub fn normalize_path(path: &str) -> Cow<'_, str> {
    if path.bytes().all(|b| b != b'%' && b < 0x80) {
        Cow::Borrowed(path)
    } else {
        Cow::Owned(normalize_percent(path))
    }
}

/// Substring search starting at `from`.
fn find_from(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() {
        return Some(from.min(haystack.len()));
    }
    if from >= haystack.len() || haystack.len() - from < needle.len() {
        return None;
    }
    haystack[from..].windows(needle.len()).position(|w| w == needle).map(|p| p + from)
}

/// Percent-normalization shared by patterns and paths.
///
/// Decodes `%XX` triplets (case-insensitive hex) to printable ASCII,
/// except `%2F`, which encodes the path separator and must stay distinct
/// from a literal `/` (RFC 9309 §2.2.2), and `%25`, which encodes a
/// literal `%`. A `%` that starts no triplet is that same literal `%` and
/// is written `%25`, so `/50%off` and `/50%25off` are one path and a
/// literal `%` never merges with the hex after it. Triplets kept encoded
/// and decoded bytes that are not printable ASCII come out as uppercase
/// `%XX`, so the output is always valid UTF-8, comparisons stay
/// byte-wise, and normalizing the output again changes nothing.
pub fn normalize_percent(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let decoded = match bytes.get(i + 1..i + 3) {
                Some(&[h1, h2]) => hex_val(h1).zip(hex_val(h2)).map(|(a, b)| a * 16 + b),
                _ => None,
            };
            match decoded {
                Some(d) if (0x21..=0x7E).contains(&d) && d != b'/' && d != b'%' => {
                    out.push(d as char);
                    i += 3;
                }
                Some(d) => {
                    push_triplet(&mut out, d);
                    i += 3;
                }
                None => {
                    out.push_str("%25");
                    i += 1;
                }
            }
            continue;
        }
        // RFC 9309 §2.2.2 compares percent-encoded octets: canonicalize
        // raw non-ASCII bytes (each byte of a multi-byte UTF-8 character)
        // to uppercase triplets, so `/é` and `/%C3%A9` are the same
        // pattern and match the same paths.
        if bytes[i] >= 0x80 {
            push_triplet(&mut out, bytes[i]);
        } else {
            out.push(bytes[i] as char);
        }
        i += 1;
    }
    out
}

/// Append `byte` as an uppercase `%XX` triplet.
fn push_triplet(out: &mut String, byte: u8) {
    out.push('%');
    out.push(to_hex(byte >> 4));
    out.push(to_hex(byte & 0xF));
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

fn to_hex(v: u8) -> char {
    char::from_digit(v as u32, 16).expect("nibble").to_ascii_uppercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pattern: &str, path: &str) -> bool {
        PathPattern::new(pattern).matches(path)
    }

    #[test]
    fn prefix_semantics() {
        assert!(m("/", "/"));
        assert!(m("/", "/anything/at/all"));
        assert!(m("/fish", "/fish"));
        assert!(m("/fish", "/fish.html"));
        assert!(m("/fish", "/fishheads/yummy.html"));
        assert!(!m("/fish", "/Fish.asp")); // case-sensitive
        assert!(!m("/fish", "/catfish"));
    }

    #[test]
    fn directory_pattern() {
        assert!(m("/fish/", "/fish/"));
        assert!(m("/fish/", "/fish/salmon.htm"));
        assert!(!m("/fish/", "/fish"));
        assert!(!m("/fish/", "/fish.html"));
    }

    #[test]
    fn star_wildcard() {
        assert!(m("/fish*", "/fish"));
        assert!(m("/fish*", "/fishheads"));
        assert!(m("/*.php", "/index.php"));
        assert!(m("/*.php", "/folder/filename.php"));
        assert!(m("/*.php", "/folder/filename.php?parameters"));
        assert!(m("/*.php", "/folder/any.php.file.html"));
        assert!(!m("/*.php", "/"));
        assert!(!m("/*.php", "/windows.PHP"));
    }

    #[test]
    fn dollar_anchor() {
        assert!(m("/*.php$", "/filename.php"));
        assert!(m("/*.php$", "/folder/filename.php"));
        assert!(!m("/*.php$", "/filename.php?parameters"));
        assert!(!m("/*.php$", "/filename.php/"));
        assert!(!m("/*.php$", "/filename.php5"));
        assert!(m("/fish$", "/fish"));
        assert!(!m("/fish$", "/fish.html"));
    }

    #[test]
    fn dollar_not_at_end_is_literal() {
        assert!(m("/a$b", "/a$b/c"));
        assert!(!m("/a$b", "/ab"));
    }

    #[test]
    fn star_dollar_combo() {
        // `/x*$` is equivalent to `/x` prefix matching everything after.
        assert!(m("/x*$", "/x"));
        assert!(m("/x*$", "/xyz"));
        assert!(!m("/x*$", "/y"));
    }

    #[test]
    fn multiple_stars() {
        assert!(m("/a*b*c", "/a-b-c"));
        assert!(m("/a*b*c", "/axxbxxc-and-more"));
        assert!(!m("/a*b*c", "/a-c-b"));
        assert!(m("/*/*/deep", "/1/2/deep"));
        assert!(!m("/*/*/deep", "/1/deep"));
    }

    #[test]
    fn empty_pattern_matches_nothing() {
        let p = PathPattern::new("");
        assert!(p.is_empty());
        assert!(!p.matches("/"));
        assert!(!p.matches(""));
    }

    #[test]
    fn leading_star() {
        assert!(m("*/secure/", "/app/secure/x"));
        assert!(m("*/secure/", "/secure/x"));
    }

    #[test]
    fn specificity_is_byte_length() {
        assert_eq!(PathPattern::new("/page-data/*").specificity(), 12);
        assert_eq!(PathPattern::new("/").specificity(), 1);
        assert!(PathPattern::new("/fish/").specificity() > PathPattern::new("/fish").specificity());
    }

    #[test]
    fn percent_normalization_decodes_printables() {
        assert_eq!(normalize_percent("/a%7Eb"), "/a~b");
        assert_eq!(normalize_percent("/a~b"), "/a~b");
        assert!(m("/a%7Eb", "/a~b"));
        assert!(m("/a~b", "/a%7Eb"));
    }

    #[test]
    fn percent_2f_stays_encoded() {
        assert_eq!(normalize_percent("/a%2Fb"), "/a%2Fb");
        assert_eq!(normalize_percent("/a%2fb"), "/a%2Fb");
        assert!(!m("/a%2Fb", "/a/b"));
        assert!(m("/a%2Fb", "/a%2fb"));
        assert!(!m("/a/b", "/a%2Fb"));
    }

    #[test]
    fn percent_25_stays_encoded() {
        assert_eq!(normalize_percent("/a%2541"), "/a%2541");
        assert!(m("/a%2541", "/a%2541"));
        assert!(!m("/a%2541", "/aA"));
        // A `%` that starts no triplet is the same literal `%`.
        assert_eq!(normalize_percent("/%2%41"), "/%252A");
        assert_eq!(normalize_percent("/%%411"), "/%25A1");
        assert_eq!(normalize_percent("/50%off"), "/50%25off");
        assert!(m("/50%off", "/50%25off"));
        assert!(m("/50%25off", "/50%off"));
    }

    #[test]
    fn malformed_percent_is_a_literal_percent() {
        assert_eq!(normalize_percent("/100%"), "/100%25");
        assert_eq!(normalize_percent("/x%G1y"), "/x%25G1y");
        assert!(m("/100%", "/100%"));
        assert!(m("/100%", "/100%25"));
    }

    #[test]
    fn non_ascii_percent_canonicalized() {
        // %e2 decodes to a non-printable byte: canonical uppercase form.
        assert_eq!(normalize_percent("/caf%e9"), "/caf%E9");
        assert!(m("/caf%e9", "/caf%E9"));
    }

    #[test]
    fn utf8_percent_equivalence() {
        // Raw multi-byte characters canonicalize to their uppercase
        // percent-encoded octets, so the raw and encoded spellings are
        // one pattern and match each other's paths (RFC 9309 §2.2.2).
        assert_eq!(normalize_percent("/café"), "/caf%C3%A9");
        assert_eq!(normalize_percent("/caf%c3%a9"), "/caf%C3%A9");
        assert!(m("/café", "/café"));
        assert!(m("/café", "/caf%C3%A9"));
        assert!(m("/caf%C3%A9", "/café"));
        assert!(m("/caf%c3%a9", "/café"));
        // Distinct characters stay distinct.
        assert!(!m("/café", "/cafe"));
        // CJK (three-byte) and emoji (four-byte) sequences too.
        assert!(m("/図書館", "/%E5%9B%B3%E6%9B%B8%E9%A4%A8"));
        assert!(m("/%F0%9F%A4%96", "/🤖"));
    }

    #[test]
    fn query_strings_are_plain_characters() {
        assert!(m("/page?", "/page?id=1"));
        assert!(m("/*?lang=en", "/page?lang=en"));
        assert!(!m("/*?lang=en$", "/page?lang=en&x=1"));
    }

    #[test]
    fn normalize_path_borrows_plain_ascii() {
        assert!(matches!(normalize_path("/plain/ascii-path_01.html?q=1"), Cow::Borrowed(_)));
        assert!(matches!(normalize_path("/has%20escape"), Cow::Owned(_)));
        assert!(matches!(normalize_path("/café"), Cow::Owned(_)));
        // The borrowed fast path must agree with full normalization.
        for p in ["/plain", "/a~b!x", "/q?lang=en&x=1", "/100"] {
            assert_eq!(normalize_path(p).as_ref(), normalize_percent(p));
        }
    }

    #[test]
    fn matches_normalized_skips_renormalization() {
        let p = PathPattern::new("/caf%c3%a9");
        assert!(p.matches_normalized("/caf%C3%A9"));
        // Raw (un-normalized) input only matches via `matches`.
        assert!(p.matches("/café"));
        assert!(!p.matches_normalized("/café"));
    }

    #[test]
    fn segment_accessors() {
        let p = PathPattern::new("/a/*/b$");
        assert!(p.is_anchored());
        assert_eq!(p.segments(), &["/a/".to_string(), "/b".to_string()]);
        assert!(!PathPattern::new("/a*").is_anchored());
        assert_eq!(PathPattern::new("/a*").segments(), &["/a".to_string(), String::new()]);
    }

    #[test]
    fn display_roundtrip() {
        let p = PathPattern::new("/a/*/b$");
        assert_eq!(p.to_string(), "/a/*/b$");
        assert_eq!(p.as_str(), "/a/*/b$");
    }
}
