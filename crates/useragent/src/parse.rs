//! `User-Agent` header tokenization.
//!
//! A UA header is a whitespace-separated sequence of `product/version`
//! tokens, optionally followed by parenthesised comments, e.g.
//!
//! ```text
//! Mozilla/5.0 (compatible; GPTBot/1.2; +https://openai.com/gptbot)
//! ```
//!
//! Bot identities hide both in top-level products and inside comments, so
//! the tokenizer surfaces every candidate product token from both places.

/// One `name/version` product token, borrowed from the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Product<'a> {
    /// Product name (verbatim case).
    pub name: &'a str,
    /// Version string, if a `/version` suffix was present.
    pub version: Option<&'a str>,
}

/// A tokenized `User-Agent` header. Every token borrows from the header,
/// so tokenizing allocates only the two lists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserAgent<'a> {
    /// Top-level products, in order.
    pub products: Vec<Product<'a>>,
    /// Comment fragments (the `;`-separated pieces inside parentheses),
    /// trimmed.
    pub comments: Vec<&'a str>,
}

impl<'a> UserAgent<'a> {
    /// Tokenize a raw header value. Never fails; hostile input produces a
    /// (possibly empty) token list.
    pub fn parse(header: &'a str) -> UserAgent<'a> {
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
                        comments.push(frag);
                    }
                }
                rest = stripped[end..].strip_prefix(')').unwrap_or(&stripped[end..]).trim_start();
            } else {
                let end = rest.find([' ', '\t', '(']).unwrap_or(rest.len());
                let token = &rest[..end];
                if !token.is_empty() {
                    let (name, version) = match token.split_once('/') {
                        Some((n, v)) => (n, Some(v)),
                        None => (token, None),
                    };
                    products.push(Product { name, version });
                }
                rest = rest[end..].trim_start();
            }
        }
        UserAgent { products, comments }
    }

    /// Every candidate identity token, in order: product names, then the
    /// leading word of each comment fragment (e.g. `GPTBot/1.2` inside a
    /// comment).
    pub fn candidate_tokens(&self) -> impl Iterator<Item = &'a str> + '_ {
        let products = self.products.iter().map(|p| p.name);
        products.chain(self.comments.iter().filter_map(|&c| comment_word(c)))
    }
}

/// The identity word of one comment fragment, or `None` for noise:
/// `compatible` and URL fragments.
fn comment_word(fragment: &str) -> Option<&str> {
    let word = fragment.split_whitespace().next().unwrap_or("");
    let word = word.split('/').next().unwrap_or("");
    let noise = word.is_empty()
        || word.eq_ignore_ascii_case("compatible")
        || word.starts_with('+')
        || word.starts_with("http");
    (!noise).then(|| word.trim_end_matches(';'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_bot_token() {
        let ua = UserAgent::parse("GPTBot/1.0");
        assert_eq!(ua.products.len(), 1);
        assert_eq!(ua.products[0].name, "GPTBot");
        assert_eq!(ua.products[0].version, Some("1.0"));
    }

    #[test]
    fn mozilla_compatible_style() {
        let ua = UserAgent::parse(
            "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
        );
        assert_eq!(ua.products[0].name, "Mozilla");
        assert_eq!(
            ua.comments,
            vec!["compatible", "Googlebot/2.1", "+http://www.google.com/bot.html"]
        );
        let tokens: Vec<&str> = ua.candidate_tokens().collect();
        assert!(tokens.contains(&"Googlebot"));
        assert!(!tokens.iter().any(|t| t.eq_ignore_ascii_case("compatible")));
    }

    #[test]
    fn full_browser_string() {
        let ua = UserAgent::parse(
            "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/120.0 Safari/537.36",
        );
        let names: Vec<&str> = ua.products.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["Mozilla", "AppleWebKit", "Chrome", "Safari"]);
        assert!(ua.comments.contains(&"Windows NT 10.0"));
    }

    #[test]
    fn headless_chrome_token() {
        let ua = UserAgent::parse(
            "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) HeadlessChrome/119.0 Safari/537.36",
        );
        assert!(ua.products.iter().any(|p| p.name == "HeadlessChrome"));
    }

    #[test]
    fn plain_library_tokens() {
        let ua = UserAgent::parse("python-requests/2.31.0");
        assert_eq!(ua.products[0].name, "python-requests");
        let ua = UserAgent::parse("curl/8.0.1");
        assert_eq!(ua.products[0].name, "curl");
    }

    #[test]
    fn empty_and_garbage() {
        assert_eq!(UserAgent::parse(""), UserAgent::default());
        let ua = UserAgent::parse("   (   )  ");
        assert!(ua.products.is_empty());
        assert!(ua.comments.is_empty());
        // Unclosed paren tolerated.
        let ua = UserAgent::parse("Foo/1 (bar; baz");
        assert_eq!(ua.products[0].name, "Foo");
        assert_eq!(ua.comments, vec!["bar", "baz"]);
    }

    #[test]
    fn candidate_tokens_drop_urls() {
        let ua = UserAgent::parse(
            "Mozilla/5.0 (compatible; bingbot/2.0; +http://www.bing.com/bingbot.htm)",
        );
        let tokens: Vec<&str> = ua.candidate_tokens().collect();
        assert!(tokens.contains(&"bingbot"));
        assert!(!tokens.iter().any(|t| t.starts_with("+http")));
    }
}
