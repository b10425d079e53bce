//! Fluent construction of robots.txt documents.
//!
//! The study deploys four hand-built policy files (paper Figures 5–8);
//! `botscope-core` constructs them with this builder, guaranteeing they are
//! well-formed by construction (the paper validated its files with the
//! Google parser; we validate with our own parser via round-trip tests).

use crate::model::{Group, RobotsTxt, Rule};

/// Builder for a [`RobotsTxt`] document.
///
/// ```
/// use botscope_robotstxt::{CompiledPolicy, RobotsTxtBuilder};
///
/// let robots = RobotsTxtBuilder::new()
///     .group(["Googlebot"], |g| g.allow("/").crawl_delay(15.0))
///     .group(["*"], |g| {
///         g.allow("/allowed-data/").disallow("/restricted-data/").crawl_delay(30.0)
///     })
///     .sitemap("https://example.edu/sitemap.xml")
///     .build();
///
/// assert_eq!(robots.groups.len(), 2);
/// let policy = CompiledPolicy::compile(&robots);
/// assert!(!policy.check("GPTBot", "/restricted-data/x").allow);
/// assert_eq!(policy.crawl_delay("Googlebot"), Some(15.0));
/// ```
#[derive(Debug, Default)]
pub struct RobotsTxtBuilder {
    doc: RobotsTxt,
}

/// Builder scope for a single group; returned by the closure passed to
/// [`RobotsTxtBuilder::group`].
#[derive(Debug)]
pub struct GroupBuilder {
    group: Group,
}

impl GroupBuilder {
    /// Append an `Allow:` rule.
    pub fn allow(mut self, pattern: &str) -> Self {
        self.group.rules.push(Rule::allow(pattern));
        self
    }

    /// Append a `Disallow:` rule.
    pub fn disallow(mut self, pattern: &str) -> Self {
        self.group.rules.push(Rule::disallow(pattern));
        self
    }

    /// Set the `Crawl-delay:` for this group.
    ///
    /// # Panics
    /// Panics on negative or non-finite delays (caller logic error).
    pub fn crawl_delay(mut self, seconds: f64) -> Self {
        assert!(seconds >= 0.0 && seconds.is_finite(), "invalid crawl delay {seconds}");
        self.group.crawl_delay = Some(seconds);
        self
    }
}

impl RobotsTxtBuilder {
    /// Start an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a group for the given agents, configured by `f`.
    pub fn group<I, S>(mut self, agents: I, f: impl FnOnce(GroupBuilder) -> GroupBuilder) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let gb = GroupBuilder { group: Group::for_agents(agents) };
        self.doc.groups.push(f(gb).group);
        self
    }

    /// Add a global `Sitemap:` URL.
    pub fn sitemap(mut self, url: &str) -> Self {
        self.doc.sitemaps.push(url.to_string());
        self
    }

    /// Finish, returning the document.
    pub fn build(self) -> RobotsTxt {
        self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn builder_roundtrips_through_text() {
        let built = RobotsTxtBuilder::new()
            .group(["*"], |g| g.allow("/").disallow("/secure/*").crawl_delay(30.0))
            .sitemap("https://x/s.xml")
            .build();
        let reparsed = parse(&built.to_string());
        assert_eq!(reparsed.groups, built.groups);
        assert_eq!(reparsed.sitemaps, built.sitemaps);
    }

    #[test]
    fn multi_agent_group() {
        let r =
            RobotsTxtBuilder::new().group(["Googlebot", "bingbot"], |g| g.disallow("/404")).build();
        assert_eq!(r.groups[0].user_agents, vec!["googlebot", "bingbot"]);
    }

    #[test]
    #[should_panic(expected = "invalid crawl delay")]
    fn negative_delay_panics() {
        let _ = RobotsTxtBuilder::new().group(["*"], |g| g.crawl_delay(-1.0)).build();
    }

    #[test]
    fn empty_builder_is_allow_all() {
        let r = RobotsTxtBuilder::new().build();
        assert!(crate::CompiledPolicy::compile(&r).check("any", "/path").allow);
    }
}
