//! Compiled policy automata: the crate's one RFC 9309 matcher.
//!
//! Every access decision — allow/deny, the deciding rule, the applicable
//! agent group and the crawl delay — is answered by a [`CompiledPolicy`].
//! A parsed document is compiled once into a per-agent-group automaton
//! over the percent-normalized pattern alphabet, with all RFC 9309
//! precedence logic resolved into the automaton's terminal ranks at
//! **build** time:
//!
//! 1. the applicable group set is the groups whose `User-agent:` token is
//!    the **longest** case-insensitive boundary-prefix of the crawler's
//!    product token (`*` when none matches); groups with the same token
//!    are **merged** (RFC 9309 §2.2.1),
//! 2. the most specific matching rule (**most octets**, §2.2.2) decides,
//! 3. `Allow` wins ties, and the earliest rule is reported among equals,
//! 4. no matching rule means *allowed*,
//! 5. `/robots.txt` itself is always allowed (§2.2.2).
//!
//! Evaluation strategy:
//!
//! * Literal rules (`/path`), prefix rules (`/path*`) and anchored literal
//!   rules (`/path$`) become terminals of a shared byte **trie**; a check
//!   walks the path bytes once, folding the best terminal rank seen.
//! * Rules with a true interior wildcard (`/a*b`) go to a short side list
//!   evaluated against the same once-normalized path.
//!
//! A terminal rank packs `(specificity, verb, rule index)` into one `u64`
//! such that the numeric **maximum** over all matching rules is exactly the
//! rule RFC 9309 selects — so the query path has no precedence branches at
//! all. The crate's tests replay every decision against a brute-force
//! oracle written from the RFC text (`tests/rep_oracle`).
//!
//! [`PolicyEstate`] caches compiled policies per site, compiling lazily and
//! recompiling only after [`PolicyEstate::invalidate`] (driven by the
//! monitor's change digests).

use std::collections::HashMap;
use std::sync::Arc;

use crate::model::{RobotsTxt, Rule, RuleVerb};
use crate::parser::parse;
use crate::pattern::normalize_path;

/// Packed precedence rank: `(specificity << 33) | (allow << 32) |
/// (u32::MAX - rule_index)`. Higher specificity wins, then Allow over
/// Disallow, then the earliest rule — the RFC 9309 tie-break order. `0`
/// means "no match" (real ranks are always non-zero because empty
/// patterns are never inserted).
const NO_MATCH: u64 = 0;

/// The outcome of an access check.
///
/// Borrows the matched rule and agent token from the compiled policy, so
/// a check performs no allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision<'a> {
    /// Whether the fetch is allowed.
    pub allow: bool,
    /// The rule that decided the outcome, if any (`None` means the default
    /// allow applied: no group matched, or no rule matched the path).
    pub matched_rule: Option<&'a Rule>,
    /// The user-agent token of the group set that applied (`"*"` for the
    /// wildcard group, `None` if the document has no applicable group).
    pub matched_agent: Option<&'a str>,
}

impl<'a> Decision<'a> {
    fn default_allow(agent: Option<&'a str>) -> Self {
        Decision { allow: true, matched_rule: None, matched_agent: agent }
    }
}

fn pack(spec: usize, verb: RuleVerb, rule_idx: u32) -> u64 {
    ((spec as u64) << 33)
        | (u64::from(verb == RuleVerb::Allow) << 32)
        | u64::from(u32::MAX - rule_idx)
}

fn unpack_rule(rank: u64) -> usize {
    (u32::MAX - (rank & u64::from(u32::MAX)) as u32) as usize
}

fn unpack_allow(rank: u64) -> bool {
    (rank >> 32) & 1 == 1
}

/// One trie node. Children are kept as a small sorted list — policy tries
/// are shallow and narrow, and a binary search over a `Vec<(u8, u32)>`
/// beats a 256-entry table on cache footprint.
#[derive(Debug, Clone, Default, PartialEq)]
struct TrieNode {
    children: Vec<(u8, u32)>,
    /// Best rank among prefix rules ending at this node (matches every
    /// path that reaches the node).
    prefix: u64,
    /// Best rank among `$`-anchored rules ending at this node (matches
    /// only when the path ends here too).
    exact: u64,
}

/// The automaton for one merged user-agent group.
#[derive(Debug, Clone, PartialEq)]
struct GroupAutomaton {
    /// Merged rules in document order (for decision reporting).
    rules: Vec<Rule>,
    nodes: Vec<TrieNode>,
    /// Rules with a true interior wildcard, evaluated as a side list.
    wild: Vec<(usize, u64)>,
    crawl_delay: Option<f64>,
}

impl GroupAutomaton {
    fn build(rules: Vec<Rule>, crawl_delay: Option<f64>) -> Self {
        let mut nodes = vec![TrieNode::default()];
        let mut wild = Vec::new();
        for (idx, rule) in rules.iter().enumerate() {
            if rule.pattern.is_empty() {
                continue;
            }
            let rank = pack(rule.pattern.specificity(), rule.verb, idx as u32);
            let segments = rule.pattern.segments();
            let tail_is_stars = segments[1..].iter().all(String::is_empty);
            if segments.len() == 1 && rule.pattern.is_anchored() {
                // `X$`: anchored literal — exact terminal.
                insert(&mut nodes, segments[0].as_bytes(), rank, true);
            } else if segments.len() == 1 || tail_is_stars {
                // `X`, `X*`, `X**`, `X*$`: all prefix-of-X semantics.
                insert(&mut nodes, segments[0].as_bytes(), rank, false);
            } else {
                wild.push((idx, rank));
            }
        }
        Self { rules, nodes, wild, crawl_delay }
    }

    /// Best matching rank for a request path, or `None` for the always
    /// allowed `/robots.txt`: a missing leading `/` is supplied, then the
    /// path is percent-normalized once and scanned.
    fn rank_path(&self, path: &str) -> Option<u64> {
        let path_owned;
        let path = if path.starts_with('/') {
            path
        } else {
            path_owned = format!("/{path}");
            &path_owned
        };
        (path != "/robots.txt").then(|| self.scan(&normalize_path(path)))
    }

    /// Best matching rank for an already-normalized path, or [`NO_MATCH`].
    fn scan(&self, path: &str) -> u64 {
        let bytes = path.as_bytes();
        let mut best = NO_MATCH;
        let mut node = &self.nodes[0];
        let mut depth = 0;
        loop {
            best = best.max(node.prefix);
            if depth == bytes.len() {
                best = best.max(node.exact);
                break;
            }
            match node.children.binary_search_by_key(&bytes[depth], |c| c.0) {
                Ok(i) => {
                    node = &self.nodes[node.children[i].1 as usize];
                    depth += 1;
                }
                Err(_) => break,
            }
        }
        for &(idx, rank) in &self.wild {
            if rank > best && self.rules[idx].pattern.matches_normalized(path) {
                best = rank;
            }
        }
        best
    }
}

fn insert(nodes: &mut Vec<TrieNode>, key: &[u8], rank: u64, exact: bool) {
    let mut cur = 0usize;
    for &b in key {
        cur = match nodes[cur].children.binary_search_by_key(&b, |c| c.0) {
            Ok(i) => nodes[cur].children[i].1 as usize,
            Err(i) => {
                let next = nodes.len();
                nodes.push(TrieNode::default());
                nodes[cur].children.insert(i, (b, next as u32));
                next
            }
        };
    }
    let slot = if exact { &mut nodes[cur].exact } else { &mut nodes[cur].prefix };
    *slot = (*slot).max(rank);
}

/// A [`RobotsTxt`] compiled for access checks: the one matcher every
/// allow/deny and crawl-delay question goes through.
///
/// ```
/// use botscope_robotstxt::compiled::CompiledPolicy;
/// use botscope_robotstxt::RobotsTxt;
///
/// let doc = RobotsTxt::parse("User-agent: *\nDisallow: /page\nAllow: /page-data/\n");
/// let compiled = CompiledPolicy::compile(&doc);
/// assert!(!compiled.check("GPTBot", "/page").allow);
/// assert!(compiled.check("GPTBot", "/page-data/app.json").allow);
/// assert_eq!(compiled.check_many("GPTBot", &["/page", "/page-data/x", "/other"]), vec![0b110]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPolicy {
    /// Named group tokens (lowercase, first-appearance order) with their
    /// automata. The wildcard group is kept separate.
    tokens: Vec<(String, GroupAutomaton)>,
    wildcard: Option<GroupAutomaton>,
}

/// Size counters for a compiled policy, for reporting compile cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledStats {
    /// Distinct user-agent group tokens (including `*` if present).
    pub tokens: usize,
    /// Total merged rules across all group automata.
    pub rules: usize,
    /// Total trie nodes across all group automata.
    pub trie_nodes: usize,
    /// Total side-list (interior-wildcard) rules.
    pub wild_rules: usize,
}

impl CompiledPolicy {
    /// Compile a parsed document.
    pub fn compile(doc: &RobotsTxt) -> Self {
        let mut order: Vec<String> = Vec::new();
        for g in &doc.groups {
            for ua in &g.user_agents {
                if !order.contains(ua) {
                    order.push(ua.clone());
                }
            }
        }
        let mut tokens = Vec::new();
        let mut wildcard = None;
        for token in order {
            let merged: Vec<Rule> = doc
                .groups
                .iter()
                .filter(|g| g.user_agents.contains(&token))
                .flat_map(|g| g.rules.iter().cloned())
                .collect();
            let delay = doc
                .groups
                .iter()
                .filter(|g| g.user_agents.contains(&token))
                .filter_map(|g| g.crawl_delay)
                .fold(None, |acc: Option<f64>, d| Some(acc.map_or(d, |a| a.max(d))));
            let automaton = GroupAutomaton::build(merged, delay);
            if token == "*" {
                wildcard = Some(automaton);
            } else {
                tokens.push((token, automaton));
            }
        }
        Self { tokens, wildcard }
    }

    /// Parse and compile in one step.
    pub fn from_text(text: &str) -> Self {
        Self::compile(&parse(text))
    }

    /// Select the automaton for a crawler product token: longest
    /// case-insensitive boundary-prefix group wins, `*` is the fallback.
    /// Allocation-free.
    fn resolve(&self, agent_token: &str) -> Option<(&str, &GroupAutomaton)> {
        let trimmed = agent_token.trim();
        if trimmed.starts_with('*') {
            return self.wildcard.as_ref().map(|g| ("*", g));
        }
        let end = trimmed
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
            .unwrap_or(trimmed.len());
        let crawler = &trimmed[..end];
        let mut best: Option<(&str, &GroupAutomaton)> = None;
        for (tok, g) in &self.tokens {
            if token_matches_ci(tok, crawler) && best.is_none_or(|(b, _)| tok.len() > b.len()) {
                best = Some((tok.as_str(), g));
            }
        }
        best.or_else(|| self.wildcard.as_ref().map(|g| ("*", g)))
    }

    /// Decide whether `agent_token` may fetch `path`.
    ///
    /// `agent_token` is the crawler's product token (e.g. `"GPTBot"`; a
    /// full `User-Agent` header is cut at its first non-token character).
    /// `path` should begin with `/`; a missing slash is read as `/` +
    /// path. `/robots.txt` itself is always allowed.
    pub fn check(&self, agent_token: &str, path: &str) -> Decision<'_> {
        let Some((token, group)) = self.resolve(agent_token) else {
            return Decision::default_allow(None);
        };
        match group.rank_path(path) {
            None => Decision::default_allow(None),
            Some(NO_MATCH) => Decision::default_allow(Some(token)),
            Some(best) => Decision {
                allow: unpack_allow(best),
                matched_rule: Some(&group.rules[unpack_rule(best)]),
                matched_agent: Some(token),
            },
        }
    }

    /// Batch admission check: bit `i` of word `i / 64` is set iff
    /// `paths[i]` is allowed for `agent_token`. Group resolution happens
    /// once for the whole batch.
    pub fn check_many(&self, agent_token: &str, paths: &[&str]) -> Vec<u64> {
        let mut mask = vec![0u64; paths.len().div_ceil(64)];
        let group = self.resolve(agent_token).map(|(_, g)| g);
        for (i, path) in paths.iter().enumerate() {
            let allowed = group.is_none_or(|g| {
                g.rank_path(path).is_none_or(|best| best == NO_MATCH || unpack_allow(best))
            });
            if allowed {
                mask[i / 64] |= 1u64 << (i % 64);
            }
        }
        mask
    }

    /// The crawl delay applying to `agent_token`, if any (max over the
    /// merged groups).
    pub fn crawl_delay(&self, agent_token: &str) -> Option<f64> {
        self.resolve(agent_token).and_then(|(_, g)| g.crawl_delay)
    }

    /// Size counters, for compile-cost reporting.
    pub fn stats(&self) -> CompiledStats {
        let groups = self.tokens.iter().map(|(_, g)| g).chain(self.wildcard.iter());
        let mut stats = CompiledStats {
            tokens: self.tokens.len() + usize::from(self.wildcard.is_some()),
            rules: 0,
            trie_nodes: 0,
            wild_rules: 0,
        };
        for g in groups {
            stats.rules += g.rules.len();
            stats.trie_nodes += g.nodes.len();
            stats.wild_rules += g.wild.len();
        }
        stats
    }
}

/// Packed-rank helpers for analysis passes that walk automaton internals
/// (see [`crate::analysis`]). The packing is the compiled matcher's whole
/// precedence story: the numeric maximum over matching rules is the rule
/// RFC 9309 selects.
pub mod rank {
    use crate::model::RuleVerb;

    /// The rank of "no rule matched" (always allow).
    pub const NO_MATCH: u64 = super::NO_MATCH;

    /// Pack `(specificity, verb, rule index)` exactly as the trie does.
    pub fn pack(specificity: usize, verb: RuleVerb, rule_index: u32) -> u64 {
        super::pack(specificity, verb, rule_index)
    }

    /// Whether a (non-[`NO_MATCH`]) rank encodes an `Allow` rule.
    pub fn allow(rank: u64) -> bool {
        super::unpack_allow(rank)
    }

    /// The merged-rule index a (non-[`NO_MATCH`]) rank encodes.
    pub fn rule_index(rank: u64) -> usize {
        super::unpack_rule(rank)
    }
}

/// Read-only view of one merged agent group's automaton, exposing the
/// trie and side-list internals the semantic analyzer walks.
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    automaton: &'a GroupAutomaton,
}

impl<'a> GroupView<'a> {
    /// The group's merged rules in document order.
    pub fn rules(&self) -> &'a [Rule] {
        &self.automaton.rules
    }

    /// The group's crawl delay, if any.
    pub fn crawl_delay(&self) -> Option<f64> {
        self.automaton.crawl_delay
    }

    /// Whether the group has any side-list (interior-wildcard) rules.
    pub fn has_wild(&self) -> bool {
        !self.automaton.wild.is_empty()
    }

    /// Number of trie nodes (node 0 is the root).
    pub fn node_count(&self) -> usize {
        self.automaton.nodes.len()
    }

    /// The trie node at `index` (0 is the root).
    ///
    /// # Panics
    /// Panics when `index >= node_count()`.
    pub fn node(&self, index: usize) -> NodeView<'a> {
        NodeView { node: &self.automaton.nodes[index] }
    }

    /// The best matching packed rank for an **already normalized** path
    /// (see [`rank`]), exactly as an admission check would fold it.
    pub fn scan_rank(&self, normalized_path: &str) -> u64 {
        self.automaton.scan(normalized_path)
    }
}

/// Read-only view of one trie node.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    node: &'a TrieNode,
}

impl<'a> NodeView<'a> {
    /// Outgoing edges as `(byte, child node index)`, byte-ascending.
    pub fn children(&self) -> impl Iterator<Item = (u8, usize)> + 'a {
        self.node.children.iter().map(|&(b, i)| (b, i as usize))
    }
}

impl CompiledPolicy {
    /// Every merged agent group as `(token, view)`, named tokens in
    /// first-appearance order, the `*` group (if any) last.
    pub fn groups(&self) -> impl Iterator<Item = (&str, GroupView<'_>)> {
        self.tokens
            .iter()
            .map(|(t, g)| (t.as_str(), GroupView { automaton: g }))
            .chain(self.wildcard.iter().map(|g| ("*", GroupView { automaton: g })))
    }

    /// Resolve a crawler product token to its applicable group view,
    /// with the same longest-boundary-prefix selection as
    /// [`check`](Self::check). Returns the winning group token.
    pub fn resolve_view(&self, agent_token: &str) -> Option<(&str, GroupView<'_>)> {
        self.resolve(agent_token).map(|(t, g)| (t, GroupView { automaton: g }))
    }
}

/// Case-insensitive boundary-prefix test: `group` (stored lowercase)
/// applies to `crawler` when equal, or when `group` is a prefix ending at a
/// `-`/`_` boundary. `crawler` is a pure-ASCII product-token prefix, so
/// slicing at `group.len()` is safe.
fn token_matches_ci(group: &str, crawler: &str) -> bool {
    if group.len() > crawler.len() {
        return false;
    }
    let (head, rest) = crawler.split_at(group.len());
    head.eq_ignore_ascii_case(group)
        && (rest.is_empty() || rest.starts_with('-') || rest.starts_with('_'))
}

/// A site-keyed cache of compiled policies.
///
/// Documents are registered with [`insert`](PolicyEstate::insert) (or
/// [`insert_text`](PolicyEstate::insert_text)) and compiled **lazily** on
/// first use. [`invalidate`](PolicyEstate::invalidate) drops the compiled
/// artifact so the next check recompiles — the monitor's change digests
/// drive this (see `botscope-monitor`'s estate adapter).
#[derive(Debug, Clone, Default)]
pub struct PolicyEstate {
    sites: HashMap<String, EstateSlot>,
    compiles: u64,
    cache_hits: u64,
}

#[derive(Debug, Clone)]
struct EstateSlot {
    doc: Arc<RobotsTxt>,
    compiled: Option<Arc<CompiledPolicy>>,
}

impl PolicyEstate {
    /// An empty estate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a site's document. Any compiled artifact for
    /// the site is dropped.
    pub fn insert(&mut self, site: impl Into<String>, doc: RobotsTxt) {
        self.sites.insert(site.into(), EstateSlot { doc: Arc::new(doc), compiled: None });
    }

    /// Parse and register a site's document text.
    pub fn insert_text(&mut self, site: impl Into<String>, text: &str) {
        self.insert(site, parse(text));
    }

    /// Drop the compiled artifact for `site`, forcing recompilation on the
    /// next check. Returns whether the site was known.
    pub fn invalidate(&mut self, site: &str) -> bool {
        match self.sites.get_mut(site) {
            Some(slot) => {
                slot.compiled = None;
                true
            }
            None => false,
        }
    }

    /// Remove a site entirely. Returns whether it was known.
    pub fn remove(&mut self, site: &str) -> bool {
        self.sites.remove(site).is_some()
    }

    /// The parsed document registered for `site`, if any.
    pub fn doc(&self, site: &str) -> Option<&RobotsTxt> {
        self.sites.get(site).map(|s| s.doc.as_ref())
    }

    /// The compiled policy for `site`, compiling on first use.
    pub fn compiled(&mut self, site: &str) -> Option<Arc<CompiledPolicy>> {
        let slot = self.sites.get_mut(site)?;
        match &slot.compiled {
            Some(_) => self.cache_hits += 1,
            None => {
                slot.compiled = Some(Arc::new(CompiledPolicy::compile(&slot.doc)));
                self.compiles += 1;
            }
        }
        slot.compiled.clone()
    }

    /// Admission check against a site's compiled policy. `None` when the
    /// site is unknown (callers decide the fail-open/fail-closed policy).
    pub fn check(&mut self, site: &str, agent_token: &str, path: &str) -> Option<bool> {
        let compiled = self.compiled(site)?;
        Some(compiled.check(agent_token, path).allow)
    }

    /// Number of registered sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the estate has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Whether `site` currently holds a compiled artifact (false when the
    /// site is unknown or registered but never checked).
    pub fn is_compiled(&self, site: &str) -> bool {
        self.sites.get(site).is_some_and(|s| s.compiled.is_some())
    }

    /// Number of sites currently holding a compiled artifact.
    pub fn compiled_count(&self) -> usize {
        self.sites.values().filter(|s| s.compiled.is_some()).count()
    }

    /// Total compilations performed over the estate's lifetime (cache
    /// misses + recompiles after invalidation).
    pub fn compiles(&self) -> u64 {
        self.compiles
    }

    /// Lookups answered from an already-compiled artifact — the warm
    /// path [`compiles`](PolicyEstate::compiles) never pays for.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Registered sites whose artifact is *not* currently compiled —
    /// the recompile debt the next admission sweep would pay.
    pub fn compile_debt(&self) -> usize {
        self.sites.values().filter(|s| s.compiled.is_none()).count()
    }

    /// Registered site names, in arbitrary order.
    pub fn sites(&self) -> impl Iterator<Item = &str> {
        self.sites.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = "User-agent: Googlebot\nAllow: /\nCrawl-delay: 15\n\nUser-agent: *\nAllow: /allowed-data/\nDisallow: /restricted-data/\nCrawl-delay: 30\n";

    /// The compiled verdict for one request, after asserting that the
    /// full decision (verdict, deciding rule, agent group) and the
    /// agent's crawl delay equal the RFC 9309 oracle's.
    fn allows(robots: &str, agent: &str, path: &str) -> bool {
        let doc = parse(robots);
        let compiled = CompiledPolicy::compile(&doc);
        let (got, want) =
            (compiled.check(agent, path), crate::rep_oracle::decide(&doc, agent, path));
        let rule =
            |d: Decision<'_>| d.matched_rule.map(|r| (r.verb, r.pattern.as_str().to_string()));
        assert_eq!(got.allow, want.allow, "allow: {robots:?} {agent} {path}");
        assert_eq!(rule(got), rule(want), "rule: {robots:?} {agent} {path}");
        assert_eq!(got.matched_agent, want.matched_agent, "agent: {robots:?} {agent} {path}");
        let delay = crate::rep_oracle::crawl_delay(&doc, agent);
        assert_eq!(compiled.crawl_delay(agent), delay, "delay: {robots:?} {agent}");
        got.allow
    }

    #[test]
    fn figure1_semantics() {
        let p = CompiledPolicy::from_text(FIG1);
        assert!(p.check("Googlebot", "/restricted-data/page").allow);
        assert!(!p.check("Bytespider", "/restricted-data/page").allow);
        assert!(p.check("Bytespider", "/allowed-data/page").allow);
        assert!(p.check("Bytespider", "/other").allow); // no rule matches → allow
        assert_eq!(p.crawl_delay("Googlebot"), Some(15.0));
        assert_eq!(p.crawl_delay("GPTBot"), Some(30.0));
    }

    #[test]
    fn robots_txt_always_allowed() {
        let p = CompiledPolicy::compile(&RobotsTxt::disallow_all());
        let d = p.check("anybot", "/robots.txt");
        assert!(d.allow);
        assert_eq!((d.matched_rule, d.matched_agent), (None, None));
        assert!(!p.check("anybot", "/index.html").allow);
    }

    #[test]
    fn empty_doc_allows_everything() {
        let p = CompiledPolicy::from_text("");
        let d = p.check("GPTBot", "/anything");
        assert!(d.allow);
        assert!(d.matched_rule.is_none());
        assert!(d.matched_agent.is_none());
        assert_eq!(p.crawl_delay("GPTBot"), None);
    }

    #[test]
    fn longest_match_wins() {
        let robots = "User-agent: *\nDisallow: /page\nAllow: /page-data/\n";
        assert!(!allows(robots, "x", "/page"));
        assert!(!allows(robots, "x", "/pagexyz"));
        assert!(allows(robots, "x", "/page-data/app.json"));
    }

    #[test]
    fn precedence_ties_resolved_at_build_time() {
        // Same pattern both verbs: Allow wins, in either order.
        assert!(allows("User-agent: *\nDisallow: /x\nAllow: /x\n", "b", "/x"));
        assert!(allows("User-agent: *\nAllow: /x\nDisallow: /x\n", "b", "/x"));
        assert!(!allows("User-agent: *\nDisallow: /dir/\nAllow: /dir2/\n", "b", "/dir/a"));
        // Same-verb tie reports the earliest rule.
        let p = CompiledPolicy::from_text("User-agent: *\nDisallow: /x\nDisallow: /x\n");
        let first = &p.resolve_view("b").expect("wildcard").1.rules()[0];
        assert!(std::ptr::eq(p.check("b", "/xy").matched_rule.expect("rule"), first));
    }

    #[test]
    fn most_specific_group_selected() {
        let robots = "User-agent: googlebot-news\nDisallow: /news-secret/\n\nUser-agent: googlebot\nDisallow: /general/\n\nUser-agent: *\nDisallow: /\n";
        // googlebot-news gets only its own group.
        assert!(allows(robots, "Googlebot-News", "/general/x"), "not bound by googlebot");
        assert!(!allows(robots, "Googlebot-News", "/news-secret/x"));
        // googlebot (and an unlisted googlebot-* variant) get the googlebot group.
        assert!(!allows(robots, "Googlebot", "/general/x"));
        assert!(allows(robots, "Googlebot", "/news-secret/x"));
        assert!(!allows(robots, "Googlebot-Image", "/general/x"));
        // Unknown bots (and `*` itself) get the wildcard.
        assert!(!allows(robots, "GPTBot", "/anything"));
        assert_eq!(CompiledPolicy::from_text(robots).check("*", "/x").matched_agent, Some("*"));
        // Every agent × path pair decides like the oracle.
        for agent in ["Googlebot-News", "Googlebot", "Googlebot-Image", "GPTBot", "*"] {
            for path in ["/news-secret/x", "/general/x", "/anything"] {
                allows(robots, agent, path);
            }
        }
    }

    #[test]
    fn group_token_boundary() {
        let robots = "User-agent: google\nDisallow: /\n";
        // `googlebot` does not match group `google` (no boundary).
        assert!(allows(robots, "googlebot", "/x"));
        // `google-images` does.
        assert!(!allows(robots, "google-images", "/x"));
    }

    #[test]
    fn groups_with_same_token_merge() {
        let robots = "User-agent: a\nDisallow: /one\nCrawl-delay: 10\n\nUser-agent: b\nDisallow: /b\n\nUser-agent: a\nDisallow: /two\nCrawl-delay: 40\n";
        assert!(!allows(robots, "a", "/one"));
        assert!(!allows(robots, "a", "/two"));
        assert!(allows(robots, "a", "/b"));
        // Merged crawl delays take the maximum.
        assert_eq!(CompiledPolicy::from_text(robots).crawl_delay("a"), Some(40.0));
    }

    #[test]
    fn no_wildcard_group_means_unlisted_bot_unrestricted() {
        let p = CompiledPolicy::from_text("User-agent: badbot\nDisallow: /\n");
        let d = p.check("goodbot", "/x");
        assert!(d.allow);
        assert_eq!(d.matched_agent, None);
        assert!(!p.check("badbot", "/x").allow);
        assert_eq!(p.crawl_delay("goodbot"), None);
    }

    #[test]
    fn full_ua_header_tolerated() {
        let robots = "User-agent: gptbot\nDisallow: /private/\n";
        assert!(!allows(robots, "GPTBot/1.0 (+https://openai.com/gptbot)", "/private/x"));
    }

    #[test]
    fn missing_slash_and_empty_rules() {
        assert!(!allows("User-agent: *\nDisallow: /secret\n", "bot", "secret/files"));
        assert!(allows("User-agent: *\nDisallow: /secret\n", "bot", "robots.txt"));
        assert!(allows("User-agent: *\nDisallow:\n", "bot", "/x"));
    }

    #[test]
    fn decision_reports_matched_rule() {
        let p = CompiledPolicy::from_text("User-agent: *\nDisallow: /secure/*\n");
        let d = p.check("bot", "/secure/admin");
        assert!(!d.allow);
        assert_eq!(d.matched_rule.expect("rule").pattern.as_str(), "/secure/*");
        assert_eq!(d.matched_agent, Some("*"));
    }

    #[test]
    fn wildcards_and_anchors() {
        for (robots, path, allow) in [
            ("User-agent: *\nDisallow: /*.php$\n", "/folder/filename.php", false),
            ("User-agent: *\nDisallow: /*.php$\n", "/filename.php?x", true),
            ("User-agent: *\nDisallow: /fish*\n", "/fishheads", false),
            ("User-agent: *\nDisallow: /a*b*c\n", "/axxbxxc-and-more", false),
            ("User-agent: *\nDisallow: /a*b*c\n", "/a-c-b", true),
            ("User-agent: *\nDisallow: /x*$\n", "/xyz", false),
            ("User-agent: *\nDisallow: /fish$\n", "/fish", false),
            ("User-agent: *\nDisallow: /fish$\n", "/fish.html", true),
            ("User-agent: *\nDisallow: *\n", "/anything", false),
            ("User-agent: *\nDisallow: *\n", "/", false),
            // /*.html (7 octets) beats /p (2) on /page.html only.
            ("User-agent: *\nAllow: /p\nDisallow: /*.html\n", "/page.html", false),
            ("User-agent: *\nAllow: /p\nDisallow: /*.html\n", "/page", true),
            ("User-agent: *\nDisallow: /$\n", "/", false),
            ("User-agent: *\nDisallow: /$\n", "/a", true),
            ("User-agent: *\nDisallow: /**\n", "/deep/path", false),
            ("User-agent: *\nDisallow: /a**$\n", "/abc", false),
            ("User-agent: *\nDisallow: *x\n", "/prefix-x-suffix", false),
        ] {
            assert_eq!(allows(robots, "bot", path), allow, "{robots:?} {path}");
        }
    }

    #[test]
    fn percent_normalized_alphabet() {
        for (robots, path, allow) in [
            ("User-agent: *\nDisallow: /caf%c3%a9\n", "/café", false),
            ("User-agent: *\nDisallow: /café\n", "/caf%C3%A9", false),
            ("User-agent: *\nDisallow: /a%2Fb\n", "/a/b", true),
            ("User-agent: *\nDisallow: /a%2Fb\n", "/a%2fb", false),
            ("User-agent: *\nDisallow: /a%7Eb\n", "/a~b", false),
        ] {
            assert_eq!(allows(robots, "bot", path), allow, "{robots:?} {path}");
        }
    }

    #[test]
    fn check_many_bitmask() {
        let compiled = CompiledPolicy::from_text("User-agent: *\nDisallow: /private/\n");
        let paths: Vec<String> = (0..70)
            .map(|i| if i % 3 == 0 { format!("/private/{i}") } else { format!("/public/{i}") })
            .collect();
        let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
        let mask = compiled.check_many("bot", &refs);
        assert_eq!(mask.len(), 2);
        for i in 0..refs.len() {
            assert_eq!(mask[i / 64] >> (i % 64) & 1 == 1, i % 3 != 0, "path {}", refs[i]);
        }
        // `/robots.txt` and a slash-less path take the single-check rules.
        let all = CompiledPolicy::compile(&RobotsTxt::disallow_all());
        assert_eq!(all.check_many("bot", &["/robots.txt", "robots.txt", "/x"]), vec![0b011]);
        // Unknown-group batch: everything allowed.
        let none = CompiledPolicy::from_text("User-agent: badbot\nDisallow: /\n");
        assert_eq!(none.check_many("goodbot", &["/a", "/b"]), vec![0b11]);
    }

    #[test]
    fn stats_counts() {
        let compiled =
            CompiledPolicy::from_text("User-agent: *\nDisallow: /a\nDisallow: /a*b\nAllow:\n");
        let stats = compiled.stats();
        assert_eq!(stats.tokens, 1);
        assert_eq!(stats.rules, 3);
        assert_eq!(stats.wild_rules, 1);
        assert!(stats.trie_nodes >= 3);
    }

    #[test]
    fn estate_compiles_lazily_and_invalidates() {
        let mut estate = PolicyEstate::new();
        estate.insert_text("a.example.edu", "User-agent: *\nDisallow: /x\n");
        estate.insert_text("b.example.edu", "User-agent: *\nAllow: /\n");
        assert_eq!(estate.len(), 2);
        assert_eq!(estate.compiled_count(), 0);
        assert_eq!(estate.compiles(), 0);

        assert_eq!(estate.check("a.example.edu", "bot", "/x/y"), Some(false));
        assert_eq!(estate.check("a.example.edu", "bot", "/ok"), Some(true));
        assert_eq!(estate.compiles(), 1, "second check reuses the artifact");
        assert_eq!(estate.compiled_count(), 1, "b is registered but not compiled");

        // Invalidation forces exactly one recompile.
        assert!(estate.invalidate("a.example.edu"));
        assert_eq!(estate.compiled_count(), 0);
        assert_eq!(estate.check("a.example.edu", "bot", "/x/y"), Some(false));
        assert_eq!(estate.compiles(), 2);

        // Replacing the document changes answers.
        estate.insert_text("a.example.edu", "User-agent: *\nAllow: /x\nDisallow: /\n");
        assert_eq!(estate.check("a.example.edu", "bot", "/x/y"), Some(true));
        assert_eq!(estate.check("a.example.edu", "bot", "/other"), Some(false));
        assert_eq!(estate.compiles(), 3);

        assert_eq!(estate.check("unknown.example.edu", "bot", "/x"), None);
        assert!(!estate.invalidate("unknown.example.edu"));
        assert!(estate.remove("b.example.edu"));
        assert_eq!(estate.len(), 1);
    }
}
