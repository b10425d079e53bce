//! Decision-complete semantic analysis over compiled policies.
//!
//! Where [`crate::audit`](mod@crate::audit) lints the *text* of a policy, this module proves
//! facts about its *decisions* by walking the compiled automata:
//!
//! 1. **Rule liveness** ([`rule_liveness`]): a rule is dead iff no request
//!    path can make it the winning terminal. Every verdict ships a witness —
//!    a concrete path that selects the rule, or the rule that shadows it.
//! 2. **Semantic diff** ([`semantic_diff`], [`classify_change`]): a product
//!    walk of two compiled policies either proves decision-equivalence for
//!    *all* paths and agents, or returns a witness path where they differ.
//! 3. **Parser-divergence hazards** ([`divergence_hazards`]): paths where
//!    RFC 9309 longest-match and a deviant matcher (first-match,
//!    wildcard-unaware, `$`-as-literal) reach different decisions.
//!
//! The engine is a breadth-first product walk over per-rule glob NFAs with
//! two extra automaton components folded into each state key: a
//! *percent-context* automaton that restricts the walk to strings that are
//! fixed points of [`crate::pattern::normalize_percent`] (so every witness
//! is a real, already-normalized request path), and a `/robots.txt`
//! sentinel that identifies the one path carved out by the implicit
//! robots.txt allowance so it is never used as evidence.
//!
//! Groups without interior wildcards skip the walk entirely: the trie's
//! nodes partition path space into finitely many decision classes (the
//! exact path spelled by each node, plus everything that escapes the node
//! with a non-edge byte), and one representative per class decides the
//! whole class.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use crate::audit;
use crate::compiled::{rank, CompiledPolicy, GroupView};
use crate::model::{RobotsTxt, Rule, RuleVerb};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Stylistic or informational; no behavioral impact.
    Info,
    /// Likely author error or interoperability hazard.
    Warning,
    /// The policy provably cannot mean what it says.
    Error,
}

impl Severity {
    /// Lowercase name, stable for JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Severity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "info" => Ok(Severity::Info),
            "warning" | "warn" => Ok(Severity::Warning),
            "error" => Ok(Severity::Error),
            other => Err(format!("unknown severity `{other}` (info|warning|error)")),
        }
    }
}

/// Whether a policy revision changes any decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChangeClass {
    /// Provably decision-equivalent: no agent/path verdict or crawl delay
    /// changed (comment edits, reordering, cosmetic rewrites).
    Cosmetic,
    /// At least one decision or crawl delay changed, or equivalence could
    /// not be proven within the walk budget (treated conservatively).
    Behavioral,
}

impl ChangeClass {
    /// Lowercase name, stable for report output.
    pub fn as_str(self) -> &'static str {
        match self {
            ChangeClass::Cosmetic => "cosmetic",
            ChangeClass::Behavioral => "behavioral",
        }
    }
}

impl std::fmt::Display for ChangeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The liveness verdict for one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Liveness {
    /// The rule wins on at least one real path.
    Alive {
        /// A normalized request path on which this rule decides the outcome.
        witness: String,
    },
    /// The rule matches real paths but never outranks the competition.
    Shadowed {
        /// A normalized path this rule matches but loses on.
        witness: String,
        /// Merged-rule index (within the same group) of the winner there.
        by: usize,
    },
    /// The rule only ever applies to `/robots.txt`, which the implicit
    /// robots.txt allowance carves out before any rule is consulted.
    RobotsTxtOnly,
    /// The rule cannot match any request path at all.
    Unmatchable,
}

/// Liveness verdict for one rule of one merged agent group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleLiveness {
    /// The group's agent token (`"*"` for the wildcard group).
    pub agent: String,
    /// Index into the group's merged rule list.
    pub rule_index: usize,
    /// The rule's verb.
    pub verb: RuleVerb,
    /// The rule's normalized pattern text.
    pub pattern: String,
    /// The verdict, witness-backed where applicable.
    pub verdict: Liveness,
}

/// A concrete agent/path pair on which two policies disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The probe agent token that selects the differing groups.
    pub agent: String,
    /// A normalized request path with differing verdicts.
    pub path: String,
    /// The left policy's verdict for `(agent, path)`.
    pub left_allow: bool,
    /// The right policy's verdict for `(agent, path)`.
    pub right_allow: bool,
}

/// Outcome of a semantic comparison of two policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffVerdict {
    /// Every agent/path decision is identical.
    Equivalent,
    /// A witnessed decision difference.
    Diverges(Divergence),
    /// No difference found, but a walk hit its state budget before the
    /// proof closed; equivalence is unproven.
    Inconclusive,
}

/// A crawl-delay difference between two policies for one probe agent.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayChange {
    /// The probe agent token.
    pub agent: String,
    /// The left policy's effective crawl delay for the agent.
    pub left: Option<f64>,
    /// The right policy's effective crawl delay for the agent.
    pub right: Option<f64>,
}

/// Result of [`semantic_diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct SemanticDiff {
    /// Decision-equivalence verdict over all agents and paths.
    pub verdict: DiffVerdict,
    /// Crawl-delay differences (independent of path decisions).
    pub delay_changes: Vec<DelayChange>,
}

/// A non-conformant matcher model observed in the wild (paper §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviantModel {
    /// Takes the first rule in document order that matches, instead of the
    /// RFC 9309 most-octets rule.
    FirstMatch,
    /// Treats `*` as a literal byte instead of a wildcard.
    WildcardUnaware,
    /// Treats a trailing `$` as a literal byte instead of an end anchor.
    DollarLiteral,
}

impl DeviantModel {
    /// Stable kebab-case name for report output.
    pub fn as_str(self) -> &'static str {
        match self {
            DeviantModel::FirstMatch => "first-match",
            DeviantModel::WildcardUnaware => "wildcard-unaware",
            DeviantModel::DollarLiteral => "dollar-literal",
        }
    }
}

impl std::fmt::Display for DeviantModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A witnessed decision divergence between RFC 9309 and a deviant matcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hazard {
    /// The merged group's agent token.
    pub agent: String,
    /// The deviant matcher model.
    pub model: DeviantModel,
    /// A normalized path where the two matchers disagree.
    pub path: String,
    /// RFC 9309's verdict on the witness path.
    pub rfc_allow: bool,
    /// The deviant matcher's verdict on the witness path.
    pub deviant_allow: bool,
}

/// Machine-readable finding category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingCode {
    /// Same pattern with both verbs in one group (syntactic).
    ContradictoryRules,
    /// Identical rule repeated (syntactic).
    DuplicateRule,
    /// Empty-pattern rule (syntactic).
    EmptyPattern,
    /// Textual prefix shadowing (syntactic).
    PrefixShadowedRule,
    /// Agent token split across groups (syntactic).
    SplitGroup,
    /// Crawl delay large enough that major crawlers ignore it (syntactic).
    ExcessiveCrawlDelay,
    /// No wildcard group (syntactic).
    NoWildcardGroup,
    /// Rule proven to never win on any real path (semantic).
    DeadRule,
    /// Rule proven unable to match any request path (semantic).
    UnreachableRule,
    /// Rule only ever applies to the carved-out `/robots.txt` (semantic).
    RobotsTxtCarveOut,
    /// RFC 9309 and a deviant matcher disagree on a witnessed path
    /// (semantic).
    ParserDivergence,
    /// A walk hit its state budget; semantic verdicts were suppressed.
    AnalysisTruncated,
}

impl FindingCode {
    /// Stable PascalCase name for report output.
    pub fn as_str(self) -> &'static str {
        match self {
            FindingCode::ContradictoryRules => "ContradictoryRules",
            FindingCode::DuplicateRule => "DuplicateRule",
            FindingCode::EmptyPattern => "EmptyPattern",
            FindingCode::PrefixShadowedRule => "PrefixShadowedRule",
            FindingCode::SplitGroup => "SplitGroup",
            FindingCode::ExcessiveCrawlDelay => "ExcessiveCrawlDelay",
            FindingCode::NoWildcardGroup => "NoWildcardGroup",
            FindingCode::DeadRule => "DeadRule",
            FindingCode::UnreachableRule => "UnreachableRule",
            FindingCode::RobotsTxtCarveOut => "RobotsTxtCarveOut",
            FindingCode::ParserDivergence => "ParserDivergence",
            FindingCode::AnalysisTruncated => "AnalysisTruncated",
        }
    }
}

impl std::fmt::Display for FindingCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Severity class.
    pub severity: Severity,
    /// Machine-readable category.
    pub code: FindingCode,
    /// The agent token the finding concerns, when group-scoped.
    pub agent: Option<String>,
    /// Human-readable description.
    pub message: String,
    /// A concrete witness path, when the verdict is path-backed.
    pub witness: Option<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.severity, self.code)?;
        if let Some(agent) = &self.agent {
            write!(f, " [agent={agent}]")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(w) = &self.witness {
            write!(f, " (witness: {w})")?;
        }
        Ok(())
    }
}

/// Result of [`analyze`]: syntactic and semantic findings, severity-sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Findings, most severe first (stable within a severity).
    pub findings: Vec<Finding>,
    /// Whether every semantic pass ran to completion. When `false`, dead-
    /// rule findings are suppressed and an [`FindingCode::AnalysisTruncated`]
    /// info finding is present.
    pub complete: bool,
}

impl Analysis {
    /// The most severe finding present, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Number of findings at or above `threshold`.
    pub fn at_or_above(&self, threshold: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity >= threshold).count()
    }
}

// ---------------------------------------------------------------------------
// Engine: per-rule glob NFAs product-walked under a percent-context and a
// `/robots.txt` sentinel.
// ---------------------------------------------------------------------------

/// State budget for one product walk. Real policies compile to a few
/// hundred states; the cap only exists so adversarial inputs terminate.
const STATE_CAP: usize = 60_000;

const SENTINEL_PATH: &[u8] = b"/robots.txt";
const SENT_DEAD: u8 = 255;
const PCTX_CLEAN: u8 = 0;
const PCTX_AFTER_PCT: u8 = 1;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Atom {
    Lit(u8),
    Star,
}

/// One rule's glob NFA, bit-packed into the shared product-state key.
///
/// Position bits `bit ..= bit + atoms.len()` track how much of the pattern
/// has been consumed; unanchored rules add a sticky "has matched a prefix"
/// bit at `bit + atoms.len() + 1`.
struct RuleNfa {
    atoms: Vec<Atom>,
    anchored: bool,
    rank: u64,
    bit: usize,
}

impl RuleNfa {
    fn rfc(pattern: &crate::pattern::PathPattern, rank: u64, bit: usize) -> Self {
        let mut atoms = Vec::new();
        for (i, seg) in pattern.segments().iter().enumerate() {
            if i > 0 {
                atoms.push(Atom::Star);
            }
            atoms.extend(seg.bytes().map(Atom::Lit));
        }
        Self { atoms, anchored: pattern.is_anchored(), rank, bit }
    }

    /// Wildcard-unaware model: the whole `$`-stripped body as literal
    /// bytes, `*` included; the end anchor keeps its meaning.
    fn literal(pattern: &crate::pattern::PathPattern, rank: u64, bit: usize) -> Self {
        let raw = pattern.as_str();
        let body = if pattern.is_anchored() { &raw[..raw.len() - 1] } else { raw };
        Self {
            atoms: body.bytes().map(Atom::Lit).collect(),
            anchored: pattern.is_anchored(),
            rank,
            bit,
        }
    }

    /// Dollar-literal model: `*` keeps its meaning, but the trailing `$`
    /// becomes a literal byte and the rule turns into a prefix pattern.
    fn dollar(pattern: &crate::pattern::PathPattern, rank: u64, bit: usize) -> Self {
        let mut nfa = Self::rfc(pattern, rank, bit);
        nfa.atoms.push(Atom::Lit(b'$'));
        nfa.anchored = false;
        nfa
    }

    fn width(&self) -> usize {
        self.atoms.len() + 1 + usize::from(!self.anchored)
    }

    fn matched(&self, bits: &[u64]) -> bool {
        if self.anchored {
            get_bit(bits, self.bit + self.atoms.len())
        } else {
            get_bit(bits, self.bit + self.atoms.len() + 1)
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    bits: Box<[u64]>,
    pctx: u8,
    sentinel: u8,
}

fn get_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Whether the triplet `%h1h2` survives
/// [`crate::pattern::normalize_percent`] unchanged.
fn triplet_fixed(h1: u8, h2: u8) -> bool {
    let (Some(a), Some(b)) = (hex_val(h1), hex_val(h2)) else {
        return false; // not a triplet: the `%` is written `%25`
    };
    let decoded = a * 16 + b;
    if (0x21..=0x7E).contains(&decoded) && decoded != b'/' && decoded != b'%' {
        // Printable: normalization decodes it, changing the string.
        return false;
    }
    // Kept encoded (`%2F`, `%25`, non-printable): only the canonical
    // uppercase spelling survives.
    !h1.is_ascii_lowercase() && !h2.is_ascii_lowercase()
}

/// Percent-context step. Walk strings must be fixed points of
/// `normalize_percent` so witnesses are real normalized paths: every `%`
/// must open a triplet that normalization keeps, so this automaton
/// forbids any byte that would leave a `%` without one. States:
/// `PCTX_CLEAN`, `PCTX_AFTER_PCT` (just consumed `%`), or the first hex
/// byte of an open triplet (hex bytes are ≥ `0x30`, so they never collide
/// with the named states). A path that ends inside a triplet is not
/// normalized either, so only `PCTX_CLEAN` states are visited.
fn pctx_step(state: u8, b: u8) -> Option<u8> {
    match state {
        PCTX_CLEAN => Some(if b == b'%' { PCTX_AFTER_PCT } else { PCTX_CLEAN }),
        PCTX_AFTER_PCT => hex_val(b).map(|_| b),
        h1 => triplet_fixed(h1, b).then_some(PCTX_CLEAN),
    }
}

/// `/robots.txt` sentinel step: state `n < 11` means the path so far is the
/// first `n` bytes of `/robots.txt`; state `11` means it *is* `/robots.txt`
/// exactly; [`SENT_DEAD`] means it can no longer be.
fn sentinel_step(state: u8, b: u8) -> u8 {
    let s = state as usize;
    if s >= SENTINEL_PATH.len() {
        return SENT_DEAD;
    }
    if SENTINEL_PATH[s] == b {
        state + 1
    } else {
        SENT_DEAD
    }
}

fn sentinel_carved(key: &Key) -> bool {
    key.sentinel as usize == SENTINEL_PATH.len()
}

fn close(nfa: &RuleNfa, bits: &mut [u64]) {
    let n = nfa.atoms.len();
    for p in 0..n {
        if get_bit(bits, nfa.bit + p) && nfa.atoms[p] == Atom::Star {
            set_bit(bits, nfa.bit + p + 1);
        }
    }
    if !nfa.anchored && get_bit(bits, nfa.bit + n) {
        set_bit(bits, nfa.bit + n + 1);
    }
}

fn step(nfas: &[RuleNfa], words: usize, key: &Key, b: u8) -> Option<Key> {
    let pctx = pctx_step(key.pctx, b)?;
    let sentinel = sentinel_step(key.sentinel, b);
    let mut bits = vec![0u64; words].into_boxed_slice();
    for nfa in nfas {
        let n = nfa.atoms.len();
        for p in 0..n {
            if !get_bit(&key.bits, nfa.bit + p) {
                continue;
            }
            match nfa.atoms[p] {
                Atom::Lit(c) => {
                    if c == b {
                        set_bit(&mut bits, nfa.bit + p + 1);
                    }
                }
                Atom::Star => set_bit(&mut bits, nfa.bit + p),
            }
        }
        if !nfa.anchored && get_bit(&key.bits, nfa.bit + n + 1) {
            set_bit(&mut bits, nfa.bit + n + 1);
        }
        close(nfa, &mut bits);
    }
    Some(Key { bits, pctx, sentinel })
}

/// The reduced walk alphabet: every literal byte any rule mentions, `/`,
/// and one "escape" byte no rule mentions. Any byte outside the literal set
/// drives every NFA identically, and the escape byte is chosen non-hex and
/// non-`%` so appending it never completes a decodable triplet — one
/// representative therefore covers the whole residue class while keeping
/// walk strings fixed points of normalization.
fn alphabet_for(nfas: &[RuleNfa]) -> Vec<u8> {
    let mut set: BTreeSet<u8> = nfas
        .iter()
        .flat_map(|n| n.atoms.iter())
        .filter_map(|a| match a {
            Atom::Lit(b) => Some(*b),
            Atom::Star => None,
        })
        .collect();
    set.insert(b'/');
    let other = (0x21u8..=0x7E)
        .find(|b| !set.contains(b) && hex_val(*b).is_none() && *b != b'%')
        .or_else(|| (0x01u8..=0x20).find(|b| !set.contains(b)));
    if let Some(b) = other {
        set.insert(b);
    }
    set.into_iter().collect()
}

struct Walk {
    parent: Vec<(u32, u8)>,
    complete: bool,
}

impl Walk {
    /// Reconstruct the path string that reaches state `id`.
    fn path(&self, mut id: usize) -> String {
        let mut bytes = Vec::new();
        while id != 0 {
            let (p, b) = self.parent[id];
            bytes.push(b);
            id = p as usize;
        }
        bytes.reverse();
        String::from_utf8(bytes).expect("walk alphabet is ASCII")
    }
}

/// Breadth-first product walk. `visit` sees every reachable non-root state
/// that ends a normalized path (none inside a `%` triplet) once, shortest
/// path first, and returns `true` to stop early. The root
/// (empty path) only expands on `/`: request paths always start there.
fn walk_product(nfas: &[RuleNfa], mut visit: impl FnMut(usize, &Key) -> bool) -> Walk {
    let total_bits: usize = nfas.iter().map(RuleNfa::width).sum();
    let words = (total_bits / 64 + 1).max(1);
    let alphabet = alphabet_for(nfas);
    let mut root_bits = vec![0u64; words].into_boxed_slice();
    for nfa in nfas {
        set_bit(&mut root_bits, nfa.bit);
        close(nfa, &mut root_bits);
    }
    let root = Key { bits: root_bits, pctx: PCTX_CLEAN, sentinel: 0 };
    let mut keys = vec![root.clone()];
    let mut index: HashMap<Key, u32> = HashMap::new();
    index.insert(root, 0);
    let mut parent = vec![(0u32, 0u8)];
    let mut queue: VecDeque<usize> = VecDeque::new();
    queue.push_back(0);
    let mut complete = true;
    'bfs: while let Some(id) = queue.pop_front() {
        let cur = keys[id].clone();
        let bytes: &[u8] = if id == 0 { b"/" } else { &alphabet };
        for &b in bytes {
            let Some(next) = step(nfas, words, &cur, b) else { continue };
            if index.contains_key(&next) {
                continue;
            }
            if keys.len() >= STATE_CAP {
                complete = false;
                break 'bfs;
            }
            let nid = keys.len();
            index.insert(next.clone(), nid as u32);
            keys.push(next);
            parent.push((id as u32, b));
            if keys[nid].pctx == PCTX_CLEAN && visit(nid, &keys[nid]) {
                return Walk { parent, complete };
            }
            queue.push_back(nid);
        }
    }
    Walk { parent, complete }
}

/// Fold the winning rank over a slice of NFAs at a walk state and return
/// the RFC 9309 verdict (no match ⇒ allow).
fn allow_of(nfas: &[RuleNfa], key: &Key) -> bool {
    let mut best = rank::NO_MATCH;
    for nfa in nfas {
        if nfa.matched(&key.bits) {
            best = best.max(nfa.rank);
        }
    }
    best == rank::NO_MATCH || rank::allow(best)
}

/// Build RFC NFAs for a rule list, skipping empty patterns. Returns the
/// NFAs and, parallel to them, each NFA's index into `rules`.
fn build_rfc(rules: &[Rule], bit: &mut usize) -> (Vec<RuleNfa>, Vec<usize>) {
    let mut nfas = Vec::new();
    let mut owners = Vec::new();
    for (idx, rule) in rules.iter().enumerate() {
        if rule.pattern.is_empty() {
            continue;
        }
        let rank = rank::pack(rule.pattern.specificity(), rule.verb, idx as u32);
        let nfa = RuleNfa::rfc(&rule.pattern, rank, *bit);
        *bit += nfa.width();
        owners.push(idx);
        nfas.push(nfa);
    }
    (nfas, owners)
}

// ---------------------------------------------------------------------------
// Pass 1: rule liveness.
// ---------------------------------------------------------------------------

/// Prove, for every non-empty rule of every merged group, whether some
/// real request path makes it the winning terminal. Returns the verdicts
/// and whether every proof closed within the walk budget (when `false`,
/// dead verdicts are evidence-backed but not exhaustive).
pub fn rule_liveness(policy: &CompiledPolicy) -> (Vec<RuleLiveness>, bool) {
    rule_liveness_impl(policy, false)
}

/// Test-only variant that can force the NFA walk even for groups the trie
/// fast path could decide, so the two engines can be differentially tested.
#[doc(hidden)]
pub fn rule_liveness_forced(
    policy: &CompiledPolicy,
    force_walk: bool,
) -> (Vec<RuleLiveness>, bool) {
    rule_liveness_impl(policy, force_walk)
}

fn rule_liveness_impl(policy: &CompiledPolicy, force_walk: bool) -> (Vec<RuleLiveness>, bool) {
    let mut out = Vec::new();
    let mut complete = true;
    for (token, view) in policy.groups() {
        let (verdicts, group_complete) = if force_walk || view.has_wild() {
            walk_liveness(&view)
        } else {
            (trie_liveness(&view), true)
        };
        complete &= group_complete;
        let rules = view.rules();
        for (idx, verdict) in verdicts {
            out.push(RuleLiveness {
                agent: token.to_string(),
                rule_index: idx,
                verb: rules[idx].verb,
                pattern: rules[idx].pattern.as_str().to_string(),
                verdict,
            });
        }
    }
    (out, complete)
}

/// NFA-walk liveness for one group (required when interior wildcards put
/// rules on the side list).
fn walk_liveness(view: &GroupView<'_>) -> (Vec<(usize, Liveness)>, bool) {
    let mut bit = 0;
    let (nfas, owners) = build_rfc(view.rules(), &mut bit);
    if nfas.is_empty() {
        return (Vec::new(), true);
    }
    #[derive(Clone, Default)]
    struct St {
        alive: Option<usize>,
        shadow: Option<(usize, usize)>,
        robots: bool,
    }
    let mut st = vec![St::default(); nfas.len()];
    let mut alive_count = 0usize;
    let walk = walk_product(&nfas, |id, key| {
        let mut best = rank::NO_MATCH;
        for nfa in &nfas {
            if nfa.matched(&key.bits) {
                best = best.max(nfa.rank);
            }
        }
        if best == rank::NO_MATCH {
            return false;
        }
        let carved = sentinel_carved(key);
        for (i, nfa) in nfas.iter().enumerate() {
            if !nfa.matched(&key.bits) {
                continue;
            }
            if carved {
                st[i].robots = true;
            } else if nfa.rank == best {
                if st[i].alive.is_none() {
                    st[i].alive = Some(id);
                    alive_count += 1;
                }
            } else if st[i].shadow.is_none() {
                st[i].shadow = Some((id, rank::rule_index(best)));
            }
        }
        alive_count == nfas.len()
    });
    let verdicts = owners
        .iter()
        .zip(&st)
        .map(|(&idx, s)| {
            let verdict = if let Some(id) = s.alive {
                Liveness::Alive { witness: walk.path(id) }
            } else if let Some((id, by)) = s.shadow {
                Liveness::Shadowed { witness: walk.path(id), by }
            } else if s.robots {
                Liveness::RobotsTxtOnly
            } else {
                Liveness::Unmatchable
            };
            (idx, verdict)
        })
        .collect();
    (verdicts, walk.complete)
}

/// Pick a byte that escapes `node`: not one of its outgoing edges, not a
/// hex digit or `%` (so appending it never completes a decodable triplet,
/// keeping witnesses normalization-fixed), preferably printable.
fn escape_byte(children: &[u8]) -> Option<u8> {
    let taken: HashSet<u8> = children.iter().copied().collect();
    (0x21u8..=0x7E)
        .find(|b| !taken.contains(b) && hex_val(*b).is_none() && *b != b'%')
        .or_else(|| (0x01u8..=0x20).find(|b| !taken.contains(b)))
}

/// Trie fast path for groups with no side-list rules: the trie's `/`
/// subtree partitions path space into one *exact* class per node (the path
/// spelled by the node) and one *escape* class per node (paths leaving the
/// node with a non-edge byte). Every path in a class folds the same ranks,
/// so one representative decides the class, and a rule is alive iff it wins
/// one of these finitely many classes.
fn trie_liveness(view: &GroupView<'_>) -> Vec<(usize, Liveness)> {
    let rules = view.rules();
    let mut alive: Vec<Option<String>> = vec![None; rules.len()];
    let mark = |path: String, alive: &mut Vec<Option<String>>| {
        let r = view.scan_rank(&path);
        if r != rank::NO_MATCH {
            let idx = rank::rule_index(r);
            if alive[idx].is_none() {
                alive[idx] = Some(path);
            }
        }
    };

    let slash = view.node(0).children().find(|&(b, _)| b == b'/').map(|(_, i)| i);
    match slash {
        // No `/` edge at the root: every request path is in the root's
        // escape class and `/` decides it.
        None => mark("/".to_string(), &mut alive),
        Some(slash_idx) => {
            let mut stack: Vec<(usize, String)> = vec![(slash_idx, "/".to_string())];
            while let Some((node_idx, s)) = stack.pop() {
                let node = view.node(node_idx);
                if s != "/robots.txt" {
                    mark(s.clone(), &mut alive);
                }
                let children: Vec<(u8, usize)> = node.children().collect();
                let child_bytes: Vec<u8> = children.iter().map(|&(b, _)| b).collect();
                if let Some(esc) = escape_byte(&child_bytes) {
                    let mut w = s.clone();
                    w.push(esc as char);
                    if w == "/robots.txt" {
                        // The escape byte happened to spell the carved-out
                        // path; a second escape byte stays in the class.
                        w.push(esc as char);
                    }
                    mark(w, &mut alive);
                }
                for (b, child) in children {
                    // Normalized patterns are pure ASCII, so trie edges are
                    // single-byte chars.
                    if b.is_ascii() {
                        let mut cs = s.clone();
                        cs.push(b as char);
                        stack.push((child, cs));
                    }
                }
            }
        }
    }

    let shadowed_at = |witness: String| {
        let by = rank::rule_index(view.scan_rank(&witness));
        Liveness::Shadowed { witness, by }
    };
    let mut out = Vec::new();
    for (idx, rule) in rules.iter().enumerate() {
        if rule.pattern.is_empty() {
            continue;
        }
        if let Some(w) = alive[idx].take() {
            out.push((idx, Liveness::Alive { witness: w }));
            continue;
        }
        let segments = rule.pattern.segments();
        let key = segments[0].as_str();
        let exact = segments.len() == 1 && rule.pattern.is_anchored();
        let verdict = if exact {
            if key == "/robots.txt" {
                Liveness::RobotsTxtOnly
            } else if key.starts_with('/') {
                shadowed_at(key.to_string())
            } else {
                Liveness::Unmatchable
            }
        } else if key.is_empty() {
            // Prefix of everything: it matches `/` but lost there.
            shadowed_at("/".to_string())
        } else if !key.starts_with('/') {
            Liveness::Unmatchable
        } else if key == "/robots.txt" {
            // Matches the carved-out path plus its extensions; witness an
            // extension via the key node's escape byte.
            match node_for(view, key).and_then(|n| {
                let bytes: Vec<u8> = view.node(n).children().map(|(b, _)| b).collect();
                escape_byte(&bytes)
            }) {
                Some(esc) => {
                    let mut w = key.to_string();
                    w.push(esc as char);
                    shadowed_at(w)
                }
                None => Liveness::RobotsTxtOnly,
            }
        } else {
            shadowed_at(key.to_string())
        };
        out.push((idx, verdict));
    }
    out
}

/// Descend the trie along `key`, returning the node index it spells.
fn node_for(view: &GroupView<'_>, key: &str) -> Option<usize> {
    let mut idx = 0usize;
    for b in key.bytes() {
        idx = view.node(idx).children().find(|&(cb, _)| cb == b)?.1;
    }
    Some(idx)
}

// ---------------------------------------------------------------------------
// Pass 2: semantic diff.
// ---------------------------------------------------------------------------

enum GroupDiff {
    Equivalent,
    Diverges(Divergence),
    Inconclusive,
}

fn rules_equal(a: &[Rule], b: &[Rule]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.verb == y.verb && x.pattern.as_str() == y.pattern.as_str())
}

fn group_diff(left: &[Rule], right: &[Rule], agent: &str) -> GroupDiff {
    let mut bit = 0;
    let (mut nfas, _) = build_rfc(left, &mut bit);
    let left_count = nfas.len();
    let (right_nfas, _) = build_rfc(right, &mut bit);
    nfas.extend(right_nfas);
    let mut found: Option<(usize, bool, bool)> = None;
    let walk = walk_product(&nfas, |id, key| {
        if sentinel_carved(key) {
            return false;
        }
        let la = allow_of(&nfas[..left_count], key);
        let ra = allow_of(&nfas[left_count..], key);
        if la == ra {
            false
        } else {
            found = Some((id, la, ra));
            true
        }
    });
    match found {
        Some((id, left_allow, right_allow)) => GroupDiff::Diverges(Divergence {
            agent: agent.to_string(),
            path: walk.path(id),
            left_allow,
            right_allow,
        }),
        None if walk.complete => GroupDiff::Equivalent,
        None => GroupDiff::Inconclusive,
    }
}

/// Prove two compiled policies decision-equivalent for every agent and
/// path, or return a witnessed divergence. Probe agents are every named
/// token of either policy plus one fresh token that only wildcard groups
/// can capture; probes resolving to the same group pair are walked once.
pub fn semantic_diff(left: &CompiledPolicy, right: &CompiledPolicy) -> SemanticDiff {
    let mut probes: BTreeSet<String> = BTreeSet::new();
    for (t, _) in left.groups().chain(right.groups()) {
        if t != "*" {
            probes.insert(t.to_string());
        }
    }
    let mut fresh = String::from("zzfreshbot");
    let named = |p: &CompiledPolicy, t: &str| p.resolve_view(t).is_some_and(|(g, _)| g != "*");
    while named(left, &fresh) || named(right, &fresh) {
        fresh.push('z');
    }
    let mut ordered: Vec<String> = probes.into_iter().collect();
    ordered.push(fresh);

    let mut seen: HashSet<(Option<String>, Option<String>)> = HashSet::new();
    let mut delay_changes = Vec::new();
    let mut verdict = DiffVerdict::Equivalent;
    for probe in ordered {
        let lg = left.resolve_view(&probe);
        let rg = right.resolve_view(&probe);
        let pair = (lg.map(|(t, _)| t.to_string()), rg.map(|(t, _)| t.to_string()));
        if !seen.insert(pair) {
            continue;
        }
        let ld = lg.and_then(|(_, g)| g.crawl_delay());
        let rd = rg.and_then(|(_, g)| g.crawl_delay());
        if ld.map(f64::to_bits) != rd.map(f64::to_bits) {
            delay_changes.push(DelayChange { agent: probe.clone(), left: ld, right: rd });
        }
        if matches!(verdict, DiffVerdict::Diverges(_)) {
            continue; // keep collecting delay changes; first witness stands
        }
        let lr: &[Rule] = lg.map_or(&[][..], |(_, g)| g.rules());
        let rr: &[Rule] = rg.map_or(&[][..], |(_, g)| g.rules());
        if rules_equal(lr, rr) {
            continue;
        }
        match group_diff(lr, rr, &probe) {
            GroupDiff::Equivalent => {}
            GroupDiff::Diverges(d) => verdict = DiffVerdict::Diverges(d),
            GroupDiff::Inconclusive => verdict = DiffVerdict::Inconclusive,
        }
    }
    SemanticDiff { verdict, delay_changes }
}

/// Classify a policy revision: [`ChangeClass::Cosmetic`] iff the two
/// documents are provably decision-equivalent with identical crawl delays;
/// anything else — including an unproven equivalence — is
/// [`ChangeClass::Behavioral`].
pub fn classify_change(old: &RobotsTxt, new: &RobotsTxt) -> ChangeClass {
    let diff = semantic_diff(&CompiledPolicy::compile(old), &CompiledPolicy::compile(new));
    if matches!(diff.verdict, DiffVerdict::Equivalent) && diff.delay_changes.is_empty() {
        ChangeClass::Cosmetic
    } else {
        ChangeClass::Behavioral
    }
}

// ---------------------------------------------------------------------------
// Pass 3: parser-divergence hazards.
// ---------------------------------------------------------------------------

const MODELS: [DeviantModel; 3] =
    [DeviantModel::FirstMatch, DeviantModel::WildcardUnaware, DeviantModel::DollarLiteral];

/// For every merged group, find paths where a deviant matcher model
/// (first-match, wildcard-unaware, `$`-as-literal) disagrees with RFC 9309.
/// One shortest witness is reported per `(group, model)`. Returns the
/// hazards and whether every walk ran to completion.
pub fn divergence_hazards(policy: &CompiledPolicy) -> (Vec<Hazard>, bool) {
    let mut out = Vec::new();
    let mut complete = true;
    for (token, view) in policy.groups() {
        let rules = view.rules();
        let mut bit = 0;
        let (mut nfas, owners) = build_rfc(rules, &mut bit);
        let rfc_count = nfas.len();
        if rfc_count == 0 {
            continue;
        }
        // Deviant automata only where the model changes the rule's
        // language: a `*`-free rule reads the same to a wildcard-unaware
        // matcher, an unanchored rule the same to a dollar-literal one.
        let mut wu_slot: Vec<Option<usize>> = vec![None; rfc_count];
        let mut dl_slot: Vec<Option<usize>> = vec![None; rfc_count];
        for (i, &idx) in owners.iter().enumerate() {
            let p = &rules[idx].pattern;
            if p.segments().len() > 1 {
                let nfa = RuleNfa::literal(p, nfas[i].rank, bit);
                bit += nfa.width();
                wu_slot[i] = Some(nfas.len());
                nfas.push(nfa);
            }
            if p.is_anchored() {
                let nfa = RuleNfa::dollar(p, nfas[i].rank, bit);
                bit += nfa.width();
                dl_slot[i] = Some(nfas.len());
                nfas.push(nfa);
            }
        }
        let applicable = |m: DeviantModel| match m {
            DeviantModel::FirstMatch => rfc_count >= 2,
            DeviantModel::WildcardUnaware => wu_slot.iter().any(Option::is_some),
            DeviantModel::DollarLiteral => dl_slot.iter().any(Option::is_some),
        };
        if !MODELS.into_iter().any(applicable) {
            continue;
        }
        let mut found: HashMap<DeviantModel, (usize, bool, bool)> = HashMap::new();
        let walk = walk_product(&nfas, |id, key| {
            if sentinel_carved(key) {
                return false;
            }
            let rfc_allow = allow_of(&nfas[..rfc_count], key);
            for m in MODELS {
                if !applicable(m) || found.contains_key(&m) {
                    continue;
                }
                let dev = match m {
                    DeviantModel::FirstMatch => nfas[..rfc_count]
                        .iter()
                        .find(|nfa| nfa.matched(&key.bits))
                        .is_none_or(|nfa| rank::allow(nfa.rank)),
                    DeviantModel::WildcardUnaware => {
                        substituted_allow(&nfas, rfc_count, &wu_slot, key)
                    }
                    DeviantModel::DollarLiteral => {
                        substituted_allow(&nfas, rfc_count, &dl_slot, key)
                    }
                };
                if dev != rfc_allow {
                    found.insert(m, (id, rfc_allow, dev));
                }
            }
            MODELS.into_iter().all(|m| !applicable(m) || found.contains_key(&m))
        });
        complete &= walk.complete;
        for m in MODELS {
            if let Some(&(id, rfc_allow, deviant_allow)) = found.get(&m) {
                out.push(Hazard {
                    agent: token.to_string(),
                    model: m,
                    path: walk.path(id),
                    rfc_allow,
                    deviant_allow,
                });
            }
        }
    }
    (out, complete)
}

/// RFC precedence fold where rules with a deviant automaton use its match
/// bit instead of their RFC one.
fn substituted_allow(
    nfas: &[RuleNfa],
    rfc_count: usize,
    slots: &[Option<usize>],
    key: &Key,
) -> bool {
    let mut best = rank::NO_MATCH;
    for i in 0..rfc_count {
        let nfa = &nfas[slots[i].unwrap_or(i)];
        if nfa.matched(&key.bits) {
            best = best.max(nfas[i].rank);
        }
    }
    best == rank::NO_MATCH || rank::allow(best)
}

// ---------------------------------------------------------------------------
// The combined analyzer.
// ---------------------------------------------------------------------------

/// Run every pass over one document: the syntactic audit plus semantic
/// liveness and parser-divergence lints, merged into one severity-sorted
/// finding list. Dead-rule findings are only emitted when their proofs
/// closed ([`Analysis::complete`]).
pub fn analyze(doc: &RobotsTxt) -> Analysis {
    let mut findings = audit::audit(doc);
    let policy = CompiledPolicy::compile(doc);
    let group_rules: HashMap<String, Vec<Rule>> =
        policy.groups().map(|(t, v)| (t.to_string(), v.rules().to_vec())).collect();

    let (liveness, live_complete) = rule_liveness(&policy);
    if live_complete {
        for rl in liveness {
            let finding = match rl.verdict {
                Liveness::Alive { .. } => continue,
                Liveness::Shadowed { witness, by } => {
                    let by_text = group_rules.get(&rl.agent).map_or_else(
                        || "another rule".to_string(),
                        |rules| {
                            let r = &rules[by];
                            format!("`{}: {}`", r.verb.as_str(), r.pattern.as_str())
                        },
                    );
                    Finding {
                        severity: Severity::Warning,
                        code: FindingCode::DeadRule,
                        message: format!(
                            "`{}: {}` never wins: {by_text} outranks it on every path it matches",
                            rl.verb.as_str(),
                            rl.pattern
                        ),
                        agent: Some(rl.agent),
                        witness: Some(witness),
                    }
                }
                Liveness::RobotsTxtOnly => Finding {
                    severity: Severity::Warning,
                    code: FindingCode::RobotsTxtCarveOut,
                    message: format!(
                        "`{}: {}` only ever applies to /robots.txt, which is implicitly allowed",
                        rl.verb.as_str(),
                        rl.pattern
                    ),
                    agent: Some(rl.agent),
                    witness: None,
                },
                Liveness::Unmatchable => Finding {
                    severity: Severity::Error,
                    code: FindingCode::UnreachableRule,
                    message: format!(
                        "`{}: {}` cannot match any request path",
                        rl.verb.as_str(),
                        rl.pattern
                    ),
                    agent: Some(rl.agent),
                    witness: None,
                },
            };
            findings.push(finding);
        }
    }

    let (hazards, hazard_complete) = divergence_hazards(&policy);
    for h in hazards {
        let word = |allow: bool| if allow { "allows" } else { "denies" };
        findings.push(Finding {
            severity: Severity::Warning,
            code: FindingCode::ParserDivergence,
            message: format!(
                "a {} parser {} what RFC 9309 {}",
                h.model,
                word(h.deviant_allow),
                word(h.rfc_allow)
            ),
            agent: Some(h.agent),
            witness: Some(h.path),
        });
    }

    let complete = live_complete && hazard_complete;
    if !complete {
        findings.push(Finding {
            severity: Severity::Info,
            code: FindingCode::AnalysisTruncated,
            message: "a semantic walk hit its state budget; dead-rule verdicts suppressed"
                .to_string(),
            agent: None,
            witness: None,
        });
    }
    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    Analysis { findings, complete }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::PathPattern;

    fn compiled(text: &str) -> CompiledPolicy {
        CompiledPolicy::compile(&parse(text))
    }

    fn verdict_of<'a>(liveness: &'a [RuleLiveness], pattern: &str) -> &'a Liveness {
        &liveness.iter().find(|rl| rl.pattern == pattern).expect("rule present").verdict
    }

    #[test]
    fn simple_rules_are_alive_with_replayable_witnesses() {
        let policy = compiled("User-agent: *\nDisallow: /secure/\nAllow: /secure/open\n");
        let (liveness, complete) = rule_liveness(&policy);
        assert!(complete);
        for rl in &liveness {
            let Liveness::Alive { witness } = &rl.verdict else {
                panic!("expected alive: {rl:?}");
            };
            let decision = policy.check("anybot", witness);
            assert_eq!(decision.allow, rl.verb == RuleVerb::Allow, "witness {witness}");
            assert_eq!(
                decision.matched_rule.expect("witness selects a rule").pattern.as_str(),
                rl.pattern
            );
        }
    }

    #[test]
    fn contradictory_disallow_is_shadowed_by_allow() {
        let policy = compiled("User-agent: *\nDisallow: /a\nAllow: /a\n");
        let (liveness, complete) = rule_liveness(&policy);
        assert!(complete);
        let dis = liveness.iter().find(|rl| rl.verb == RuleVerb::Disallow).unwrap();
        let Liveness::Shadowed { witness, by } = &dis.verdict else {
            panic!("expected shadowed: {dis:?}");
        };
        assert_eq!(*by, 1); // the Allow
        assert!(policy.check("anybot", witness).allow);
    }

    #[test]
    fn broader_allow_shadows_narrow_disallow() {
        // Allow /ab (spec 3) outranks Disallow /a (spec 2) on every path
        // /a matches? No — /a matches /ax which /ab does not. Alive.
        let policy = compiled("User-agent: *\nDisallow: /a\nAllow: /ab\n");
        let (liveness, _) = rule_liveness(&policy);
        assert!(matches!(verdict_of(&liveness, "/a"), Liveness::Alive { .. }));
        // But a same-prefix Allow with a wildcard tail kills it.
        let policy = compiled("User-agent: *\nDisallow: /a\nAllow: /a*x*\n");
        let (liveness, complete) = rule_liveness(&policy);
        assert!(complete);
        assert!(matches!(verdict_of(&liveness, "/a"), Liveness::Alive { .. }));
    }

    #[test]
    fn wildcard_allow_covering_prefix_shadows_it() {
        let policy = compiled("User-agent: *\nDisallow: /data\nAllow: /dat*\n");
        let (liveness, complete) = rule_liveness(&policy);
        assert!(complete);
        let Liveness::Shadowed { witness, by } = verdict_of(&liveness, "/data") else {
            panic!("expected shadowed");
        };
        assert_eq!(*by, 1);
        assert!(policy.check("anybot", witness).allow);
        // The witness really is a path /data matches.
        assert!(PathPattern::new("/data").matches(witness));
    }

    #[test]
    fn bare_dollar_rule_is_unmatchable() {
        let policy = compiled("User-agent: *\nDisallow: $\nAllow: /\n");
        let (liveness, complete) = rule_liveness(&policy);
        assert!(complete);
        assert!(matches!(verdict_of(&liveness, "$"), Liveness::Unmatchable));
    }

    #[test]
    fn relative_key_rule_is_unmatchable() {
        let policy = compiled("User-agent: *\nDisallow: foo\n");
        let (liveness, complete) = rule_liveness(&policy);
        assert!(complete);
        assert!(matches!(verdict_of(&liveness, "foo"), Liveness::Unmatchable));
    }

    #[test]
    fn robots_txt_exact_rule_is_carved_out() {
        let policy = compiled("User-agent: *\nDisallow: /robots.txt$\n");
        let (liveness, complete) = rule_liveness(&policy);
        assert!(complete);
        assert!(matches!(verdict_of(&liveness, "/robots.txt$"), Liveness::RobotsTxtOnly));
        // Prefix form stays alive via extensions, witnessed off-carve-out.
        let policy = compiled("User-agent: *\nDisallow: /robots.txt\n");
        let (liveness, _) = rule_liveness(&policy);
        let Liveness::Alive { witness } = verdict_of(&liveness, "/robots.txt") else {
            panic!("expected alive");
        };
        assert_ne!(witness, "/robots.txt");
        assert!(!policy.check("anybot", witness).allow);
    }

    #[test]
    fn trie_and_walk_agree_on_wildcard_free_groups() {
        let texts = [
            "User-agent: *\nDisallow: /a\nAllow: /a\nDisallow: /a/b\nAllow: /\n",
            "User-agent: *\nDisallow: /robots.txt$\nDisallow: /x$\nAllow: /x\n",
            "User-agent: a\nDisallow: /p\nUser-agent: b\nAllow: /p\nDisallow: /p/q\n",
            "User-agent: *\nDisallow: $\nDisallow: rel\nDisallow: /\n",
        ];
        for text in texts {
            let policy = compiled(text);
            let (fast, _) = rule_liveness_forced(&policy, false);
            let (slow, complete) = rule_liveness_forced(&policy, true);
            assert!(complete);
            assert_eq!(fast.len(), slow.len(), "{text}");
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(
                    std::mem::discriminant(&f.verdict),
                    std::mem::discriminant(&s.verdict),
                    "{text}: {f:?} vs {s:?}"
                );
            }
        }
    }

    #[test]
    fn percent_pattern_witness_is_normalized() {
        let policy = compiled("User-agent: *\nDisallow: /caf%c3%a9\n");
        let (liveness, complete) = rule_liveness(&policy);
        assert!(complete);
        let Liveness::Alive { witness } = verdict_of(&liveness, "/caf%C3%A9") else {
            panic!("expected alive");
        };
        assert_eq!(crate::pattern::normalize_percent(witness), *witness);
        assert!(!policy.check("anybot", witness).allow);
    }

    #[test]
    fn witnesses_never_end_inside_a_triplet() {
        // `/z*z` sends the group through the product walk. `!`, `"`, `#`
        // and `$` are literals, so the walk's escape byte is `&`, above
        // `%`: the first path past `/a` that `Disallow: /a` wins in walk
        // order is `/a%`, which is no normalized path (it reads as
        // `/a%25`); the witness must be the next one, `/a&`.
        let policy = compiled(
            "User-agent: *\nDisallow: /a\nAllow: /a$\nAllow: /a!\nAllow: /a\"\n\
             Allow: /a%23\nAllow: /a$*\nAllow: /a%25\nAllow: /z*z\n",
        );
        let (liveness, complete) = rule_liveness(&policy);
        assert!(complete);
        let Liveness::Alive { witness } = verdict_of(&liveness, "/a") else {
            panic!("expected alive");
        };
        assert_eq!(witness, "/a&");
        assert!(!policy.check("anybot", witness).allow);
    }

    #[test]
    fn semantic_diff_proves_cosmetic_rewrites_equivalent() {
        let a = compiled("# v1\nUser-agent: *\nDisallow: /private/\nAllow: /public\n");
        let b = compiled(
            "User-agent: *\n# reordered, commented\nAllow: /public\nDisallow: /private/\n",
        );
        let d = semantic_diff(&a, &b);
        assert_eq!(d.verdict, DiffVerdict::Equivalent);
        assert!(d.delay_changes.is_empty());
        // Star-splitting a prefix is also cosmetic: /p* ≡ /p.
        let c = compiled("User-agent: *\nDisallow: /private/*\nAllow: /public\n");
        // Different specificity can flip precedence, so only claim
        // equivalence when the diff engine proves it.
        match semantic_diff(&a, &c).verdict {
            DiffVerdict::Equivalent => {}
            DiffVerdict::Diverges(d) => {
                // Witness must be real: replay through both.
                assert_ne!(a.check("anybot", &d.path).allow, c.check("anybot", &d.path).allow);
            }
            DiffVerdict::Inconclusive => panic!("tiny policies must complete"),
        }
    }

    #[test]
    fn semantic_diff_witnesses_behavioral_changes() {
        let a = compiled("User-agent: *\nDisallow: /secure/\n");
        let b = compiled("User-agent: *\nDisallow: /secure/\nDisallow: /beta\n");
        let d = semantic_diff(&a, &b);
        let DiffVerdict::Diverges(div) = &d.verdict else {
            panic!("expected divergence: {d:?}");
        };
        assert!(a.check(&div.agent, &div.path).allow == div.left_allow);
        assert!(b.check(&div.agent, &div.path).allow == div.right_allow);
        assert_ne!(div.left_allow, div.right_allow);
    }

    #[test]
    fn semantic_diff_sees_named_group_changes() {
        let a = compiled("User-agent: gptbot\nDisallow: /\n\nUser-agent: *\nDisallow: /tmp\n");
        let b = compiled("User-agent: *\nDisallow: /tmp\n");
        let d = semantic_diff(&a, &b);
        let DiffVerdict::Diverges(div) = &d.verdict else {
            panic!("expected divergence: {d:?}");
        };
        assert_eq!(div.agent, "gptbot");
        assert_ne!(a.check("GPTBot", &div.path).allow, b.check("GPTBot", &div.path).allow);
    }

    #[test]
    fn delay_only_changes_are_behavioral() {
        let a = parse("User-agent: *\nDisallow: /x\nCrawl-delay: 5\n");
        let b = parse("User-agent: *\nDisallow: /x\nCrawl-delay: 10\n");
        assert_eq!(classify_change(&a, &b), ChangeClass::Behavioral);
        let d = semantic_diff(&CompiledPolicy::compile(&a), &CompiledPolicy::compile(&b));
        assert_eq!(d.verdict, DiffVerdict::Equivalent);
        assert_eq!(d.delay_changes.len(), 1);
    }

    #[test]
    fn classify_change_cosmetic_for_comment_edits() {
        let a = parse("User-agent: *\nDisallow: /private/\n");
        let b = parse("# robots policy\nUser-agent: *\nDisallow: /private/\n# end\n");
        assert_eq!(classify_change(&a, &b), ChangeClass::Cosmetic);
        let c = parse("User-agent: *\nDisallow: /private/\nDisallow: /private/sub\n");
        // The extra rule is shadowed — decisions are unchanged.
        assert_eq!(classify_change(&a, &c), ChangeClass::Cosmetic);
    }

    #[test]
    fn equivalent_matchers_produce_no_hazard() {
        // One plain prefix rule: every deviant model reads it identically.
        let policy = compiled("User-agent: *\nDisallow: /private/\n");
        let (hazards, complete) = divergence_hazards(&policy);
        assert!(complete);
        assert!(hazards.is_empty(), "{hazards:?}");
    }

    #[test]
    fn analyze_merges_passes_severity_sorted() {
        let analysis = analyze(&parse(
            "User-agent: *\nDisallow: $\nDisallow: /dup\nDisallow: /dup\nAllow: /x\nDisallow: /x\n",
        ));
        assert!(analysis.complete);
        assert_eq!(analysis.worst(), Some(Severity::Error));
        let codes: Vec<FindingCode> = analysis.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&FindingCode::UnreachableRule));
        assert!(codes.contains(&FindingCode::DuplicateRule));
        assert!(codes.contains(&FindingCode::DeadRule));
        let sevs: Vec<Severity> = analysis.findings.iter().map(|f| f.severity).collect();
        let mut sorted = sevs.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(sevs, sorted);
        assert!(analysis.at_or_above(Severity::Error) >= 1);
    }

    #[test]
    fn clean_policy_analyzes_clean() {
        let analysis = analyze(&parse("User-agent: *\nDisallow: /private/\nAllow: /\n"));
        // `/` is shadowed nowhere; /private/ wins under it; only benign
        // syntactic findings (none here) would appear.
        assert!(analysis.complete);
        assert!(
            analysis.findings.iter().all(|f| f.severity == Severity::Info),
            "{:?}",
            analysis.findings
        );
    }

    #[test]
    fn severity_parses_and_orders() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!("warning".parse::<Severity>().unwrap(), Severity::Warning);
        assert_eq!("ERROR".parse::<Severity>().unwrap(), Severity::Error);
        assert!("bogus".parse::<Severity>().is_err());
    }

    #[test]
    fn pctx_rejects_non_canonical_triplets() {
        // %2f would normalize to %2F: the walk must never spell it.
        assert_eq!(pctx_step(PCTX_AFTER_PCT, b'2'), Some(b'2'));
        assert_eq!(pctx_step(b'2', b'f'), None);
        assert_eq!(pctx_step(b'2', b'F'), Some(PCTX_CLEAN));
        // %41 decodes to 'A' (printable): not a fixed point either way.
        assert_eq!(pctx_step(b'4', b'1'), None);
        // %E9 is non-printable: uppercase spelling is canonical.
        assert_eq!(pctx_step(b'E', b'9'), Some(PCTX_CLEAN));
        assert_eq!(pctx_step(b'e', b'9'), None);
        // %25 is a literal `%` and stays encoded.
        assert_eq!(pctx_step(b'2', b'5'), Some(PCTX_CLEAN));
        // A `%` that opens no triplet would normalize to %25.
        assert_eq!(pctx_step(PCTX_AFTER_PCT, b'x'), None);
        assert_eq!(pctx_step(PCTX_AFTER_PCT, b'%'), None);
        assert_eq!(pctx_step(b'2', b'x'), None);
    }
}
