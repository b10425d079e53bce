//! Differential property tests for the static analyzer.
//!
//! Every analyzer verdict is witness-backed; these tests replay each
//! witness through the RFC oracle (`rep_oracle::decide`), the compiled
//! automaton ([`CompiledPolicy::check`]), and the oracle's deviant
//! matcher models, and pin the liveness verdicts against a brute-force
//! winner enumeration over sampled paths.

mod rep_oracle;

use botscope_robotstxt::analysis::{
    classify_change, divergence_hazards, rule_liveness, semantic_diff, ChangeClass, DeviantModel,
    DiffVerdict, Liveness, RuleLiveness,
};
use botscope_robotstxt::parser::parse;
use botscope_robotstxt::pattern::{normalize_percent, PathPattern};
use botscope_robotstxt::{CompiledPolicy, RobotsTxt, Rule, RuleVerb};
use proptest::prelude::*;

/// Small pattern alphabet so shadowing, duplicates, and wildcard
/// interactions occur often within a few rules.
fn pattern_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("/[ab/.*%25]{0,8}\\$?").expect("valid regex")
}

fn path_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("/[ab/.%25]{0,10}").expect("valid regex")
}

type RuleSpec = (bool, String);

/// Render rule specs for one agent group.
fn render_group(out: &mut String, agent: &str, rules: &[RuleSpec]) {
    out.push_str("User-agent: ");
    out.push_str(agent);
    out.push('\n');
    for (allow, pattern) in rules {
        out.push_str(if *allow { "Allow: " } else { "Disallow: " });
        out.push_str(pattern);
        out.push('\n');
    }
}

/// A one- or two-group policy: a wildcard group, plus optionally a
/// named group for `alphabot`.
fn policy_strategy() -> impl Strategy<Value = String> {
    (
        prop::collection::vec((any::<bool>(), pattern_strategy()), 1..6),
        prop::option::of(prop::collection::vec((any::<bool>(), pattern_strategy()), 1..4)),
    )
        .prop_map(|(star, named)| {
            let mut text = String::new();
            render_group(&mut text, "*", &star);
            if let Some(rules) = named {
                text.push('\n');
                render_group(&mut text, "alphabot", &rules);
            }
            text
        })
}

/// A product token that resolves to the group named by the analyzer.
/// `zzqbot` shares no prefix with `alphabot`, so it falls through to
/// the wildcard group.
fn agent_for(group: &str) -> &str {
    if group == "*" {
        "zzqbot"
    } else {
        group
    }
}

/// Document-order rules of every group the token applies to — the rule
/// list the deviant matcher models score.
fn rules_for<'a>(doc: &'a RobotsTxt, group: &str) -> Vec<&'a Rule> {
    doc.groups
        .iter()
        .filter(|g| g.user_agents.iter().any(|ua| ua == group))
        .flat_map(|g| g.rules.iter())
        .collect()
}

/// A deviant model's verdict, through the oracle.
fn deviant_allow(model: DeviantModel, rules: &[Rule], normalized_path: &str) -> bool {
    match model {
        DeviantModel::FirstMatch => rep_oracle::first_match_allow(rules, normalized_path),
        DeviantModel::WildcardUnaware => rep_oracle::wildcard_unaware_allow(rules, normalized_path),
        DeviantModel::DollarLiteral => rep_oracle::dollar_literal_allow(rules, normalized_path),
    }
}

fn verb_allows(verb: RuleVerb) -> bool {
    verb == RuleVerb::Allow
}

/// Replay one liveness verdict against the RFC oracle and the compiled
/// matcher.
fn replay_verdict(doc: &RobotsTxt, compiled: &CompiledPolicy, r: &RuleLiveness) {
    let agent = agent_for(&r.agent);
    match &r.verdict {
        Liveness::Alive { witness } => {
            // The witness is a real (normalization-stable) path on which
            // this exact rule text decides the outcome.
            prop_assert!(normalize_percent(witness) == *witness, "witness not normalized");
            let d = rep_oracle::decide(doc, agent, witness);
            let rule = d.matched_rule.unwrap_or_else(|| {
                panic!("alive witness {witness:?} decided by default allow for {r:?}")
            });
            prop_assert_eq!(rule.pattern.as_str(), r.pattern.as_str(), "witness {}", witness);
            prop_assert_eq!(rule.verb, r.verb);
            prop_assert_eq!(d.allow, verb_allows(r.verb));
            let c = compiled.check(agent, witness);
            prop_assert_eq!(c.allow, d.allow);
        }
        Liveness::Shadowed { witness, by } => {
            prop_assert!(normalize_percent(witness) == *witness, "witness not normalized");
            // The shadowed rule matches the witness, yet the decision
            // there is made by the named merged-rule index.
            prop_assert!(
                PathPattern::new(&r.pattern).matches(witness),
                "shadow witness must match the rule"
            );
            let d = rep_oracle::decide(doc, agent, witness);
            let winner = d
                .matched_rule
                .unwrap_or_else(|| panic!("shadow witness {witness:?} hit default allow: {r:?}"));
            let (_, view) = compiled
                .groups()
                .find(|(name, _)| *name == r.agent)
                .expect("verdict names a compiled group");
            let by_rule = &view.rules()[*by];
            prop_assert_eq!(winner.pattern.as_str(), by_rule.pattern.as_str(), "at {}", witness);
            prop_assert_eq!(winner.verb, by_rule.verb);
        }
        Liveness::RobotsTxtOnly => {
            // The carve-out: the only path the rule could decide is
            // always answered allow without consulting any rule.
            let d = rep_oracle::decide(doc, agent, "/robots.txt");
            prop_assert!(d.allow);
            prop_assert!(d.matched_rule.is_none());
        }
        Liveness::Unmatchable => {
            prop_assert!(!r.pattern.as_str().starts_with('/'));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every liveness verdict replays: alive witnesses are decided by
    /// that rule, shadow witnesses by the named shadower.
    #[test]
    fn liveness_witnesses_replay(text in policy_strategy()) {
        let doc = parse(&text);
        let compiled = CompiledPolicy::compile(&doc);
        let (verdicts, _complete) = rule_liveness(&compiled);
        for r in &verdicts {
            replay_verdict(&doc, &compiled, r);
        }
    }

    /// Brute force over sampled paths: any rule that ever wins a
    /// decision must have been verdicted Alive.
    #[test]
    fn brute_force_winners_are_alive(
        text in policy_strategy(),
        paths in prop::collection::vec(path_strategy(), 1..40),
    ) {
        let doc = parse(&text);
        let compiled = CompiledPolicy::compile(&doc);
        let (verdicts, complete) = rule_liveness(&compiled);
        if !complete {
            return;
        }
        for group in ["*", "alphabot"] {
            let agent = agent_for(group);
            for path in &paths {
                let d = rep_oracle::decide(&doc, agent, path);
                let Some(rule) = d.matched_rule else { continue };
                let Some(winner_group) = d.matched_agent else { continue };
                let alive = verdicts.iter().any(|r| {
                    r.agent == winner_group
                        && r.verb == rule.verb
                        && r.pattern.as_str() == rule.pattern.as_str()
                        && matches!(r.verdict, Liveness::Alive { .. })
                });
                prop_assert!(
                    alive,
                    "winner {:?} {:?} at {path:?} has no Alive verdict",
                    rule.verb,
                    rule.pattern.as_str()
                );
            }
        }
    }

    /// Semantic diff is sound both ways: Equivalent policies decide every
    /// sampled probe identically; a Diverges verdict replays exactly.
    #[test]
    fn semantic_diff_matches_decisions(
        left in policy_strategy(),
        right in policy_strategy(),
        paths in prop::collection::vec(path_strategy(), 1..30),
    ) {
        let l = CompiledPolicy::compile(&parse(&left));
        let r = CompiledPolicy::compile(&parse(&right));
        match semantic_diff(&l, &r).verdict {
            DiffVerdict::Equivalent => {
                for agent in ["zzqbot", "alphabot"] {
                    for path in &paths {
                        prop_assert_eq!(
                            l.check(agent, path).allow,
                            r.check(agent, path).allow,
                            "Equivalent but differ at agent={} path={}",
                            agent,
                            path
                        );
                    }
                }
            }
            DiffVerdict::Diverges(d) => {
                prop_assert_eq!(l.check(&d.agent, &d.path).allow, d.left_allow);
                prop_assert_eq!(r.check(&d.agent, &d.path).allow, d.right_allow);
                prop_assert_ne!(d.left_allow, d.right_allow);
                prop_assert!(normalize_percent(&d.path) == d.path);
            }
            DiffVerdict::Inconclusive => {}
        }
    }

    /// The diff is reflexive, and a comment/blank-line edit is always
    /// classified Cosmetic.
    #[test]
    fn cosmetic_edits_classify_cosmetic(text in policy_strategy()) {
        let doc = parse(&text);
        let compiled = CompiledPolicy::compile(&doc);
        let diff = semantic_diff(&compiled, &compiled);
        prop_assert_eq!(diff.verdict, DiffVerdict::Equivalent);
        prop_assert!(diff.delay_changes.is_empty());

        let edited = format!("# mirrored by example.edu\n\n{text}\n# end of policy\n");
        prop_assert_eq!(classify_change(&doc, &parse(&edited)), ChangeClass::Cosmetic);
    }

    /// Every divergence hazard replays through the oracle's deviant
    /// matcher it names, and genuinely disagrees with RFC 9309.
    #[test]
    fn hazard_witnesses_replay(text in policy_strategy()) {
        let doc = parse(&text);
        let compiled = CompiledPolicy::compile(&doc);
        let (hazards, _complete) = divergence_hazards(&compiled);
        for h in &hazards {
            prop_assert!(normalize_percent(&h.path) == h.path, "witness not normalized");
            prop_assert_ne!(h.rfc_allow, h.deviant_allow);

            let agent = agent_for(&h.agent);
            prop_assert_eq!(
                rep_oracle::decide(&doc, agent, &h.path).allow,
                h.rfc_allow,
                "rfc replay failed for {:?}",
                h
            );
            prop_assert_eq!(compiled.check(agent, &h.path).allow, h.rfc_allow);

            let rules: Vec<Rule> =
                rules_for(&doc, &h.agent).into_iter().cloned().collect();
            prop_assert_eq!(rep_oracle::rfc_allow(&rules, &h.path), h.rfc_allow);
            prop_assert_eq!(deviant_allow(h.model, &rules, &h.path), h.deviant_allow, "deviant replay failed for {:?}", h);
        }
    }

    /// Trie fast path and NFA walk agree on every wildcard-free policy:
    /// same verdict kind per rule, and both witnesses replay.
    #[test]
    fn trie_and_walk_agree_on_wildcard_free_policies(
        rules in prop::collection::vec(
            (any::<bool>(), proptest::string::string_regex("/[ab/.]{0,8}\\$?").unwrap()),
            1..6,
        ),
    ) {
        let mut text = String::new();
        render_group(&mut text, "*", &rules);
        let doc = parse(&text);
        let compiled = CompiledPolicy::compile(&doc);
        let (trie, trie_complete) = rule_liveness(&compiled);
        let (walk, walk_complete) =
            botscope_robotstxt::analysis::rule_liveness_forced(&compiled, true);
        prop_assert!(trie_complete && walk_complete);
        prop_assert_eq!(trie.len(), walk.len());
        for (t, w) in trie.iter().zip(&walk) {
            prop_assert_eq!(
                std::mem::discriminant(&t.verdict),
                std::mem::discriminant(&w.verdict),
                "trie={:?} walk={:?}",
                t,
                w
            );
            replay_verdict(&doc, &compiled, t);
            replay_verdict(&doc, &compiled, w);
        }
    }
}

/// One hand-written hazard per deviant model: the analyzer finds it with
/// a witness on which the oracle's RFC and deviant verdicts differ.
#[test]
fn each_deviant_model_hazard_is_witnessed() {
    for (text, model) in [
        ("User-agent: *\nDisallow: /a\nAllow: /a/b\n", DeviantModel::FirstMatch),
        ("User-agent: *\nDisallow: /*.php\n", DeviantModel::WildcardUnaware),
        ("User-agent: *\nDisallow: /downloads$\n", DeviantModel::DollarLiteral),
    ] {
        let (hazards, complete) = divergence_hazards(&CompiledPolicy::from_text(text));
        assert!(complete);
        let h = hazards.iter().find(|h| h.model == model).expect("hazard of the model");
        let rules = &parse(text).groups[0].rules;
        assert_eq!(rep_oracle::rfc_allow(rules, &h.path), h.rfc_allow, "{text:?}");
        assert_eq!(deviant_allow(model, rules, &h.path), h.deviant_allow, "{text:?}");
        assert_ne!(h.rfc_allow, h.deviant_allow);
    }
}
