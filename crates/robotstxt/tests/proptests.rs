//! Property-based tests for the RFC 9309 implementation: semantic
//! properties of the production matcher (`CompiledPolicy::check`), and
//! its full decisions against the test-only RFC oracle.

mod rep_oracle;

use botscope_robotstxt::parser::parse;
use botscope_robotstxt::pattern::{normalize_percent, PathPattern};
use botscope_robotstxt::{CompiledPolicy, RobotsTxt, RobotsTxtBuilder};
use proptest::prelude::*;

/// The observable outcome of one check, in a form that owns its data:
/// verdict, winning rule (verb + pattern text), and the agent group it
/// came from.
type Outcome = (bool, Option<(botscope_robotstxt::RuleVerb, String)>, Option<String>);

fn outcome(d: &botscope_robotstxt::Decision<'_>) -> Outcome {
    (
        d.allow,
        d.matched_rule.map(|r| (r.verb, r.pattern.as_str().to_string())),
        d.matched_agent.map(str::to_string),
    )
}

/// Assert the compiled automaton and the RFC oracle agree on the full
/// decision (not just the verdict) for one (agent, path).
fn assert_compiled_equiv(doc: &RobotsTxt, compiled: &CompiledPolicy, agent: &str, path: &str) {
    let oracle = outcome(&rep_oracle::decide(doc, agent, path));
    let automaton = outcome(&compiled.check(agent, path));
    assert_eq!(oracle, automaton, "agent={agent:?} path={path:?}");
    assert_eq!(
        rep_oracle::crawl_delay(doc, agent),
        compiled.crawl_delay(agent),
        "delay for {agent:?}"
    );
}

/// The production verdict for one request under a parsed document.
fn allows(doc: &RobotsTxt, agent: &str, path: &str) -> bool {
    CompiledPolicy::compile(doc).check(agent, path).allow
}

/// Strategy for plausible path-pattern strings.
fn pattern_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("/[a-z0-9/*._-]{0,20}\\$?").expect("valid regex")
}

/// Strategy for plausible request paths.
fn path_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("/[a-z0-9/._-]{0,30}").expect("valid regex")
}

/// Strings of `%` signs, hex digits and a few other characters, with
/// `%` and `%25` common enough that literal-percent triplets followed by
/// hex (`%2541`) and stray `%` signs before decoded hex (`%2%41`) are
/// drawn often.
fn percent_heavy() -> impl Strategy<Value = String> {
    const PIECES: [&str; 14] =
        ["%", "%", "%25", "%41", "2", "5", "4", "1", "a", "F", "/", "~", "é", "x"];
    prop::collection::vec(0usize..PIECES.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

#[test]
fn percent_25_is_a_literal_percent_through_a_round_trip() {
    // `%25` encodes `%`: the rule denies the path spelled `%41` after a
    // literal percent sign, never `/aA`, and keeps meaning that after
    // serializing and parsing again.
    let doc = parse("User-agent: *\nDisallow: /a%2541\n");
    let reparsed = parse(&doc.to_string());
    for d in [&doc, &reparsed] {
        assert!(!allows(d, "bot", "/a%2541"));
        assert!(allows(d, "bot", "/aA"));
    }
    assert_eq!(reparsed.groups, doc.groups);
}

#[test]
fn a_stray_percent_and_percent_25_are_one_path() {
    // A `%` that starts no triplet is a literal percent sign, exactly as
    // `%25` is: either spelling of the rule decides either spelling of
    // the path, before and after a serialization round trip.
    for rule in ["/50%off", "/50%25off"] {
        let doc = parse(&format!("User-agent: *\nDisallow: {rule}\n"));
        let reparsed = parse(&doc.to_string());
        for d in [&doc, &reparsed] {
            assert!(!allows(d, "bot", "/50%off"), "{rule}");
            assert!(!allows(d, "bot", "/50%25off"), "{rule}");
            assert!(allows(d, "bot", "/50off"), "{rule}");
        }
        assert_eq!(reparsed.groups, doc.groups);
    }
}

proptest! {
    #[test]
    fn parser_never_panics(input in "\\PC*") {
        let _ = parse(&input);
    }

    #[test]
    fn parser_never_panics_on_structured_garbage(
        lines in prop::collection::vec("[ -~]{0,50}", 0..30)
    ) {
        let _ = parse(&lines.join("\n"));
    }

    #[test]
    fn pattern_matching_never_panics(pat in "\\PC{0,40}", path in "\\PC{0,60}") {
        let p = PathPattern::new(&pat);
        let _ = p.matches(&path);
    }

    #[test]
    fn literal_pattern_is_prefix_match(path in path_strategy(), extra in "[a-z0-9]{0,10}") {
        // A wildcard-free, unanchored pattern matches exactly its prefixes.
        let p = PathPattern::new(&path);
        let extended = format!("{path}{extra}");
        prop_assert!(p.matches(&extended), "{path} should match {extended}");
    }

    #[test]
    fn anchored_literal_matches_only_itself(path in path_strategy()) {
        if !path.contains('*') && !path.contains('$') {
            let p = PathPattern::new(&format!("{path}$"));
            prop_assert!(p.matches(&path));
            let extended = format!("{path}x");
            prop_assert!(!p.matches(&extended));
        }
    }

    #[test]
    fn normalize_is_idempotent(pieces in percent_heavy(), noise in "\\PC{0,20}") {
        let s = format!("{pieces}{noise}");
        let once = normalize_percent(&s);
        let twice = normalize_percent(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn decision_is_deterministic(
        pats in prop::collection::vec(pattern_strategy(), 0..10),
        path in path_strategy(),
    ) {
        let mut body = String::from("User-agent: *\n");
        for (i, p) in pats.iter().enumerate() {
            if i % 2 == 0 {
                body.push_str(&format!("Disallow: {p}\n"));
            } else {
                body.push_str(&format!("Allow: {p}\n"));
            }
        }
        let compiled = CompiledPolicy::from_text(&body);
        let a = compiled.check("testbot", &path);
        let b = compiled.check("testbot", &path);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn robots_txt_path_always_allowed(
        pats in prop::collection::vec(pattern_strategy(), 0..10),
        agent in "[a-z]{1,12}",
    ) {
        let mut body = String::from("User-agent: *\n");
        for p in &pats {
            body.push_str(&format!("Disallow: {p}\n"));
        }
        let doc = parse(&body);
        prop_assert!(allows(&doc, &agent, "/robots.txt"));
        prop_assert!(allows(&doc, &agent, "robots.txt"));
    }

    #[test]
    fn builder_roundtrip(
        agents in prop::collection::vec("[a-z][a-z0-9-]{0,10}", 1..4),
        allow_pats in prop::collection::vec(pattern_strategy(), 0..5),
        disallow_pats in prop::collection::vec(pattern_strategy(), 0..5),
        delay in prop::option::of(0u32..3600),
    ) {
        let built = RobotsTxtBuilder::new()
            .group(agents.clone(), |mut g| {
                for p in &allow_pats {
                    g = g.allow(p);
                }
                for p in &disallow_pats {
                    g = g.disallow(p);
                }
                if let Some(d) = delay {
                    g = g.crawl_delay(d as f64);
                }
                g
            })
            .build();
        let reparsed = parse(&built.to_string());
        prop_assert_eq!(&reparsed.groups, &built.groups);
        prop_assert!(reparsed.warnings.is_empty(), "warnings: {:?}", reparsed.warnings);
    }

    #[test]
    fn disallow_all_blocks_all_but_robots(agent in "[a-z]{1,12}", path in path_strategy()) {
        let allowed = allows(&RobotsTxt::disallow_all(), &agent, &path);
        prop_assert_eq!(allowed, path == "/robots.txt");
    }

    #[test]
    fn allow_all_allows_everything(agent in "[a-z]{1,12}", path in path_strategy()) {
        prop_assert!(allows(&RobotsTxt::allow_all(), &agent, &path));
    }

    // ---- percent-encoding corpus (RFC 9309 §2.2.2) ----

    #[test]
    fn percent_encoded_pattern_matches_plain_path(path in "/[a-zA-Z0-9._~-]{0,24}") {
        // Encoding every octet except the separator must not change the
        // match set: %XX triplets normalize to the octets they encode.
        let encoded: String = path
            .bytes()
            .map(|b| if b == b'/' { "/".to_string() } else { format!("%{b:02x}") })
            .collect();
        prop_assert!(PathPattern::new(&encoded).matches(&path), "{encoded} vs {path}");
        prop_assert!(PathPattern::new(&path).matches(&encoded), "{path} vs {encoded}");
        // And prefix semantics survive encoding.
        let extended = format!("{path}x");
        prop_assert!(PathPattern::new(&encoded).matches(&extended));
    }

    #[test]
    fn literal_percent_and_its_triplet_are_one_spelling(
        pieces in prop::collection::vec(("[0-9a-zA-Z/._~-]{0,4}", "[g-zG-Z/._~-]"), 0..6),
        tail in prop::option::of("[0-9a-fA-F]{0,1}"),
    ) {
        // Printable text whose every `%` starts no triplet: each `%` is a
        // literal percent sign, so writing it `%25` changes nothing.
        let mut raw = String::from("/");
        for (text, after) in &pieces {
            raw.push_str(text);
            raw.push('%');
            raw.push_str(after);
        }
        if let Some(hex) = &tail {
            raw.push('%');
            raw.push_str(hex);
        }
        let encoded = raw.replace('%', "%25");
        prop_assert_eq!(normalize_percent(&raw), normalize_percent(&encoded));
        for pat in [&raw, &encoded] {
            for path in [&raw, &encoded] {
                prop_assert!(PathPattern::new(pat).matches(path), "{pat} vs {path}");
            }
        }
    }

    #[test]
    fn percent_hex_case_is_insensitive(path in "/[a-zA-Z0-9._~-]{0,24}") {
        let lower: String = path
            .bytes()
            .map(|b| if b == b'/' { "/".to_string() } else { format!("%{b:02x}") })
            .collect();
        let upper = lower.to_ascii_uppercase();
        prop_assert_eq!(normalize_percent(&lower), normalize_percent(&upper));
    }

    #[test]
    fn percent_2f_stays_distinct_from_slash(
        a in "[a-z0-9]{1,8}",
        b in "[a-z0-9]{1,8}",
    ) {
        // RFC 9309: %2F encodes a path separator and must not compare
        // equal to a literal `/` — `/a%2Fb` and `/a/b` are distinct.
        let encoded = format!("/{a}%2F{b}");
        let literal = format!("/{a}/{b}");
        prop_assert!(!PathPattern::new(&encoded).matches(&literal));
        prop_assert!(!PathPattern::new(&literal).matches(&encoded));
        // Both casings of the triplet are the same encoded separator.
        let lower = format!("/{a}%2f{b}");
        prop_assert!(PathPattern::new(&lower).matches(&encoded));
        prop_assert!(PathPattern::new(&encoded).matches(&lower));
    }

    #[test]
    fn malformed_triplets_match_verbatim(
        head in "/[a-z0-9]{0,10}",
        trailer in "%[g-z]{0,2}",
        lone_hex in "[0-9a-f]{0,1}",
    ) {
        // A malformed %-sequence (truncated triplet or non-hex digits)
        // is kept verbatim, so the pattern still matches its own text.
        let path = format!("{head}{trailer}{lone_hex}");
        prop_assert!(PathPattern::new(&path).matches(&path), "{path}");
    }

    // ---- `$` anchor + `*` interaction corpus ----

    #[test]
    fn trailing_star_dollar_equals_plain_prefix(
        base in path_strategy(),
        probe in path_strategy(),
    ) {
        // `X*$` anchors after a wildcard that eats the rest: exactly the
        // prefix semantics of the unanchored `X`.
        let anchored = PathPattern::new(&format!("{base}*$"));
        let plain = PathPattern::new(&base);
        prop_assert_eq!(anchored.matches(&probe), plain.matches(&probe));
    }

    #[test]
    fn anchored_matches_are_a_subset_of_unanchored(
        segs in prop::collection::vec("[a-z0-9._-]{0,4}", 1..4),
        probe in path_strategy(),
    ) {
        let body = format!("/{}", segs.join("*"));
        let anchored = PathPattern::new(&format!("{body}$"));
        let plain = PathPattern::new(&body);
        if anchored.matches(&probe) {
            prop_assert!(plain.matches(&probe), "{body}$ matched {probe} but {body} did not");
        }
    }

    #[test]
    fn anchored_star_pattern_requires_terminal_literal(
        segs in prop::collection::vec("[a-z0-9._-]{1,4}", 2..4),
        probe in path_strategy(),
    ) {
        // `/a*b$`-style patterns: any match must end with the literal
        // tail segment.
        let body = format!("/{}", segs.join("*"));
        let pattern = PathPattern::new(&format!("{body}$"));
        if pattern.matches(&probe) {
            let tail = segs.last().expect("non-empty");
            prop_assert!(probe.ends_with(tail.as_str()), "{body}$ matched {probe}");
        }
    }

    #[test]
    fn dollar_inside_pattern_is_literal(
        head in "[a-z0-9]{1,6}",
        tail in "[a-z0-9]{1,6}",
        probe_tail in "[a-z0-9]{0,6}",
    ) {
        // Only a *final* `$` anchors; an interior one is an ordinary
        // octet (RFC 9309 §2.2.3).
        let pattern = PathPattern::new(&format!("/{head}${tail}"));
        prop_assert!(pattern.matches(&format!("/{head}${tail}{probe_tail}")));
        prop_assert!(!pattern.matches(&format!("/{head}{tail}")));
    }

    #[test]
    fn star_dollar_decisions_consistent_in_documents(
        base in "/[a-z0-9/]{0,12}",
        probe in path_strategy(),
    ) {
        // A disallow written `X*$` and one written `X` produce the same
        // decision for every probe (through the whole parser/matcher
        // stack, not just PathPattern).
        let anchored = parse(&format!("User-agent: *\nDisallow: {base}*$\n"));
        let plain = parse(&format!("User-agent: *\nDisallow: {base}\n"));
        prop_assert_eq!(allows(&anchored, "bot", &probe), allows(&plain, "bot", &probe));
    }

    #[test]
    fn adding_an_allow_rule_never_shrinks_access(
        base_pats in prop::collection::vec(pattern_strategy(), 0..6),
        new_allow in pattern_strategy(),
        path in path_strategy(),
    ) {
        // Monotonicity: appending a (strictly longer-or-equal specificity
        // aside) Allow rule can flip Disallow→Allow but a path that was
        // allowed stays allowed UNLESS the new rule is more specific — an
        // Allow rule can never cause a Disallow, so allowed stays allowed.
        let mut body = String::from("User-agent: *\n");
        for p in &base_pats {
            body.push_str(&format!("Disallow: {p}\n"));
        }
        let before = allows(&parse(&body), "bot", &path);
        body.push_str(&format!("Allow: {new_allow}\n"));
        let after = allows(&parse(&body), "bot", &path);
        if before {
            prop_assert!(after, "allow rule must not revoke access");
        }
    }

    // ---- longest-match tie-breaking (RFC 9309 §2.2.2) ----

    #[test]
    fn identical_pattern_tie_allow_wins(path in path_strategy()) {
        // The exact same value as Allow and Disallow: equal specificity,
        // so the tie MUST break toward Allow — in either rule order.
        // (/robots.txt itself is implicitly allowed, so skip it.)
        if path != "/robots.txt" {
            for body in [
                format!("User-agent: *\nDisallow: {path}\nAllow: {path}\n"),
                format!("User-agent: *\nAllow: {path}\nDisallow: {path}\n"),
            ] {
                let doc = parse(&body);
                prop_assert!(allows(&doc, "bot", &path), "{body}");
            }
        }
    }

    #[test]
    fn equal_length_distinct_patterns_allow_wins(
        base in "/[a-z0-9]{1,12}",
        last in "[a-z0-9]{1,1}",
    ) {
        // Two *different* patterns of equal octet length that both match
        // the probe path: the exact literal, and its last octet replaced
        // by `*`. Equal specificity ⇒ Allow wins, whichever carries it.
        let path = format!("{base}{last}");
        let starred = format!("{base}*");
        prop_assert_eq!(
            PathPattern::new(&path).specificity(),
            PathPattern::new(&starred).specificity()
        );
        prop_assert!(PathPattern::new(&starred).matches(&path));

        let doc = parse(&format!("User-agent: *\nDisallow: {starred}\nAllow: {path}\n"));
        prop_assert!(allows(&doc, "bot", &path), "literal Allow loses tie");
        let doc = parse(&format!("User-agent: *\nDisallow: {path}\nAllow: {starred}\n"));
        prop_assert!(allows(&doc, "bot", &path), "starred Allow loses tie");
    }

    #[test]
    fn strictly_longer_rule_beats_shorter_regardless_of_verb(
        base in "/[a-z0-9]{1,10}",
        extra in "[a-z0-9]{1,6}",
    ) {
        // Sanity around the tie rule: it applies ONLY at equal length.
        // A strictly longer Disallow must beat a shorter Allow (and
        // vice versa) for paths both match.
        let long = format!("{base}/{extra}");
        let doc = parse(&format!("User-agent: *\nAllow: {base}\nDisallow: {long}\n"));
        prop_assert!(!allows(&doc, "bot", &long));
        prop_assert!(allows(&doc, "bot", &format!("{base}zz")));
        let doc = parse(&format!("User-agent: *\nDisallow: {base}\nAllow: {long}\n"));
        prop_assert!(allows(&doc, "bot", &long));
        prop_assert!(!allows(&doc, "bot", &format!("{base}zz")));
    }

    // ---- UTF-8 paths under percent-encoding equivalence ----

    #[test]
    fn utf8_pattern_and_encoded_pattern_are_one_pattern(
        prefix in "/[a-z0-9]{0,6}/",
        seg in "[à-öø-ÿα-ωа-яぁ-ゖ一-鿋]{1,6}",
        tail in "[a-z0-9]{0,5}",
    ) {
        // A raw multi-byte segment and its uppercase percent-encoded
        // octets normalize identically, so either spelling of the rule
        // matches either spelling of the path.
        let raw = format!("{prefix}{seg}{tail}");
        let encoded: String = raw
            .bytes()
            .map(|b| {
                if b >= 0x80 { format!("%{b:02X}") } else { (b as char).to_string() }
            })
            .collect();
        prop_assert_eq!(normalize_percent(&raw), normalize_percent(&encoded));
        for pat in [&raw, &encoded] {
            for path in [&raw, &encoded] {
                prop_assert!(PathPattern::new(pat).matches(path), "{pat} vs {path}");
            }
        }
        // Prefix semantics hold across the spellings too.
        let extended = format!("{raw}/more");
        prop_assert!(PathPattern::new(&encoded).matches(&extended));
    }

    #[test]
    fn utf8_document_decisions_are_spelling_invariant(
        seg in "[à-öø-ÿα-ωа-яぁ-ゖ一-鿋]{1,5}",
        probe in "[a-z0-9]{0,4}",
    ) {
        // A Disallow written with raw UTF-8 must deny the percent-encoded
        // request spelling, and vice versa — a crawler must not dodge a
        // rule by re-encoding the URL.
        let raw_rule = format!("/wiki/{seg}");
        let encoded_rule: String = raw_rule
            .bytes()
            .map(|b| {
                if b >= 0x80 { format!("%{b:02x}") } else { (b as char).to_string() }
            })
            .collect();
        let raw_path = format!("/wiki/{seg}{probe}");
        let encoded_path: String = raw_path
            .bytes()
            .map(|b| {
                if b >= 0x80 { format!("%{b:02X}") } else { (b as char).to_string() }
            })
            .collect();
        for rule in [&raw_rule, &encoded_rule] {
            let doc = parse(&format!("User-agent: *\nDisallow: {rule}\n"));
            for path in [&raw_path, &encoded_path] {
                prop_assert!(!allows(&doc, "bot", path), "rule {rule} must deny {path}");
            }
            // Unrelated ASCII paths stay allowed.
            prop_assert!(allows(&doc, "bot", "/wiki-other"));
        }
    }

    // ---- compiled automaton ≡ RFC oracle ----

    #[test]
    fn compiled_agrees_on_random_documents(
        pats in prop::collection::vec(pattern_strategy(), 0..10),
        agents in prop::collection::vec("[a-z][a-z0-9_-]{0,8}", 1..4),
        delay in prop::option::of(1u32..600),
        probe_agent in "[a-z][a-z0-9_-]{0,10}",
        path in path_strategy(),
    ) {
        // Multi-group documents with mixed verbs: the compiled policy
        // must reproduce the oracle's decision *exactly* — verdict,
        // winning rule, agent group, and crawl delay.
        let mut body = String::new();
        for (g, agent) in agents.iter().enumerate() {
            body.push_str(&format!("User-agent: {agent}\n"));
            if g == agents.len() - 1 {
                body.push_str("User-agent: *\n");
            }
            for (i, p) in pats.iter().enumerate() {
                if (i + g) % 2 == 0 {
                    body.push_str(&format!("Disallow: {p}\n"));
                } else {
                    body.push_str(&format!("Allow: {p}\n"));
                }
            }
            if let (Some(d), 0) = (delay, g % 2) {
                body.push_str(&format!("Crawl-delay: {d}\n"));
            }
            body.push('\n');
        }
        let doc = parse(&body);
        let compiled = CompiledPolicy::compile(&doc);
        // Each group token also probes as the head of a longer product
        // token, across both boundary octets and across none.
        let variants = agents
            .iter()
            .flat_map(|a| [format!("{a}-news"), format!("{a}_news"), format!("{a}news")]);
        let probes: Vec<String> =
            agents.iter().cloned().chain(variants).chain([probe_agent, "unrelated".into()]).collect();
        for agent in &probes {
            assert_compiled_equiv(&doc, &compiled, agent, &path);
            assert_compiled_equiv(&doc, &compiled, agent, "/robots.txt");
        }
    }

    #[test]
    fn compiled_agrees_on_garbage_documents(
        body in "\\PC{0,200}",
        agent in "\\PC{0,16}",
        path in "\\PC{0,40}",
    ) {
        let doc = parse(&body);
        let compiled = CompiledPolicy::compile(&doc);
        assert_compiled_equiv(&doc, &compiled, &agent, &path);
    }

    #[test]
    fn compiled_agrees_at_precedence_ties(
        base in "/[a-z0-9]{1,12}",
        last in "[a-z0-9]{1,1}",
    ) {
        // The tie cases the rank packing exists for: identical patterns
        // on both verbs, and equal-length literal-vs-starred patterns,
        // in both rule orders.
        let path = format!("{base}{last}");
        let starred = format!("{base}*");
        for body in [
            format!("User-agent: *\nDisallow: {path}\nAllow: {path}\n"),
            format!("User-agent: *\nAllow: {path}\nDisallow: {path}\n"),
            format!("User-agent: *\nDisallow: {starred}\nAllow: {path}\n"),
            format!("User-agent: *\nAllow: {starred}\nDisallow: {path}\n"),
            format!("User-agent: *\nDisallow: {path}\nDisallow: {path}\n"),
            format!("User-agent: *\nAllow: {base}\nDisallow: {path}\n"),
        ] {
            let doc = parse(&body);
            let compiled = CompiledPolicy::compile(&doc);
            for probe in [path.as_str(), base.as_str(), "/", "/unrelated"] {
                assert_compiled_equiv(&doc, &compiled, "bot", probe);
            }
        }
    }

    #[test]
    fn compiled_agrees_on_utf8_spellings(
        seg in "[à-öø-ÿα-ωа-яぁ-ゖ一-鿋]{1,5}",
        probe in "[a-z0-9]{0,4}",
    ) {
        let raw_rule = format!("/wiki/{seg}");
        let encoded_rule: String = raw_rule
            .bytes()
            .map(|b| if b >= 0x80 { format!("%{b:02x}") } else { (b as char).to_string() })
            .collect();
        let raw_path = format!("/wiki/{seg}{probe}");
        let encoded_path: String = raw_path
            .bytes()
            .map(|b| if b >= 0x80 { format!("%{b:02X}") } else { (b as char).to_string() })
            .collect();
        for rule in [&raw_rule, &encoded_rule] {
            let doc = parse(&format!("User-agent: *\nDisallow: {rule}\n"));
            let compiled = CompiledPolicy::compile(&doc);
            for path in [&raw_path, &encoded_path] {
                assert_compiled_equiv(&doc, &compiled, "bot", path);
            }
            assert_compiled_equiv(&doc, &compiled, "bot", "/wiki-other");
        }
    }

    #[test]
    fn check_many_bitmask_agrees_with_oracle(
        pats in prop::collection::vec(pattern_strategy(), 0..8),
        paths in prop::collection::vec(path_strategy(), 1..80),
        agent in "[a-z]{1,10}",
    ) {
        let mut body = String::from("User-agent: *\n");
        for (i, p) in pats.iter().enumerate() {
            let verb = if i % 2 == 0 { "Disallow" } else { "Allow" };
            body.push_str(&format!("{verb}: {p}\n"));
        }
        let doc = parse(&body);
        let compiled = CompiledPolicy::compile(&doc);
        let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
        let mask = compiled.check_many(&agent, &refs);
        prop_assert_eq!(mask.len(), refs.len().div_ceil(64));
        for (i, path) in refs.iter().enumerate() {
            let bit = (mask[i / 64] >> (i % 64)) & 1 == 1;
            prop_assert_eq!(
                bit,
                rep_oracle::decide(&doc, &agent, path).allow,
                "path #{} {:?}", i, path
            );
        }
    }

    #[test]
    fn utf8_specificity_counts_encoded_octets(
        seg in "[à-öø-ÿぁ-ゖ]{1,4}",
    ) {
        // Specificity is measured on the normalized (percent-encoded)
        // text, so both spellings of one rule carry the same weight.
        let raw = format!("/{seg}");
        let encoded: String = raw
            .bytes()
            .map(|b| {
                if b >= 0x80 { format!("%{b:02X}") } else { (b as char).to_string() }
            })
            .collect();
        prop_assert_eq!(
            PathPattern::new(&raw).specificity(),
            PathPattern::new(&encoded).specificity()
        );
    }
}
