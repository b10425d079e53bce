//! Specification-compatibility corpus.
//!
//! Data-driven cases from RFC 9309 and the documented interpretation of
//! the Google reference parser (the paper validated its experimental
//! files against that parser, §4.1). Each case runs through the full
//! parse → compile → group-select → match stack, and through the RFC
//! oracle.

mod rep_oracle;

use botscope_robotstxt::parser::parse;
use botscope_robotstxt::CompiledPolicy;

struct Case {
    name: &'static str,
    robots: &'static str,
    agent: &'static str,
    path: &'static str,
    allow: bool,
}

const CASES: &[Case] = &[
    // ---- Rule precedence (longest match, allow wins ties) ----
    Case {
        name: "specific allow beats general disallow",
        robots: "User-agent: *\nAllow: /p\nDisallow: /\n",
        agent: "bot",
        path: "/page",
        allow: true,
    },
    Case {
        name: "equal patterns tie to allow",
        robots: "User-agent: *\nAllow: /folder\nDisallow: /folder\n",
        agent: "bot",
        path: "/folder/page",
        allow: true,
    },
    Case {
        name: "longer disallow beats shorter allow",
        robots: "User-agent: *\nAllow: /page\nDisallow: /page.html\n",
        agent: "bot",
        path: "/page.html",
        allow: false,
    },
    Case {
        name: "root-anchored allow with global disallow: root allowed",
        robots: "User-agent: *\nAllow: /$\nDisallow: /\n",
        agent: "bot",
        path: "/",
        allow: true,
    },
    Case {
        name: "root-anchored allow with global disallow: page denied",
        robots: "User-agent: *\nAllow: /$\nDisallow: /\n",
        agent: "bot",
        path: "/page.htm",
        allow: false,
    },
    // ---- Wildcard semantics (Google's /fish examples) ----
    Case {
        name: "prefix matches subpaths",
        robots: "User-agent: *\nDisallow: /fish\n",
        agent: "bot",
        path: "/fish/salmon.html",
        allow: false,
    },
    Case {
        name: "prefix matches extended names",
        robots: "User-agent: *\nDisallow: /fish\n",
        agent: "bot",
        path: "/fishheads/yummy.html",
        allow: false,
    },
    Case {
        name: "path matching is case sensitive",
        robots: "User-agent: *\nDisallow: /fish\n",
        agent: "bot",
        path: "/Fish.asp",
        allow: true,
    },
    Case {
        name: "trailing slash restricts to directory",
        robots: "User-agent: *\nDisallow: /fish/\n",
        agent: "bot",
        path: "/fish",
        allow: true,
    },
    Case {
        name: "star matches interior segments",
        robots: "User-agent: *\nDisallow: /*.php\n",
        agent: "bot",
        path: "/folder/any.php.file.html",
        allow: false,
    },
    Case {
        name: "dollar anchors the end",
        robots: "User-agent: *\nDisallow: /*.php$\n",
        agent: "bot",
        path: "/filename.php?parameters",
        allow: true,
    },
    // ---- Group selection ----
    Case {
        name: "most specific group wins: news bot gets news group",
        robots: "User-agent: googlebot-news\nDisallow: /a/\n\nUser-agent: googlebot\nDisallow: /b/\n",
        agent: "Googlebot-News",
        path: "/b/page",
        allow: true,
    },
    Case {
        name: "most specific group wins: news bot bound by news group",
        robots: "User-agent: googlebot-news\nDisallow: /a/\n\nUser-agent: googlebot\nDisallow: /b/\n",
        agent: "Googlebot-News",
        path: "/a/page",
        allow: false,
    },
    Case {
        name: "generic bot falls back to generic group",
        robots: "User-agent: googlebot-news\nDisallow: /a/\n\nUser-agent: googlebot\nDisallow: /b/\n",
        agent: "Googlebot",
        path: "/b/page",
        allow: false,
    },
    Case {
        name: "unlisted bot without wildcard group is free",
        robots: "User-agent: googlebot\nDisallow: /\n",
        agent: "otherbot",
        path: "/anything",
        allow: true,
    },
    Case {
        name: "agent matching is case insensitive",
        robots: "User-agent: GOOGLEBOT\nDisallow: /private/\n",
        agent: "googlebot",
        path: "/private/x",
        allow: false,
    },
    Case {
        name: "groups with same agent merge",
        robots: "User-agent: a\nDisallow: /one\n\nUser-agent: b\nDisallow: /b\n\nUser-agent: a\nDisallow: /two\n",
        agent: "a",
        path: "/two/x",
        allow: false,
    },
    // ---- Multiple user agents per group ----
    Case {
        name: "second agent of a shared group is bound",
        robots: "User-agent: e\nUser-agent: f\nDisallow: /g\n",
        agent: "f",
        path: "/g/page",
        allow: false,
    },
    // ---- Defaults and implicit allowances ----
    Case {
        name: "no matching rule means allow",
        robots: "User-agent: *\nDisallow: /secret/\n",
        agent: "bot",
        path: "/public/page",
        allow: true,
    },
    Case {
        name: "empty disallow restricts nothing",
        robots: "User-agent: *\nDisallow:\n",
        agent: "bot",
        path: "/anything",
        allow: true,
    },
    Case {
        name: "robots.txt is implicitly fetchable",
        robots: "User-agent: *\nDisallow: /\n",
        agent: "bot",
        path: "/robots.txt",
        allow: true,
    },
    // ---- Percent encoding ----
    Case {
        name: "encoded and literal tilde compare equal",
        robots: "User-agent: *\nDisallow: /a%7Eb\n",
        agent: "bot",
        path: "/a~b",
        allow: false,
    },
    Case {
        name: "encoded slash stays distinct from literal slash",
        robots: "User-agent: *\nDisallow: /a%2Fb\n",
        agent: "bot",
        path: "/a/b",
        allow: true,
    },
    // ---- Tolerance ----
    Case {
        name: "directives are case insensitive",
        robots: "USER-AGENT: *\nDISALLOW: /x\n",
        agent: "bot",
        path: "/x/y",
        allow: false,
    },
    Case {
        name: "html garbage disables nothing",
        robots: "<!DOCTYPE html><html><body>not a robots file</body></html>",
        agent: "bot",
        path: "/anything",
        allow: true,
    },
    Case {
        name: "rules without a group are ignored",
        robots: "Disallow: /x\nUser-agent: *\nDisallow: /y\n",
        agent: "bot",
        path: "/x/page",
        allow: true,
    },
];

/// Every spec case through the production matcher: the verdict must
/// match the corpus, and the full decision (winning rule, agent group,
/// crawl delay) must match the RFC oracle's.
#[test]
fn spec_corpus() {
    let mut failures = Vec::new();
    for case in CASES {
        let doc = parse(case.robots);
        let compiled = CompiledPolicy::compile(&doc);
        let automaton = compiled.check(case.agent, case.path);
        let oracle = rep_oracle::decide(&doc, case.agent, case.path);
        if automaton.allow != case.allow {
            failures.push(format!(
                "{}: agent={} path={} expected {} got {}",
                case.name, case.agent, case.path, case.allow, automaton.allow
            ));
        }
        if oracle.allow != case.allow {
            failures.push(format!("{}: oracle verdict {} != corpus", case.name, oracle.allow));
        }
        let rule = |d: &botscope_robotstxt::Decision<'_>| {
            d.matched_rule.map(|r| (r.verb, r.pattern.as_str().to_string()))
        };
        if rule(&automaton) != rule(&oracle) || automaton.matched_agent != oracle.matched_agent {
            failures.push(format!(
                "{}: compiled decision ({:?}, {:?}) != oracle ({:?}, {:?})",
                case.name,
                rule(&automaton),
                automaton.matched_agent,
                rule(&oracle),
                oracle.matched_agent
            ));
        }
        if compiled.crawl_delay(case.agent) != rep_oracle::crawl_delay(&doc, case.agent) {
            failures.push(format!("{}: crawl delay disagrees", case.name));
        }
    }
    assert!(failures.is_empty(), "{} corpus failures:\n{}", failures.len(), failures.join("\n"));
}

#[test]
fn corpus_is_nontrivial() {
    assert!(CASES.len() >= 25, "corpus has {} cases", CASES.len());
    // Both outcomes are represented.
    assert!(CASES.iter().any(|c| c.allow));
    assert!(CASES.iter().any(|c| !c.allow));
}
