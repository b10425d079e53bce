//! The four policy files, rendered, parsed and compiled once.
//!
//! A 100k-site estate shares these four bodies instead of building 100k:
//! the monitor's servers put [`PolicyCorpus::text`] on the wire, crawler
//! caches diff [`PolicyCorpus::doc`], and attribution and admission
//! check paths against [`PolicyCorpus::compiled`].

use botscope_robotstxt::compiled::CompiledPolicy;
use botscope_robotstxt::RobotsTxt;

use crate::phases::PolicyVersion;

/// The four experimental policy files, rendered once (the text a server
/// puts on the wire), parsed once (the document a crawler-side cache
/// evaluates and diffs), and compiled once (the automaton every admission
/// check runs against).
#[derive(Debug, Clone)]
pub struct PolicyCorpus {
    texts: [String; 4],
    docs: [RobotsTxt; 4],
    compiled: [CompiledPolicy; 4],
}

impl Default for PolicyCorpus {
    fn default() -> Self {
        PolicyCorpus::new()
    }
}

impl PolicyCorpus {
    /// Render, parse and compile all four versions.
    pub fn new() -> PolicyCorpus {
        let docs = PolicyVersion::ALL.map(PolicyVersion::robots_txt);
        let texts = [0, 1, 2, 3].map(|i: usize| docs[i].to_string());
        let compiled = [0, 1, 2, 3].map(|i: usize| CompiledPolicy::compile(&docs[i]));
        PolicyCorpus { texts, docs, compiled }
    }

    /// The serialized robots.txt body of `version`.
    pub fn text(&self, version: PolicyVersion) -> &str {
        &self.texts[version.index()]
    }

    /// The parsed document of `version`.
    pub fn doc(&self, version: PolicyVersion) -> &RobotsTxt {
        &self.docs[version.index()]
    }

    /// The compiled automaton of `version`.
    pub fn compiled(&self, version: PolicyVersion) -> &CompiledPolicy {
        &self.compiled[version.index()]
    }

    /// Whether `agent` may fetch `path` under `version`, via the compiled
    /// automaton. Tests check it against the RFC 9309 oracle on every
    /// corpus decision.
    pub fn check(&self, version: PolicyVersion, agent: &str, path: &str) -> bool {
        self.compiled[version.index()].check(agent, path).allow
    }

    /// The crawl delay `version` declares for `agent`, via the compiled
    /// automaton.
    pub fn delay(&self, version: PolicyVersion, agent: &str) -> Option<f64> {
        self.compiled[version.index()].crawl_delay(agent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_matches_versions() {
        let corpus = PolicyCorpus::new();
        for v in PolicyVersion::ALL {
            assert_eq!(corpus.text(v), v.robots_txt().to_string());
            assert_eq!(corpus.doc(v).groups, v.robots_txt().groups);
        }
        // The four files are genuinely distinct bodies.
        let texts: std::collections::BTreeSet<&str> =
            PolicyVersion::ALL.iter().map(|&v| corpus.text(v)).collect();
        assert_eq!(texts.len(), 4);
    }

    #[test]
    fn matcher_modes_agree_on_corpus_decisions() {
        // The compiled automata against the RFC 9309 oracle over the
        // corpus's own documents.
        let corpus = PolicyCorpus::new();
        let agents = ["Googlebot", "Googlebot-Image", "GPTBot", "ClaudeBot", "*", "ia_archiver"];
        let paths = [
            "/",
            "/news/item-001",
            "/page-data/item-001/page-data.json",
            "/secure/admin",
            "/404",
            "/robots.txt",
        ];
        for v in PolicyVersion::ALL {
            let doc = corpus.doc(v);
            for agent in agents {
                for path in paths {
                    assert_eq!(
                        corpus.check(v, agent, path),
                        crate::rep_oracle::decide(doc, agent, path).allow,
                        "{v:?} {agent} {path}"
                    );
                }
                assert_eq!(
                    corpus.delay(v, agent),
                    crate::rep_oracle::crawl_delay(doc, agent),
                    "{v:?} {agent}"
                );
            }
        }
    }
}
