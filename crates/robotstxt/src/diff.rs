//! Policy diffing: what changed for whom between two robots.txt versions?
//!
//! The study deploys a gradient of policies "only changing one condition
//! at a time" (§4.1). `diff` makes that gradient inspectable: given two
//! compiled policies and a probe set of (agent, path) pairs, it reports every
//! decision flip and crawl-delay change — the exact deltas a bot operator
//! (or an experimenter validating a rollout) needs.

use crate::compiled::CompiledPolicy;

/// One behavioural difference between two policies.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyChange {
    /// An (agent, path) decision flipped.
    AccessChanged {
        /// The probing agent token.
        agent: String,
        /// The probed path.
        path: String,
        /// Allowed under the old policy?
        was_allowed: bool,
        /// Allowed under the new policy?
        now_allowed: bool,
    },
    /// An agent's crawl delay changed.
    CrawlDelayChanged {
        /// The agent token.
        agent: String,
        /// Previous delay.
        was: Option<f64>,
        /// New delay.
        now: Option<f64>,
    },
}

/// Compare two policies over a probe matrix of agents × paths.
///
/// Returns changes in deterministic (agent, path) order. Agents and paths
/// are probed as given — pass the user agents you care about and a path
/// sample representative of the site (e.g. its sitemap).
pub fn diff(
    old: &CompiledPolicy,
    new: &CompiledPolicy,
    agents: &[&str],
    paths: &[&str],
) -> Vec<PolicyChange> {
    let mut changes = Vec::new();
    for agent in agents {
        for path in paths {
            let was = old.check(agent, path).allow;
            let now = new.check(agent, path).allow;
            if was != now {
                changes.push(PolicyChange::AccessChanged {
                    agent: (*agent).to_string(),
                    path: (*path).to_string(),
                    was_allowed: was,
                    now_allowed: now,
                });
            }
        }
        let was = old.crawl_delay(agent);
        let now = new.crawl_delay(agent);
        if was != now {
            changes.push(PolicyChange::CrawlDelayChanged { agent: (*agent).to_string(), was, now });
        }
    }
    changes
}

/// Summary counts over a diff: how many probes tightened (allow→deny) and
/// how many loosened (deny→allow).
pub fn summarize(changes: &[PolicyChange]) -> (usize, usize) {
    let mut tightened = 0;
    let mut loosened = 0;
    for c in changes {
        if let PolicyChange::AccessChanged { was_allowed, now_allowed, .. } = c {
            match (was_allowed, now_allowed) {
                (true, false) => tightened += 1,
                (false, true) => loosened += 1,
                _ => unreachable!("diff only records flips"),
            }
        }
    }
    (tightened, loosened)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(text: &str) -> CompiledPolicy {
        CompiledPolicy::from_text(text)
    }

    const AGENTS: [&str; 3] = ["Googlebot", "GPTBot", "ClaudeBot"];
    const PATHS: [&str; 4] = ["/", "/page-data/x.json", "/news/item", "/secure/a"];

    #[test]
    fn identical_policies_no_changes() {
        let a = compile("User-agent: *\nDisallow: /secure/*\n");
        let b = compile("User-agent: *\nDisallow: /secure/*\n");
        assert!(diff(&a, &b, &AGENTS, &PATHS).is_empty());
    }

    #[test]
    fn v1_to_v2_tightens_non_exempt_bots() {
        // Paper's v1 → v2 transition: everyone keeps access under v1;
        // only page-data survives for non-exempt bots under v2.
        let v1 = compile("User-agent: *\nAllow: /\nDisallow: /secure/*\nCrawl-delay: 30\n");
        let v2 = compile(
            "User-agent: Googlebot\nAllow: /\nDisallow: /secure/*\n\nUser-agent: *\nAllow: /page-data/*\nDisallow: /\n",
        );
        let changes = diff(&v1, &v2, &AGENTS, &PATHS);
        let (tightened, loosened) = summarize(&changes);
        assert!(tightened > 0);
        assert_eq!(loosened, 0, "a stricter file must not loosen: {changes:?}");
        // GPTBot lost "/" and "/news/item" but kept page-data.
        assert!(changes.contains(&PolicyChange::AccessChanged {
            agent: "GPTBot".into(),
            path: "/news/item".into(),
            was_allowed: true,
            now_allowed: false,
        }));
        assert!(!changes.iter().any(|c| matches!(
            c,
            PolicyChange::AccessChanged { agent, path, .. }
            if agent == "GPTBot" && path == "/page-data/x.json"
        )));
        // Googlebot (exempt) sees no access change, but loses the delay.
        assert!(changes.iter().any(|c| matches!(
            c,
            PolicyChange::CrawlDelayChanged { agent, was: Some(d), now: None } if agent == "Googlebot" && *d == 30.0
        )));
    }

    #[test]
    fn crawl_delay_introduction_detected() {
        let base = compile("User-agent: *\nAllow: /\n");
        let v1 = compile("User-agent: *\nAllow: /\nCrawl-delay: 30\n");
        let changes = diff(&base, &v1, &["GPTBot"], &["/"]);
        assert_eq!(
            changes,
            vec![PolicyChange::CrawlDelayChanged {
                agent: "GPTBot".into(),
                was: None,
                now: Some(30.0)
            }]
        );
    }

    #[test]
    fn loosening_detected() {
        let strict = compile("User-agent: *\nDisallow: /\n");
        let open = compile("User-agent: *\nAllow: /\n");
        let changes = diff(&strict, &open, &["GPTBot"], &["/", "/x"]);
        let (tightened, loosened) = summarize(&changes);
        assert_eq!(tightened, 0);
        assert_eq!(loosened, 2);
    }

    #[test]
    fn deterministic_order() {
        let a = compile("User-agent: *\nDisallow: /\n");
        let b = compile("User-agent: *\nAllow: /\n");
        let x = diff(&a, &b, &AGENTS, &PATHS);
        let y = diff(&a, &b, &AGENTS, &PATHS);
        assert_eq!(x, y);
    }
}
