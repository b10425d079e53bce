//! Digest-driven maintenance of a [`PolicyEstate`] admission cache.
//!
//! The daemon observes served-policy swaps and digests them into
//! [`ChangeDigest`]s (§5.2's transition observations). An admission
//! service that answers "may I crawl?" from compiled automata must
//! drop exactly the compiled artifacts those transitions obsolete —
//! recompiling the whole estate on every monitoring pass would erase
//! the compile-once economics of [`CompiledPolicy`].
//!
//! [`apply_digests`] is that bridge: for each *behavioral* digest it
//! re-registers the site's *new* document (the digest carries `to:
//! PolicyVersion`), which drops the stale automaton. Digests the
//! analyzer proved [`ChangeClass::Cosmetic`] are decision-equivalent
//! for every agent and path, so the site's compiled artifact stays
//! warm — no recompile debt is owed for a comment edit. Every
//! untouched site keeps its artifact. [`prime_estate`] is the
//! bootstrap dual, registering a deployment snapshot wholesale.
//!
//! [`CompiledPolicy`]: botscope_robotstxt::CompiledPolicy

use botscope_robotstxt::analysis::ChangeClass;
use botscope_robotstxt::PolicyEstate;
use botscope_study::PolicyVersion;

use crate::daemon::ChangeDigest;

/// Register a deployment snapshot: every `(site, live version)` pair
/// becomes an estate entry. Compilation stays lazy — nothing is
/// compiled until the first admission check against the site.
pub fn prime_estate<'a, I>(estate: &mut PolicyEstate, deployment: I)
where
    I: IntoIterator<Item = (&'a str, PolicyVersion)>,
{
    for (site, version) in deployment {
        estate.insert(site, version.robots_txt());
    }
}

/// What one monitoring pass's digests did to the estate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigestOutcome {
    /// Sites whose compiled artifact was dropped (present *and*
    /// compiled): the recompile debt this pass actually created.
    pub dropped: usize,
    /// Digests skipped because the transition was proven cosmetic —
    /// the site's document and compiled artifact were left untouched.
    pub cosmetic_skips: usize,
}

/// Fold a monitoring pass's [`ChangeDigest`]s into the estate.
///
/// Behavioral digests replace the site's document with the digest's
/// `to` version, dropping any compiled artifact so the next admission
/// check recompiles against the new policy. Cosmetic digests for
/// known sites are skipped outright — the analyzer proved the old
/// automaton still decides every request identically, so it stays
/// warm. Sites the digests do not name are untouched. Digests for
/// sites the estate has never seen insert them fresh (whatever their
/// class — the monitor is the source of truth for what is deployed).
///
/// Returns the recompile debt actually owed plus the number of
/// cosmetic transitions skipped.
pub fn apply_digests(estate: &mut PolicyEstate, digests: &[ChangeDigest]) -> DigestOutcome {
    let mut outcome = DigestOutcome::default();
    for digest in digests {
        let site = digest.site.as_str();
        if digest.class == ChangeClass::Cosmetic && estate.doc(site).is_some() {
            outcome.cosmetic_skips += 1;
            continue;
        }
        if estate.is_compiled(site) {
            outcome.dropped += 1;
        }
        estate.insert(site, digest.to.robots_txt());
    }
    let obs = botscope_obs::global();
    obs.counter("admission_digests_applied_total").add(digests.len() as u64);
    obs.counter("admission_compiled_dropped_total").add(outcome.dropped as u64);
    obs.counter("admission_cosmetic_skips_total").add(outcome.cosmetic_skips as u64);
    // The debt this pass leaves outstanding: registered sites whose
    // artifact the next admission sweep must recompile.
    obs.gauge("robotstxt_compile_debt").set(estate.compile_debt() as u64);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(site: &str, from: PolicyVersion, to: PolicyVersion) -> ChangeDigest {
        ChangeDigest {
            site: site.to_string(),
            at: 0,
            from,
            to,
            observers: 1,
            tightened: 0,
            loosened: 0,
            delay_changes: 0,
            class: ChangeClass::Behavioral,
        }
    }

    fn cosmetic(site: &str, from: PolicyVersion, to: PolicyVersion) -> ChangeDigest {
        ChangeDigest { class: ChangeClass::Cosmetic, ..digest(site, from, to) }
    }

    #[test]
    fn priming_registers_without_compiling() {
        let mut estate = PolicyEstate::new();
        prime_estate(
            &mut estate,
            [
                ("a.example.edu", PolicyVersion::Base),
                ("b.example.edu", PolicyVersion::V1CrawlDelay),
            ],
        );
        assert_eq!(estate.len(), 2);
        assert_eq!(estate.compiled_count(), 0);
        assert_eq!(estate.compiles(), 0);
    }

    #[test]
    fn only_digested_sites_recompile() {
        let mut estate = PolicyEstate::new();
        let sites = ["a.example.edu", "b.example.edu", "c.example.edu"];
        prime_estate(&mut estate, sites.iter().map(|s| (*s, PolicyVersion::Base)));
        // Warm every artifact.
        for site in sites {
            assert_eq!(estate.check(site, "GPTBot", "/news/item-001"), Some(true));
        }
        assert_eq!(estate.compiles(), 3);

        let outcome = apply_digests(
            &mut estate,
            &[digest("b.example.edu", PolicyVersion::Base, PolicyVersion::V3DisallowAll)],
        );
        assert_eq!(outcome, DigestOutcome { dropped: 1, cosmetic_skips: 0 });
        // Only b lost its artifact; a and c stay warm.
        assert_eq!(estate.compiled_count(), 2);

        // The re-check answers from the *new* policy and costs exactly
        // one recompile.
        assert_eq!(estate.check("b.example.edu", "GPTBot", "/news/item-001"), Some(false));
        assert_eq!(estate.check("a.example.edu", "GPTBot", "/news/item-001"), Some(true));
        assert_eq!(estate.compiles(), 4);
    }

    #[test]
    fn digest_for_unknown_site_inserts_it() {
        let mut estate = PolicyEstate::new();
        let outcome = apply_digests(
            &mut estate,
            &[digest("new.example.edu", PolicyVersion::Base, PolicyVersion::V2EndpointOnly)],
        );
        assert_eq!(outcome, DigestOutcome { dropped: 0, cosmetic_skips: 0 });
        assert_eq!(estate.len(), 1);
        // Unknown sites stay the caller's problem; the v2 wildcard group
        // denies content and allows page-data.
        assert_eq!(estate.check("missing.example.edu", "SomeBot", "/x"), None);
        assert_eq!(estate.check("new.example.edu", "SomeBot", "/news/item-001"), Some(false));
        assert_eq!(
            estate.check("new.example.edu", "SomeBot", "/page-data/item-001/page-data.json"),
            Some(true)
        );
    }

    #[test]
    fn uncompiled_sites_create_no_recompile_debt() {
        let mut estate = PolicyEstate::new();
        prime_estate(&mut estate, [("a.example.edu", PolicyVersion::Base)]);
        // Never checked, so never compiled: the digest swaps the doc but
        // reports zero dropped artifacts.
        let outcome = apply_digests(
            &mut estate,
            &[digest("a.example.edu", PolicyVersion::Base, PolicyVersion::V1CrawlDelay)],
        );
        assert_eq!(outcome, DigestOutcome { dropped: 0, cosmetic_skips: 0 });
        assert_eq!(estate.compiles(), 0);
    }

    #[test]
    fn cosmetic_digests_keep_artifacts_warm() {
        let mut estate = PolicyEstate::new();
        let sites = ["a.example.edu", "b.example.edu"];
        prime_estate(&mut estate, sites.iter().map(|s| (*s, PolicyVersion::Base)));
        for site in sites {
            assert_eq!(estate.check(site, "GPTBot", "/news/item-001"), Some(true));
        }
        assert_eq!(estate.compiles(), 2);

        // Serving a corpus version again is a cosmetic transition…
        for v in PolicyVersion::ALL {
            let doc = v.robots_txt();
            let class = botscope_robotstxt::analysis::classify_change(&doc, &doc);
            assert_eq!(class, ChangeClass::Cosmetic, "{v:?}");
        }
        // …and a cosmetic transition owes nothing: no drop, no doc swap.
        let outcome = apply_digests(
            &mut estate,
            &[cosmetic("a.example.edu", PolicyVersion::Base, PolicyVersion::Base)],
        );
        assert_eq!(outcome, DigestOutcome { dropped: 0, cosmetic_skips: 1 });
        assert_eq!(estate.compiled_count(), 2);
        // Re-checking costs zero additional compiles.
        assert_eq!(estate.check("a.example.edu", "GPTBot", "/news/item-001"), Some(true));
        assert_eq!(estate.compiles(), 2);
    }

    #[test]
    fn cosmetic_digest_for_unknown_site_still_inserts() {
        let mut estate = PolicyEstate::new();
        let outcome = apply_digests(
            &mut estate,
            &[cosmetic("new.example.edu", PolicyVersion::Base, PolicyVersion::Base)],
        );
        assert_eq!(outcome, DigestOutcome { dropped: 0, cosmetic_skips: 0 });
        assert_eq!(estate.len(), 1);
        assert_eq!(estate.check("new.example.edu", "GPTBot", "/news/item-001"), Some(true));
    }

    #[test]
    fn mixed_pass_counts_each_class() {
        let mut estate = PolicyEstate::new();
        let sites = ["a.example.edu", "b.example.edu", "c.example.edu"];
        prime_estate(&mut estate, sites.iter().map(|s| (*s, PolicyVersion::Base)));
        for site in sites {
            estate.check(site, "GPTBot", "/");
        }
        let outcome = apply_digests(
            &mut estate,
            &[
                digest("a.example.edu", PolicyVersion::Base, PolicyVersion::V3DisallowAll),
                cosmetic("b.example.edu", PolicyVersion::Base, PolicyVersion::Base),
                digest("d.example.edu", PolicyVersion::Base, PolicyVersion::V2EndpointOnly),
            ],
        );
        assert_eq!(outcome, DigestOutcome { dropped: 1, cosmetic_skips: 1 });
        assert_eq!(estate.len(), 4);
        assert_eq!(estate.compiled_count(), 2); // b and c stay warm
    }
}
