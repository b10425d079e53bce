//! Fetch semantics and the crawler-side cache.
//!
//! RFC 9309 §2.3.1 specifies what a compliant crawler must assume from the
//! HTTP status of the `robots.txt` fetch itself:
//!
//! * **2xx** — parse the body and obey it;
//! * **3xx** — follow at least five redirect hops
//!   ([`resolve_redirects`] implements the §2.3.1.2 hop budget), then
//!   treat as the final status; a chain that exceeds the budget makes the
//!   file "unavailable" (allow all);
//! * **4xx** (including 404) — the file is "unavailable": crawl **without
//!   restriction** (allow all);
//! * **5xx** — the file is "unreachable": assume **complete disallow**
//!   until a fresh fetch succeeds;
//! * network failure — same as 5xx.
//!
//! [`RobotsCache`] models the client-side caching convention the paper
//! measures in §5.1: Google's documented standard is to re-fetch every 24
//! hours, but observed bots range from "every 12 h" to "never".

use crate::compiled::CompiledPolicy;

/// The resolved outcome of fetching `/robots.txt`.
#[derive(Debug, Clone, PartialEq)]
pub enum FetchOutcome {
    /// 2xx with a body.
    Success(String),
    /// `304 Not Modified` in answer to a conditional request
    /// (`If-None-Match` / `If-Modified-Since`): the cached policy is
    /// still current. The crawler must keep enforcing its cached copy —
    /// [`RobotsCache::refresh`] is the matching cache operation; this
    /// outcome never carries a policy of its own.
    NotModified,
    /// Resolved 4xx — unavailable.
    ClientError(u16),
    /// Resolved 5xx — unreachable.
    ServerError(u16),
    /// Transport-level failure (DNS, TCP, TLS).
    NetworkError,
}

/// The redirect-hop budget of RFC 9309 §2.3.1.2: crawlers SHOULD follow
/// at least five consecutive redirects; past that they MAY assume the
/// file is unavailable.
pub const MAX_REDIRECT_HOPS: usize = 5;

/// One wire-level response to a robots.txt request, before redirect
/// resolution. [`resolve_redirects`] folds a chain of these into a
/// [`FetchOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub enum RawResponse {
    /// A terminal status carrying the response body (normally 2xx).
    Body(u16, String),
    /// A 3xx with its `Location` target.
    Redirect(u16, String),
    /// `304 Not Modified`: the server honoured the request's cache
    /// validators. Terminal — the cached body is still authoritative.
    NotModified,
    /// A bodyless terminal status (4xx, 5xx, or anything unexpected).
    Status(u16),
    /// Transport-level failure (DNS, TCP, TLS).
    Failed,
}

/// A redirect-resolved fetch: the final outcome plus chain provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedFetch {
    /// What the crawler must act on.
    pub outcome: FetchOutcome,
    /// Redirect hops actually followed.
    pub hops: usize,
    /// Whether resolution stopped because the chain exceeded
    /// [`MAX_REDIRECT_HOPS`] (the outcome is then "unavailable").
    pub capped: bool,
    /// Status of the terminal response: the last 3xx when `capped`, `0`
    /// on transport failure.
    pub status: u16,
}

/// Resolve a redirect chain into a final [`FetchOutcome`] per RFC 9309
/// §2.3.1.2. `follow` is invoked once per followed `Location` target; up
/// to [`MAX_REDIRECT_HOPS`] redirects are followed, and a chain still
/// redirecting after that (including any redirect loop) is treated as
/// **unavailable** — the same `AllowAll` obligation as a 4xx.
///
/// ```
/// use botscope_robotstxt::fetch::{resolve_redirects, FetchOutcome, RawResponse};
/// // One hop to the real file: the body is used.
/// let resolved = resolve_redirects(
///     RawResponse::Redirect(301, "/real/robots.txt".into()),
///     |_| RawResponse::Body(200, "User-agent: *\nDisallow: /\n".into()),
/// );
/// assert_eq!(resolved.hops, 1);
/// assert!(matches!(resolved.outcome, FetchOutcome::Success(_)));
/// ```
pub fn resolve_redirects(
    initial: RawResponse,
    mut follow: impl FnMut(&str) -> RawResponse,
) -> ResolvedFetch {
    let mut hops = 0usize;
    let mut response = initial;
    loop {
        match response {
            RawResponse::Redirect(code, target) => {
                if hops == MAX_REDIRECT_HOPS {
                    // Hop 6+: give up and treat the file as unavailable.
                    return ResolvedFetch {
                        outcome: FetchOutcome::ClientError(code),
                        hops,
                        capped: true,
                        status: code,
                    };
                }
                hops += 1;
                response = follow(&target);
            }
            RawResponse::Body(code, body) => {
                let outcome = match code {
                    200..=299 => FetchOutcome::Success(body),
                    500..=599 => FetchOutcome::ServerError(code),
                    // 4xx and anything unexpected carrying a body:
                    // unavailable (the body of an error page is not a
                    // policy).
                    _ => FetchOutcome::ClientError(code),
                };
                return ResolvedFetch { outcome, hops, capped: false, status: code };
            }
            RawResponse::Status(code) => {
                let outcome = match code {
                    // A bodyless 2xx is an empty policy file: allow all,
                    // via parsing the empty document.
                    200..=299 => FetchOutcome::Success(String::new()),
                    500..=599 => FetchOutcome::ServerError(code),
                    _ => FetchOutcome::ClientError(code),
                };
                return ResolvedFetch { outcome, hops, capped: false, status: code };
            }
            RawResponse::NotModified => {
                return ResolvedFetch {
                    outcome: FetchOutcome::NotModified,
                    hops,
                    capped: false,
                    status: 304,
                };
            }
            RawResponse::Failed => {
                return ResolvedFetch {
                    outcome: FetchOutcome::NetworkError,
                    hops,
                    capped: false,
                    status: 0,
                };
            }
        }
    }
}

/// What a compliant crawler must enforce after a fetch.
#[derive(Debug, Clone, PartialEq)]
pub enum EffectivePolicy {
    /// A fetched policy, compiled once and evaluated per request.
    Policy(CompiledPolicy),
    /// Crawl without restriction (4xx outcome).
    AllowAll,
    /// Fetch nothing (5xx / network outcome).
    DisallowAll,
}

impl EffectivePolicy {
    /// Derive the policy a compliant crawler must apply from a fetch
    /// outcome (RFC 9309 §2.3.1).
    ///
    /// ```
    /// use botscope_robotstxt::{EffectivePolicy, FetchOutcome};
    /// assert_eq!(
    ///     EffectivePolicy::from_outcome(FetchOutcome::ClientError(404)),
    ///     EffectivePolicy::AllowAll
    /// );
    /// assert_eq!(
    ///     EffectivePolicy::from_outcome(FetchOutcome::ServerError(503)),
    ///     EffectivePolicy::DisallowAll
    /// );
    /// ```
    pub fn from_outcome(outcome: FetchOutcome) -> Self {
        match outcome {
            FetchOutcome::Success(body) => {
                EffectivePolicy::Policy(CompiledPolicy::from_text(&body))
            }
            FetchOutcome::ClientError(_) => EffectivePolicy::AllowAll,
            FetchOutcome::ServerError(_) | FetchOutcome::NetworkError => {
                EffectivePolicy::DisallowAll
            }
            // A 304 has no policy of its own: the crawler must keep the
            // cached one (RobotsCache::refresh). Reaching here is a
            // caller logic error, not a policy question.
            FetchOutcome::NotModified => {
                panic!("NotModified carries no policy; refresh the cache instead")
            }
        }
    }

    /// Whether `agent` may fetch `path` under this policy.
    pub fn is_allowed(&self, agent: &str, path: &str) -> bool {
        match self {
            EffectivePolicy::Policy(policy) => policy.check(agent, path).allow,
            EffectivePolicy::AllowAll => true,
            // robots.txt itself stays fetchable even in disallow-all; a
            // missing leading `/` is supplied, as `CompiledPolicy` does.
            EffectivePolicy::DisallowAll => path.strip_prefix('/').unwrap_or(path) == "robots.txt",
        }
    }

    /// The crawl delay for `agent` under this policy.
    pub fn crawl_delay(&self, agent: &str) -> Option<f64> {
        match self {
            EffectivePolicy::Policy(policy) => policy.crawl_delay(agent),
            _ => None,
        }
    }
}

/// A crawler-side robots.txt cache with a fixed time-to-live.
///
/// Time is a plain `u64` of seconds (the simulator's clock).
#[derive(Debug, Clone)]
pub struct RobotsCache {
    ttl_secs: u64,
    cached: Option<(u64, EffectivePolicy)>,
}

/// The convention Google documents and the paper cites: re-fetch daily.
pub const DEFAULT_TTL_SECS: u64 = 24 * 3600;

impl RobotsCache {
    /// New cache with the given TTL in seconds.
    pub fn new(ttl_secs: u64) -> Self {
        Self { ttl_secs, cached: None }
    }

    /// New cache with the 24-hour default TTL.
    pub fn with_default_ttl() -> Self {
        Self::new(DEFAULT_TTL_SECS)
    }

    /// Whether a fetch is needed at time `now` (no entry, or entry older
    /// than the TTL).
    pub fn needs_fetch(&self, now: u64) -> bool {
        match &self.cached {
            None => true,
            Some((at, _)) => now.saturating_sub(*at) >= self.ttl_secs,
        }
    }

    /// Store the result of a fetch performed at `now`.
    pub fn store(&mut self, now: u64, policy: EffectivePolicy) {
        self.cached = Some((now, policy));
    }

    /// Record a successful re-validation of the cached entry at `now`
    /// (HTTP `304`-style: the server confirmed the policy is unchanged).
    /// The freshness clock restarts without re-parsing or re-storing the
    /// policy. Returns `false` — and changes nothing — when the cache is
    /// empty.
    pub fn refresh(&mut self, now: u64) -> bool {
        match self.cached.as_mut() {
            Some((at, _)) => {
                *at = now;
                true
            }
            None => false,
        }
    }

    /// The currently cached policy, if fresh at `now`.
    pub fn get(&self, now: u64) -> Option<&EffectivePolicy> {
        match &self.cached {
            Some((at, policy)) if now.saturating_sub(*at) < self.ttl_secs => Some(policy),
            _ => None,
        }
    }

    /// The configured TTL.
    pub fn ttl_secs(&self) -> u64 {
        self.ttl_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_mapping() {
        assert!(matches!(
            EffectivePolicy::from_outcome(FetchOutcome::Success(
                "User-agent: *\nDisallow: /\n".into()
            )),
            EffectivePolicy::Policy(_)
        ));
        assert_eq!(
            EffectivePolicy::from_outcome(FetchOutcome::ClientError(404)),
            EffectivePolicy::AllowAll
        );
        assert_eq!(
            EffectivePolicy::from_outcome(FetchOutcome::ClientError(401)),
            EffectivePolicy::AllowAll
        );
        assert_eq!(
            EffectivePolicy::from_outcome(FetchOutcome::ServerError(500)),
            EffectivePolicy::DisallowAll
        );
        assert_eq!(
            EffectivePolicy::from_outcome(FetchOutcome::NetworkError),
            EffectivePolicy::DisallowAll
        );
    }

    #[test]
    fn allow_all_allows_everything() {
        let p = EffectivePolicy::AllowAll;
        assert!(p.is_allowed("any", "/deep/secret"));
        assert_eq!(p.crawl_delay("any"), None);
    }

    #[test]
    fn disallow_all_permits_only_robots_txt() {
        let p = EffectivePolicy::DisallowAll;
        assert!(!p.is_allowed("any", "/index.html"));
        assert!(p.is_allowed("any", "/robots.txt"));
        assert!(p.is_allowed("any", "robots.txt"), "slash-less, read as /robots.txt");
        assert!(!p.is_allowed("any", "//robots.txt"));
        assert!(!p.is_allowed("any", "index.html"));
    }

    #[test]
    fn parsed_policy_enforced() {
        let p = EffectivePolicy::from_outcome(FetchOutcome::Success(
            "User-agent: *\nDisallow: /private/\nCrawl-delay: 30\n".into(),
        ));
        assert!(!p.is_allowed("bot", "/private/x"));
        assert!(p.is_allowed("bot", "/public"));
        assert_eq!(p.crawl_delay("bot"), Some(30.0));
    }

    #[test]
    fn cache_ttl_behaviour() {
        let mut c = RobotsCache::new(100);
        assert!(c.needs_fetch(0));
        c.store(10, EffectivePolicy::AllowAll);
        assert!(!c.needs_fetch(50));
        assert!(c.get(50).is_some());
        assert!(c.needs_fetch(110)); // 10 + 100 elapsed
        assert!(c.get(110).is_none());
        c.store(110, EffectivePolicy::DisallowAll);
        assert!(!c.needs_fetch(209));
        assert_eq!(c.get(200), Some(&EffectivePolicy::DisallowAll));
    }

    #[test]
    fn default_ttl_is_24h() {
        let c = RobotsCache::with_default_ttl();
        assert_eq!(c.ttl_secs(), 86_400);
    }

    /// Serve a chain of `n` redirects, then the body.
    fn chain_of(n: usize) -> (RawResponse, impl FnMut(&str) -> RawResponse) {
        let mut served = 1usize; // the initial redirect is hop target #1
        let follow = move |target: &str| {
            assert!(target.starts_with("/hop-"), "unexpected target {target}");
            if served < n {
                served += 1;
                RawResponse::Redirect(301, format!("/hop-{served}"))
            } else {
                RawResponse::Body(200, "User-agent: *\nDisallow: /private/\n".into())
            }
        };
        (RawResponse::Redirect(301, "/hop-1".into()), follow)
    }

    #[test]
    fn redirect_one_hop_resolves_body() {
        let (first, follow) = chain_of(1);
        let r = resolve_redirects(first, follow);
        assert_eq!(r.hops, 1);
        assert!(!r.capped);
        assert_eq!(r.status, 200);
        let policy = EffectivePolicy::from_outcome(r.outcome);
        assert!(!policy.is_allowed("bot", "/private/x"));
        assert!(policy.is_allowed("bot", "/public"));
    }

    #[test]
    fn redirect_five_hops_still_resolves() {
        let (first, follow) = chain_of(5);
        let r = resolve_redirects(first, follow);
        assert_eq!(r.hops, 5);
        assert!(!r.capped);
        assert!(matches!(r.outcome, FetchOutcome::Success(_)));
    }

    #[test]
    fn redirect_six_hops_is_unavailable() {
        let (first, follow) = chain_of(6);
        let r = resolve_redirects(first, follow);
        assert_eq!(r.hops, MAX_REDIRECT_HOPS);
        assert!(r.capped);
        assert_eq!(r.status, 301);
        assert_eq!(r.outcome, FetchOutcome::ClientError(301));
        // Unavailable ⇒ crawl without restriction.
        assert_eq!(EffectivePolicy::from_outcome(r.outcome), EffectivePolicy::AllowAll);
    }

    #[test]
    fn redirect_loop_is_unavailable() {
        let first = RawResponse::Redirect(302, "/a".into());
        let r = resolve_redirects(first, |target| {
            RawResponse::Redirect(302, if target == "/a" { "/b".into() } else { "/a".into() })
        });
        assert!(r.capped);
        assert_eq!(r.hops, MAX_REDIRECT_HOPS);
        assert_eq!(EffectivePolicy::from_outcome(r.outcome), EffectivePolicy::AllowAll);
    }

    #[test]
    fn redirect_into_error_statuses() {
        let first = RawResponse::Redirect(301, "/gone".into());
        let r = resolve_redirects(first, |_| RawResponse::Status(404));
        assert_eq!((r.hops, r.status), (1, 404));
        assert_eq!(r.outcome, FetchOutcome::ClientError(404));
        let first = RawResponse::Redirect(301, "/down".into());
        let r = resolve_redirects(first, |_| RawResponse::Status(503));
        assert_eq!(r.outcome, FetchOutcome::ServerError(503));
        let first = RawResponse::Redirect(301, "/dead".into());
        let r = resolve_redirects(first, |_| RawResponse::Failed);
        assert_eq!(r.outcome, FetchOutcome::NetworkError);
        assert_eq!(r.status, 0);
    }

    #[test]
    fn not_modified_resolves_terminal() {
        let r = resolve_redirects(RawResponse::NotModified, |_| unreachable!("no follow"));
        assert_eq!((r.hops, r.status, r.capped), (0, 304, false));
        assert_eq!(r.outcome, FetchOutcome::NotModified);
        // ... including behind a redirect (revalidation at the final hop).
        let r = resolve_redirects(RawResponse::Redirect(301, "/real".into()), |_| {
            RawResponse::NotModified
        });
        assert_eq!((r.hops, r.status), (1, 304));
        assert_eq!(r.outcome, FetchOutcome::NotModified);
    }

    #[test]
    #[should_panic(expected = "refresh the cache")]
    fn not_modified_has_no_standalone_policy() {
        let _ = EffectivePolicy::from_outcome(FetchOutcome::NotModified);
    }

    #[test]
    fn non_redirect_initial_passes_through() {
        let r = resolve_redirects(RawResponse::Status(500), |_| unreachable!("no follow"));
        assert_eq!(r.hops, 0);
        assert_eq!(r.outcome, FetchOutcome::ServerError(500));
        // A bodyless 2xx is an empty (allow-everything) policy.
        let r = resolve_redirects(RawResponse::Status(204), |_| unreachable!("no follow"));
        assert!(matches!(r.outcome, FetchOutcome::Success(ref b) if b.is_empty()));
    }

    #[test]
    fn needs_fetch_exactly_at_expiry() {
        let mut c = RobotsCache::new(100);
        c.store(50, EffectivePolicy::AllowAll);
        // One second inside the TTL: fresh. Exactly at expiry: stale.
        assert!(!c.needs_fetch(149));
        assert!(c.get(149).is_some());
        assert!(c.needs_fetch(150));
        assert!(c.get(150).is_none());
    }

    #[test]
    fn refresh_restarts_freshness_without_restoring() {
        let mut c = RobotsCache::new(100);
        assert!(!c.refresh(10), "refresh of an empty cache changes nothing");
        assert!(c.needs_fetch(10));
        c.store(10, EffectivePolicy::DisallowAll);
        assert!(c.refresh(90));
        // The entry is now fresh until 190, and the policy is unchanged.
        assert!(!c.needs_fetch(189));
        assert!(c.needs_fetch(190));
        assert_eq!(c.get(100), Some(&EffectivePolicy::DisallowAll));
    }

    #[test]
    fn time_going_backwards_is_tolerated() {
        let mut c = RobotsCache::new(100);
        c.store(1000, EffectivePolicy::AllowAll);
        // A clock that jumps back must not panic; entry counts as fresh.
        assert!(!c.needs_fetch(900));
        assert!(c.get(900).is_some());
    }
}
