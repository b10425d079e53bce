//! The deterministic virtual transport: HTTP-for-robots.txt, in process.
//!
//! No real network exists in the build image, and none is needed: the
//! only requests the monitoring daemon makes are `GET /robots.txt`, and
//! what matters for RFC 9309 semantics is the *status timeline* a site
//! exposes — 2xx bodies (with mid-study policy swaps), 3xx redirect
//! chains, 4xx/5xx windows, flapping, outages, and transport failures.
//! [`ServerModel`] scripts that timeline per site; [`VirtualTransport`]
//! owns the estate plus the shared [`PolicyCorpus`] of the four policy
//! bodies.
//!
//! **Determinism.** A response is a *pure function* of
//! `(model, now, salt)`: scripted windows decide the serve mode, and the
//! per-request randomness (seeded latency, transient connection
//! failures) comes from hashing `(site seed, now, salt)` rather than
//! from mutable RNG state. Agents can therefore fetch in any order — or
//! from any number of worker threads — and observe byte-identical
//! responses for a fixed master seed.

use botscope_robotstxt::fetch::{resolve_redirects, RawResponse, ResolvedFetch, MAX_REDIRECT_HOPS};
use botscope_study::{BeliefTimeline, BelievedPolicy, PolicyCorpus, PolicyVersion, Timeline};

/// How a site serves `/robots.txt` during a scripted window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Healthy service: `200` with the live policy body.
    Ok,
    /// Bodyless client error (`404`, `410`, …): the file is gone.
    ClientError(u16),
    /// Server error (`500`, `503`, …): the host is unhealthy.
    ServerError(u16),
    /// Connection-level outage: requests never produce a status.
    Unreachable,
    /// Healthy body served behind a redirect chain of this many hops —
    /// chains longer than RFC 9309's five-hop budget are deliberately
    /// constructible.
    Redirect(u8),
    /// Flapping: alternate `Ok` / `ServerError(503)` half-periods of
    /// this many seconds, anchored at the window start.
    Flapping(u32),
}

/// One scripted condition: `[start, end)` in unix seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConditionWindow {
    /// First affected instant.
    pub start: u64,
    /// First instant back to normal.
    pub end: u64,
    /// What the window serves.
    pub mode: ServeMode,
}

/// Mean/jitter of the seeded per-request latency, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed floor every request pays.
    pub base_ms: u32,
    /// Uniform jitter added on top (0..=jitter_ms).
    pub jitter_ms: u32,
}

/// One site's scripted robots.txt server.
#[derive(Debug, Clone)]
pub struct ServerModel {
    /// Site hostname (`site-NN.example.edu`).
    pub name: String,
    /// Which policy body is live when.
    pub policy: Timeline<PolicyVersion>,
    /// Scripted condition windows, non-overlapping, time-ascending.
    /// Instants outside every window serve [`ServeMode::Ok`].
    pub windows: Vec<ConditionWindow>,
    /// Derived per-site seed for request-level hashing.
    pub seed: u64,
    /// Seeded latency distribution.
    pub latency: LatencyModel,
    /// Probability of a transient connection failure on any request,
    /// in units of 1/65536 (0 disables).
    pub transient_fail_2e16: u32,
}

/// Cache validators of a served robots.txt body (`ETag` /
/// `Last-Modified`). A crawler stores them with the parsed policy and
/// replays them as `If-None-Match` / `If-Modified-Since` on the next
/// re-check; a healthy server answers `304 Not Modified` when the body
/// is unchanged, saving the transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validators {
    /// Opaque strong entity tag of the body.
    pub etag: u64,
    /// Unix second the currently served body went live.
    pub last_modified: u64,
}

/// The `ETag` a server advertises for a policy version's body (all
/// sites serve the shared corpus, so the tag is body-global).
pub fn etag_of(version: PolicyVersion) -> u64 {
    request_hash(0xE7A6_0000_0000_0000, version.index() as u64, 0x304)
}

/// A resolved virtual fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualFetch {
    /// The redirect-resolved outcome (RFC 9309 provenance included).
    pub resolved: ResolvedFetch,
    /// The policy version whose body was served (on success) or
    /// revalidated (on 304).
    pub version: Option<PolicyVersion>,
    /// Bytes of body served (0 for error outcomes and 304s).
    pub bytes: u64,
    /// Body bytes the exchange did *not* transfer because a conditional
    /// request was answered `304 Not Modified`.
    pub saved_bytes: u64,
    /// Validators of the served body, for the crawler's next
    /// conditional request (present on 2xx and 304).
    pub validators: Option<Validators>,
    /// Seeded latency of the whole exchange, milliseconds.
    pub latency_ms: u32,
}

/// splitmix-style avalanche over the request coordinates.
fn request_hash(seed: u64, now: u64, salt: u64) -> u64 {
    let mut z = seed ^ now.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ServerModel {
    /// A permanently healthy model with default latency.
    pub fn healthy(name: String, policy: Timeline<PolicyVersion>, seed: u64) -> ServerModel {
        ServerModel {
            name,
            policy,
            windows: Vec::new(),
            seed,
            latency: LatencyModel { base_ms: 20, jitter_ms: 60 },
            transient_fail_2e16: 0,
        }
    }

    /// The serve mode scripted for `now` (flapping resolved to its
    /// up/down half-period).
    pub fn mode_at(&self, now: u64) -> ServeMode {
        let idx = self.windows.partition_point(|w| w.end <= now);
        match self.windows.get(idx) {
            Some(w) if w.start <= now => match w.mode {
                ServeMode::Flapping(period) => {
                    let period = period.max(1) as u64;
                    if ((now - w.start) / period).is_multiple_of(2) {
                        ServeMode::ServerError(503)
                    } else {
                        ServeMode::Ok
                    }
                }
                mode => mode,
            },
            _ => ServeMode::Ok,
        }
    }

    /// The healthy 200 response at `now`.
    fn healthy_response(&self, corpus: &PolicyCorpus, now: u64) -> (RawResponse, PolicyVersion) {
        let version = self.policy.at(now);
        (RawResponse::Body(200, corpus.text(version).to_string()), version)
    }

    /// The validators of the body live at `now`.
    fn validators_at(&self, now: u64) -> Validators {
        Validators { etag: etag_of(self.policy.at(now)), last_modified: self.policy.since(now) }
    }

    /// Fetch `/robots.txt` at `now`. `salt` individualizes concurrent
    /// requesters (the daemon passes the global agent index); the reply
    /// is a pure function of `(self, now, salt)`.
    pub fn fetch(&self, corpus: &PolicyCorpus, now: u64, salt: u64) -> VirtualFetch {
        self.fetch_conditional(corpus, now, salt, None)
    }

    /// [`ServerModel::fetch`] with optional cache validators
    /// (`If-None-Match` / `If-Modified-Since`). A healthy server whose
    /// live body still matches the presented `ETag` answers
    /// `304 Not Modified` and transfers nothing; the saved body size is
    /// reported in [`VirtualFetch::saved_bytes`]. Validators travel to
    /// the *final* hop of a redirect chain (the chain target owns the
    /// body), so CDN-fronted estates revalidate too — unless the chain
    /// exceeds the five-hop budget, in which case the body is never
    /// reached. Error windows ignore validators entirely.
    pub fn fetch_conditional(
        &self,
        corpus: &PolicyCorpus,
        now: u64,
        salt: u64,
        conditional: Option<Validators>,
    ) -> VirtualFetch {
        let h = request_hash(self.seed, now, salt);
        let latency_ms = self.latency.base_ms
            + if self.latency.jitter_ms == 0 {
                0
            } else {
                ((h >> 16) % (self.latency.jitter_ms as u64 + 1)) as u32
            };

        // Transient connection failure, independent of scripted windows.
        if self.transient_fail_2e16 > 0 && (h & 0xFFFF) < self.transient_fail_2e16 as u64 {
            let resolved = resolve_redirects(RawResponse::Failed, |_| unreachable!());
            return VirtualFetch {
                resolved,
                version: None,
                bytes: 0,
                saved_bytes: 0,
                validators: None,
                latency_ms,
            };
        }

        let mut version = None;
        let initial = match self.mode_at(now) {
            ServeMode::Ok => {
                let served = self.validators_at(now);
                if conditional.is_some_and(|v| v.etag == served.etag) {
                    let v = self.policy.at(now);
                    let resolved = resolve_redirects(RawResponse::NotModified, |_| unreachable!());
                    return VirtualFetch {
                        resolved,
                        version: Some(v),
                        bytes: 0,
                        saved_bytes: corpus.text(v).len() as u64,
                        validators: Some(served),
                        latency_ms,
                    };
                }
                let (response, v) = self.healthy_response(corpus, now);
                version = Some(v);
                response
            }
            ServeMode::ClientError(code) => RawResponse::Status(code),
            ServeMode::ServerError(code) => RawResponse::Status(code),
            ServeMode::Unreachable => RawResponse::Failed,
            ServeMode::Flapping(_) => unreachable!("mode_at resolves flapping"),
            ServeMode::Redirect(hops) => {
                // Serve the body behind `hops` consecutive redirects; the
                // resolver enforces the five-hop budget, so chains of 6+
                // come back "unavailable" and `version` stays None. The
                // final hop — and only it — consults the presented
                // validators, exactly as the healthy branch does: an
                // unchanged body behind a 3xx chain is a 304 with the
                // transfer elided.
                let served = self.validators_at(now);
                let revalidate = conditional.is_some_and(|v| v.etag == served.etag);
                let mut followed = 1u8;
                let mut saved_bytes = 0u64;
                let resolved =
                    resolve_redirects(RawResponse::Redirect(301, "/hop-1".into()), |_target| {
                        if followed < hops {
                            followed += 1;
                            RawResponse::Redirect(301, format!("/hop-{followed}"))
                        } else if revalidate {
                            let v = self.policy.at(now);
                            version = Some(v);
                            saved_bytes = corpus.text(v).len() as u64;
                            RawResponse::NotModified
                        } else {
                            let (response, v) = self.healthy_response(corpus, now);
                            version = Some(v);
                            response
                        }
                    });
                if resolved.capped {
                    version = None;
                    saved_bytes = 0;
                }
                let bytes = match &resolved.outcome {
                    botscope_robotstxt::FetchOutcome::Success(body) => body.len() as u64,
                    _ => 0,
                };
                // Each hop pays the latency floor again.
                let latency_ms =
                    latency_ms.saturating_add(self.latency.base_ms * resolved.hops as u32);
                return VirtualFetch {
                    resolved,
                    version,
                    bytes,
                    saved_bytes,
                    validators: version.map(|_| self.validators_at(now)),
                    latency_ms,
                };
            }
        };
        let resolved = resolve_redirects(initial, |_| unreachable!("no redirects scripted"));
        let bytes = match &resolved.outcome {
            botscope_robotstxt::FetchOutcome::Success(body) => body.len() as u64,
            _ => 0,
        };
        if !matches!(resolved.outcome, botscope_robotstxt::FetchOutcome::Success(_)) {
            version = None;
        }
        VirtualFetch {
            resolved,
            version,
            bytes,
            saved_bytes: 0,
            validators: version.map(|_| self.validators_at(now)),
            latency_ms,
        }
    }

    /// The stepwise policy this server *effectively* serves over
    /// `[start, end)` — ground truth for belief-vs-served scoring.
    /// Scripted weather is resolved to its RFC 9309 obligation: healthy
    /// service (and redirect chains within the five-hop budget) yield
    /// the live [`PolicyVersion`]; 4xx windows and over-budget chains
    /// yield allow-all; 5xx, blackout and flapping-down half-periods
    /// yield disallow-all. Request-level transient failures are noise,
    /// not server state, and are excluded.
    pub fn effective_timeline(&self, start: u64, end: u64) -> BeliefTimeline {
        let mut tl = BeliefTimeline::always(BelievedPolicy::Unfetched);
        let serve_ok = |tl: &mut BeliefTimeline, from: u64, to: u64| {
            tl.record(from, BelievedPolicy::Version(self.policy.at(from)));
            for &(at, v) in self.policy.segments() {
                if at > from && at < to {
                    tl.record(at, BelievedPolicy::Version(v));
                }
            }
        };
        let mut cursor = start;
        for w in &self.windows {
            let ws = w.start.clamp(start, end);
            let we = w.end.clamp(start, end);
            if ws >= we {
                continue;
            }
            if cursor < ws {
                serve_ok(&mut tl, cursor, ws);
            }
            match w.mode {
                ServeMode::Ok => serve_ok(&mut tl, ws, we),
                ServeMode::ClientError(_) => tl.record(ws, BelievedPolicy::AllowAll),
                ServeMode::ServerError(_) | ServeMode::Unreachable => {
                    tl.record(ws, BelievedPolicy::DisallowAll);
                }
                ServeMode::Redirect(hops) if (hops as usize) <= MAX_REDIRECT_HOPS => {
                    serve_ok(&mut tl, ws, we);
                }
                ServeMode::Redirect(_) => tl.record(ws, BelievedPolicy::AllowAll),
                ServeMode::Flapping(period) => {
                    // Half-periods are anchored at the window's scripted
                    // start, which may precede the clip point.
                    let period = period.max(1) as u64;
                    let mut t = ws;
                    while t < we {
                        let k = (t - w.start) / period;
                        let next = (w.start + (k + 1) * period).min(we);
                        if k.is_multiple_of(2) {
                            tl.record(t, BelievedPolicy::DisallowAll);
                        } else {
                            serve_ok(&mut tl, t, next);
                        }
                        t = next;
                    }
                }
            }
            cursor = cursor.max(we);
        }
        if cursor < end {
            serve_ok(&mut tl, cursor, end);
        }
        tl
    }
}

/// The whole estate's transport: per-site models plus the shared corpus.
#[derive(Debug, Clone)]
pub struct VirtualTransport {
    corpus: PolicyCorpus,
    models: Vec<ServerModel>,
}

impl VirtualTransport {
    /// Assemble a transport over `models`.
    pub fn new(models: Vec<ServerModel>) -> VirtualTransport {
        VirtualTransport { corpus: PolicyCorpus::new(), models }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the estate is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The model of `site`.
    pub fn model(&self, site: usize) -> &ServerModel {
        &self.models[site]
    }

    /// The shared policy corpus.
    pub fn corpus(&self) -> &PolicyCorpus {
        &self.corpus
    }

    /// Fetch `site`'s robots.txt at `now` on behalf of requester `salt`.
    pub fn fetch(&self, site: usize, now: u64, salt: u64) -> VirtualFetch {
        self.models[site].fetch(&self.corpus, now, salt)
    }

    /// [`VirtualTransport::fetch`] with cache validators.
    pub fn fetch_conditional(
        &self,
        site: usize,
        now: u64,
        salt: u64,
        conditional: Option<Validators>,
    ) -> VirtualFetch {
        self.models[site].fetch_conditional(&self.corpus, now, salt, conditional)
    }

    /// Per-site effective served-policy timelines over `[start, end)` —
    /// the estate's ground truth (see
    /// [`ServerModel::effective_timeline`]).
    pub fn effective_timelines(&self, start: u64, end: u64) -> Vec<BeliefTimeline> {
        self.models.iter().map(|m| m.effective_timeline(start, end)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_robotstxt::FetchOutcome;
    use botscope_study::PhaseSchedule;
    use botscope_weblog::time::Timestamp;

    fn corpus() -> PolicyCorpus {
        PolicyCorpus::new()
    }

    fn healthy_model() -> ServerModel {
        ServerModel::healthy(
            "site-00.example.edu".into(),
            Timeline::always(PolicyVersion::Base),
            42,
        )
    }

    #[test]
    fn fetch_is_pure() {
        let m = healthy_model();
        let c = corpus();
        let a = m.fetch(&c, 1_000, 7);
        let b = m.fetch(&c, 1_000, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn healthy_fetch_serves_live_policy() {
        let start = Timestamp::from_date(2025, 1, 15);
        let schedule = PhaseSchedule::paper_schedule(start, 0);
        let mut m = healthy_model();
        m.policy = Timeline::from_schedule(&schedule, 0);
        let c = corpus();
        let in_v3 = start.plus_secs(50 * 86_400).unix();
        let f = m.fetch(&c, in_v3, 0);
        assert_eq!(f.version, Some(PolicyVersion::V3DisallowAll));
        assert_eq!(f.resolved.status, 200);
        match &f.resolved.outcome {
            FetchOutcome::Success(body) => {
                assert_eq!(body.as_str(), c.text(PolicyVersion::V3DisallowAll));
                assert_eq!(f.bytes, body.len() as u64);
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn windows_script_the_status_timeline() {
        let mut m = healthy_model();
        m.windows = vec![
            ConditionWindow { start: 100, end: 200, mode: ServeMode::ServerError(503) },
            ConditionWindow { start: 300, end: 400, mode: ServeMode::ClientError(404) },
            ConditionWindow { start: 500, end: 600, mode: ServeMode::Unreachable },
        ];
        let c = corpus();
        assert_eq!(m.fetch(&c, 50, 0).resolved.status, 200);
        assert_eq!(m.fetch(&c, 150, 0).resolved.outcome, FetchOutcome::ServerError(503));
        assert_eq!(m.fetch(&c, 199, 0).resolved.status, 503);
        assert_eq!(m.fetch(&c, 200, 0).resolved.status, 200, "window end is exclusive");
        assert_eq!(m.fetch(&c, 350, 0).resolved.outcome, FetchOutcome::ClientError(404));
        assert_eq!(m.fetch(&c, 550, 0).resolved.outcome, FetchOutcome::NetworkError);
        assert_eq!(m.fetch(&c, 700, 0).resolved.status, 200);
    }

    #[test]
    fn flapping_alternates_half_periods() {
        let mut m = healthy_model();
        m.windows = vec![ConditionWindow { start: 0, end: 10_000, mode: ServeMode::Flapping(100) }];
        let c = corpus();
        // [0,100) down, [100,200) up, [200,300) down ...
        assert_eq!(m.fetch(&c, 50, 0).resolved.status, 503);
        assert_eq!(m.fetch(&c, 150, 0).resolved.status, 200);
        assert_eq!(m.fetch(&c, 250, 0).resolved.status, 503);
    }

    #[test]
    fn redirect_chains_respect_the_hop_budget() {
        let c = corpus();
        for hops in 1..=5u8 {
            let mut m = healthy_model();
            m.windows =
                vec![ConditionWindow { start: 0, end: u64::MAX, mode: ServeMode::Redirect(hops) }];
            let f = m.fetch(&c, 1_000, 0);
            assert_eq!(f.resolved.hops, hops as usize);
            assert!(!f.resolved.capped);
            assert_eq!(f.version, Some(PolicyVersion::Base));
        }
        let mut m = healthy_model();
        m.windows = vec![ConditionWindow { start: 0, end: u64::MAX, mode: ServeMode::Redirect(6) }];
        let f = m.fetch(&c, 1_000, 0);
        assert!(f.resolved.capped);
        assert_eq!(f.resolved.hops, 5);
        assert_eq!(f.version, None, "capped chain never reaches the body");
        assert!(matches!(f.resolved.outcome, FetchOutcome::ClientError(301)));
    }

    #[test]
    fn transient_failures_are_seeded_and_deterministic() {
        let mut m = healthy_model();
        m.transient_fail_2e16 = 6_554; // ≈ 10 %
        let c = corpus();
        let mut failures = 0;
        for now in 0..2_000u64 {
            let a = m.fetch(&c, now, 3);
            let b = m.fetch(&c, now, 3);
            assert_eq!(a, b);
            if a.resolved.outcome == FetchOutcome::NetworkError {
                failures += 1;
            }
        }
        // ≈ 200 expected; accept a generous band.
        assert!((100..400).contains(&failures), "transient failures: {failures}");
    }

    #[test]
    fn latency_is_seeded_within_bounds() {
        let m = healthy_model();
        let c = corpus();
        let mut distinct = std::collections::BTreeSet::new();
        for now in 0..200u64 {
            let f = m.fetch(&c, now, 0);
            assert!(f.latency_ms >= m.latency.base_ms);
            assert!(f.latency_ms <= m.latency.base_ms + m.latency.jitter_ms);
            distinct.insert(f.latency_ms);
        }
        assert!(distinct.len() > 10, "latency should actually vary: {distinct:?}");
    }

    #[test]
    fn conditional_fetch_revalidates_unchanged_body() {
        let m = healthy_model();
        let c = corpus();
        let first = m.fetch(&c, 1_000, 7);
        let validators = first.validators.expect("2xx carries validators");
        assert_eq!(validators.etag, etag_of(PolicyVersion::Base));
        assert_eq!(validators.last_modified, 0);
        assert!(first.bytes > 0);

        let second = m.fetch_conditional(&c, 2_000, 7, Some(validators));
        assert_eq!(second.resolved.status, 304);
        assert_eq!(second.resolved.outcome, FetchOutcome::NotModified);
        assert_eq!(second.version, Some(PolicyVersion::Base));
        assert_eq!(second.bytes, 0);
        assert_eq!(second.saved_bytes, first.bytes, "the 304 saved the whole body");
        assert_eq!(second.validators, Some(validators));
    }

    #[test]
    fn conditional_fetch_serves_full_body_after_swap() {
        let start = Timestamp::from_date(2025, 1, 15);
        let schedule = PhaseSchedule::paper_schedule(start, 0);
        let mut m = healthy_model();
        m.policy = Timeline::from_schedule(&schedule, 0);
        let c = corpus();
        let in_base = start.plus_secs(3 * 86_400).unix();
        let in_v1 = start.plus_secs(15 * 86_400).unix();
        let validators = m.fetch(&c, in_base, 0).validators.unwrap();
        let after_swap = m.fetch_conditional(&c, in_v1, 0, Some(validators));
        assert_eq!(after_swap.resolved.status, 200, "stale ETag must miss");
        assert_eq!(after_swap.version, Some(PolicyVersion::V1CrawlDelay));
        assert!(after_swap.bytes > 0);
        assert_eq!(after_swap.saved_bytes, 0);
        let fresh = after_swap.validators.unwrap();
        assert_eq!(fresh.etag, etag_of(PolicyVersion::V1CrawlDelay));
        assert_eq!(fresh.last_modified, start.plus_secs(14 * 86_400).unix());
    }

    #[test]
    fn conditional_fetch_revalidates_behind_redirect_chain() {
        // An unchanged body served from behind a 3-hop chain: the final
        // hop answers 304, the transfer is elided, and the whole chain
        // is still walked (hops counted, per-hop latency paid).
        let mut m = healthy_model();
        m.windows = vec![ConditionWindow { start: 0, end: u64::MAX, mode: ServeMode::Redirect(3) }];
        let c = corpus();
        let first = m.fetch(&c, 1_000, 7);
        assert_eq!(first.resolved.status, 200);
        assert_eq!(first.resolved.hops, 3);
        let validators = first.validators.expect("2xx behind a chain carries validators");

        let second = m.fetch_conditional(&c, 2_000, 7, Some(validators));
        assert_eq!(second.resolved.status, 304);
        assert_eq!(second.resolved.outcome, FetchOutcome::NotModified);
        assert_eq!(second.resolved.hops, 3, "the 304 sits behind the same chain");
        assert_eq!(second.version, Some(PolicyVersion::Base));
        assert_eq!(second.bytes, 0);
        assert_eq!(second.saved_bytes, first.bytes, "the 304 saved the whole body");
        assert_eq!(second.validators, Some(validators));
        assert!(second.latency_ms >= m.latency.base_ms * 4, "per-hop latency still paid");

        // A stale ETag behind the same chain misses: full body again.
        let stale = Validators { etag: etag_of(PolicyVersion::V3DisallowAll), last_modified: 0 };
        let miss = m.fetch_conditional(&c, 3_000, 7, Some(stale));
        assert_eq!(miss.resolved.status, 200);
        assert_eq!(miss.bytes, first.bytes);
        assert_eq!(miss.saved_bytes, 0);
    }

    #[test]
    fn over_budget_chains_never_revalidate() {
        let mut m = healthy_model();
        m.windows = vec![ConditionWindow { start: 0, end: u64::MAX, mode: ServeMode::Redirect(6) }];
        let c = corpus();
        let validators = Validators { etag: etag_of(PolicyVersion::Base), last_modified: 0 };
        let f = m.fetch_conditional(&c, 1_000, 0, Some(validators));
        assert!(f.resolved.capped);
        assert_eq!(f.version, None, "capped chain never reaches the body");
        assert_eq!(f.saved_bytes, 0);
        assert_eq!(f.validators, None);
    }

    #[test]
    fn error_windows_ignore_validators() {
        let mut m = healthy_model();
        m.windows =
            vec![ConditionWindow { start: 0, end: 1_000, mode: ServeMode::ServerError(503) }];
        let c = corpus();
        let validators = Validators { etag: etag_of(PolicyVersion::Base), last_modified: 0 };
        let f = m.fetch_conditional(&c, 500, 0, Some(validators));
        assert_eq!(f.resolved.outcome, FetchOutcome::ServerError(503));
        assert_eq!(f.validators, None);
        assert_eq!(f.saved_bytes, 0);
    }

    #[test]
    fn effective_timeline_resolves_weather() {
        let mut m = healthy_model();
        m.windows = vec![
            ConditionWindow { start: 100, end: 200, mode: ServeMode::ServerError(503) },
            ConditionWindow { start: 300, end: 400, mode: ServeMode::ClientError(404) },
            ConditionWindow { start: 500, end: 600, mode: ServeMode::Redirect(7) },
            ConditionWindow { start: 700, end: 800, mode: ServeMode::Redirect(3) },
        ];
        let tl = m.effective_timeline(0, 1_000);
        use BelievedPolicy as B;
        assert_eq!(tl.at(50), B::Version(PolicyVersion::Base));
        assert_eq!(tl.at(150), B::DisallowAll);
        assert_eq!(tl.at(250), B::Version(PolicyVersion::Base));
        assert_eq!(tl.at(350), B::AllowAll, "404 window is allow-all");
        assert_eq!(tl.at(550), B::AllowAll, "over-budget chain is unavailable");
        assert_eq!(tl.at(750), B::Version(PolicyVersion::Base), "3-hop chain still resolves");
        assert_eq!(tl.at(900), B::Version(PolicyVersion::Base));
    }

    #[test]
    fn effective_timeline_tracks_policy_swaps_and_flapping() {
        let start = Timestamp::from_date(2025, 1, 15);
        let schedule = PhaseSchedule::paper_schedule(start, 0);
        let mut m = healthy_model();
        m.policy = Timeline::from_schedule(&schedule, 0);
        let s = start.unix();
        m.windows =
            vec![ConditionWindow { start: s + 100, end: s + 500, mode: ServeMode::Flapping(100) }];
        let tl = m.effective_timeline(s, s + 60 * 86_400);
        use BelievedPolicy as B;
        // Flapping: [s+100, s+200) down, [s+200, s+300) up, ...
        assert_eq!(tl.at(s + 150), B::DisallowAll);
        assert_eq!(tl.at(s + 250), B::Version(PolicyVersion::Base));
        assert_eq!(tl.at(s + 350), B::DisallowAll);
        // Swaps mirror the schedule.
        let in_v3 = start.plus_secs(50 * 86_400).unix();
        assert_eq!(tl.at(in_v3), B::Version(PolicyVersion::V3DisallowAll));
        let after = start.plus_secs(57 * 86_400).unix();
        assert_eq!(tl.at(after), B::Version(PolicyVersion::Base), "restore after the window");
    }

    #[test]
    fn transport_estate_dispatch() {
        let models = (0..3)
            .map(|i| {
                ServerModel::healthy(
                    format!("site-{i:02}.example.edu"),
                    Timeline::always(PolicyVersion::Base),
                    i as u64,
                )
            })
            .collect();
        let t = VirtualTransport::new(models);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.model(1).name, "site-01.example.edu");
        let f = t.fetch(2, 500, 9);
        assert_eq!(f.resolved.status, 200);
    }
}
