//! Estate scenarios: scripted server-side weather for the monitor.
//!
//! A scenario decides, per site and deterministically from the master
//! seed, which condition windows the virtual transport scripts: 5xx
//! outage windows, connection-level blackouts, up/down flapping,
//! redirect chains (including chains past RFC 9309's five-hop budget),
//! and the background transient-failure/latency climate. Policy swaps
//! ride on top: every `swap_every`-th site runs the paper's four-phase
//! schedule, each at its own seeded start offset, so change detection
//! always has real transitions to find.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use botscope_simnet::child_seed;
use botscope_study::{site_name, PhaseSchedule, PolicyVersion, Timeline};
use botscope_weblog::time::Timestamp;

use crate::daemon::MonitorConfig;
use crate::transport::{ConditionWindow, LatencyModel, ServeMode, ServerModel};

/// The scripted weather of the estate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Every site healthy for the whole horizon.
    Stable,
    /// A fraction of sites suffer one 5xx window and/or one
    /// connection-level blackout.
    Outages,
    /// A fraction of sites flap between healthy and 503 for days.
    Flapping,
    /// A fraction of sites serve robots.txt behind redirect chains of
    /// 1–7 hops (6+ exceeds the RFC 9309 budget).
    Redirects,
    /// All of the above at half intensity — the default.
    Mixed,
}

impl ScenarioKind {
    /// Every scenario, in CLI presentation order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::Stable,
        ScenarioKind::Outages,
        ScenarioKind::Flapping,
        ScenarioKind::Redirects,
        ScenarioKind::Mixed,
    ];

    /// CLI token for the scenario.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioKind::Stable => "stable",
            ScenarioKind::Outages => "outages",
            ScenarioKind::Flapping => "flapping",
            ScenarioKind::Redirects => "redirects",
            ScenarioKind::Mixed => "mixed",
        }
    }

    /// Parse a CLI token.
    pub fn parse(s: &str) -> Option<ScenarioKind> {
        ScenarioKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// Distinguishes per-site scenario streams from per-agent streams.
const SITE_STREAM: u64 = 0x517E_0000_0000_0000;

/// A window of `dur` seconds placed uniformly inside the horizon.
fn place_window(rng: &mut StdRng, start: u64, horizon_secs: u64, dur: u64) -> (u64, u64) {
    let dur = dur.min(horizon_secs.saturating_sub(1)).max(1);
    let at = start + rng.gen_range(0..horizon_secs - dur);
    (at, at + dur)
}

/// The scenario's background climate: per-request latency distribution
/// and transient connection-failure probability.
fn climate(kind: ScenarioKind) -> (LatencyModel, u32) {
    match kind {
        ScenarioKind::Stable => (LatencyModel { base_ms: 20, jitter_ms: 40 }, 0u32),
        // ≈ 0.1 % of requests fail at the connection level.
        _ => (LatencyModel { base_ms: 15, jitter_ms: 60 }, 66),
    }
}

/// Draw one site's scripted weather windows (sorted, non-overlapping).
fn weather_windows(
    rng: &mut StdRng,
    k: ScenarioKind,
    start: u64,
    horizon_secs: u64,
) -> Vec<ConditionWindow> {
    let mut windows: Vec<ConditionWindow> = Vec::new();
    let mut add = |w: Option<ConditionWindow>| {
        if let Some(w) = w {
            windows.push(w);
        }
    };
    // Probabilities halve under Mixed so the combined weather
    // stays plausible.
    let scale = if k == ScenarioKind::Mixed { 0.5 } else { 1.0 };

    if matches!(k, ScenarioKind::Outages | ScenarioKind::Mixed) {
        add(rng.gen_bool(0.25 * scale).then(|| {
            let code = if rng.gen_bool(0.5) { 503 } else { 500 };
            let dur = rng.gen_range(6 * 3600..48 * 3600 + 1);
            let (s, e) = place_window(rng, start, horizon_secs, dur);
            ConditionWindow { start: s, end: e, mode: ServeMode::ServerError(code) }
        }));
        add(rng.gen_bool(0.10 * scale).then(|| {
            let dur = rng.gen_range(3600..12 * 3600 + 1);
            let (s, e) = place_window(rng, start, horizon_secs, dur);
            ConditionWindow { start: s, end: e, mode: ServeMode::Unreachable }
        }));
        // A slice of the outage estate loses the file instead of
        // the host: 404/410 windows (unavailable ⇒ allow all).
        add(rng.gen_bool(0.10 * scale).then(|| {
            let code = if rng.gen_bool(0.7) { 404 } else { 410 };
            let dur = rng.gen_range(12 * 3600..72 * 3600 + 1);
            let (s, e) = place_window(rng, start, horizon_secs, dur);
            ConditionWindow { start: s, end: e, mode: ServeMode::ClientError(code) }
        }));
    }
    if matches!(k, ScenarioKind::Flapping | ScenarioKind::Mixed) {
        add(rng.gen_bool(0.30 * scale).then(|| {
            let period = rng.gen_range(900..21_601);
            let dur = rng.gen_range(86_400..7 * 86_400 + 1);
            let (s, e) = place_window(rng, start, horizon_secs, dur);
            ConditionWindow { start: s, end: e, mode: ServeMode::Flapping(period) }
        }));
    }
    if matches!(k, ScenarioKind::Redirects | ScenarioKind::Mixed) {
        add(rng.gen_bool(0.40 * scale).then(|| {
            let hops = rng.gen_range(1..8) as u8;
            // Under the pure redirect scenario the chain covers
            // the whole horizon; under Mixed it is bounded to a
            // multi-day window so it cannot shadow the outage /
            // flapping weather drawn above (overlap resolution
            // keeps the earliest window only).
            let (s, e) = if k == ScenarioKind::Redirects {
                (0, u64::MAX)
            } else {
                let dur = rng.gen_range(5 * 86_400..30 * 86_400 + 1);
                place_window(rng, start, horizon_secs, dur)
            };
            ConditionWindow { start: s, end: e, mode: ServeMode::Redirect(hops) }
        }));
    }

    // The transport expects non-overlapping, time-sorted windows:
    // keep the earliest of any overlapping pair.
    windows.sort_by_key(|w| (w.start, w.end));
    let mut scripted: Vec<ConditionWindow> = Vec::with_capacity(windows.len());
    for w in windows {
        if scripted.last().is_none_or(|p| p.end <= w.start) {
            scripted.push(w);
        }
    }
    scripted
}

/// The one site-model constructor: site `i` draws from its own seeded
/// stream, first for `policy` (what it serves), then for its weather.
fn site_models(
    seed: u64,
    sites: usize,
    kind: ScenarioKind,
    start: Timestamp,
    days: u64,
    policy: impl Fn(usize, &mut StdRng) -> Timeline<PolicyVersion>,
) -> Vec<ServerModel> {
    let (latency, transient) = climate(kind);
    (0..sites)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(child_seed(seed, SITE_STREAM ^ i as u64));
            let policy = policy(i, &mut rng);
            ServerModel {
                name: site_name(i),
                policy,
                windows: weather_windows(&mut rng, kind, start.unix(), days * 86_400),
                seed: child_seed(seed, SITE_STREAM ^ (i as u64).rotate_left(17)),
                latency,
                transient_fail_2e16: transient,
            }
        })
        .collect()
}

/// Build the per-site server models for `cfg`.
pub fn build_estate(cfg: &MonitorConfig) -> Vec<ServerModel> {
    site_models(cfg.seed, cfg.sites, cfg.scenario, cfg.start, cfg.days, |i, rng| {
        // Policy timeline: every swap_every-th site deploys the
        // four-phase experiment at a seeded offset into the horizon.
        if cfg.swap_every > 0 && i % cfg.swap_every == 0 {
            let offset = rng.gen_range(0..7 * 86_400);
            let schedule = PhaseSchedule::paper_schedule(cfg.start.plus_secs(offset), i);
            Timeline::from_schedule(&schedule, i)
        } else {
            Timeline::always(PolicyVersion::Base)
        }
    })
}

/// Build an estate whose served policies follow a *simulation* schedule
/// instead of the rolling swap pattern: the schedule's experiment site
/// deploys the four-phase experiment exactly as the traffic generator
/// assumes, every other site serves Base — while the scenario's weather
/// still scripts outages, flapping and redirect chains on top. This is
/// the coupled mode's ground truth: the same estate the generator
/// crawls, as the monitor daemon sees it.
pub fn build_estate_for_schedule(
    seed: u64,
    sites: usize,
    schedule: &PhaseSchedule,
    kind: ScenarioKind,
    start: Timestamp,
    days: u64,
) -> Vec<ServerModel> {
    site_models(seed, sites, kind, start, days, |i, _| Timeline::from_schedule(schedule, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::MonitorConfig;

    fn cfg(kind: ScenarioKind, sites: usize) -> MonitorConfig {
        MonitorConfig { scenario: kind, sites, ..MonitorConfig::default() }
    }

    #[test]
    fn labels_roundtrip() {
        for k in ScenarioKind::ALL {
            assert_eq!(ScenarioKind::parse(k.label()), Some(k));
        }
        assert_eq!(ScenarioKind::parse("weird"), None);
    }

    #[test]
    fn build_is_deterministic() {
        let a = build_estate(&cfg(ScenarioKind::Mixed, 64));
        let b = build_estate(&cfg(ScenarioKind::Mixed, 64));
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.windows, y.windows);
            assert_eq!(x.seed, y.seed);
        }
    }

    #[test]
    fn stable_estate_is_clean() {
        let models = build_estate(&cfg(ScenarioKind::Stable, 40));
        assert!(models.iter().all(|m| m.windows.is_empty()));
        assert!(models.iter().all(|m| m.transient_fail_2e16 == 0));
    }

    #[test]
    fn swap_sites_have_policy_timelines() {
        let c = MonitorConfig { swap_every: 4, sites: 32, ..MonitorConfig::default() };
        let models = build_estate(&c);
        for (i, m) in models.iter().enumerate() {
            if i % 4 == 0 {
                assert!(m.policy.transitions() > 0, "site {i} should swap");
            } else {
                assert_eq!(m.policy.transitions(), 0, "site {i} should be static");
            }
        }
    }

    #[test]
    fn windows_are_sorted_and_disjoint() {
        for kind in ScenarioKind::ALL {
            let models = build_estate(&cfg(kind, 200));
            for m in &models {
                for pair in m.windows.windows(2) {
                    assert!(pair[0].end <= pair[1].start, "{}: {:?}", m.name, m.windows);
                }
            }
        }
    }

    #[test]
    fn scenarios_script_their_signature_weather() {
        let outage_windows: usize =
            build_estate(&cfg(ScenarioKind::Outages, 300)).iter().map(|m| m.windows.len()).sum();
        assert!(outage_windows > 30, "outage scenario too quiet: {outage_windows}");
        let redirect_sites = build_estate(&cfg(ScenarioKind::Redirects, 300))
            .iter()
            .filter(|m| m.windows.iter().any(|w| matches!(w.mode, ServeMode::Redirect(_))))
            .count();
        assert!((60..=180).contains(&redirect_sites), "redirect sites: {redirect_sites}");
        // Some redirect chains must exceed the five-hop budget.
        let over_budget = build_estate(&cfg(ScenarioKind::Redirects, 300))
            .iter()
            .filter(|m| m.windows.iter().any(|w| matches!(w.mode, ServeMode::Redirect(h) if h > 5)))
            .count();
        assert!(over_budget > 5, "over-budget chains: {over_budget}");
    }
}
