//! Per-bot behaviour models.
//!
//! A bot's behaviour has three independent axes, mirroring what the study
//! measures:
//!
//! * **volume & shape** — session arrival rate, pages per session, pacing,
//!   bytes per page (what Tables 2/3 and Figures 2–4 see),
//! * **directive compliance** — the probability of honouring each of the
//!   three experimental directives, plus the bot's *natural* behaviour
//!   under the permissive baseline (what Tables 5/6/10 and Figure 9 see),
//! * **robots.txt cadence** — how often the bot re-fetches the policy
//!   file, if ever (what Table 7 and Figure 10 see).

/// Probabilities of honouring each directive (paper Table 6 columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompliancePolicy {
    /// P(inter-access delta ≥ 30 s) while the crawl-delay file is live.
    pub crawl_delay: f64,
    /// P(access goes to an allowed target) while the endpoint file is live.
    pub endpoint: f64,
    /// P(page fetch suppressed) while the disallow-all file is live.
    pub disallow: f64,
    /// Natural P(delta ≥ 30 s) under the baseline file — many bots pace
    /// slowly anyway, which the paper observes as high default compliance.
    pub natural_slow: f64,
    /// Natural share of accesses landing on `/page-data/*` under the
    /// baseline file (scrapers target it; previews rarely do).
    pub natural_pagedata: f64,
}

impl CompliancePolicy {
    /// Validate all fields are probabilities.
    pub fn assert_valid(&self) {
        for (name, v) in [
            ("crawl_delay", self.crawl_delay),
            ("endpoint", self.endpoint),
            ("disallow", self.disallow),
            ("natural_slow", self.natural_slow),
            ("natural_pagedata", self.natural_pagedata),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name}={v} not a probability");
        }
    }

    /// A perfectly obedient profile.
    pub fn obedient() -> Self {
        CompliancePolicy {
            crawl_delay: 1.0,
            endpoint: 1.0,
            disallow: 1.0,
            natural_slow: 0.6,
            natural_pagedata: 0.2,
        }
    }

    /// A fully defiant profile.
    pub fn defiant() -> Self {
        CompliancePolicy {
            crawl_delay: 0.0,
            endpoint: 0.0,
            disallow: 0.0,
            natural_slow: 0.1,
            natural_pagedata: 0.2,
        }
    }
}

/// How often a bot re-fetches robots.txt (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobotsCheckPolicy {
    /// Never fetches robots.txt at all (Table 7 rows).
    Never,
    /// Lazy cache: re-fetches at the next crawl opportunity once the
    /// cached copy is older than this many hours (Google's documented
    /// convention is 24). Actual fetch times depend on when the bot
    /// happens to crawl, so re-checks are irregular.
    EveryHours(u64),
    /// Diligent scheduled polling: fetches robots.txt every N hours on a
    /// timer, independent of crawl sessions. This is what the §5.1
    /// analysis sees as a bot that re-checks "within every window" —
    /// only scheduled pollers can cover every 12-hour window of a
    /// 46-day dataset.
    Poll(u64),
}

impl RobotsCheckPolicy {
    /// The cache TTL this cadence implies for a coupled fetch agent:
    /// the belief a bot holds goes stale after this many seconds.
    /// `None` means the bot never fetches robots.txt at all — its
    /// belief stays `Unfetched` forever.
    pub fn ttl_secs(self) -> Option<u64> {
        match self {
            RobotsCheckPolicy::Never => None,
            RobotsCheckPolicy::EveryHours(h) | RobotsCheckPolicy::Poll(h) => Some(h.max(1) * 3600),
        }
    }
}

/// The full behavioural profile of one simulated bot.
#[derive(Debug, Clone, PartialEq)]
pub struct BotBehavior {
    /// Mean page accesses per day at scale 1.0 (Table 3's hits ÷ 40).
    pub daily_hits: f64,
    /// Mean pages per session (geometric distribution).
    pub pages_per_session: f64,
    /// Mean seconds between requests inside a session when *not*
    /// honouring a crawl delay.
    pub fast_pacing_secs: f64,
    /// Mean bytes per page multiplier (1.0 = the page's nominal size;
    /// preview bots fetch less, data scrapers fetch assets too).
    pub bytes_factor: f64,
    /// Number of distinct source IPs inside the home network.
    pub ip_pool: u32,
    /// Compliance profile.
    pub compliance: CompliancePolicy,
    /// robots.txt fetch cadence.
    pub robots_check: RobotsCheckPolicy,
    /// Share of this bot's traffic aimed at the people-directory site
    /// (YisouSpider ≈ 1.0; most bots spread evenly).
    pub directory_affinity: f64,
}

impl BotBehavior {
    /// Validate invariants.
    pub fn assert_valid(&self) {
        assert!(self.daily_hits > 0.0, "daily_hits must be positive");
        assert!(self.pages_per_session >= 1.0, "sessions need at least one page");
        assert!(self.fast_pacing_secs > 0.0);
        assert!(self.bytes_factor > 0.0);
        assert!(self.ip_pool >= 1);
        assert!((0.0..=1.0).contains(&self.directory_affinity));
        self.compliance.assert_valid();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A modest, slow-ish, mostly polite bot.
    fn minor() -> BotBehavior {
        BotBehavior {
            daily_hits: 3.0,
            pages_per_session: 4.0,
            fast_pacing_secs: 12.0,
            bytes_factor: 1.0,
            ip_pool: 2,
            compliance: CompliancePolicy {
                crawl_delay: 0.7,
                endpoint: 0.4,
                disallow: 0.3,
                natural_slow: 0.5,
                natural_pagedata: 0.15,
            },
            robots_check: RobotsCheckPolicy::EveryHours(48),
            directory_affinity: 0.1,
        }
    }

    #[test]
    fn presets_valid() {
        CompliancePolicy::obedient().assert_valid();
        CompliancePolicy::defiant().assert_valid();
        minor().assert_valid();
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn bad_probability_caught() {
        CompliancePolicy { crawl_delay: 1.5, ..CompliancePolicy::obedient() }.assert_valid();
    }

    #[test]
    #[should_panic(expected = "daily_hits")]
    fn zero_rate_caught() {
        BotBehavior { daily_hits: 0.0, ..minor() }.assert_valid();
    }

    #[test]
    fn check_policy_variants() {
        assert_ne!(RobotsCheckPolicy::Never, RobotsCheckPolicy::EveryHours(24));
        assert_eq!(RobotsCheckPolicy::EveryHours(24), RobotsCheckPolicy::EveryHours(24));
    }
}
