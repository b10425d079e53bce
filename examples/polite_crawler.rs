//! A compliant crawler built on the library's client-side pieces: the
//! robots.txt cache (24 h TTL), RFC 9309 fetch semantics, crawl-delay
//! pacing and per-path access checks — the behaviour the study's most
//! respectful bots exhibit.
//!
//! The "web server" is simulated locally so the example runs offline; the
//! crawler logic is exactly what a networked implementation would do.
//!
//! Run with: `cargo run --example polite_crawler`

use botscope::robots::{EffectivePolicy, FetchOutcome, RobotsCache};

/// A simulated origin: serves robots.txt (sometimes failing) and pages.
struct Origin {
    robots_body: &'static str,
    robots_status: u16,
}

impl Origin {
    fn fetch_robots(&self) -> FetchOutcome {
        match self.robots_status {
            200 => FetchOutcome::Success(self.robots_body.to_string()),
            s if (400..500).contains(&s) => FetchOutcome::ClientError(s),
            s => FetchOutcome::ServerError(s),
        }
    }
}

/// The crawler: checks the cache, fetches policy when stale, obeys
/// decisions and the crawl delay.
struct PoliteCrawler {
    agent: &'static str,
    cache: RobotsCache,
    last_fetch_at: Option<u64>,
    fetched: Vec<String>,
    refused: Vec<String>,
}

impl PoliteCrawler {
    fn new(agent: &'static str) -> Self {
        Self {
            agent,
            cache: RobotsCache::with_default_ttl(),
            last_fetch_at: None,
            fetched: Vec::new(),
            refused: Vec::new(),
        }
    }

    fn crawl(&mut self, origin: &Origin, path: &str, mut now: u64) -> u64 {
        // Refresh the policy if the cached copy is stale (24 h TTL).
        if self.cache.needs_fetch(now) {
            let outcome = origin.fetch_robots();
            println!("[t={now:>6}] {} refreshes robots.txt -> {outcome:?}", self.agent);
            self.cache.store(now, EffectivePolicy::from_outcome(outcome));
        }
        let policy = self.cache.get(now).expect("just stored").clone();

        // Honour the crawl delay before the next page fetch.
        if let (Some(last), Some(delay)) = (self.last_fetch_at, policy.crawl_delay(self.agent)) {
            let due = last + delay as u64;
            if now < due {
                println!("[t={now:>6}] {} waits {}s (crawl delay {delay}s)", self.agent, due - now);
                now = due;
            }
        }

        if policy.is_allowed(self.agent, path) {
            println!("[t={now:>6}] {} GET {path}", self.agent);
            self.fetched.push(path.to_string());
            self.last_fetch_at = Some(now);
        } else {
            println!("[t={now:>6}] {} refuses {path} (disallowed)", self.agent);
            self.refused.push(path.to_string());
        }
        now + 1
    }
}

fn main() {
    // Scenario 1: the paper's v1 policy (crawl delay, some restricted paths).
    let origin = Origin {
        robots_body: "User-agent: *\nAllow: /\nDisallow: /secure/*\nCrawl-delay: 30\n",
        robots_status: 200,
    };
    let mut bot = PoliteCrawler::new("ExampleBot");
    let mut t = 0;
    for path in ["/", "/news/item-001", "/secure/admin", "/people/person-0001"] {
        t = bot.crawl(&origin, path, t);
    }
    println!("\nScenario 1: fetched {:?}, refused {:?}\n", bot.fetched, bot.refused);
    assert_eq!(bot.refused, vec!["/secure/admin"]);

    // Scenario 2: robots.txt is down (5xx) — RFC 9309 demands full stop.
    let broken = Origin { robots_body: "", robots_status: 503 };
    let mut bot = PoliteCrawler::new("ExampleBot");
    let t = bot.crawl(&broken, "/anything", 0);
    println!("\nScenario 2 (robots.txt 503): fetched {:?}, refused {:?}", bot.fetched, bot.refused);
    assert!(bot.fetched.is_empty(), "5xx means assume disallow-all");

    // Scenario 3: robots.txt missing (404) — crawl freely.
    let missing = Origin { robots_body: "", robots_status: 404 };
    let mut bot = PoliteCrawler::new("ExampleBot");
    bot.crawl(&missing, "/anything", t);
    println!("\nScenario 3 (robots.txt 404): fetched {:?}", bot.fetched);
    assert_eq!(bot.fetched, vec!["/anything"], "4xx means crawl without restriction");
}
