//! The three compliance metrics of paper §4.2.
//!
//! **The τ-tuple** (normative definition — every stratification in this
//! workspace refers here): the paper groups accesses "into sets of
//! accesses associated with a unique triple τᵢ = (ASN, IP hash,
//! user-agent)", where the user agent is the **raw** header string, not
//! the canonical bot name. Two raw UA variants of one bot (say
//! `GPTBot/1.1` and `GPTBot/1.2`) are distinct clients with independent
//! pacing; pooling them would measure deltas between unrelated request
//! streams and systematically understate crawl-delay compliance.
//!
//! All three metrics reduce to a success/trial count so they can feed
//! the pooled two-proportion z-test directly:
//!
//! * **crawl delay** — stratify a bot's accesses by the τ-tuple; within
//!   each τ sort by time and test each inter-access delta against the
//!   30-second requirement; a τ with a single access counts as one
//!   compliant delta (the paper: "we count this as an instance of
//!   compliance");
//! * **endpoint access** — per user agent, the fraction of accesses that
//!   hit an allowed target: `/robots.txt` (always permitted) or
//!   `/page-data/*`;
//! * **disallow** — per user agent, the fraction of accesses that hit
//!   `/robots.txt`, the only permitted target under full denial.
//!
//! The rules live here once: [`PathClasses`] classifies each path, and
//! the crate-private `TauAcc` is the one crawl-delay counter, shared by
//! [`crate::stream::StreamAnalyzer`] and [`crate::pipeline::tally_bots`].

use botscope_weblog::hash::FxHashMap;
use botscope_weblog::intern::{StringInterner, Sym};
use botscope_weblog::table::{LogTable, RecordRow};

/// A success/trial pair; the unit every metric returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectiveCounts {
    /// Compliant observations.
    pub successes: u64,
    /// Total observations.
    pub trials: u64,
}

impl DirectiveCounts {
    /// Compliance ratio; `None` when there are no trials.
    pub fn ratio(&self) -> Option<f64> {
        if self.trials == 0 {
            None
        } else {
            Some(self.successes as f64 / self.trials as f64)
        }
    }

    /// Merge two counts.
    pub fn merge(&mut self, other: DirectiveCounts) {
        self.successes += other.successes;
        self.trials += other.trials;
    }
}

impl std::iter::Sum for DirectiveCounts {
    fn sum<I: Iterator<Item = DirectiveCounts>>(iter: I) -> DirectiveCounts {
        let mut total = DirectiveCounts::default();
        iter.for_each(|counts| total.merge(counts));
        total
    }
}

/// The crawl-delay requirement of the paper's v1 file, in seconds.
pub const CRAWL_DELAY_SECS: u64 = 30;

/// Per-symbol path classification, computed once per symbol so the
/// metrics never touch a string. The one place the `/robots.txt`,
/// `/page-data/` and trap-path rules are written: the stream engine,
/// the per-bot fold and the re-check accumulator read their verdicts
/// from here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathClasses {
    flags: Vec<u8>,
}

impl PathClasses {
    /// [`PathClasses::classify`] flag: the string is exactly `/robots.txt`.
    pub const ROBOTS: u8 = 1;
    /// [`PathClasses::classify`] flag: the string starts with `/page-data/`.
    pub const PAGE_DATA: u8 = 2;
    /// [`PathClasses::classify`] flag: the string is a trap path every
    /// policy version disallows (`/404`, `/dev-404-page`, `/secure/*`;
    /// see [`crate::honeypot`]).
    pub const TRAP: u8 = 4;

    /// The path rule: the [`PathClasses::ROBOTS`],
    /// [`PathClasses::PAGE_DATA`] and [`PathClasses::TRAP`] flags of one
    /// interned string.
    pub fn classify(s: &str) -> u8 {
        let mut f = 0u8;
        if s == "/robots.txt" {
            f |= Self::ROBOTS;
        }
        if s.starts_with("/page-data/") {
            f |= Self::PAGE_DATA;
        }
        if s == "/404" || s == "/dev-404-page" || s.starts_with("/secure/") {
            f |= Self::TRAP;
        }
        f
    }

    /// Classify every interned string of `table` (non-path symbols
    /// simply get no flags).
    pub fn new(table: &LogTable) -> PathClasses {
        let mut classes = PathClasses::default();
        classes.grow(table.interner());
        classes
    }

    /// Classify the symbols interned since the last call. The interner
    /// only appends, so earlier verdicts never change.
    pub fn grow(&mut self, interner: &StringInterner) {
        self.flags.extend(interner.iter_from(self.flags.len()).map(|(_, s)| Self::classify(s)));
    }

    /// Whether the symbol is exactly `/robots.txt`.
    pub fn is_robots(&self, path: Sym) -> bool {
        self.flags[path.index()] & Self::ROBOTS != 0
    }

    /// Whether the symbol starts with `/page-data/`.
    pub fn is_page_data(&self, path: Sym) -> bool {
        self.flags[path.index()] & Self::PAGE_DATA != 0
    }

    /// Whether the symbol is a trap path.
    pub fn is_trap(&self, path: Sym) -> bool {
        self.flags[path.index()] & Self::TRAP != 0
    }
}

/// Running crawl-delay state of one τ group, fed its timestamps in
/// nondecreasing order: access count, last timestamp, compliant deltas
/// so far. The one implementation of the §4.2 crawl-delay rule.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TauAcc {
    count: u64,
    last: u64,
    compliant: u64,
}

impl TauAcc {
    /// One access at `t`: the delta to the previous access is
    /// compliant when it is at least `delay_secs`.
    #[inline]
    pub(crate) fn push(&mut self, t: u64, delay_secs: u64) {
        self.count += 1;
        if self.count > 1 && t.saturating_sub(self.last) >= delay_secs {
            self.compliant += 1;
        }
        self.last = t;
    }

    /// Accesses so far.
    pub(crate) fn accesses(&self) -> u64 {
        self.count
    }

    /// The paper's rule: a single-access τ counts as one compliant
    /// instance; otherwise deltas are the trials.
    pub(crate) fn finish(&self) -> DirectiveCounts {
        if self.count == 1 {
            DirectiveCounts { successes: 1, trials: 1 }
        } else {
            DirectiveCounts { successes: self.compliant, trials: self.count - 1 }
        }
    }
}

/// Crawl-delay compliance for a row set (in any order), stratified by
/// the full τ-tuple exactly as §4.2 prescribes (see the module docs).
/// Kept, hidden, for the benchmark replay in `botbench/`, which scores
/// its `StandardizedTable` views with it; the product reads
/// [`crate::pipeline::BotTally::crawl_delay`].
#[doc(hidden)]
pub fn crawl_delay_counts_rows(rows: &[&RecordRow], delay_secs: u64) -> DirectiveCounts {
    let mut rows = rows.to_vec();
    rows.sort_by_key(|r| r.timestamp);
    let mut by_tau: FxHashMap<(Sym, u64, Sym), TauAcc> = FxHashMap::default();
    for r in rows {
        let tau = by_tau.entry((r.asn, r.ip_hash, r.useragent)).or_default();
        tau.push(r.timestamp.unix(), delay_secs);
    }
    by_tau.values().map(TauAcc::finish).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_weblog::record::AccessRecord;
    use botscope_weblog::time::Timestamp;

    fn rec(ip: u64, t: u64, path: &str) -> AccessRecord {
        AccessRecord {
            useragent: "bot".into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: ip,
            asn: "GOOGLE".into(),
            sitename: "s".into(),
            uri_path: path.into(),
            status: 200,
            bytes: 1,
            referer: None,
        }
    }

    /// Crawl-delay counts of `records` at the paper's 30 s requirement.
    fn crawl_delay(records: &[AccessRecord]) -> DirectiveCounts {
        let table = LogTable::from_records(records);
        let rows: Vec<&RecordRow> = table.rows().iter().collect();
        crawl_delay_counts_rows(&rows, 30)
    }

    /// Success/trial counts of `records` whose path passes `allowed`.
    fn path_counts(
        records: &[AccessRecord],
        allowed: impl Fn(&PathClasses, Sym) -> bool,
    ) -> DirectiveCounts {
        let table = LogTable::from_records(records);
        let classes = PathClasses::new(&table);
        let successes = table.rows().iter().filter(|r| allowed(&classes, r.uri_path)).count();
        DirectiveCounts { successes: successes as u64, trials: table.len() as u64 }
    }

    fn endpoint(records: &[AccessRecord]) -> DirectiveCounts {
        path_counts(records, |c, path| c.is_robots(path) || c.is_page_data(path))
    }

    fn disallow(records: &[AccessRecord]) -> DirectiveCounts {
        path_counts(records, PathClasses::is_robots)
    }

    #[test]
    fn crawl_delay_counting() {
        // One τ, deltas 40 and 10: one compliant of two.
        let c = crawl_delay(&[rec(1, 0, "/a"), rec(1, 40, "/b"), rec(1, 50, "/c")]);
        assert_eq!(c, DirectiveCounts { successes: 1, trials: 2 });
        assert_eq!(c.ratio(), Some(0.5));
    }

    #[test]
    fn single_access_is_compliant() {
        let c = crawl_delay(&[rec(1, 0, "/a")]);
        assert_eq!(c, DirectiveCounts { successes: 1, trials: 1 });
        assert_eq!(c.ratio(), Some(1.0));
    }

    #[test]
    fn tau_stratification_separates_ips() {
        // Two IPs interleaved in time. Pooled naively the deltas would be
        // tiny; stratified each IP is slow and fully compliant — the
        // paper's reason for τ-tuples.
        let c =
            crawl_delay(&[rec(1, 0, "/a"), rec(2, 5, "/a"), rec(1, 60, "/b"), rec(2, 65, "/b")]);
        assert_eq!(c, DirectiveCounts { successes: 2, trials: 2 });
    }

    #[test]
    fn unsorted_rows_are_ordered_per_tau() {
        // Deltas are taken in time order whatever the row order: 0→40→50
        // gives one compliant delta of two.
        let c = crawl_delay(&[rec(1, 50, "/c"), rec(1, 0, "/a"), rec(1, 40, "/b")]);
        assert_eq!(c, DirectiveCounts { successes: 1, trials: 2 });
    }

    #[test]
    fn exact_threshold_counts_as_compliant() {
        assert_eq!(crawl_delay(&[rec(1, 0, "/a"), rec(1, 30, "/b")]).ratio(), Some(1.0));
        assert_eq!(crawl_delay(&[rec(1, 0, "/a"), rec(1, 29, "/b")]).ratio(), Some(0.0));
    }

    #[test]
    fn endpoint_metric() {
        let c = endpoint(&[
            rec(1, 0, "/robots.txt"),
            rec(1, 1, "/page-data/x/page-data.json"),
            rec(1, 2, "/news/item-001"),
            rec(1, 3, "/page-data-fake"), // prefix must include the slash
        ]);
        assert_eq!(c, DirectiveCounts { successes: 2, trials: 4 });
    }

    #[test]
    fn disallow_metric() {
        let c = disallow(&[rec(1, 0, "/robots.txt"), rec(1, 1, "/a"), rec(1, 2, "/b")]);
        assert_eq!(c, DirectiveCounts { successes: 1, trials: 3 });
        assert!((c.ratio().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(crawl_delay(&[]).trials, 0);
        assert_eq!(endpoint(&[]).trials, 0);
        assert_eq!(disallow(&[]).ratio(), None);
    }

    #[test]
    fn merge_adds_successes_and_trials() {
        let mut a = DirectiveCounts { successes: 1, trials: 2 };
        a.merge(DirectiveCounts { successes: 3, trials: 4 });
        assert_eq!(a, DirectiveCounts { successes: 4, trials: 6 });
    }

    /// A raw-UA variant of [`rec`]: same ASN and IP, different agent
    /// string.
    fn rec_ua(ua: &str, ip: u64, t: u64, path: &str) -> AccessRecord {
        AccessRecord { useragent: ua.into(), ..rec(ip, t, path) }
    }

    #[test]
    fn tau_stratification_separates_raw_ua_variants() {
        // Two UA variants of one canonical bot, same ASN and IP,
        // interleaved 5 s apart. Pooled under (ASN, IP) alone the deltas
        // would be 5 s (non-compliant); stratified by the full τ-tuple
        // each variant is its own slow, fully compliant client.
        let c = crawl_delay(&[
            rec_ua("GPTBot/1.1", 1, 0, "/a"),
            rec_ua("GPTBot/1.2", 1, 5, "/a"),
            rec_ua("GPTBot/1.1", 1, 60, "/b"),
            rec_ua("GPTBot/1.2", 1, 65, "/b"),
        ]);
        assert_eq!(c, DirectiveCounts { successes: 2, trials: 2 });
    }

    #[test]
    fn single_access_ua_variants_each_count_once() {
        // One access per variant on a shared ASN/IP: two single-access τ
        // groups, each counted as one compliant instance.
        let c = crawl_delay(&[rec_ua("GPTBot/1.1", 1, 0, "/a"), rec_ua("GPTBot/1.2", 1, 1, "/a")]);
        assert_eq!(c, DirectiveCounts { successes: 2, trials: 2 });
    }

    #[test]
    fn path_classes_grow_like_a_one_shot_classification() {
        let strings = [
            "/robots.txt",
            "GPTBot/1.1",
            "/page-data/x/page-data.json",
            "/page-data-fake",
            "/robots.txt.bak",
            "site-00.example.edu",
            "/page-data/",
            "/news/item-001",
        ];
        let mut full = StringInterner::new();
        for s in strings {
            full.intern(s);
        }
        let mut one_shot = PathClasses::default();
        one_shot.grow(&full);
        for page in [1, 3] {
            let mut interner = StringInterner::new();
            let mut grown = PathClasses::default();
            for chunk in strings.chunks(page) {
                for s in chunk {
                    interner.intern(s);
                }
                grown.grow(&interner);
                grown.grow(&interner); // idempotent without new symbols
            }
            assert_eq!(grown, one_shot, "grown {page} symbol(s) at a time");
        }
        let sym = |s| full.get(s).expect("interned");
        assert!(one_shot.is_robots(sym("/robots.txt")));
        assert!(!one_shot.is_robots(sym("/robots.txt.bak")));
        assert!(one_shot.is_page_data(sym("/page-data/x/page-data.json")));
        assert!(one_shot.is_page_data(sym("/page-data/")));
        assert!(!one_shot.is_page_data(sym("/page-data-fake")));
        assert!(!one_shot.is_trap(sym("/news/item-001")));
    }

    #[test]
    fn trap_paths_are_classified() {
        for path in ["/404", "/dev-404-page", "/secure/admin-1", "/secure/"] {
            assert_eq!(PathClasses::classify(path), PathClasses::TRAP, "{path}");
        }
        for path in ["/40404", "/page-data/x", "/securely-public", "/secure", "/robots.txt"] {
            assert_eq!(PathClasses::classify(path) & PathClasses::TRAP, 0, "{path}");
        }
    }
}
