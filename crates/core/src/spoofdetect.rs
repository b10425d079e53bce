//! User-agent spoofing detection (paper §5.2).
//!
//! "We develop an empirical heuristic that if a bot's traffic is
//! associated ≥90 % of the time with one ASN, other ASNs associated with
//! this user agent are likely spoofed." The detector counts a bot's
//! requests per ASN, finds the dominant ASN, and — when dominance clears
//! the threshold and minority networks exist — flags every
//! minority-network request as possibly spoofed.
//!
//! The rule itself is one crate-private function over per-ASN request
//! counts, `dominance`; the stream engine and the per-bot fold
//! ([`crate::pipeline::BotTallies::spoof_report`]) feed it their counts.

use std::cmp::Reverse;

use botscope_weblog::hash::FxHashMap;
use botscope_weblog::intern::{StringInterner, Sym};
use botscope_weblog::table::{LogTable, RecordRow};

/// The paper's dominance threshold.
pub const DOMINANCE_THRESHOLD: f64 = 0.90;

/// Minimum observations before a bot enters the dominance analysis.
pub const MIN_DETECT_REQUESTS: u64 = 10;

/// Detection result for one bot.
#[derive(Debug, Clone, PartialEq)]
pub struct SpoofFinding {
    /// Canonical bot name (or raw user agent when unstandardized).
    pub bot: String,
    /// The dominant ASN.
    pub main_asn: String,
    /// Share of traffic from the dominant ASN.
    pub main_share: f64,
    /// Minority ASNs with their request counts, descending by count then
    /// name (deterministic).
    pub suspicious: Vec<(String, u64)>,
    /// Total requests observed for the bot.
    pub total_requests: u64,
    /// Requests flagged as possibly spoofed.
    pub spoofed_requests: u64,
}

/// Whole-dataset spoofing report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpoofReport {
    /// One finding per flagged bot, sorted by name.
    pub findings: Vec<SpoofFinding>,
}

impl SpoofReport {
    /// The finding for a bot, if flagged.
    pub fn finding_for(&self, bot: &str) -> Option<&SpoofFinding> {
        self.findings.iter().find(|f| f.bot == bot)
    }
}

/// The §5.2 rule over one bot's request count per ASN (each ASN once,
/// in any order; `strings` resolves them): `None` with fewer than
/// `min_requests` requests, a single ASN, or no ASN holding at least
/// `threshold` of them. The main ASN has the most requests, ties going
/// to the smaller name; the minority is sorted by count, then by name.
/// A finding comes with its main ASN's symbol. Panics unless
/// `threshold` is in `[0, 1]`.
pub(crate) fn dominance(
    bot: &str,
    per_asn: impl IntoIterator<Item = (Sym, u64)>,
    strings: &StringInterner,
    threshold: f64,
    min_requests: u64,
) -> Option<(Sym, SpoofFinding)> {
    assert!((0.0..=1.0).contains(&threshold), "threshold {threshold} not a probability");
    let per_asn: Vec<(Sym, u64)> = per_asn.into_iter().collect();
    let total: u64 = per_asn.iter().map(|&(_, count)| count).sum();
    if total < min_requests || per_asn.len() < 2 {
        return None;
    }
    let &(main_asn, main_count) = per_asn
        .iter()
        .max_by_key(|&&(sym, count)| (count, Reverse(strings.resolve(sym))))
        .expect("non-empty");
    let main_share = main_count as f64 / total as f64;
    if main_share < threshold {
        return None;
    }
    let mut suspicious: Vec<(String, u64)> = per_asn
        .iter()
        .filter(|&&(sym, _)| sym != main_asn)
        .map(|&(sym, count)| (strings.resolve(sym).to_string(), count))
        .collect();
    suspicious.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let finding = SpoofFinding {
        bot: bot.to_string(),
        main_asn: strings.resolve(main_asn).to_string(),
        main_share,
        suspicious,
        total_requests: total,
        spoofed_requests: total - main_count,
    };
    Some((main_asn, finding))
}

/// The §5.2 rule over a per-bot partition of a table's rows, with the
/// paper's threshold and a minimum of 10 requests per bot. `per_bot`
/// yields each bot's name and rows, e.g. a `&BTreeMap` of them. Kept,
/// hidden, for the benchmark replay in `botbench/`; the product reads
/// [`crate::pipeline::BotTallies::spoof_report`].
#[doc(hidden)]
pub fn detect_rows<'a, 't: 'a>(
    table: &LogTable,
    per_bot: impl IntoIterator<Item = (&'a String, &'a Vec<&'t RecordRow>)>,
) -> SpoofReport {
    detect_rows_with(table, per_bot, DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS)
}

/// [`detect_rows`] with explicit parameters: each bot's rows are
/// counted per ASN for `dominance`.
#[doc(hidden)]
pub fn detect_rows_with<'a, 't: 'a>(
    table: &LogTable,
    per_bot: impl IntoIterator<Item = (&'a String, &'a Vec<&'t RecordRow>)>,
    threshold: f64,
    min_requests: u64,
) -> SpoofReport {
    let mut findings: Vec<SpoofFinding> = Vec::new();
    for (bot, rows) in per_bot {
        let mut per_asn: FxHashMap<Sym, u64> = FxHashMap::default();
        rows.iter().for_each(|r| *per_asn.entry(r.asn).or_default() += 1);
        let finding = dominance(bot, per_asn, table.interner(), threshold, min_requests);
        findings.extend(finding.map(|(_, finding)| finding));
    }
    findings.sort_by(|a, b| a.bot.cmp(&b.bot));
    SpoofReport { findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_weblog::record::AccessRecord;
    use botscope_weblog::time::Timestamp;
    use std::collections::BTreeMap;

    fn rec(asn: &str, t: u64) -> AccessRecord {
        AccessRecord {
            useragent: "bot".into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: 1,
            asn: asn.into(),
            sitename: "s".into(),
            uri_path: "/".into(),
            status: 200,
            bytes: 1,
            referer: None,
        }
    }

    /// [`detect_rows_with`] over all of `records` as one bot's rows.
    fn analyze(
        bot: &str,
        records: &[AccessRecord],
        threshold: f64,
        min_requests: u64,
    ) -> Option<SpoofFinding> {
        let table = LogTable::from_records(records);
        let per_bot = BTreeMap::from([(bot.to_string(), table.rows().iter().collect())]);
        detect_rows_with(&table, &per_bot, threshold, min_requests).findings.pop()
    }

    #[test]
    fn dominant_with_minority_is_flagged() {
        let mut rs: Vec<AccessRecord> = (0..95).map(|t| rec("GOOGLE", t)).collect();
        rs.push(rec("M247", 100));
        rs.push(rec("M247", 101));
        rs.push(rec("PROSPERO-AS", 102));
        let f = analyze("Googlebot", &rs, 0.9, 10).expect("flagged");
        assert_eq!(f.bot, "Googlebot");
        assert_eq!(f.main_asn, "GOOGLE");
        assert!((f.main_share - 95.0 / 98.0).abs() < 1e-12);
        assert_eq!(f.total_requests, 98);
        assert_eq!(f.spoofed_requests, 3);
        assert_eq!(f.suspicious, vec![("M247".to_string(), 2), ("PROSPERO-AS".to_string(), 1)]);
    }

    #[test]
    fn single_asn_not_flagged() {
        let rs: Vec<AccessRecord> = (0..50).map(|t| rec("GOOGLE", t)).collect();
        assert!(analyze("b", &rs, 0.9, 10).is_none());
    }

    #[test]
    fn balanced_traffic_not_flagged() {
        let mut rs: Vec<AccessRecord> = (0..50).map(|t| rec("GOOGLE", t)).collect();
        rs.extend((0..50).map(|t| rec("AMAZON-02", 100 + t)));
        assert!(analyze("b", &rs, 0.9, 10).is_none());
    }

    #[test]
    fn few_requests_not_flagged() {
        let rs = vec![rec("GOOGLE", 0), rec("M247", 1)];
        assert!(analyze("b", &rs, 0.9, 10).is_none());
        // But allowed with min_requests 1.
        assert!(analyze("b", &rs, 0.5, 1).is_some());
    }

    #[test]
    fn threshold_boundary() {
        // Exactly 90%: 90 of 100.
        let mut rs: Vec<AccessRecord> = (0..90).map(|t| rec("A", t)).collect();
        rs.extend((0..10).map(|t| rec("B", 1000 + t)));
        assert!(analyze("b", &rs, 0.9, 10).is_some(), "90% meets ≥90%");
        // 89 of 100 does not.
        let mut rs: Vec<AccessRecord> = (0..89).map(|t| rec("A", t)).collect();
        rs.extend((0..11).map(|t| rec("B", 1000 + t)));
        assert!(analyze("b", &rs, 0.9, 10).is_none());
    }

    #[test]
    fn dominance_tie_breaks_to_the_smaller_name() {
        // 50/50 between two ASNs at threshold 0.5: the main ASN is the
        // lexicographically smaller name, whatever the interning order.
        let mut rs: Vec<AccessRecord> = (0..5).map(|t| rec("ZAYO", t)).collect();
        rs.extend((0..5).map(|t| rec("AMAZON-02", 10 + t)));
        let f = analyze("b", &rs, 0.5, 1).expect("flagged at 0.5");
        assert_eq!(f.main_asn, "AMAZON-02");
        assert_eq!(f.suspicious, vec![("ZAYO".to_string(), 5)]);
    }

    #[test]
    fn report_totals() {
        let a: Vec<AccessRecord> =
            (0..95).map(|t| rec("GOOGLE", t)).chain([rec("M247", 99)]).collect();
        let b: Vec<AccessRecord> = (0..20).map(|t| rec("OVH", t)).collect();
        let table = LogTable::from_records(&[a, b].concat());
        let (rows_a, rows_b) = table.rows().split_at(96);
        let mut per_bot: BTreeMap<String, Vec<&RecordRow>> = BTreeMap::new();
        per_bot.insert("flagged".into(), rows_a.iter().collect());
        per_bot.insert("clean".into(), rows_b.iter().collect());
        let report = detect_rows(&table, &per_bot);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].spoofed_requests, 1);
        assert!(report.finding_for("flagged").is_some());
        assert!(report.finding_for("clean").is_none());
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn bad_threshold_panics() {
        let _ = analyze("b", &[], 1.5, 1);
    }
}
