//! Honeypot / trap-path analysis (extension; paper §5.2 limitations and
//! §6 future work).
//!
//! The paper closes its spoofing study noting that the ASN heuristic
//! "does not allow us to definitively state whether a bot is spoofing"
//! and proposes honeypots as future work. This module implements the
//! log-side half of that idea using the paths the institution's *base*
//! robots.txt has always disallowed (`/404`, `/dev-404-page`,
//! `/secure/*`): any fetch of these **trap paths** is robots.txt
//! non-compliance regardless of the experiment phase, since every policy
//! version restricts them.
//!
//! Two uses:
//!
//! * [`trap_report`] — per-bot trap-hit rates: a behavioural
//!   non-compliance signal that needs no controlled experiment at all;
//! * [`spoof_corroboration`] — the future-work idea proper: for a bot
//!   flagged by the ASN heuristic, compare the trap-hit rate of its
//!   dominant-network traffic against its minority-network traffic. A
//!   minority that hits traps while the main network does not is strong
//!   corroboration that the minority is an impostor.
//!
//! Both read the per-bot fold [`crate::pipeline::tally_bots`], which
//! counts each bot's rows and trap hits per τ group, and so per ASN, in
//! one pass, every path symbol classified once
//! ([`crate::metrics::PathClasses::TRAP`]).

use botscope_stats::ci::{wilson, ProportionCi};

use crate::pipeline::BotTallies;
use crate::spoofdetect::SpoofReport;

/// Per-bot trap statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrapRow {
    /// Canonical bot name.
    pub bot: String,
    /// Accesses that hit a trap path.
    pub trap_hits: u64,
    /// Total accesses.
    pub total: u64,
    /// Wilson 95 % interval on the trap-hit rate.
    pub rate_ci: Option<ProportionCi>,
}

impl TrapRow {
    /// Point trap-hit rate.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.trap_hits as f64 / self.total as f64
        }
    }
}

/// Per-bot trap report, sorted by descending trap rate then name.
pub fn trap_report(tallies: &BotTallies<'_>, min_accesses: u64) -> Vec<TrapRow> {
    let mut rows: Vec<TrapRow> = tallies
        .bots
        .iter()
        .filter(|(_, tally)| tally.records >= min_accesses)
        .map(|(bot, tally)| {
            let (trap_hits, total) = (tally.trap_hits(), tally.records);
            TrapRow {
                bot: bot.canonical.to_string(),
                trap_hits,
                total,
                rate_ci: wilson(trap_hits, total, 0.95),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.rate().partial_cmp(&a.rate()).expect("rates are finite").then(a.bot.cmp(&b.bot))
    });
    rows
}

/// Corroboration verdict for one ASN-flagged bot.
#[derive(Debug, Clone, PartialEq)]
pub struct SpoofCorroboration {
    /// Canonical bot name.
    pub bot: String,
    /// Trap rate of the dominant-network traffic.
    pub main_trap_rate: f64,
    /// Trap rate of the minority-network traffic.
    pub minority_trap_rate: f64,
    /// Minority request count (tiny by construction of the heuristic).
    pub minority_requests: u64,
    /// Whether the honeypot evidence corroborates spoofing: the minority
    /// hits traps at a strictly higher rate than the main network.
    pub corroborated: bool,
}

/// Run trap-based corroboration for every finding of the ASN heuristic:
/// the main network is the finding's main ASN, the minority every other
/// ASN of the bot.
pub fn spoof_corroboration(
    tallies: &BotTallies<'_>,
    spoof: &SpoofReport,
) -> Vec<SpoofCorroboration> {
    let mut out = Vec::new();
    for finding in &spoof.findings {
        let Some(tally) = tallies.get(&finding.bot) else { continue };
        // (rows, trap hits) of the main network; a main ASN the table
        // never saw leaves everything in the minority.
        let main = tallies
            .table
            .interner()
            .get(&finding.main_asn)
            .and_then(|sym| tally.per_asn().get(&sym).copied())
            .unwrap_or_default();
        let minority = (tally.records - main.0, tally.trap_hits() - main.1);
        let rate = |(rows, traps): (u64, u64)| {
            if rows == 0 {
                return 0.0;
            }
            traps as f64 / rows as f64
        };
        let main_rate = rate(main);
        let minority_rate = rate(minority);
        out.push(SpoofCorroboration {
            bot: finding.bot.clone(),
            main_trap_rate: main_rate,
            minority_trap_rate: minority_rate,
            minority_requests: minority.0,
            corroborated: minority_rate > main_rate && minority.0 > 0,
        });
    }
    out
}

/// Render both reports.
pub fn render(tallies: &BotTallies<'_>, spoof: &SpoofReport) -> String {
    use crate::tables::{f, TextTable};
    let mut t = TextTable::new(
        "Extension: trap-path (honeypot) hits — fetching /404, /dev-404-page or /secure/* is always non-compliant",
        &["Bot", "Trap hits", "Total", "Rate", "95% CI"],
    );
    for row in trap_report(tallies, 20).into_iter().take(15) {
        let ci =
            row.rate_ci.map_or_else(|| "-".into(), |c| format!("[{}, {}]", f(c.lo, 3), f(c.hi, 3)));
        t.row(vec![
            row.bot.clone(),
            row.trap_hits.to_string(),
            row.total.to_string(),
            f(row.rate(), 4),
            ci,
        ]);
    }
    let mut out = t.render();
    out.push('\n');
    let mut t = TextTable::new(
        "Honeypot corroboration of ASN-flagged spoofing (paper future work)",
        &["Bot", "Main-ASN trap rate", "Minority trap rate", "Minority reqs", "Corroborated"],
    );
    for c in spoof_corroboration(tallies, spoof) {
        t.row(vec![
            c.bot,
            f(c.main_trap_rate, 4),
            f(c.minority_trap_rate, 4),
            c.minority_requests.to_string(),
            if c.corroborated { "yes".into() } else { "no".into() },
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tally_bots;
    use crate::spoofdetect::{DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS};
    use botscope_weblog::record::AccessRecord;
    use botscope_weblog::table::LogTable;
    use botscope_weblog::time::Timestamp;

    fn rec(ua: &str, asn: &str, t: u64, path: &str) -> AccessRecord {
        AccessRecord {
            useragent: ua.into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: 1,
            asn: asn.into(),
            sitename: "s".into(),
            uri_path: path.into(),
            status: 200,
            bytes: 1,
            referer: None,
        }
    }

    #[test]
    fn trap_report_ranks_violators_first() {
        let mut records = Vec::new();
        // Bytespider: 5 of 25 hits are traps.
        for t in 0..20 {
            records.push(rec("Bytespider; x@bytedance.com", "CHINANET-BACKBONE", t, "/page"));
        }
        for t in 20..25 {
            records.push(rec("Bytespider; x@bytedance.com", "CHINANET-BACKBONE", t, "/secure/a"));
        }
        // GPTBot: clean.
        for t in 0..25 {
            records.push(rec(
                "Mozilla/5.0 (compatible; GPTBot/1.1)",
                "MICROSOFT-CORP-MSN-AS-BLOCK",
                t,
                "/page",
            ));
        }
        let table = LogTable::from_records(&records);
        let logs = tally_bots(&table);
        let rows = trap_report(&logs, 10);
        assert_eq!(rows[0].bot, "Bytespider");
        assert_eq!(rows[0].trap_hits, 5);
        assert!((rows[0].rate() - 0.2).abs() < 1e-12);
        let gpt = rows.iter().find(|r| r.bot == "GPTBot").unwrap();
        assert_eq!(gpt.trap_hits, 0);
        // CI sanity.
        let ci = rows[0].rate_ci.unwrap();
        assert!(ci.contains(0.2));
    }

    #[test]
    fn min_access_filter() {
        let records = vec![rec("Mozilla/5.0 (compatible; GPTBot/1.1)", "A", 0, "/x")];
        let table = LogTable::from_records(&records);
        let logs = tally_bots(&table);
        assert!(trap_report(&logs, 10).is_empty());
        assert_eq!(trap_report(&logs, 1).len(), 1);
    }

    #[test]
    fn corroboration_detects_misbehaving_minority() {
        let ua = "Mozilla/5.0 (compatible; Googlebot/2.1)";
        let mut records = Vec::new();
        // Main network: 95 clean requests.
        for t in 0..95 {
            records.push(rec(ua, "GOOGLE", t, "/page"));
        }
        // Minority network: 5 requests, 3 of them trap hits.
        for t in 95..98 {
            records.push(rec(ua, "M247", t, "/secure/x"));
        }
        records.push(rec(ua, "M247", 98, "/page"));
        records.push(rec(ua, "M247", 99, "/page"));
        let table = LogTable::from_records(&records);
        let logs = tally_bots(&table);
        let spoof = logs.spoof_report(DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS);
        let cs = spoof_corroboration(&logs, &spoof);
        let g = cs.iter().find(|c| c.bot == "Googlebot").expect("flagged");
        assert_eq!(g.main_trap_rate, 0.0);
        assert!((g.minority_trap_rate - 0.6).abs() < 1e-12);
        assert!(g.corroborated);
    }

    #[test]
    fn clean_minority_not_corroborated() {
        let ua = "Mozilla/5.0 (compatible; Googlebot/2.1)";
        let mut records = Vec::new();
        for t in 0..95 {
            records.push(rec(ua, "GOOGLE", t, "/page"));
        }
        for t in 95..100 {
            records.push(rec(ua, "M247", t, "/page"));
        }
        let table = LogTable::from_records(&records);
        let logs = tally_bots(&table);
        let spoof = logs.spoof_report(DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS);
        let cs = spoof_corroboration(&logs, &spoof);
        let g = cs.iter().find(|c| c.bot == "Googlebot").expect("flagged");
        assert!(!g.corroborated);
    }

    #[test]
    fn a_main_asn_the_table_never_saw_leaves_everything_in_the_minority() {
        let ua = "Mozilla/5.0 (compatible; Googlebot/2.1)";
        let records: Vec<AccessRecord> =
            (0..4).map(|t| rec(ua, "M247", t, if t == 0 { "/404" } else { "/page" })).collect();
        let table = LogTable::from_records(&records);
        let logs = tally_bots(&table);
        let finding = crate::spoofdetect::SpoofFinding {
            bot: "Googlebot".into(),
            main_asn: "NOT-PRESENT".into(),
            main_share: 1.0,
            suspicious: vec![],
            total_requests: 4,
            spoofed_requests: 0,
        };
        let cs = spoof_corroboration(&logs, &SpoofReport { findings: vec![finding] });
        assert_eq!((cs[0].main_trap_rate, cs[0].minority_trap_rate), (0.0, 0.25));
        assert_eq!(cs[0].minority_requests, 4);
        assert!(cs[0].corroborated);
    }

    #[test]
    fn render_smoke() {
        let records = vec![rec("Mozilla/5.0 (compatible; GPTBot/1.1)", "A", 0, "/x")];
        let table = LogTable::from_records(&records);
        let logs = tally_bots(&table);
        let spoof = logs.spoof_report(DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS);
        let text = render(&logs, &spoof);
        assert!(text.contains("honeypot"));
        assert!(text.contains("Corroborated") || text.contains("corroboration"));
    }
}
