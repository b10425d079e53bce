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

use botscope_stats::ci::{wilson, ProportionCi};
use botscope_weblog::table::{LogTable, RecordRow};

use crate::pipeline::StandardizedTable;
use crate::spoofdetect::{split_rows, SpoofReport};

/// Whether a path is one of the always-disallowed trap paths.
pub fn is_trap_path(path: &str) -> bool {
    path == "/404" || path == "/dev-404-page" || path.starts_with("/secure/")
}

/// How many of `rows` fetched a trap path.
fn trap_hits(table: &LogTable, rows: &[&RecordRow]) -> u64 {
    rows.iter().filter(|r| is_trap_path(table.resolve(r.uri_path))).count() as u64
}

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
pub fn trap_report(logs: &StandardizedTable<'_>, min_accesses: u64) -> Vec<TrapRow> {
    let mut rows: Vec<TrapRow> = logs
        .bots
        .values()
        .filter(|v| v.rows.len() as u64 >= min_accesses)
        .map(|v| {
            let total = v.rows.len() as u64;
            let trap_hits = trap_hits(logs.table, &v.rows);
            TrapRow {
                bot: v.name.clone(),
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

/// Run trap-based corroboration for every finding of the ASN heuristic.
pub fn spoof_corroboration(
    logs: &StandardizedTable<'_>,
    spoof: &SpoofReport,
) -> Vec<SpoofCorroboration> {
    let mut out = Vec::new();
    for finding in &spoof.findings {
        let Some(view) = logs.bots.get(&finding.bot) else { continue };
        let (main, minority) = split_rows(finding, logs.table, &view.rows);
        let rate = |rows: &[&RecordRow]| {
            if rows.is_empty() {
                return 0.0;
            }
            trap_hits(logs.table, rows) as f64 / rows.len() as f64
        };
        let main_rate = rate(&main);
        let minority_rate = rate(&minority);
        out.push(SpoofCorroboration {
            bot: finding.bot.clone(),
            main_trap_rate: main_rate,
            minority_trap_rate: minority_rate,
            minority_requests: minority.len() as u64,
            corroborated: minority_rate > main_rate && !minority.is_empty(),
        });
    }
    out
}

/// Render both reports.
pub fn render(logs: &StandardizedTable<'_>, spoof: &SpoofReport) -> String {
    use crate::tables::{f, TextTable};
    let mut t = TextTable::new(
        "Extension: trap-path (honeypot) hits — fetching /404, /dev-404-page or /secure/* is always non-compliant",
        &["Bot", "Trap hits", "Total", "Rate", "95% CI"],
    );
    for row in trap_report(logs, 20).into_iter().take(15) {
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
    for c in spoof_corroboration(logs, spoof) {
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
    use crate::pipeline::standardize_table;
    use crate::spoofdetect::detect_rows;
    use botscope_weblog::record::AccessRecord;
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
    fn trap_path_classification() {
        assert!(is_trap_path("/404"));
        assert!(is_trap_path("/dev-404-page"));
        assert!(is_trap_path("/secure/admin-1"));
        assert!(!is_trap_path("/40404"));
        assert!(!is_trap_path("/page-data/x"));
        assert!(!is_trap_path("/securely-public"));
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
        let logs = standardize_table(&table);
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
        let logs = standardize_table(&table);
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
        let logs = standardize_table(&table);
        let spoof = detect_rows(&table, &logs.per_bot_rows());
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
        let logs = standardize_table(&table);
        let spoof = detect_rows(&table, &logs.per_bot_rows());
        let cs = spoof_corroboration(&logs, &spoof);
        let g = cs.iter().find(|c| c.bot == "Googlebot").expect("flagged");
        assert!(!g.corroborated);
    }

    #[test]
    fn render_smoke() {
        let records = vec![rec("Mozilla/5.0 (compatible; GPTBot/1.1)", "A", 0, "/x")];
        let table = LogTable::from_records(&records);
        let logs = standardize_table(&table);
        let spoof = detect_rows(&table, &logs.per_bot_rows());
        let text = render(&logs, &spoof);
        assert!(text.contains("honeypot"));
        assert!(text.contains("Corroborated") || text.contains("corroboration"));
    }
}
