//! Fetch-event rows: the monitoring daemon's native log schema.
//!
//! A *fetch event* is one attempt to retrieve a site's `/robots.txt`:
//! the monitoring daemon's per-(bot, site) agents emit one row per
//! attempt, carrying the redirect-resolved HTTP status (`0` denotes a
//! transport-level failure that never produced a status) and the body
//! size. The schema is deliberately identical to [`AccessRecord`] rows —
//! the path is always `/robots.txt` — so every existing consumer (the
//! §5.1 re-check profiles, the grouping views, the CSV/JSONL codecs)
//! reads monitor logs unchanged.
//!
//! [`AccessRecord`]: crate::record::AccessRecord

use crate::intern::Sym;
use crate::table::{LogTable, RecordRow};
use crate::time::Timestamp;

/// Status recorded for a fetch attempt that failed at the transport
/// level (DNS, TCP, TLS) — no HTTP status ever existed.
pub const STATUS_TRANSPORT_FAILURE: u16 = 0;

/// An append-only [`LogTable`] of robots.txt fetch events.
///
/// The `/robots.txt` path symbol is interned once at construction;
/// callers intern their per-agent strings (user agent, ASN, sitename)
/// up front and emit rows symbol-to-symbol, so the hot path never
/// touches a string.
#[derive(Debug, Clone)]
pub struct FetchEventLog {
    table: LogTable,
    robots: Sym,
}

impl Default for FetchEventLog {
    fn default() -> Self {
        FetchEventLog::new()
    }
}

impl FetchEventLog {
    /// An empty fetch-event log.
    pub fn new() -> FetchEventLog {
        let mut table = LogTable::new();
        let robots = table.intern("/robots.txt");
        FetchEventLog { table, robots }
    }

    /// Intern a string into the log's symbol space (agents do this once
    /// per fixed field, not once per event).
    pub fn intern(&mut self, s: &str) -> Sym {
        self.table.intern(s)
    }

    /// Append one fetch event. `status` is the redirect-resolved HTTP
    /// status ([`STATUS_TRANSPORT_FAILURE`] when the transport failed);
    /// `bytes` is the body size served (0 for error outcomes).
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        useragent: Sym,
        asn: Sym,
        sitename: Sym,
        ip_hash: u64,
        status: u16,
        bytes: u64,
        at: Timestamp,
    ) {
        self.table.push_row(RecordRow {
            useragent,
            asn,
            sitename,
            uri_path: self.robots,
            referer: None,
            timestamp: at,
            ip_hash,
            bytes,
            status,
        });
    }

    /// Number of events logged.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no events were logged.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The underlying table.
    pub fn table(&self) -> &LogTable {
        &self.table
    }

    /// Consume the log, yielding its table.
    pub fn into_table(self) -> LogTable {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_robots_fetches() {
        let mut log = FetchEventLog::new();
        let ua = log.intern("Mozilla/5.0 (compatible; GPTBot/1.2)");
        let asn = log.intern("MICROSOFT-CORP");
        let site = log.intern("site-00.example.edu");
        log.push(ua, asn, site, 77, 200, 430, Timestamp::from_unix(1_000));
        log.push(ua, asn, site, 77, 503, 0, Timestamp::from_unix(2_000));
        log.push(ua, asn, site, 77, STATUS_TRANSPORT_FAILURE, 0, Timestamp::from_unix(3_000));
        assert_eq!(log.len(), 3);
        let table = log.into_table();
        for row in table.rows() {
            assert!(table.is_robots_fetch(row));
        }
        let records = table.to_records();
        assert_eq!(records[0].status, 200);
        assert_eq!(records[1].status, 503);
        assert_eq!(records[2].status, 0);
        assert!(records.iter().all(super::super::record::AccessRecord::is_robots_fetch));
    }

    #[test]
    fn sorts_into_a_time_ordered_robots_trace() {
        let mut log = FetchEventLog::new();
        let ua = log.intern("botA/1.0");
        let asn = log.intern("ASN-A");
        let site = log.intern("s");
        for t in [10u64, 30, 20] {
            log.push(ua, asn, site, 1, 200, 10, Timestamp::from_unix(t));
        }
        let mut table = log.into_table();
        table.sort_canonical();
        let times: Vec<u64> = table
            .iter_records()
            .filter(|r| r.is_robots_fetch() && r.useragent == "botA/1.0")
            .map(|r| r.timestamp.unix())
            .collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn empty_log() {
        let log = FetchEventLog::new();
        assert!(log.is_empty());
        assert_eq!(log.table().len(), 0);
    }
}
