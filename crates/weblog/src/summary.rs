//! Dataset overview statistics (paper Table 2).
//!
//! Table 2 reports, for the full dataset and for the known-bot subset:
//! unique IP addresses, unique user agents, average bytes scraped per
//! session, unique ASNs, total bytes scraped, total page visits (the
//! session-collapsed row count) and unique page visits (distinct URLs).

use crate::hash::{FxHashMap, FxHashSet};

use crate::session::SESSION_GAP_SECS;
use crate::table::LogTable;

/// The Table 2 row.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// Distinct IP hashes.
    pub unique_ips: usize,
    /// Distinct raw user-agent strings.
    pub unique_user_agents: usize,
    /// Mean bytes per session.
    pub avg_bytes_per_session: f64,
    /// Distinct ASNs.
    pub unique_asns: usize,
    /// Total bytes transferred.
    pub total_bytes: u64,
    /// Number of sessions (the paper's "total page visits" after
    /// session-collapsing).
    pub total_page_visits: usize,
    /// Distinct (sitename, path) URLs.
    pub unique_page_visits: usize,
    /// Raw (pre-sessionization) record count.
    pub raw_records: usize,
}

impl DatasetSummary {
    /// The summary of a whole table under the paper's 5-minute session
    /// gap. Unique counts are taken over interned symbols, and sessions
    /// are counted without materializing them.
    pub fn compute_table(table: &LogTable) -> DatasetSummary {
        Self::compute_table_with_gap(table, SESSION_GAP_SECS)
    }

    /// [`DatasetSummary::compute_table`] with a custom session gap.
    pub fn compute_table_with_gap(table: &LogTable, gap_secs: u64) -> DatasetSummary {
        Self::compute_rows_with_gap(table.rows().iter(), gap_secs)
    }

    /// Summary over an arbitrary row subset of a table (rows must share
    /// one interner; unique UA/ASN/URL counts are symbol-keyed).
    pub fn compute_rows_with_gap<'t>(
        rows: impl IntoIterator<Item = &'t crate::table::RecordRow>,
        gap_secs: u64,
    ) -> DatasetSummary {
        assert!(gap_secs > 0, "session gap must be positive");
        let mut ips: FxHashSet<u64> = FxHashSet::default();
        let mut uas: FxHashSet<crate::intern::Sym> = FxHashSet::default();
        let mut asns: FxHashSet<crate::intern::Sym> = FxHashSet::default();
        let mut urls: FxHashSet<(crate::intern::Sym, crate::intern::Sym)> = FxHashSet::default();
        let mut by_entity: FxHashMap<(crate::intern::Sym, u64, crate::intern::Sym), Vec<u64>> =
            FxHashMap::default();
        let mut total_bytes = 0u64;
        let mut raw_records = 0usize;
        for row in rows {
            raw_records += 1;
            ips.insert(row.ip_hash);
            uas.insert(row.useragent);
            asns.insert(row.asn);
            urls.insert((row.sitename, row.uri_path));
            total_bytes += row.bytes;
            by_entity
                .entry((row.useragent, row.ip_hash, row.asn))
                .or_default()
                .push(row.timestamp.unix());
        }
        let sessions = crate::table::count_entity_sessions(by_entity, gap_secs);
        let avg = if sessions == 0 { 0.0 } else { total_bytes as f64 / sessions as f64 };
        DatasetSummary {
            unique_ips: ips.len(),
            unique_user_agents: uas.len(),
            avg_bytes_per_session: avg,
            unique_asns: asns.len(),
            total_bytes,
            total_page_visits: sessions,
            unique_page_visits: urls.len(),
            raw_records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AccessRecord;
    use crate::time::Timestamp;

    fn rec(ua: &str, ip: u64, asn: &str, t: u64, path: &str, bytes: u64) -> AccessRecord {
        AccessRecord {
            useragent: ua.into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: ip,
            asn: asn.into(),
            sitename: "s".into(),
            uri_path: path.into(),
            status: 200,
            bytes,
            referer: None,
        }
    }

    fn summary(records: &[AccessRecord], gap_secs: u64) -> DatasetSummary {
        DatasetSummary::compute_table_with_gap(&LogTable::from_records(records), gap_secs)
    }

    #[test]
    fn empty_dataset() {
        let s = DatasetSummary::compute_table(&LogTable::new());
        assert_eq!(s.unique_ips, 0);
        assert_eq!(s.total_bytes, 0);
        assert_eq!(s.avg_bytes_per_session, 0.0);
        assert_eq!(s.total_page_visits, 0);
        assert_eq!(s.raw_records, 0);
    }

    #[test]
    fn counts() {
        let records = vec![
            rec("a", 1, "GOOGLE", 0, "/x", 100),
            rec("a", 1, "GOOGLE", 60, "/y", 100),
            rec("b", 2, "OVH", 0, "/x", 300),
        ];
        let s = DatasetSummary::compute_table(&LogTable::from_records(&records));
        assert_eq!(s.unique_ips, 2);
        assert_eq!(s.unique_user_agents, 2);
        assert_eq!(s.unique_asns, 2);
        assert_eq!(s.total_bytes, 500);
        assert_eq!(s.raw_records, 3);
        assert_eq!(s.unique_page_visits, 2); // /x and /y
        assert_eq!(s.total_page_visits, 2); // two sessions
        assert!((s.avg_bytes_per_session - 250.0).abs() < 1e-9);
    }

    #[test]
    fn row_subset_summary_counts_only_those_rows() {
        let records = vec![
            rec("a", 1, "GOOGLE", 0, "/x", 100),
            rec("a", 1, "GOOGLE", 60, "/y", 100),
            rec("a", 1, "GOOGLE", 10_000, "/y", 50),
            rec("b", 2, "OVH", 0, "/x", 300),
        ];
        let table = LogTable::from_records(&records);
        let s = DatasetSummary::compute_rows_with_gap(&table.rows()[1..3], SESSION_GAP_SECS);
        assert_eq!((s.raw_records, s.unique_ips, s.unique_asns), (2, 1, 1));
        assert_eq!((s.unique_page_visits, s.total_page_visits, s.total_bytes), (1, 2, 150));
        let s = DatasetSummary::compute_rows_with_gap(&table.rows()[1..3], 20_000);
        assert_eq!(s.total_page_visits, 1);
        assert!((s.avg_bytes_per_session - 150.0).abs() < 1e-9);
    }

    #[test]
    fn session_gap_changes_visit_count() {
        // Two accesses 10 minutes apart: one session with a 15-minute gap,
        // two with the paper's 5-minute gap.
        let records = vec![rec("a", 1, "GOOGLE", 0, "/x", 1), rec("a", 1, "GOOGLE", 600, "/y", 1)];
        assert_eq!(summary(&records, SESSION_GAP_SECS).total_page_visits, 2);
        assert_eq!(summary(&records, 900).total_page_visits, 1);
        // A delta of exactly the gap splits.
        assert_eq!(summary(&records, 600).total_page_visits, 2);
        assert_eq!(summary(&records, 601).total_page_visits, 1);
    }
}
