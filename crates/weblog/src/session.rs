//! Sessionization: collapsing page accesses into visitor sessions.
//!
//! The study aggregates rows "into time-based 'sessions' associated with
//! the same web agent… We say a session 'ends' after 5 minutes of
//! inactivity from an entity" (paper §3.2). Entities are identified the
//! same way as the compliance analysis identifies requesters: by the
//! (ASN, IP hash, user agent) τ-tuple. [`LogTable::sessionize`]
//! groups a table's rows into [`Session`]s.
//!
//! [`LogTable::sessionize`]: crate::table::LogTable::sessionize

use crate::time::Timestamp;

/// The paper's session gap: 5 minutes of inactivity.
pub const SESSION_GAP_SECS: u64 = 5 * 60;

/// One session: a run of accesses by one entity with no gap ≥ the limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// User agent of the entity.
    pub useragent: String,
    /// IP hash of the entity.
    pub ip_hash: u64,
    /// ASN of the entity.
    pub asn: String,
    /// First access time.
    pub start: Timestamp,
    /// Last access time.
    pub end: Timestamp,
    /// Number of page accesses collapsed into this session.
    pub accesses: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Distinct (sitename, path) URLs visited, in first-seen order.
    pub urls: Vec<(String, String)>,
}

impl Session {
    /// Session duration in seconds.
    pub fn duration_secs(&self) -> u64 {
        self.end.secs_since(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AccessRecord;
    use crate::table::LogTable;

    fn sessionize(records: &[AccessRecord], gap_secs: u64) -> Vec<Session> {
        LogTable::from_records(records).sessionize(gap_secs)
    }

    fn rec(ua: &str, ip: u64, t: u64, path: &str, bytes: u64) -> AccessRecord {
        AccessRecord {
            useragent: ua.into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: ip,
            asn: "GOOGLE".into(),
            sitename: "s".into(),
            uri_path: path.into(),
            status: 200,
            bytes,
            referer: None,
        }
    }

    #[test]
    fn contiguous_accesses_one_session() {
        let rs =
            vec![rec("a", 1, 0, "/x", 10), rec("a", 1, 100, "/y", 20), rec("a", 1, 250, "/z", 30)];
        let ss = sessionize(&rs, SESSION_GAP_SECS);
        assert_eq!(ss.len(), 1);
        assert_eq!(ss[0].accesses, 3);
        assert_eq!(ss[0].bytes, 60);
        assert_eq!(ss[0].duration_secs(), 250);
        assert_eq!(ss[0].urls.len(), 3);
    }

    #[test]
    fn gap_splits_sessions() {
        let rs = vec![
            rec("a", 1, 0, "/x", 1),
            rec("a", 1, 299, "/y", 1),
            rec("a", 1, 299 + 300, "/z", 1),
        ];
        let ss = sessionize(&rs, 300);
        // 0→299 is within gap; 299→599 is exactly the gap → split.
        assert_eq!(ss.len(), 2);
        assert_eq!(ss[0].accesses, 2);
        assert_eq!(ss[1].accesses, 1);
    }

    #[test]
    fn distinct_entities_never_merge() {
        let rs = vec![
            rec("a", 1, 0, "/x", 1),
            rec("a", 2, 10, "/x", 1), // different IP
            rec("b", 1, 20, "/x", 1), // different UA
        ];
        let ss = sessionize(&rs, 300);
        assert_eq!(ss.len(), 3);
    }

    #[test]
    fn different_asn_is_different_entity() {
        let mut r1 = rec("a", 1, 0, "/x", 1);
        let mut r2 = rec("a", 1, 10, "/x", 1);
        r1.asn = "GOOGLE".into();
        r2.asn = "AMAZON-02".into();
        let ss = sessionize(&[r1, r2], 300);
        assert_eq!(ss.len(), 2);
    }

    #[test]
    fn unsorted_input_handled() {
        let rs =
            vec![rec("a", 1, 200, "/y", 1), rec("a", 1, 0, "/x", 1), rec("a", 1, 100, "/z", 1)];
        let ss = sessionize(&rs, 300);
        assert_eq!(ss.len(), 1);
        assert_eq!(ss[0].start, Timestamp::from_unix(0));
        assert_eq!(ss[0].end, Timestamp::from_unix(200));
    }

    #[test]
    fn duplicate_urls_deduplicated() {
        let rs = vec![rec("a", 1, 0, "/x", 1), rec("a", 1, 10, "/x", 1), rec("a", 1, 20, "/x", 1)];
        let ss = sessionize(&rs, 300);
        assert_eq!(ss[0].accesses, 3);
        assert_eq!(ss[0].urls.len(), 1);
    }

    #[test]
    fn output_is_deterministic() {
        let rs = vec![rec("b", 2, 0, "/x", 1), rec("a", 1, 0, "/x", 1), rec("c", 3, 50, "/x", 1)];
        let a = sessionize(&rs, 300);
        let b = sessionize(&rs, 300);
        assert_eq!(a, b);
        assert!(a[0].useragent <= a[1].useragent || a[0].start < a[1].start);
    }

    #[test]
    fn tied_sessions_order_by_asn() {
        // Eight entities that share UA, IP and start instant and differ
        // only in ASN: the order must be total, not a hash-map walk.
        let asns = ["OVH", "AS-7", "GOOGLE", "AMAZON-02", "ZAYO", "AS-10", "HETZNER", "BYTEDANCE"];
        let rs: Vec<AccessRecord> = asns
            .iter()
            .map(|&asn| AccessRecord { asn: asn.into(), ..rec("a", 1, 0, "/x", 1) })
            .collect();
        let table = LogTable::from_records(&rs);
        for _ in 0..8 {
            let order: Vec<String> = table.sessionize(300).into_iter().map(|s| s.asn).collect();
            assert_eq!(
                order,
                ["AMAZON-02", "AS-10", "AS-7", "BYTEDANCE", "GOOGLE", "HETZNER", "OVH", "ZAYO"]
            );
        }
    }

    #[test]
    fn empty_input() {
        assert!(sessionize(&[], 300).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_gap_panics() {
        let _ = sessionize(&[], 0);
    }

    #[test]
    fn paper_gap_constant() {
        assert_eq!(SESSION_GAP_SECS, 300);
    }
}
