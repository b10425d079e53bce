//! The interned, column-friendly log table.
//!
//! [`LogTable`] owns a [`StringInterner`] plus a vector of compact
//! [`RecordRow`]s: every string field of [`AccessRecord`] is replaced by
//! a 4-byte [`Sym`], shrinking a row to 48 bytes and collapsing the
//! dataset's repeated strings (user agents, ASNs, sitenames, paths) to
//! one copy each. At paper volume this cuts the resident footprint of
//! the generated dataset by roughly 6× versus `Vec<AccessRecord>`.
//!
//! The table is the one row model: the simnet generator, the codecs,
//! sessionization, the Table 2 summary and the core analysis pipeline
//! all work on its rows. [`AccessRecord`] remains the owned view of one
//! row, for display and for test fixtures: [`LogTable::from_records`]
//! interns records and [`LogTable::record`] /
//! [`LogTable::iter_records`] materialize them back.

use std::collections::BTreeMap;

use crate::intern::{StringInterner, Sym};
use crate::record::AccessRecord;
use crate::session::Session;
use crate::time::Timestamp;

/// One access, with all strings interned. 48 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRow {
    /// Interned `User-Agent` header.
    pub useragent: Sym,
    /// Interned ASN name.
    pub asn: Sym,
    /// Interned sitename.
    pub sitename: Sym,
    /// Interned URI path.
    pub uri_path: Sym,
    /// Interned referer, if any.
    pub referer: Option<Sym>,
    /// Time of the request.
    pub timestamp: Timestamp,
    /// One-way keyed hash of the visitor IP.
    pub ip_hash: u64,
    /// Bytes transmitted by the server.
    pub bytes: u64,
    /// HTTP status returned.
    pub status: u16,
}

impl RecordRow {
    /// This row with every symbol passed through `f`, visited in field
    /// order: useragent, asn, sitename, uri_path, referer. Dictionary
    /// builders rely on that order to assign ids exactly as
    /// [`LogTable::push_record`] interns.
    pub(crate) fn map_syms(&self, mut f: impl FnMut(Sym) -> Sym) -> RecordRow {
        RecordRow {
            useragent: f(self.useragent),
            asn: f(self.asn),
            sitename: f(self.sitename),
            uri_path: f(self.uri_path),
            referer: self.referer.map(f),
            ..*self
        }
    }
}

/// An in-progress session during row sessionization:
/// (start, end, accesses, bytes, urls as symbol pairs).
type PendingSession = (Timestamp, Timestamp, u64, u64, Vec<(Sym, Sym)>);

/// A resolved τ key: (ASN, IP hash, raw user agent).
pub type TauKey<'t> = (&'t str, u64, &'t str);

/// One τ group: its resolved key plus the rows it contains.
pub type TauGroup<'t> = (TauKey<'t>, Vec<&'t RecordRow>);

/// An interner plus its rows: the whole dataset in compact form.
#[derive(Debug, Clone, Default)]
pub struct LogTable {
    interner: StringInterner,
    rows: Vec<RecordRow>,
}

impl LogTable {
    /// An empty table.
    pub fn new() -> LogTable {
        LogTable::default()
    }

    /// An empty table with row capacity `rows` and string capacity
    /// `strings`.
    pub fn with_capacity(rows: usize, strings: usize) -> LogTable {
        LogTable {
            interner: StringInterner::with_capacity(strings),
            rows: Vec::with_capacity(rows),
        }
    }

    /// Build a table from materialized records.
    pub fn from_records(records: &[AccessRecord]) -> LogTable {
        let mut table = LogTable::with_capacity(records.len(), 64);
        for r in records {
            table.push_record(r);
        }
        table
    }

    /// Reassemble a table from an interner and rows previously split by
    /// [`LogTable::into_parts`] (or built against a clone of `interner`).
    /// Every symbol in `rows` must come from `interner`.
    pub fn from_parts(interner: StringInterner, rows: Vec<RecordRow>) -> LogTable {
        if let Some(row) = rows.first() {
            debug_assert!(row.useragent.index() < interner.len());
        }
        LogTable { interner, rows }
    }

    /// Split the table into its interner and rows, e.g. to sort or spill
    /// the rows while keeping the symbol space alive.
    pub fn into_parts(self) -> (StringInterner, Vec<RecordRow>) {
        (self.interner, self.rows)
    }

    /// The interner.
    pub fn interner(&self) -> &StringInterner {
        &self.interner
    }

    /// Intern a string into this table's symbol space.
    pub fn intern(&mut self, s: &str) -> Sym {
        self.interner.intern(s)
    }

    /// Resolve a symbol of this table.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// The rows.
    pub fn rows(&self) -> &[RecordRow] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row whose symbols are from **this** table's interner.
    pub fn push_row(&mut self, row: RecordRow) {
        debug_assert!(row.useragent.index() < self.interner.len());
        self.rows.push(row);
    }

    /// Intern a record's strings and append it as a row.
    pub fn push_record(&mut self, r: &AccessRecord) {
        let row = RecordRow {
            useragent: self.interner.intern(&r.useragent),
            asn: self.interner.intern(&r.asn),
            sitename: self.interner.intern(&r.sitename),
            uri_path: self.interner.intern(&r.uri_path),
            referer: r.referer.as_deref().map(|s| self.interner.intern(s)),
            timestamp: r.timestamp,
            ip_hash: r.ip_hash,
            bytes: r.bytes,
            status: r.status,
        };
        self.rows.push(row);
    }

    /// Materialize one row as an [`AccessRecord`].
    pub fn materialize(&self, row: &RecordRow) -> AccessRecord {
        AccessRecord {
            useragent: self.resolve(row.useragent).to_string(),
            timestamp: row.timestamp,
            ip_hash: row.ip_hash,
            asn: self.resolve(row.asn).to_string(),
            sitename: self.resolve(row.sitename).to_string(),
            uri_path: self.resolve(row.uri_path).to_string(),
            status: row.status,
            bytes: row.bytes,
            referer: row.referer.map(|s| self.resolve(s).to_string()),
        }
    }

    /// Materialize the row at `index`.
    pub fn record(&self, index: usize) -> AccessRecord {
        self.materialize(&self.rows[index])
    }

    /// Iterate materialized [`AccessRecord`] views in row order.
    pub fn iter_records(&self) -> impl Iterator<Item = AccessRecord> + '_ {
        self.rows.iter().map(|row| self.materialize(row))
    }

    /// Materialize the whole table (the compatibility path).
    pub fn to_records(&self) -> Vec<AccessRecord> {
        self.iter_records().collect()
    }

    /// Whether a row's path is exactly `/robots.txt`
    /// (cf. [`AccessRecord::is_robots_fetch`]).
    pub fn is_robots_fetch(&self, row: &RecordRow) -> bool {
        self.resolve(row.uri_path) == "/robots.txt"
    }

    /// Absorb another table: remap its symbols into this interner and
    /// append its rows in order. Used to merge per-shard tables from
    /// parallel generation workers.
    pub fn absorb(&mut self, other: &LogTable) {
        // Remap each of the shard's symbols once, not once per row.
        let remap: Vec<Sym> = other.interner.iter().map(|(_, s)| self.interner.intern(s)).collect();
        self.rows.reserve(other.rows.len());
        for row in &other.rows {
            self.rows.push(row.map_syms(|sym| remap[sym.index()]));
        }
    }

    /// Stable-sort rows by `(timestamp, useragent, ip_hash, uri_path)`
    /// with string fields compared lexicographically — the generator's
    /// canonical output order. Implemented over precomputed symbol ranks
    /// so the sort never touches a string.
    pub fn sort_canonical(&mut self) {
        let ranks = self.interner.ranks();
        self.rows.sort_by_key(|r| {
            (r.timestamp, ranks[r.useragent.index()], r.ip_hash, ranks[r.uri_path.index()])
        });
    }

    /// Group rows by the study's stratification triple τ = (ASN, IP
    /// hash, **raw** user agent); the normative definition of τ lives
    /// next to the crawl-delay metric in `botscope-core::metrics`.
    /// Groups come back sorted lexicographically by resolved (ASN, IP
    /// hash, user agent), so iteration order is deterministic and
    /// independent of symbol interning order; within a group, rows keep
    /// table row order (ascending in time once the table is
    /// canonically sorted).
    pub fn by_tau(&self) -> Vec<TauGroup<'_>> {
        use std::collections::HashMap;
        let mut map: HashMap<(Sym, u64, Sym), Vec<&RecordRow>> = HashMap::new();
        for row in &self.rows {
            map.entry((row.asn, row.ip_hash, row.useragent)).or_default().push(row);
        }
        let mut groups: Vec<TauGroup<'_>> = map
            .into_iter()
            .map(|((asn, ip, ua), rows)| ((self.resolve(asn), ip, self.resolve(ua)), rows))
            .collect();
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        groups
    }

    /// Group rows by raw user-agent string, sorted by agent name; within
    /// a group, rows keep table row order.
    pub fn by_useragent(&self) -> Vec<(&str, Vec<&RecordRow>)> {
        use std::collections::HashMap;
        let mut map: HashMap<Sym, Vec<&RecordRow>> = HashMap::new();
        for row in &self.rows {
            map.entry(row.useragent).or_default().push(row);
        }
        let mut groups: Vec<(&str, Vec<&RecordRow>)> =
            map.into_iter().map(|(ua, rows)| (self.resolve(ua), rows)).collect();
        groups.sort_by(|a, b| a.0.cmp(b.0));
        groups
    }

    /// The robots.txt fetch times (unix secs) per raw user agent, in
    /// table row order (ascending in time once the table is canonically
    /// sorted). Agents that never fetched `/robots.txt` are absent.
    pub fn robots_checks_by_useragent(&self) -> BTreeMap<&str, Vec<u64>> {
        use std::collections::HashMap;
        let Some(robots) = self.interner.get("/robots.txt") else {
            return BTreeMap::new();
        };
        let mut map: HashMap<Sym, Vec<u64>> = HashMap::new();
        for row in &self.rows {
            if row.uri_path == robots {
                map.entry(row.useragent).or_default().push(row.timestamp.unix());
            }
        }
        map.into_iter().map(|(ua, times)| (self.resolve(ua), times)).collect()
    }

    /// Group rows into [`Session`]s with the given inactivity gap: per
    /// τ entity in time order, a new session starts whenever the gap to
    /// the previous access is at least `gap_secs`. Entities are τ-tuples
    /// of interned symbols, so grouping is integer-keyed; strings are
    /// resolved once per produced session. Sessions come back sorted by
    /// (start, user agent, IP hash, ASN), a total order because one
    /// entity's sessions never share a start.
    pub fn sessionize(&self, gap_secs: u64) -> Vec<Session> {
        self.sessionize_rows(self.rows.iter(), gap_secs)
    }

    /// [`LogTable::sessionize`] over a row subset (rows must belong to
    /// this table).
    pub fn sessionize_rows<'t>(
        &'t self,
        rows: impl IntoIterator<Item = &'t RecordRow>,
        gap_secs: u64,
    ) -> Vec<Session> {
        assert!(gap_secs > 0, "session gap must be positive");
        use std::collections::HashMap;
        let mut by_entity: HashMap<(Sym, u64, Sym), Vec<&RecordRow>> = HashMap::new();
        for row in rows {
            by_entity.entry((row.useragent, row.ip_hash, row.asn)).or_default().push(row);
        }

        let mut sessions = Vec::new();
        for ((ua, ip, asn), mut group) in by_entity {
            group.sort_by_key(|r| r.timestamp);
            let mut current: Option<PendingSession> = None;
            for r in group {
                let extend =
                    current.as_ref().is_some_and(|s| r.timestamp.secs_since(s.1) < gap_secs);
                if let (true, Some(s)) = (extend, current.as_mut()) {
                    s.1 = r.timestamp;
                    s.2 += 1;
                    s.3 += r.bytes;
                    let url = (r.sitename, r.uri_path);
                    if !s.4.contains(&url) {
                        s.4.push(url);
                    }
                } else {
                    if let Some(done) = current.take() {
                        sessions.push(self.finish_session(ua, ip, asn, done));
                    }
                    current = Some((
                        r.timestamp,
                        r.timestamp,
                        1,
                        r.bytes,
                        vec![(r.sitename, r.uri_path)],
                    ));
                }
            }
            if let Some(done) = current.take() {
                sessions.push(self.finish_session(ua, ip, asn, done));
            }
        }
        sessions.sort_by(|a, b| {
            (a.start, &a.useragent, a.ip_hash, &a.asn).cmp(&(
                b.start,
                &b.useragent,
                b.ip_hash,
                &b.asn,
            ))
        });
        sessions
    }

    /// Count sessions over a row subset without materializing them
    /// (the hot path for per-phase traffic tables).
    pub fn count_sessions<'t>(
        &'t self,
        rows: impl IntoIterator<Item = &'t RecordRow>,
        gap_secs: u64,
    ) -> usize {
        use std::collections::HashMap;
        let mut by_entity: HashMap<(Sym, u64, Sym), Vec<u64>> = HashMap::new();
        for row in rows {
            by_entity
                .entry((row.useragent, row.ip_hash, row.asn))
                .or_default()
                .push(row.timestamp.unix());
        }
        count_entity_sessions(by_entity, gap_secs)
    }

    fn finish_session(
        &self,
        ua: Sym,
        ip: u64,
        asn: Sym,
        (start, end, accesses, bytes, urls): PendingSession,
    ) -> Session {
        Session {
            useragent: self.resolve(ua).to_string(),
            ip_hash: ip,
            asn: self.resolve(asn).to_string(),
            start,
            end,
            accesses,
            bytes,
            urls: urls
                .into_iter()
                .map(|(s, p)| (self.resolve(s).to_string(), self.resolve(p).to_string()))
                .collect(),
        }
    }

    /// Approximate heap footprint in bytes: rows plus interner strings
    /// (genbench prints it as `heap_mb`).
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<RecordRow>() + self.interner.heap_bytes()
    }
}

/// Count sessions given per-τ-entity access times: one session per
/// entity plus one per inter-access gap of at least `gap_secs`. The
/// single definition of the session-split rule for row-native counting
/// (shared by [`LogTable::count_sessions`] and `DatasetSummary`).
pub(crate) fn count_entity_sessions(
    mut by_entity: std::collections::HashMap<(Sym, u64, Sym), Vec<u64>>,
    gap_secs: u64,
) -> usize {
    assert!(gap_secs > 0, "session gap must be positive");
    let mut sessions = 0usize;
    for times in by_entity.values_mut() {
        times.sort_unstable();
        sessions += 1;
        sessions += times.windows(2).filter(|p| p[1] - p[0] >= gap_secs).count();
    }
    sessions
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Approximate heap footprint of the same rows as owned records,
    /// for comparison against [`LogTable::heap_bytes`].
    fn records_heap_bytes(records: &[AccessRecord]) -> usize {
        records
            .iter()
            .map(|r| {
                std::mem::size_of::<AccessRecord>()
                    + r.useragent.capacity()
                    + r.asn.capacity()
                    + r.sitename.capacity()
                    + r.uri_path.capacity()
                    + r.referer.as_ref().map_or(0, String::capacity)
            })
            .sum()
    }

    fn rec(ua: &str, ip: u64, t: u64, path: &str) -> AccessRecord {
        AccessRecord {
            useragent: ua.into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: ip,
            asn: "GOOGLE".into(),
            sitename: "site-00.example.edu".into(),
            uri_path: path.into(),
            status: 200,
            bytes: 64,
            referer: None,
        }
    }

    #[test]
    fn row_is_48_bytes() {
        assert_eq!(std::mem::size_of::<RecordRow>(), 48);
    }

    #[test]
    fn roundtrip_records() {
        let records =
            vec![rec("GPTBot/1.0", 1, 10, "/a"), rec("bingbot/2.0", 2, 20, "/robots.txt")];
        let table = LogTable::from_records(&records);
        assert_eq!(table.len(), 2);
        assert_eq!(table.to_records(), records);
        assert_eq!(table.record(1), records[1]);
        assert!(table.is_robots_fetch(&table.rows()[1]));
        assert!(!table.is_robots_fetch(&table.rows()[0]));
    }

    #[test]
    fn referer_roundtrip() {
        let mut r = rec("a", 1, 0, "/");
        r.referer = Some("https://ref.example/x".into());
        let table = LogTable::from_records(std::slice::from_ref(&r));
        assert_eq!(table.record(0), r);
    }

    #[test]
    fn interning_shares_strings() {
        let records: Vec<AccessRecord> = (0..100).map(|t| rec("GPTBot/1.0", 1, t, "/a")).collect();
        let table = LogTable::from_records(&records);
        // ua, asn, sitename, path — one symbol each.
        assert_eq!(table.interner().len(), 4);
        assert!(table.heap_bytes() < records_heap_bytes(&records));
    }

    #[test]
    fn absorb_remaps_symbols() {
        let mut a = LogTable::from_records(&[rec("ua-a", 1, 5, "/x")]);
        let b = LogTable::from_records(&[rec("ua-b", 2, 3, "/x"), rec("ua-a", 1, 9, "/y")]);
        a.absorb(&b);
        assert_eq!(a.len(), 3);
        let recs = a.to_records();
        assert_eq!(recs[1].useragent, "ua-b");
        assert_eq!(recs[2].useragent, "ua-a");
        // "ua-a" resolved to the same symbol in both tables' rows.
        assert_eq!(a.rows()[0].useragent, a.rows()[2].useragent);
    }

    #[test]
    fn sort_canonical_matches_record_sort() {
        let records = vec![
            rec("b-agent", 7, 50, "/z"),
            rec("a-agent", 3, 50, "/z"),
            rec("a-agent", 3, 50, "/a"),
            rec("zz", 1, 10, "/q"),
            rec("a-agent", 1, 50, "/z"),
        ];
        let mut table = LogTable::from_records(&records);
        table.sort_canonical();

        let mut expect = records.clone();
        expect.sort_by(|a, b| {
            (a.timestamp, &a.useragent, a.ip_hash, &a.uri_path).cmp(&(
                b.timestamp,
                &b.useragent,
                b.ip_hash,
                &b.uri_path,
            ))
        });
        assert_eq!(table.to_records(), expect);
    }

    #[test]
    fn sessionize_splits_entities_at_the_gap() {
        let records = vec![
            rec("a", 1, 0, "/x"),
            rec("a", 1, 100, "/y"),
            rec("a", 1, 10_000, "/x"),
            rec("b", 2, 0, "/x"),
        ];
        let table = LogTable::from_records(&records);
        let sessions = table.sessionize(300);
        let shape: Vec<(&str, u64, u64, u64, usize)> = sessions
            .iter()
            .map(|s| (s.useragent.as_str(), s.start.unix(), s.end.unix(), s.accesses, s.urls.len()))
            .collect();
        assert_eq!(
            shape,
            vec![("a", 0, 100, 2, 2), ("b", 0, 0, 1, 1), ("a", 10_000, 10_000, 1, 1)]
        );
    }

    #[test]
    fn count_sessions_matches_sessionize() {
        let records = vec![
            rec("a", 1, 0, "/x"),
            rec("a", 1, 100, "/y"),
            rec("a", 1, 10_000, "/x"),
            rec("b", 2, 0, "/x"),
        ];
        let table = LogTable::from_records(&records);
        assert_eq!(table.count_sessions(table.rows(), 300), table.sessionize(300).len());
        let subset: Vec<&RecordRow> = table.rows().iter().take(2).collect();
        assert_eq!(
            table.count_sessions(subset.iter().copied(), 300),
            table.sessionize_rows(subset.iter().copied(), 300).len()
        );
    }

    #[test]
    fn empty_table() {
        let table = LogTable::new();
        assert!(table.is_empty());
        assert!(table.to_records().is_empty());
        assert!(table.sessionize(300).is_empty());
        assert!(table.by_tau().is_empty());
        assert!(table.by_useragent().is_empty());
        assert!(table.robots_checks_by_useragent().is_empty());
    }

    #[test]
    fn tau_grouping() {
        let records = vec![
            rec("a", 1, 0, "/x"),
            rec("a", 1, 5, "/y"),
            rec("a", 2, 0, "/x"),
            rec("b", 1, 0, "/x"),
        ];
        let table = LogTable::from_records(&records);
        let groups = table.by_tau();
        assert_eq!(groups.len(), 3);
        // Sorted by (asn, ip, ua); all share the GOOGLE ASN.
        let keys: Vec<(&str, u64, &str)> = groups.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![("GOOGLE", 1, "a"), ("GOOGLE", 1, "b"), ("GOOGLE", 2, "a")]);
        // Two accesses of ("GOOGLE", 1, "a"), in time order.
        assert_eq!(groups[0].1.len(), 2);
        assert!(groups[0].1[0].timestamp <= groups[0].1[1].timestamp);
        // Raw UA is part of the key: same ASN/IP, different agent strings
        // stratify apart (the §4.2 τ-tuple).
        assert_ne!(groups[0].0, groups[1].0);
    }

    #[test]
    fn useragent_grouping() {
        let records = vec![rec("a", 1, 0, "/"), rec("a", 2, 1, "/"), rec("b", 3, 2, "/")];
        let table = LogTable::from_records(&records);
        let groups = table.by_useragent();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "a");
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[1].0, "b");
        assert_eq!(groups[1].1.len(), 1);
    }

    #[test]
    fn robots_checks_view() {
        let records = vec![
            rec("a", 1, 10, "/robots.txt"),
            rec("a", 1, 20, "/page"),
            rec("a", 1, 30, "/robots.txt"),
            rec("b", 2, 5, "/page"),
        ];
        let table = LogTable::from_records(&records);
        let checks = table.robots_checks_by_useragent();
        assert_eq!(checks["a"], vec![10, 30]);
        assert!(!checks.contains_key("b"));
    }
}
