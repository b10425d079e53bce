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

use crate::hash::FxHashMap;
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

    /// Sort rows by `(timestamp, useragent, ip_hash, uri_path)` with
    /// string fields compared lexicographically, rows with equal keys
    /// keeping their table order — the generator's canonical output
    /// order, exactly what a stable sort on that key returns.
    ///
    /// The rows move in place, so the sort holds no second copy of
    /// them. A table already in time order, as every monitor chunk log
    /// is, only orders its runs of equal timestamps. Any other table is
    /// sorted in two levels. A row's time key is its timestamp less the
    /// table's earliest, shifted right only when the span is too wide
    /// for the bits a row position leaves in a `u64`.
    ///
    /// 1. An American-flag pass deals the rows into time buckets, each a
    ///    whole range of time keys (so equal keys never straddle two),
    ///    4–16 Ki rows to a bucket on average over an even spread of
    ///    time. Each row's original position travels with it in a `u32`.
    /// 2. Each bucket is ordered while its rows sit in cache: one `u64`
    ///    per row, the time key over the row's index in the bucket, is
    ///    sorted; each run of equal time keys is ordered by the full
    ///    canonical key with its strings resolved, original position
    ///    breaking ties (strings are compared only there); and the rows
    ///    move once, along the cycles of the bucket's permutation.
    pub fn sort_canonical(&mut self) {
        let LogTable { interner, rows } = self;
        let full_key = |r: &RecordRow, pos: usize| {
            (
                r.timestamp,
                interner.resolve(r.useragent),
                r.ip_hash,
                interner.resolve(r.uri_path),
                pos,
            )
        };
        let mut keys: Vec<u64> = Vec::new();
        if rows.is_sorted_by_key(|r| r.timestamp) {
            let mut lo = 0;
            for run in rows.chunk_by_mut(|a, b| a.timestamp == b.timestamp) {
                if run.len() > 1 {
                    keys.clear();
                    keys.extend(0..run.len() as u64);
                    let key = |i: u64| full_key(&run[i as usize], lo + i as usize);
                    keys.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
                    permute(run, &mut keys);
                }
                lo += run.len();
            }
            return;
        }

        let n = rows.len();
        let (min, max) = rows.iter().fold((u64::MAX, 0), |(lo, hi), r| {
            (lo.min(r.timestamp.unix()), hi.max(r.timestamp.unix()))
        });
        let pos_bits = usize::BITS - n.leading_zeros();
        let shift = (u64::BITS - (max - min).leading_zeros()).saturating_sub(u64::BITS - pos_bits);
        let time_key = |r: &RecordRow| (r.timestamp.unix() - min) >> shift;
        let span = (max - min) >> shift;
        // At most 2^bits buckets, for the least `bits` with n < 2^(bits + 13).
        let bits = usize::BITS - (n >> 13).leading_zeros();
        let bucket_shift = (u64::BITS - span.leading_zeros()).saturating_sub(bits);
        let bucket = |r: &RecordRow| (time_key(r) >> bucket_shift) as usize;
        let buckets = (span >> bucket_shift) as usize + 1;

        // Pass 1. `starts[b]..starts[b + 1]` is bucket `b`'s slice of the
        // rows, and `heads[b]` the first of its slots not yet dealt.
        let mut starts = vec![0usize; buckets + 1];
        for r in rows.iter() {
            starts[bucket(r) + 1] += 1;
        }
        for b in 1..=buckets {
            starts[b] += starts[b - 1];
        }
        let n32 = u32::try_from(n).expect("a table to sort holds fewer than 2^32 rows");
        let mut origin: Vec<u32> = (0..n32).collect();
        let mut heads = starts.clone();
        for b in 0..buckets {
            while heads[b] < starts[b + 1] {
                let at = heads[b];
                let (mut row, mut pos) = (rows[at], origin[at]);
                let mut to = bucket(&row);
                while to != b {
                    // Stops inside bucket `to`: the held row is one of its
                    // rows, so one of its undealt slots holds a foreign row.
                    while bucket(&rows[heads[to]]) == to {
                        heads[to] += 1;
                    }
                    std::mem::swap(&mut row, &mut rows[heads[to]]);
                    std::mem::swap(&mut pos, &mut origin[heads[to]]);
                    heads[to] += 1;
                    to = bucket(&row);
                }
                (rows[at], origin[at]) = (row, pos);
                heads[b] += 1;
            }
        }

        // Pass 2.
        let pos_mask = (1u64 << pos_bits) - 1;
        for b in 0..buckets {
            let lo = starts[b];
            let rows = &mut rows[lo..starts[b + 1]];
            keys.clear();
            keys.extend(rows.iter().enumerate().map(|(i, r)| time_key(r) << pos_bits | i as u64));
            keys.sort_unstable();
            let key = |k: u64| {
                let i = (k & pos_mask) as usize;
                full_key(&rows[i], origin[lo + i] as usize)
            };
            for run in keys.chunk_by_mut(|a, b| a >> pos_bits == b >> pos_bits) {
                if run.len() > 1 {
                    run.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
                }
            }
            for key in &mut keys {
                *key &= pos_mask;
            }
            permute(rows, &mut keys);
        }
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
        let mut by_entity: FxHashMap<(Sym, u64, Sym), Vec<&RecordRow>> = FxHashMap::default();
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
        let mut by_entity: FxHashMap<(Sym, u64, Sym), Vec<u64>> = FxHashMap::default();
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

/// Move `rows[from[i]]` to `i` for every `i`, in place: each row moves
/// once, along the cycles of the permutation. `from` is consumed, each
/// visited slot marked by pointing at itself.
fn permute(rows: &mut [RecordRow], from: &mut [u64]) {
    for start in 0..from.len() {
        if from[start] as usize == start {
            continue;
        }
        let held = rows[start];
        let mut at = start;
        loop {
            let next = std::mem::replace(&mut from[at], at as u64) as usize;
            if next == start {
                rows[at] = held;
                break;
            }
            rows[at] = rows[next];
            at = next;
        }
    }
}

/// Count sessions given per-τ-entity access times: one session per
/// entity plus one per inter-access gap of at least `gap_secs`. The
/// single definition of the session-split rule for row-native counting
/// (shared by [`LogTable::count_sessions`] and `DatasetSummary`).
pub(crate) fn count_entity_sessions(
    mut by_entity: FxHashMap<(Sym, u64, Sym), Vec<u64>>,
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
    fn sort_canonical_keeps_empty_and_single_row_tables() {
        let mut empty = LogTable::new();
        empty.sort_canonical();
        assert!(empty.is_empty());
        let one = vec![rec("a", 1, u64::MAX, "/")];
        let mut table = LogTable::from_records(&one);
        table.sort_canonical();
        assert_eq!(table.to_records(), one);
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
    }
}
