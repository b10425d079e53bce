//! K-way merge of canonically sorted row runs.
//!
//! Parallel producers (generation workers, the monitoring daemon's
//! event shards) each emit rows in the canonical order
//! `(timestamp, useragent, ip_hash, uri_path)` — as an in-memory table
//! or as sorted runs spilled to disk. [`merge_runs`] merges any number
//! of such runs into one globally ordered stream of interned
//! [`RecordRow`]s pushed through [`RowSink`]s, holding only one row per
//! run in memory.
//!
//! Runs carry their own interners. The merge gathers every run's
//! strings into one merged [`StringInterner`] whose symbols are
//! interned in byte-lexicographic order, so a merged symbol's index is
//! its global rank. Each row is remapped into that interner through a
//! per-run table as its run yields it, and sinks receive
//! `(&row, &merged)`: heap comparisons are over integers, and no row is
//! ever materialized into owned strings.
//!
//! ## Equivalence to materialize-then-sort
//!
//! The reference pipeline concatenates all runs in run order and
//! stable-sorts. The merge reproduces those bytes exactly: the heap
//! holds at most one entry per run, keyed by the canonical tuple with
//! the run index as the final tiebreak, so rows with equal canonical
//! keys drain in run order — which is exactly where a stable sort of
//! the concatenation would put them.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::io;
use std::sync::Arc;

use crate::codec::DecodeError;
use crate::hash::{FxHashMap, FxHashSet};
use crate::intern::{StringInterner, Sym};
use crate::sink::RowSink;
use crate::stream::RowStream;
use crate::table::{LogTable, RecordRow};
use crate::time::Timestamp;

/// One canonically sorted run of rows plus the interner its symbols
/// belong to.
pub struct MergeRun {
    interner: Arc<StringInterner>,
    source: Source,
}

enum Source {
    Rows(std::vec::IntoIter<RecordRow>),
    Stream(Box<dyn RowStream + Send>),
}

impl MergeRun {
    /// A run backed by an in-memory table. The table is sorted
    /// canonically here; callers need not pre-sort.
    pub fn from_table(mut table: LogTable) -> MergeRun {
        table.sort_canonical();
        let (interner, rows) = table.into_parts();
        MergeRun { interner: Arc::new(interner), source: Source::Rows(rows.into_iter()) }
    }

    /// A run backed by a stream whose rows are **already** in canonical
    /// order and whose symbols are valid in `interner` (which must be
    /// an append-only superset of the stream's own dictionary — e.g.
    /// the final interner of the worker that spilled the run).
    pub fn from_sorted_stream(
        interner: Arc<StringInterner>,
        stream: Box<dyn RowStream + Send>,
    ) -> MergeRun {
        MergeRun { interner, source: Source::Stream(stream) }
    }

    fn next(&mut self) -> Option<Result<RecordRow, DecodeError>> {
        match &mut self.source {
            Source::Rows(rows) => rows.next().map(Ok),
            Source::Stream(stream) => stream.next_row(),
        }
    }
}

/// Merge canonically sorted `runs` into every sink, in the global
/// canonical order with run index as the tiebreak (see module docs for
/// why that reproduces materialize-then-stable-sort byte-for-byte).
/// Every sink sees one merged interner (see module docs). Each row
/// costs one heap sift: the top entry's key is replaced by its run's
/// next key, and an entry leaves the heap only when its run ends. Calls
/// [`RowSink::finish`] on every sink after the last row and returns the
/// number of rows merged. Decode errors from stream-backed runs surface
/// as [`io::ErrorKind::InvalidData`].
pub fn merge_runs(mut runs: Vec<MergeRun>, sinks: &mut [&mut dyn RowSink]) -> io::Result<u64> {
    let obs = botscope_obs::global();
    let _span = obs.span("weblog_merge");
    obs.counter("weblog_merge_runs_total").add(runs.len() as u64);
    let (merged, remaps) = merge_interners(&runs);

    // (timestamp, ua, ip hash, path, run index): merged symbols order
    // exactly like their strings.
    type Key = (Timestamp, Sym, u64, Sym, usize);
    let key_of = |row: &RecordRow, run: usize| -> Key {
        (row.timestamp, row.useragent, row.ip_hash, row.uri_path, run)
    };
    let pull = |runs: &mut [MergeRun], i: usize| -> io::Result<Option<RecordRow>> {
        match runs[i].next() {
            None => Ok(None),
            Some(Err(e)) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            Some(Ok(row)) => Ok(Some(row.map_syms(|sym| remaps[i][sym.index()]))),
        }
    };

    let mut heap: BinaryHeap<Reverse<Key>> = BinaryHeap::with_capacity(runs.len());
    let mut current: Vec<Option<RecordRow>> = runs.iter().map(|_| None).collect();
    for (i, slot) in current.iter_mut().enumerate() {
        if let Some(row) = pull(&mut runs, i)? {
            heap.push(Reverse(key_of(&row, i)));
            *slot = Some(row);
        }
    }

    let mut rows = 0u64;
    while let Some(mut top) = heap.peek_mut() {
        let i = top.0 .4;
        let row = current[i].take().expect("heap entry implies a current row");
        for sink in sinks.iter_mut() {
            sink.write_row(&row, &merged)?;
        }
        rows += 1;
        match pull(&mut runs, i)? {
            Some(next) => {
                *top = Reverse(key_of(&next, i));
                current[i] = Some(next);
            }
            None => drop(PeekMut::pop(top)),
        }
    }
    for sink in sinks.iter_mut() {
        sink.finish()?;
    }
    obs.counter("weblog_merge_rows_total").add(rows);
    Ok(rows)
}

/// The merged interner — every run's strings, interned in
/// byte-lexicographic order so a symbol's index is its global rank —
/// plus one table per run mapping the run's symbol indices to merged
/// symbols. Stream-backed runs must supply their final interner up
/// front (the `from_sorted_stream` contract), which makes the tables
/// total. Runs sharing one `Arc` interner (a spilling worker's runs all
/// do) share one table: per-run cost must not scale with dictionary
/// size, or a wide merge over a large-dictionary unit blows the memory
/// budget.
fn merge_interners(runs: &[MergeRun]) -> (StringInterner, Vec<Arc<Vec<Sym>>>) {
    let mut seen: FxHashSet<*const StringInterner> = FxHashSet::default();
    let mut all: Vec<&str> = Vec::new();
    for run in runs {
        if seen.insert(Arc::as_ptr(&run.interner)) {
            all.extend(run.interner.iter().map(|(_, s)| s));
        }
    }
    all.sort_unstable();
    all.dedup();
    let mut merged = StringInterner::with_capacity(all.len());
    for s in all {
        merged.intern(s);
    }
    let mut tables: FxHashMap<*const StringInterner, Arc<Vec<Sym>>> = FxHashMap::default();
    let remaps = runs
        .iter()
        .map(|run| {
            tables
                .entry(Arc::as_ptr(&run.interner))
                .or_insert_with(|| {
                    Arc::new(
                        run.interner
                            .iter()
                            .map(|(_, s)| merged.get(s).expect("every run string is merged"))
                            .collect(),
                    )
                })
                .clone()
        })
        .collect();
    (merged, remaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AccessRecord;
    use crate::sink::TableSink;

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

    /// The reference: concatenate run record sets in run order, then
    /// stable-sort by the canonical tuple.
    fn reference(runs: &[Vec<AccessRecord>]) -> Vec<AccessRecord> {
        let mut all: Vec<AccessRecord> = runs.iter().flatten().cloned().collect();
        all.sort_by(|a, b| {
            (a.timestamp, &a.useragent, a.ip_hash, &a.uri_path).cmp(&(
                b.timestamp,
                &b.useragent,
                b.ip_hash,
                &b.uri_path,
            ))
        });
        all
    }

    fn run_sets() -> Vec<Vec<AccessRecord>> {
        vec![
            vec![rec("b", 2, 30, "/x"), rec("a", 1, 10, "/y"), rec("a", 1, 10, "/y")],
            vec![rec("a", 1, 10, "/y"), rec("c", 3, 10, "/z")],
            vec![],
            vec![rec("a", 9, 5, "/q"), rec("b", 2, 30, "/x")],
        ]
    }

    #[test]
    fn table_runs_match_reference() {
        let sets = run_sets();
        let runs: Vec<MergeRun> =
            sets.iter().map(|rs| MergeRun::from_table(LogTable::from_records(rs))).collect();
        let mut sink = TableSink::new();
        let mut sinks: Vec<&mut dyn RowSink> = vec![&mut sink];
        let n = merge_runs(runs, &mut sinks).unwrap();
        assert_eq!(n, 7);
        assert_eq!(sink.table.to_records(), reference(&sets));
    }

    #[test]
    fn stream_runs_match_table_runs() {
        let sets = run_sets();
        // Pre-sorted tables behind TableRowStream, interner shared.
        let tables: Vec<LogTable> = sets
            .iter()
            .map(|rs| {
                let mut t = LogTable::from_records(rs);
                t.sort_canonical();
                t
            })
            .collect();
        let mut bins: Vec<Vec<u8>> = Vec::new();
        for t in &tables {
            let mut bytes = Vec::new();
            crate::colfmt::write_table(&mut bytes, t).unwrap();
            bins.push(bytes);
        }
        let runs: Vec<MergeRun> = tables
            .iter()
            .zip(&bins)
            .map(|(t, bytes)| {
                let reader =
                    crate::colfmt::BinReader::new(std::io::Cursor::new(bytes.clone())).unwrap();
                MergeRun::from_sorted_stream(Arc::new(t.interner().clone()), Box::new(reader))
            })
            .collect();
        let mut sink = TableSink::new();
        let mut sinks: Vec<&mut dyn RowSink> = vec![&mut sink];
        merge_runs(runs, &mut sinks).unwrap();
        assert_eq!(sink.table.to_records(), reference(&sets));
    }

    #[test]
    fn raw_stream_runs_sharing_one_interner_match_reference() {
        // The engine's spill shape: one unit interner shared (by Arc)
        // across several runs, each run read back in raw mode so ids
        // pass through as-written. Rank tables are deduplicated per
        // interner; output must still match the reference sort.
        let sets = run_sets();
        let mut unit = LogTable::new();
        let mut bins: Vec<Vec<u8>> = Vec::new();
        for rs in &sets {
            // Each run interns into the same growing unit dictionary,
            // like ShardWriter keeping its interner across flushes.
            let rows: Vec<RecordRow> = rs
                .iter()
                .map(|r| {
                    unit.push_record(r);
                    *unit.rows().last().expect("pushed")
                })
                .collect();
            let mut run = LogTable::from_parts(unit.interner().clone(), rows);
            run.sort_canonical();
            let mut bytes = Vec::new();
            crate::colfmt::write_table(&mut bytes, &run).unwrap();
            bins.push(bytes);
        }
        let shared = Arc::new(unit.interner().clone());
        let runs: Vec<MergeRun> = bins
            .iter()
            .map(|bytes| {
                let reader =
                    crate::colfmt::BinReader::new_raw(std::io::Cursor::new(bytes.clone())).unwrap();
                MergeRun::from_sorted_stream(shared.clone(), Box::new(reader))
            })
            .collect();
        let mut sink = TableSink::new();
        let mut sinks: Vec<&mut dyn RowSink> = vec![&mut sink];
        merge_runs(runs, &mut sinks).unwrap();
        assert_eq!(sink.table.to_records(), reference(&sets));
    }

    #[test]
    fn equal_keys_drain_in_run_order() {
        // Two runs with identical canonical keys but distinguishable
        // payloads: run order must decide.
        let a = vec![AccessRecord { bytes: 111, ..rec("a", 1, 10, "/y") }];
        let b = vec![AccessRecord { bytes: 222, ..rec("a", 1, 10, "/y") }];
        let runs = vec![
            MergeRun::from_table(LogTable::from_records(&a)),
            MergeRun::from_table(LogTable::from_records(&b)),
        ];
        let mut sink = TableSink::new();
        let mut sinks: Vec<&mut dyn RowSink> = vec![&mut sink];
        merge_runs(runs, &mut sinks).unwrap();
        let out = sink.table.to_records();
        assert_eq!(out[0].bytes, 111);
        assert_eq!(out[1].bytes, 222);
    }

    #[test]
    fn empty_input() {
        let mut sink = TableSink::new();
        let mut sinks: Vec<&mut dyn RowSink> = vec![&mut sink];
        assert_eq!(merge_runs(Vec::new(), &mut sinks).unwrap(), 0);
        assert!(sink.table.is_empty());
    }

    #[test]
    fn decode_error_surfaces_as_io_error() {
        let mut table = LogTable::from_records(&[rec("a", 1, 10, "/y")]);
        table.sort_canonical();
        let mut bytes = Vec::new();
        crate::colfmt::write_table(&mut bytes, &table).unwrap();
        bytes.pop(); // drop the end marker
        bytes.truncate(bytes.len().saturating_sub(10)); // cut into the row
        let reader = crate::colfmt::BinReader::new(std::io::Cursor::new(bytes)).unwrap();
        let run =
            MergeRun::from_sorted_stream(Arc::new(table.interner().clone()), Box::new(reader));
        let mut sink = TableSink::new();
        let mut sinks: Vec<&mut dyn RowSink> = vec![&mut sink];
        let e = merge_runs(vec![run], &mut sinks).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn single_table_run_equals_sort() {
        let records = run_sets().concat();
        let runs = vec![MergeRun::from_table(LogTable::from_records(&records))];
        let mut sink = TableSink::new();
        let mut sinks: Vec<&mut dyn RowSink> = vec![&mut sink];
        merge_runs(runs, &mut sinks).unwrap();
        let mut expect = LogTable::from_records(&records);
        expect.sort_canonical();
        assert_eq!(sink.table.to_records(), expect.to_records());
    }

    #[test]
    fn sorted_table_stream_run_matches_table_run() {
        let records = run_sets().concat();
        let mut table = LogTable::from_records(&records);
        table.sort_canonical();
        // Stream-backed run over the same sorted table.
        let bytes = {
            let mut b = Vec::new();
            crate::colfmt::write_table(&mut b, &table).unwrap();
            b
        };
        let reader = crate::colfmt::BinReader::new(std::io::Cursor::new(bytes)).unwrap();
        let stream_run =
            MergeRun::from_sorted_stream(Arc::new(table.interner().clone()), Box::new(reader));
        let table_run = MergeRun::from_table(table.clone());
        let mut a = TableSink::new();
        let mut b = TableSink::new();
        {
            let mut sinks: Vec<&mut dyn RowSink> = vec![&mut a];
            merge_runs(vec![stream_run], &mut sinks).unwrap();
        }
        {
            let mut sinks: Vec<&mut dyn RowSink> = vec![&mut b];
            merge_runs(vec![table_run], &mut sinks).unwrap();
        }
        assert_eq!(a.table.to_records(), b.table.to_records());
    }
}
