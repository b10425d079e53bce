//! K-way merge of canonically sorted row runs.
//!
//! Parallel producers (generation workers, the monitoring daemon's
//! event shards) each emit rows in the canonical order
//! `(timestamp, useragent, ip_hash, uri_path)` — as an in-memory table
//! or as sorted runs spilled to disk. [`MergeStream`] merges any number
//! of such runs into one globally ordered [`RowStream`] of interned
//! [`RecordRow`]s, holding only one row per run in memory, and
//! [`merge_runs`] drains it into [`RowSink`]s. With 2 or more threads
//! the merge — run decoding, heap and remap — runs on
//! [`prefetch`]'s helper thread, in 4,096-row batches, while the sinks
//! encode and write on the calling thread; with 1 no thread starts.
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
//! the concatenation would put them. [`prefetch`] hands its consumer
//! the same rows, interner and first error as the stream itself, so the
//! thread count changes no byte.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::sync::Arc;

use crate::codec::DecodeError;
use crate::hash::FxHashMap;
use crate::intern::{StringInterner, Sym};
use crate::sink::RowSink;
use crate::stream::{prefetch, RowStream};
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

/// (timestamp, ua, ip hash, path, run index): merged symbols order
/// exactly like their strings.
type Key = (Timestamp, Sym, u64, Sym, usize);

/// The k-way merge of canonically sorted runs as a [`RowStream`]: rows
/// come out in the global canonical order with the run index as the
/// tiebreak (see module docs for why that reproduces
/// materialize-then-stable-sort byte-for-byte), their symbols in the
/// merged interner, which is complete before the first row. Each row
/// costs one heap sift: the top entry's key is replaced by its run's
/// next key, and an entry leaves the heap only when its run ends. A
/// run's next row is pulled when the stream is asked for the row after
/// the one it replaces, so a decode error surfaces exactly where a
/// row-at-a-time consumer would meet it.
pub struct MergeStream {
    runs: Vec<MergeRun>,
    remaps: Vec<Arc<Vec<Sym>>>,
    merged: StringInterner,
    heap: BinaryHeap<Reverse<Key>>,
    /// Each run's row behind its heap entry.
    current: Vec<Option<RecordRow>>,
    /// The run whose row was yielded last, to be pulled before the next
    /// row is chosen.
    yielded: Option<usize>,
    /// Whether every run's first row has been pulled.
    primed: bool,
}

impl MergeStream {
    /// Merge `runs` in the given order (the order that breaks ties).
    /// Builds the merged interner here; rows are pulled only when the
    /// stream is read.
    pub fn new(runs: Vec<MergeRun>) -> MergeStream {
        let (merged, remaps) = merge_interners(&runs);
        MergeStream {
            heap: BinaryHeap::with_capacity(runs.len()),
            current: runs.iter().map(|_| None).collect(),
            runs,
            remaps,
            merged,
            yielded: None,
            primed: false,
        }
    }

    /// Run `i`'s next row, remapped into the merged interner.
    #[inline]
    fn pull(&mut self, i: usize) -> Result<Option<RecordRow>, DecodeError> {
        let remap = &self.remaps[i];
        self.runs[i]
            .next()
            .transpose()
            .map(|row| row.map(|row| row.map_syms(|sym| remap[sym.index()])))
    }

    /// Put every run's first row on the heap.
    #[cold]
    fn prime(&mut self) -> Result<(), DecodeError> {
        self.primed = true;
        for i in 0..self.runs.len() {
            if let Some(row) = self.pull(i)? {
                self.heap.push(Reverse(key_of(&row, i)));
                self.current[i] = Some(row);
            }
        }
        Ok(())
    }

    /// Replace the entry of run `i`, yielded last and still on top of
    /// the heap, by the run's next row, or drop it when the run has ended.
    #[inline]
    fn refill(&mut self, i: usize) -> Result<(), DecodeError> {
        match self.pull(i)? {
            Some(next) => {
                *self.heap.peek_mut().expect("the yielded run's entry") = Reverse(key_of(&next, i));
                self.current[i] = Some(next);
            }
            None => drop(self.heap.pop()),
        }
        Ok(())
    }
}

fn key_of(row: &RecordRow, run: usize) -> Key {
    (row.timestamp, row.useragent, row.ip_hash, row.uri_path, run)
}

impl RowStream for MergeStream {
    // Inlined into the one-thread drain: a call per row measured ~1 ms
    // at paper scale.
    #[inline(always)]
    fn next_row(&mut self) -> Option<Result<RecordRow, DecodeError>> {
        let moved = match self.yielded.take() {
            Some(i) => self.refill(i),
            None if !self.primed => self.prime(),
            None => Ok(()),
        };
        if let Err(e) = moved {
            // Nothing follows an error: an empty heap ends the stream.
            self.heap.clear();
            return Some(Err(e));
        }
        let &Reverse((.., i)) = self.heap.peek()?;
        self.yielded = Some(i);
        Some(Ok(self.current[i].take().expect("heap entry implies a current row")))
    }

    fn interner(&self) -> &StringInterner {
        &self.merged
    }
}

/// Merge canonically sorted `runs` into every sink in [`MergeStream`]'s
/// order, every sink seeing the one merged interner. With `threads` ≥ 2
/// the merge runs on [`prefetch`]'s helper thread while the sinks run
/// on this one; with `threads` ≤ 1 no thread starts. Calls
/// [`RowSink::finish`] on every sink after the last row and returns the
/// number of rows merged. Decode errors from stream-backed runs surface
/// as [`io::ErrorKind::InvalidData`]; the first failing sink stops the
/// merge at its row.
pub fn merge_runs(
    runs: Vec<MergeRun>,
    threads: usize,
    sinks: &mut [&mut dyn RowSink],
) -> io::Result<u64> {
    let obs = botscope_obs::global();
    let _span = obs.span("weblog_merge");
    obs.counter("weblog_merge_runs_total").add(runs.len() as u64);
    let mut merge = MergeStream::new(runs);
    // One thread drains the merge itself: through `prefetch`'s
    // `&mut dyn RowStream` every row would cost a virtual call.
    let rows = if threads <= 1 {
        drain(&mut merge, sinks)
    } else {
        prefetch(merge, threads, |rows| drain(rows, sinks))
    }?;
    for sink in sinks.iter_mut() {
        sink.finish()?;
    }
    obs.counter("weblog_merge_rows_total").add(rows);
    Ok(rows)
}

/// Write every row of `rows` into every sink; returns the row count.
fn drain<S: RowStream + ?Sized>(rows: &mut S, sinks: &mut [&mut dyn RowSink]) -> io::Result<u64> {
    let mut n = 0u64;
    while let Some(row) = rows.next_row() {
        let row = row.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let merged = rows.interner();
        for sink in sinks.iter_mut() {
            sink.write_row(&row, merged)?;
        }
        n += 1;
    }
    Ok(n)
}

/// The merged interner — every run's strings, interned in
/// byte-lexicographic order so a symbol's index is its global rank —
/// plus one table per run mapping the run's symbol indices to merged
/// symbols. Stream-backed runs must supply their final interner up
/// front (the `from_sorted_stream` contract), which makes the tables
/// total. Runs sharing one `Arc` interner (a spilling worker's runs all
/// do) share one table: per-run cost must not scale with dictionary
/// size, or a wide merge over a large-dictionary unit blows the memory
/// budget. Strings repeat across interners (every unit knows the site
/// names), so they are deduplicated by hash first and only the distinct
/// ones are sorted.
fn merge_interners(runs: &[MergeRun]) -> (StringInterner, Vec<Arc<Vec<Sym>>>) {
    // Each distinct interner once, its strings as indices into
    // `distinct`; `table_of[run]` names the run's interner.
    let mut ids: FxHashMap<&str, usize> = FxHashMap::default();
    let mut distinct: Vec<&str> = Vec::new();
    let mut seen: FxHashMap<*const StringInterner, usize> = FxHashMap::default();
    let mut locals: Vec<Vec<usize>> = Vec::new();
    let table_of: Vec<usize> = runs
        .iter()
        .map(|run| {
            *seen.entry(Arc::as_ptr(&run.interner)).or_insert_with(|| {
                let local = run.interner.iter().map(|(_, s)| {
                    *ids.entry(s).or_insert_with(|| {
                        distinct.push(s);
                        distinct.len() - 1
                    })
                });
                locals.push(local.collect());
                locals.len() - 1
            })
        })
        .collect();
    let mut order: Vec<usize> = (0..distinct.len()).collect();
    order.sort_unstable_by_key(|&d| distinct[d]);
    let mut merged = StringInterner::with_capacity(distinct.len());
    let mut sym_of: Vec<Option<Sym>> = vec![None; distinct.len()];
    for d in order {
        sym_of[d] = Some(merged.intern(distinct[d]));
    }
    let tables: Vec<Arc<Vec<Sym>>> = locals
        .iter()
        .map(|local| Arc::new(local.iter().map(|&d| sym_of[d].expect("sorted in")).collect()))
        .collect();
    (merged, table_of.iter().map(|&t| Arc::clone(&tables[t])).collect())
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
        for threads in [1, 2] {
            let runs: Vec<MergeRun> =
                sets.iter().map(|rs| MergeRun::from_table(LogTable::from_records(rs))).collect();
            let mut sink = TableSink::new();
            let mut sinks: Vec<&mut dyn RowSink> = vec![&mut sink];
            let n = merge_runs(runs, threads, &mut sinks).unwrap();
            assert_eq!(n, 7, "{threads} threads");
            assert_eq!(sink.table.to_records(), reference(&sets), "{threads} threads");
        }
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
        merge_runs(runs, 1, &mut sinks).unwrap();
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
        for threads in [1, 2] {
            let mut sink = TableSink::new();
            let mut sinks: Vec<&mut dyn RowSink> = vec![&mut sink];
            merge_runs(raw_runs(&shared, &bins), threads, &mut sinks).unwrap();
            assert_eq!(sink.table.to_records(), reference(&sets), "{threads} threads");
        }
    }

    /// One raw-mode stream run per BSCL byte string, all sharing
    /// `interner`.
    fn raw_runs(interner: &Arc<StringInterner>, bins: &[Vec<u8>]) -> Vec<MergeRun> {
        bins.iter()
            .map(|bytes| {
                let reader =
                    crate::colfmt::BinReader::new_raw(std::io::Cursor::new(bytes.clone())).unwrap();
                MergeRun::from_sorted_stream(Arc::clone(interner), Box::new(reader))
            })
            .collect()
    }

    /// Three interleaved 3,000-row runs over one interner, as BSCL, the
    /// second cut to half its length when `cut` is set: its decode error
    /// comes more than one prefetch batch into the merge.
    fn wide_runs(cut: bool) -> (Arc<StringInterner>, Vec<Vec<u8>>) {
        let mut unit = LogTable::new();
        let runs: Vec<Vec<RecordRow>> = (0..3u64)
            .map(|run| {
                (0..3_000u64)
                    .map(|k| {
                        unit.push_record(&rec("a", run, 3 * k + run, &format!("/p/{}", k % 50)));
                        *unit.rows().last().expect("pushed")
                    })
                    .collect()
            })
            .collect();
        let bins = runs
            .into_iter()
            .enumerate()
            .map(|(i, rows)| {
                let mut bytes = Vec::new();
                let run = LogTable::from_parts(unit.interner().clone(), rows);
                crate::colfmt::write_table(&mut bytes, &run).unwrap();
                if cut && i == 1 {
                    bytes.truncate(bytes.len() / 2);
                }
                bytes
            })
            .collect();
        (Arc::new(unit.interner().clone()), bins)
    }

    /// Counts rows and fails the row after `fail_at` rows.
    struct Counter {
        rows: u64,
        fail_at: Option<u64>,
    }

    impl RowSink for Counter {
        fn write_row(&mut self, _: &RecordRow, _: &StringInterner) -> io::Result<()> {
            if Some(self.rows) == self.fail_at {
                return Err(io::Error::other("sink full"));
            }
            self.rows += 1;
            Ok(())
        }
    }

    /// The rows a [`Counter`] saw and the merge's result, at `threads`.
    fn count_merge(
        runs: Vec<MergeRun>,
        threads: usize,
        fail_at: Option<u64>,
    ) -> (u64, Result<u64, String>) {
        let mut counter = Counter { rows: 0, fail_at };
        let out = merge_runs(runs, threads, &mut [&mut counter])
            .map_err(|e| format!("{:?}: {e}", e.kind()));
        (counter.rows, out)
    }

    #[test]
    fn mid_merge_decode_error_is_the_same_at_two_threads() {
        let (interner, bins) = wide_runs(true);
        let serial = count_merge(raw_runs(&interner, &bins), 1, None);
        assert!(serial.0 > crate::stream::PREFETCH_ROWS as u64, "{serial:?}");
        let err = serial.1.clone().unwrap_err();
        assert!(err.starts_with("InvalidData: "), "{err}");
        assert_eq!(count_merge(raw_runs(&interner, &bins), 2, None), serial);
    }

    #[test]
    fn merge_stream_fuses_after_an_error() {
        let (interner, bins) = wide_runs(true);
        let mut merge = MergeStream::new(raw_runs(&interner, &bins));
        let mut rows = 0u64;
        while merge.next_row().expect("an error before the end").is_ok() {
            rows += 1;
        }
        assert_eq!(rows, count_merge(raw_runs(&interner, &bins), 1, None).0);
        assert!(merge.next_row().is_none());
        assert!(merge.next_row().is_none());
    }

    #[test]
    fn failing_sink_stops_at_the_same_row_at_two_threads() {
        let (interner, bins) = wide_runs(false);
        assert_eq!(count_merge(raw_runs(&interner, &bins), 1, None), (9_000, Ok(9_000)));
        for fail_at in [0, 1, 4_096, 5_000, 8_999] {
            let serial = count_merge(raw_runs(&interner, &bins), 1, Some(fail_at));
            assert_eq!(serial, (fail_at, Err("Other: sink full".into())));
            assert_eq!(count_merge(raw_runs(&interner, &bins), 2, Some(fail_at)), serial);
        }
    }

    #[test]
    fn equal_keys_drain_in_run_order() {
        // Two runs with identical canonical keys but distinguishable
        // payloads: run order must decide.
        let a = vec![AccessRecord { bytes: 111, ..rec("a", 1, 10, "/y") }];
        let b = vec![AccessRecord { bytes: 222, ..rec("a", 1, 10, "/y") }];
        for threads in [1, 2] {
            let runs = vec![
                MergeRun::from_table(LogTable::from_records(&a)),
                MergeRun::from_table(LogTable::from_records(&b)),
            ];
            let mut sink = TableSink::new();
            let mut sinks: Vec<&mut dyn RowSink> = vec![&mut sink];
            merge_runs(runs, threads, &mut sinks).unwrap();
            let out = sink.table.to_records();
            assert_eq!((out[0].bytes, out[1].bytes), (111, 222), "{threads} threads");
        }
    }

    #[test]
    fn empty_input() {
        for threads in [1, 2] {
            let mut sink = TableSink::new();
            let mut sinks: Vec<&mut dyn RowSink> = vec![&mut sink];
            assert_eq!(merge_runs(Vec::new(), threads, &mut sinks).unwrap(), 0);
            assert!(sink.table.is_empty());
        }
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
        let e = merge_runs(vec![run], 1, &mut sinks).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn single_table_run_equals_sort() {
        let records = run_sets().concat();
        let runs = vec![MergeRun::from_table(LogTable::from_records(&records))];
        let mut sink = TableSink::new();
        let mut sinks: Vec<&mut dyn RowSink> = vec![&mut sink];
        merge_runs(runs, 1, &mut sinks).unwrap();
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
            merge_runs(vec![stream_run], 1, &mut sinks).unwrap();
        }
        {
            let mut sinks: Vec<&mut dyn RowSink> = vec![&mut b];
            merge_runs(vec![table_run], 1, &mut sinks).unwrap();
        }
        assert_eq!(a.table.to_records(), b.table.to_records());
    }
}
