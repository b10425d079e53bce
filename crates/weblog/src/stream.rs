//! Row streams: pull-based readers over interned rows.
//!
//! [`RowStream`] is the input-side dual of [`crate::sink::RowSink`]: a
//! source of [`RecordRow`]s whose symbols live in an interner the stream
//! exposes. Consumers that only need one pass (the streaming analysis
//! engine, the k-way merge) can run off any implementation — an
//! in-memory table ([`TableRowStream`]), a CSV file ([`CsvRowStream`]),
//! or the binary format ([`crate::colfmt::BinReader`]) — with memory
//! bounded by the dictionary plus one row. [`prefetch`] runs any stream
//! on a decode thread of its own, a few thousand rows ahead of its
//! consumer.

use std::io::BufRead;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};

use crate::codec::{self, DecodeError};
use crate::colfmt::BinReader;
use crate::intern::StringInterner;
use crate::table::{LogTable, RecordRow};
use crate::time::DayCache;

/// A pull-based source of interned rows.
///
/// The symbols in every yielded row belong to [`RowStream::interner`],
/// which may **grow** between rows (streaming decoders intern strings
/// as they first appear) but never invalidates earlier symbols.
/// Streams fuse: after the first `Err` or the first `None`, every
/// subsequent call returns `None`.
pub trait RowStream {
    /// The next row, `None` at end of stream.
    fn next_row(&mut self) -> Option<Result<RecordRow, DecodeError>>;

    /// The interner the yielded rows' symbols belong to.
    fn interner(&self) -> &StringInterner;
}

/// Streams a CSV document (workspace schema, header required) as
/// interned rows, one line at a time. This is the only CSV decoder:
/// [`codec::decode_table`] and [`codec::decode_table_read`] drain it
/// into a [`LogTable`].
///
/// The format is line-oriented RFC 4180. A line ends at the first `\n`
/// (one `\n` or `\r\n` is stripped; any other `\r` is content), so a
/// quoted field cannot hold a line break. A `"` opens quoting only at
/// the start of a field, and text after the closing quote joins the
/// field (`"a"b` is `ab`); any other `"` outside quotes is an error.
/// Blank lines are skipped but counted in error line numbers.
#[derive(Debug)]
pub struct CsvRowStream<R: BufRead> {
    reader: R,
    interner: StringInterner,
    /// The current line's bytes, terminator stripped.
    line: Vec<u8>,
    fields: Fields,
    day: DayCache,
    /// 1-based number of the last line read (the header is line 1).
    line_no: usize,
    done: bool,
}

impl<R: BufRead> CsvRowStream<R> {
    /// Wrap `reader` and validate the header line.
    pub fn new(reader: R) -> Result<CsvRowStream<R>, DecodeError> {
        let mut stream = CsvRowStream {
            reader,
            interner: StringInterner::new(),
            line: Vec::new(),
            fields: Fields::default(),
            day: DayCache::default(),
            line_no: 1,
            done: false,
        };
        match read_line(&mut stream.reader, &mut stream.line, 1)? {
            None => stream.done = true, // empty input is an empty dataset
            Some(codec::HEADER) => {}
            Some(line) => {
                return Err(DecodeError { line: 1, message: format!("unexpected header {line:?}") })
            }
        }
        Ok(stream)
    }

    /// Consume the stream, returning its interner.
    pub fn into_interner(self) -> StringInterner {
        self.interner
    }

    /// The next non-blank line's row, `None` at end of input.
    fn decode_next(&mut self) -> Result<Option<RecordRow>, DecodeError> {
        loop {
            self.line_no += 1;
            match read_line(&mut self.reader, &mut self.line, self.line_no)? {
                None => return Ok(None),
                Some("") => {}
                Some(line) => {
                    let err = |message| DecodeError { line: self.line_no, message };
                    return decode_row(line, &mut self.fields, &mut self.day, &mut self.interner)
                        .map(Some)
                        .map_err(err);
                }
            }
        }
    }
}

/// Read one line into `buf` and strip exactly one `\n` or `\r\n`;
/// `None` at end of input.
fn read_line<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
    line_no: usize,
) -> Result<Option<&'b str>, DecodeError> {
    let err = |message| DecodeError { line: line_no, message };
    buf.clear();
    if reader.read_until(b'\n', buf).map_err(|e| err(format!("read failed: {e}")))? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    match std::str::from_utf8(buf) {
        Ok(line) => Ok(Some(line)),
        Err(_) => Err(err("read failed: stream did not contain valid UTF-8".into())),
    }
}

/// Decode one body line into a row, interning its strings in field
/// order. A quoting error anywhere on the line wins over the field
/// count, and field errors are checked left to right.
fn decode_row(
    line: &str,
    fields: &mut Fields,
    day: &mut DayCache,
    interner: &mut StringInterner,
) -> Result<RecordRow, String> {
    fields.split(line)?;
    if fields.spans.len() != 9 {
        return Err(format!("expected 9 fields, got {}", fields.spans.len()));
    }
    let f = |i| fields.get(line, i);
    let timestamp = day.parse(f(1)).map_err(|e| e.to_string())?;
    let ip_hash = parse_u64(f(2), 16).ok_or_else(|| format!("bad ip_hash {:?}", f(2)))?;
    let status = parse_u64(f(6), 10)
        .and_then(|n| u16::try_from(n).ok())
        .ok_or_else(|| format!("bad status {:?}", f(6)))?;
    let bytes = parse_u64(f(7), 10).ok_or_else(|| format!("bad bytes {:?}", f(7)))?;
    Ok(RecordRow {
        useragent: interner.intern(f(0)),
        asn: interner.intern(f(3)),
        sitename: interner.intern(f(4)),
        uri_path: interner.intern(f(5)),
        referer: Some(f(8)).filter(|r| !r.is_empty()).map(|r| interner.intern(r)),
        timestamp,
        ip_hash,
        bytes,
        status,
    })
}

/// `u64::from_str_radix(s, radix)` (`radix` ≤ 16) in one fold: an
/// optional leading `+`, then at least one digit, `None` on overflow.
fn parse_u64(s: &str, radix: u32) -> Option<u64> {
    let digits = s.strip_prefix('+').unwrap_or(s).as_bytes();
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &c| {
        let digit = char::from(c).to_digit(radix)?;
        n.checked_mul(u64::from(radix))?.checked_add(u64::from(digit))
    })
}

/// Where one field's text lives.
#[derive(Debug, Clone, Copy)]
enum Span {
    /// `line[start..end]`.
    Line(usize, usize),
    /// `Fields::joined[start..end]`: a quoted field that is not one
    /// slice of the line, because it holds a `""` or text follows its
    /// closing quote.
    Joined(usize, usize),
}

/// The fields of one line, reused from line to line.
#[derive(Debug, Default)]
struct Fields {
    spans: Vec<Span>,
    joined: String,
}

impl Fields {
    /// Split the whole of `line` into fields.
    fn split(&mut self, line: &str) -> Result<(), String> {
        self.spans.clear();
        self.joined.clear();
        let mut start = 0;
        loop {
            let end = self.push_field(line, start)?;
            if end == line.len() {
                return Ok(());
            }
            start = end + 1;
        }
    }

    /// Add the field that starts at `line[start..]`; return the index of
    /// the comma that ends it, or `line.len()`.
    fn push_field(&mut self, line: &str, start: usize) -> Result<usize, String> {
        let b = line.as_bytes();
        // Unquoted text runs to the next comma and may hold no quote.
        let unquoted_end =
            |from: usize| match b[from..].iter().position(|&c| matches!(c, b',' | b'"')) {
                None => Ok(b.len()),
                Some(i) if b[from + i] == b',' => Ok(from + i),
                Some(_) => Err("stray quote inside unquoted field".to_string()),
            };
        if b.get(start) != Some(&b'"') {
            let end = unquoted_end(start)?;
            self.spans.push(Span::Line(start, end));
            return Ok(end);
        }
        // The quoted part runs to the first `"` that is not doubled;
        // each `""` inside it is one literal quote.
        let mut from = start + 1;
        let mut joined_at = None;
        let close = loop {
            let Some(i) = b[from..].iter().position(|&c| c == b'"') else {
                return Err("unterminated quoted field".into());
            };
            let quote = from + i;
            if b.get(quote + 1) != Some(&b'"') {
                break quote;
            }
            joined_at.get_or_insert(self.joined.len());
            self.joined.push_str(&line[from..=quote]);
            from = quote + 2;
        };
        let end = unquoted_end(close + 1)?;
        if joined_at.is_none() && end == close + 1 {
            self.spans.push(Span::Line(start + 1, close));
            return Ok(end);
        }
        let at = joined_at.unwrap_or(self.joined.len());
        self.joined.push_str(&line[from..close]);
        self.joined.push_str(&line[close + 1..end]);
        self.spans.push(Span::Joined(at, self.joined.len()));
        Ok(end)
    }

    /// The text of field `i` of `line`.
    fn get<'a>(&'a self, line: &'a str, i: usize) -> &'a str {
        match self.spans[i] {
            Span::Line(start, end) => &line[start..end],
            Span::Joined(start, end) => &self.joined[start..end],
        }
    }
}

impl<R: BufRead> RowStream for CsvRowStream<R> {
    fn next_row(&mut self) -> Option<Result<RecordRow, DecodeError>> {
        if self.done {
            return None;
        }
        let next = self.decode_next().transpose();
        self.done = !matches!(next, Some(Ok(_)));
        next
    }

    fn interner(&self) -> &StringInterner {
        &self.interner
    }
}

impl<R: BufRead> RowStream for BinReader<R> {
    fn next_row(&mut self) -> Option<Result<RecordRow, DecodeError>> {
        BinReader::next_row(self)
    }

    fn interner(&self) -> &StringInterner {
        BinReader::interner(self)
    }
}

/// Streams an in-memory [`LogTable`]'s rows — the equivalence anchor
/// for stream-vs-table tests, and the adapter that lets streaming
/// consumers run over materialized data.
#[derive(Debug)]
pub struct TableRowStream<'t> {
    table: &'t LogTable,
    next: usize,
}

impl<'t> TableRowStream<'t> {
    /// Stream `table`'s rows in table order.
    pub fn new(table: &'t LogTable) -> TableRowStream<'t> {
        TableRowStream { table, next: 0 }
    }
}

impl RowStream for TableRowStream<'_> {
    fn next_row(&mut self) -> Option<Result<RecordRow, DecodeError>> {
        let row = self.table.rows().get(self.next)?;
        self.next += 1;
        Some(Ok(*row))
    }

    fn interner(&self) -> &StringInterner {
        self.table.interner()
    }
}

/// Rows per batch that [`prefetch`]'s decode thread hands over.
pub const PREFETCH_ROWS: usize = 4096;

/// Full batches that may wait between [`prefetch`]'s decode thread and
/// its consumer. With the batch the decode thread fills and the one the
/// consumer reads, at most `PREFETCH_DEPTH + 2` batches exist.
const PREFETCH_DEPTH: usize = 2;

/// One hand-off from [`prefetch`]'s decode thread.
#[derive(Debug, Default)]
struct Batch {
    /// The strings the stream's interner gained up to the last of `rows`,
    /// concatenated; `ends[i]` is where the `i`-th ends.
    text: String,
    ends: Vec<usize>,
    rows: Vec<RecordRow>,
    /// `None` while more batches follow; `Some(None)` when the stream
    /// ended after `rows`, `Some(Some(e))` when it failed with `e`.
    end: Option<Option<DecodeError>>,
}

/// Run `f` over `stream`, decoding on a helper thread when `threads` is
/// 2 or more.
///
/// With `threads` ≥ 2, one scoped thread drains `stream` into batches of
/// [`PREFETCH_ROWS`] rows, each carrying the strings the stream's
/// interner gained since the batch before; at most four batches exist at
/// once and they are recycled, so memory stays bounded. `f` reads a
/// stream that re-interns those strings in order, so it sees the same
/// symbols, the same rows, the same interner contents in id order and
/// the same first error as it would reading `stream` itself. If `f`
/// returns before the end, the helper stops at its next batch. With
/// `threads` ≤ 1, `f` reads `stream` directly and no thread starts.
pub fn prefetch<S, T>(mut stream: S, threads: usize, f: impl FnOnce(&mut dyn RowStream) -> T) -> T
where
    S: RowStream + Send,
{
    if threads <= 1 {
        return f(&mut stream);
    }
    decode_ahead_of(stream, f).0
}

/// [`prefetch`] on a helper thread; also returns how many batches the
/// helper made.
fn decode_ahead_of<S, T>(stream: S, f: impl FnOnce(&mut dyn RowStream) -> T) -> (T, usize)
where
    S: RowStream + Send,
{
    std::thread::scope(|scope| {
        let (full_tx, full) = mpsc::sync_channel(PREFETCH_DEPTH);
        let (free, free_rx) = mpsc::channel();
        let helper = scope.spawn(move || decode_ahead(stream, &full_tx, &free_rx));
        let Ok(batch) = full.recv() else {
            // The helper sends until the stream's end unless it panicked.
            std::panic::resume_unwind(helper.join().expect_err("the decode thread panicked"));
        };
        let mut rows =
            Prefetched { full, free, batch, at: 0, interner: StringInterner::new(), done: false };
        rows.intern_batch();
        let out = f(&mut rows);
        drop(rows);
        (out, helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
    })
}

/// The decode thread of [`prefetch`]: fill batches from `stream` (taking
/// spent ones back from `free` before making new ones) until the stream
/// ends or the consumer hangs up. Returns how many batches it made.
fn decode_ahead<S: RowStream>(
    mut stream: S,
    full: &SyncSender<Batch>,
    free: &Receiver<Batch>,
) -> usize {
    let mut made = 0;
    let mut sent_strings = 0;
    loop {
        let mut batch = free.try_recv().unwrap_or_else(|_| {
            made += 1;
            Batch { rows: Vec::with_capacity(PREFETCH_ROWS), ..Batch::default() }
        });
        batch.text.clear();
        batch.ends.clear();
        batch.rows.clear();
        while batch.end.is_none() && batch.rows.len() < PREFETCH_ROWS {
            match stream.next_row() {
                Some(Ok(row)) => batch.rows.push(row),
                end => batch.end = Some(end.map(|e| e.expect_err("not a row"))),
            }
        }
        let interner = stream.interner();
        for (_, s) in interner.iter_from(sent_strings) {
            batch.text.push_str(s);
            batch.ends.push(batch.text.len());
        }
        sent_strings = interner.len();
        let last = batch.end.is_some();
        if full.send(batch).is_err() || last {
            return made;
        }
    }
}

/// The consumer side of [`prefetch`]: the decode thread's batches, read
/// as one stream.
struct Prefetched {
    full: Receiver<Batch>,
    free: Sender<Batch>,
    batch: Batch,
    /// The next row of `batch` to yield.
    at: usize,
    interner: StringInterner,
    done: bool,
}

impl Prefetched {
    /// Intern the strings `batch` carries, in order: they get the ids
    /// they had in the decode thread's interner.
    fn intern_batch(&mut self) {
        let mut start = 0;
        for &end in &self.batch.ends {
            let sym = self.interner.intern(&self.batch.text[start..end]);
            debug_assert_eq!(sym.index() + 1, self.interner.len(), "a string arrived twice");
            start = end;
        }
    }
}

impl RowStream for Prefetched {
    fn next_row(&mut self) -> Option<Result<RecordRow, DecodeError>> {
        loop {
            if let Some(&row) = self.batch.rows.get(self.at) {
                self.at += 1;
                return Some(Ok(row));
            }
            if let Some(end) = self.batch.end.take() {
                self.done = true;
                return end.map(Err);
            }
            if self.done {
                return None;
            }
            // Hand the spent batch back before taking the next, so the
            // consumer never holds two. The decode thread may have
            // stopped already; then the batch is simply dropped.
            let _ = self.free.send(std::mem::take(&mut self.batch));
            self.batch = self.full.recv().expect("the decode thread sends its stream's end");
            self.at = 0;
            self.intern_batch();
        }
    }

    fn interner(&self) -> &StringInterner {
        &self.interner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AccessRecord;
    use crate::time::Timestamp;

    fn sample(i: u64) -> AccessRecord {
        AccessRecord {
            useragent: format!("bot/{}", i % 2),
            timestamp: Timestamp::from_unix(5_000 + i),
            ip_hash: i,
            asn: "GOOGLE".into(),
            sitename: "site-00.example.edu".into(),
            uri_path: format!("/p/{i}"),
            status: 200,
            bytes: 64,
            referer: None,
        }
    }

    #[test]
    fn parse_u64_agrees_with_from_str_radix() {
        for s in [
            "",
            "+",
            "++1",
            "-1",
            "-0",
            "0",
            "+0",
            "7",
            " 1",
            "1 ",
            "1_0",
            "é",
            "0x1",
            "FfE",
            "fFe",
            "g",
            "ffffffffffffffff",
            "10000000000000000",
            "00000000000000000000001",
            "18446744073709551615",
            "18446744073709551616",
            "65535",
            "65536",
            "+65535",
        ] {
            for radix in [10, 16] {
                assert_eq!(
                    parse_u64(s, radix),
                    u64::from_str_radix(s, radix).ok(),
                    "{s:?} base {radix}"
                );
            }
        }
    }

    fn drain(stream: &mut dyn RowStream) -> Vec<AccessRecord> {
        let mut out = Vec::new();
        while let Some(row) = stream.next_row() {
            let row = row.expect("valid row");
            let i = stream.interner();
            out.push(AccessRecord {
                useragent: i.resolve(row.useragent).to_string(),
                timestamp: row.timestamp,
                ip_hash: row.ip_hash,
                asn: i.resolve(row.asn).to_string(),
                sitename: i.resolve(row.sitename).to_string(),
                uri_path: i.resolve(row.uri_path).to_string(),
                status: row.status,
                bytes: row.bytes,
                referer: row.referer.map(|s| i.resolve(s).to_string()),
            });
        }
        out
    }

    #[test]
    fn csv_stream_matches_decode() {
        let records: Vec<AccessRecord> = (0..7).map(sample).collect();
        let text = codec::encode_table(&LogTable::from_records(&records));
        let mut s = CsvRowStream::new(text.as_bytes()).unwrap();
        assert_eq!(drain(&mut s), records);
        assert!(s.next_row().is_none());
    }

    #[test]
    fn csv_stream_empty_input() {
        let mut s = CsvRowStream::new(&b""[..]).unwrap();
        assert!(s.next_row().is_none());
    }

    #[test]
    fn csv_stream_rejects_bad_header() {
        let e = CsvRowStream::new(&b"nope\n"[..]).unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn csv_stream_error_line_numbers_and_fusing() {
        let text = format!("{}\nonly,three,fields\n", codec::HEADER);
        let mut s = CsvRowStream::new(text.as_bytes()).unwrap();
        let e = s.next_row().unwrap().unwrap_err();
        assert_eq!(e.line, 2);
        assert!(s.next_row().is_none());
    }

    #[test]
    fn table_stream_yields_raw_rows() {
        let records: Vec<AccessRecord> = (0..4).map(sample).collect();
        let table = LogTable::from_records(&records);
        let mut s = TableRowStream::new(&table);
        assert_eq!(drain(&mut s), records);
    }

    /// A stream of `n` copies of one row over a growing interner (one new
    /// string every 1,000 rows), noting the thread of every call.
    struct Traced {
        row: RecordRow,
        left: usize,
        interner: StringInterner,
        threads: std::sync::Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>,
    }

    impl Traced {
        fn new(n: usize) -> Traced {
            let table = LogTable::from_records(&[sample(0)]);
            Traced {
                row: table.rows()[0],
                left: n,
                interner: table.interner().clone(),
                threads: Default::default(),
            }
        }
    }

    impl RowStream for Traced {
        fn next_row(&mut self) -> Option<Result<RecordRow, DecodeError>> {
            self.threads.lock().unwrap().push(std::thread::current().id());
            self.left = self.left.checked_sub(1)?;
            if self.left.is_multiple_of(1000) {
                self.interner.intern(&format!("/grown/{}", self.left));
            }
            Some(Ok(self.row))
        }

        fn interner(&self) -> &StringInterner {
            &self.interner
        }
    }

    #[test]
    fn prefetch_runs_the_stream_on_one_helper_only_from_two_threads() {
        let me = std::thread::current().id();
        for threads in [0, 1, 2, 8] {
            let stream = Traced::new(3 * PREFETCH_ROWS + 5);
            let log = std::sync::Arc::clone(&stream.threads);
            let (rows, strings) = prefetch(stream, threads, |s| {
                let mut n = 0;
                while let Some(row) = s.next_row() {
                    row.expect("a row");
                    n += 1;
                }
                (n, s.interner().len())
            });
            assert_eq!((rows, strings), (3 * PREFETCH_ROWS + 5, 4 + 13), "{threads} threads");
            let mut seen = log.lock().unwrap().clone();
            seen.dedup();
            if threads <= 1 {
                assert_eq!(seen, [me], "{threads} threads: no helper");
            } else {
                assert_eq!(seen.len(), 1, "{threads} threads: one helper");
                assert_ne!(seen[0], me, "{threads} threads: the helper decodes");
            }
        }
    }

    #[test]
    fn prefetch_holds_at_most_four_batches_behind_a_slow_consumer() {
        let (rows, made) = decode_ahead_of(Traced::new(20 * PREFETCH_ROWS), |s| {
            let mut n = 0usize;
            while let Some(row) = s.next_row() {
                row.expect("a row");
                n += 1;
                if n.is_multiple_of(PREFETCH_ROWS) {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            n
        });
        assert_eq!(rows, 20 * PREFETCH_ROWS);
        assert!((1..=PREFETCH_DEPTH + 2).contains(&made), "{made} batches");
    }

    #[test]
    fn prefetch_stops_the_helper_when_the_consumer_quits() {
        let (first, made) = decode_ahead_of(Traced::new(50 * PREFETCH_ROWS), |s| {
            s.next_row().expect("a row").expect("not an error")
        });
        assert_eq!(first.status, 200);
        assert!(made <= PREFETCH_DEPTH + 2, "{made} batches");
    }

    #[test]
    fn bin_reader_is_a_row_stream() {
        let records: Vec<AccessRecord> = (0..4).map(sample).collect();
        let table = LogTable::from_records(&records);
        let mut bytes = Vec::new();
        crate::colfmt::write_table(&mut bytes, &table).unwrap();
        let mut s = BinReader::new(&bytes[..]).unwrap();
        assert_eq!(drain(&mut s), records);
    }
}
