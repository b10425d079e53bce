//! Row streams: pull-based readers over interned rows.
//!
//! [`RowStream`] is the input-side dual of [`crate::sink::RowSink`]: a
//! source of [`RecordRow`]s whose symbols live in an interner the stream
//! exposes. Consumers that only need one pass (the streaming analysis
//! engine, the k-way merge) can run off any implementation — an
//! in-memory table ([`TableRowStream`]), a CSV file ([`CsvRowStream`]),
//! or the binary format ([`crate::colfmt::BinReader`]) — with memory
//! bounded by the dictionary plus one row.

use std::io::BufRead;

use crate::codec::{self, DecodeError};
use crate::colfmt::BinReader;
use crate::intern::StringInterner;
use crate::table::{LogTable, RecordRow};
use crate::time::Timestamp;

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
                    return decode_row(line, &mut self.fields, &mut self.interner)
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
    interner: &mut StringInterner,
) -> Result<RecordRow, String> {
    fields.split(line)?;
    if fields.spans.len() != 9 {
        return Err(format!("expected 9 fields, got {}", fields.spans.len()));
    }
    let f = |i| fields.get(line, i);
    let timestamp = Timestamp::parse_iso8601(f(1)).map_err(|e| e.to_string())?;
    let ip_hash = u64::from_str_radix(f(2), 16).map_err(|_| format!("bad ip_hash {:?}", f(2)))?;
    let status = f(6).parse::<u16>().map_err(|_| format!("bad status {:?}", f(6)))?;
    let bytes = f(7).parse::<u64>().map_err(|_| format!("bad bytes {:?}", f(7)))?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AccessRecord;

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
