//! Row-streaming output sinks.
//!
//! Producers that emit rows in a deterministic order (the k-way merge
//! behind streamed generation and the monitoring daemon, or a
//! materialized table's own row order) hand each interned
//! [`RecordRow`] to a [`RowSink`] together with the [`StringInterner`]
//! its symbols belong to. No sink ever sees per-row owned strings: the
//! text sinks copy each string field from a per-symbol cache of its escaped
//! bytes, and the dictionary sinks remap symbols into their own
//! dictionary on first sight. Memory stays bounded by the producer's
//! working set plus the dictionary, never the dataset.
//!
//! [`codec::write_table`](crate::codec::write_table) and
//! [`jsonl::write_table`](crate::jsonl::write_table) encode through
//! [`CsvSink`]/[`JsonlSink`], so streaming and materialized paths
//! produce the same bytes and can be `cmp`-verified against each other.

use std::io::{self, Write};

use crate::codec::{self, CsvEncoder};
use crate::fieldfmt::BLOCK_BYTES;
use crate::intern::{StringInterner, Sym, SymMap};
use crate::jsonl::JsonlEncoder;
use crate::table::{LogTable, RecordRow};

/// A destination for a deterministic stream of interned rows.
///
/// Every call on one sink must pass the same `strings`: it may have
/// grown since the previous call, but a symbol's meaning never changes.
/// Sinks rely on that to cache per-symbol work.
pub trait RowSink {
    /// Write one row, whose symbols resolve in `strings`. Order is the
    /// producer's canonical order.
    fn write_row(&mut self, row: &RecordRow, strings: &StringInterner) -> io::Result<()>;

    /// Flush any buffered output; called once after the final row.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Encoded lines waiting to go out; handed to the writer in blocks of
/// at least [`BLOCK_BYTES`].
struct Blocks<W: Write> {
    writer: W,
    buf: Vec<u8>,
}

impl<W: Write> Blocks<W> {
    fn new(writer: W) -> Blocks<W> {
        Blocks { writer, buf: Vec::with_capacity(BLOCK_BYTES + 4096) }
    }

    fn write_full(&mut self) -> io::Result<()> {
        if self.buf.len() >= BLOCK_BYTES {
            self.writer.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.write_all(&self.buf)?;
        self.buf.clear();
        self.writer.flush()
    }

    fn into_inner(self) -> W {
        debug_assert!(self.buf.is_empty(), "call finish before into_inner");
        self.writer
    }
}

/// Streams rows as the workspace CSV schema (header included).
pub struct CsvSink<W: Write> {
    out: Blocks<W>,
    encoder: CsvEncoder,
}

impl<W: Write> CsvSink<W> {
    /// Wrap `writer`, emitting the CSV header immediately.
    pub fn new(mut writer: W) -> io::Result<CsvSink<W>> {
        writer.write_all(codec::HEADER.as_bytes())?;
        writer.write_all(b"\n")?;
        Ok(CsvSink { out: Blocks::new(writer), encoder: CsvEncoder::new() })
    }

    /// Unwrap the inner writer. Rows are buffered until
    /// [`RowSink::finish`], so call that first.
    pub fn into_inner(self) -> W {
        self.out.into_inner()
    }
}

impl<W: Write> RowSink for CsvSink<W> {
    fn write_row(&mut self, row: &RecordRow, strings: &StringInterner) -> io::Result<()> {
        self.encoder.push_row(&mut self.out.buf, row, strings);
        self.out.write_full()
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.finish()
    }
}

/// Streams rows as JSON Lines.
pub struct JsonlSink<W: Write> {
    out: Blocks<W>,
    encoder: JsonlEncoder,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap `writer`.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink { out: Blocks::new(writer), encoder: JsonlEncoder::new() }
    }

    /// Unwrap the inner writer. Rows are buffered until
    /// [`RowSink::finish`], so call that first.
    pub fn into_inner(self) -> W {
        self.out.into_inner()
    }
}

impl<W: Write> RowSink for JsonlSink<W> {
    fn write_row(&mut self, row: &RecordRow, strings: &StringInterner) -> io::Result<()> {
        self.encoder.push_row(&mut self.out.buf, row, strings);
        self.out.write_full()
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.finish()
    }
}

/// Collects the stream back into a [`LogTable`] — the compatibility
/// sink, and the equivalence anchor for tests. Strings are interned in
/// field order on first sight, so the table's dictionary equals
/// [`LogTable::from_records`] over the same rows.
#[derive(Debug, Default)]
pub struct TableSink {
    /// The collected rows.
    pub table: LogTable,
    /// Incoming symbol → symbol of `table`.
    syms: SymMap,
}

impl TableSink {
    /// An empty collector.
    pub fn new() -> TableSink {
        TableSink::default()
    }
}

impl RowSink for TableSink {
    fn write_row(&mut self, row: &RecordRow, strings: &StringInterner) -> io::Result<()> {
        let TableSink { table, syms } = self;
        let row = row.map_syms(|sym: Sym| syms.map(sym, || table.intern(strings.resolve(sym))));
        table.push_row(row);
        Ok(())
    }
}

/// Counts rows and discards them (dry runs, throughput probes).
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Rows seen.
    pub rows: u64,
}

impl RowSink for CountingSink {
    fn write_row(&mut self, _row: &RecordRow, _strings: &StringInterner) -> io::Result<()> {
        self.rows += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl;
    use crate::record::AccessRecord;
    use crate::time::Timestamp;

    fn sample(i: u64) -> AccessRecord {
        AccessRecord {
            useragent: format!("bot/{i}"),
            timestamp: Timestamp::from_unix(1_000 + i),
            ip_hash: i,
            asn: "GOOGLE".into(),
            sitename: "s.example.edu".into(),
            uri_path: "/robots.txt".into(),
            status: 200,
            bytes: 10,
            referer: (i % 2 == 1).then(|| "https://ref.example/,\"x\"".into()),
        }
    }

    fn feed(sink: &mut dyn RowSink, table: &LogTable) {
        for row in table.rows() {
            sink.write_row(row, table.interner()).unwrap();
        }
        sink.finish().unwrap();
    }

    #[test]
    fn csv_sink_matches_encode_record() {
        let records: Vec<AccessRecord> = (0..5).map(sample).collect();
        let table = LogTable::from_records(&records);
        let mut sink = CsvSink::new(Vec::new()).unwrap();
        feed(&mut sink, &table);
        assert_eq!(sink.into_inner(), codec::encode(&records).into_bytes());
    }

    #[test]
    fn jsonl_sink_matches_encode_record() {
        let records: Vec<AccessRecord> = (0..3).map(sample).collect();
        let table = LogTable::from_records(&records);
        let mut sink = JsonlSink::new(Vec::new());
        feed(&mut sink, &table);
        assert_eq!(sink.into_inner(), jsonl::encode(&records).into_bytes());
    }

    #[test]
    fn text_sinks_write_in_blocks() {
        // Enough rows to cross the block size several times: every write
        // the writer sees is a full block, except the final remainder.
        struct Recorder(Vec<usize>);
        impl Write for Recorder {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let records: Vec<AccessRecord> = (0..5_000).map(sample).collect();
        let table = LogTable::from_records(&records);
        let mut sink = CsvSink::new(Recorder(Vec::new())).unwrap();
        feed(&mut sink, &table);
        let writes = sink.into_inner().0;
        let (header, rows) = writes.split_at(2);
        assert_eq!(header, [codec::HEADER.len(), 1]);
        assert!(rows.len() >= 3, "{writes:?}");
        assert!(rows[..rows.len() - 1].iter().all(|&n| n >= BLOCK_BYTES), "{writes:?}");
    }

    #[test]
    fn table_and_counting_sinks() {
        let records: Vec<AccessRecord> = (0..4).map(sample).collect();
        let source = LogTable::from_records(&records);
        let mut table = TableSink::new();
        let mut count = CountingSink::default();
        feed(&mut table, &source);
        feed(&mut count, &source);
        assert_eq!(table.table.to_records(), records);
        assert_eq!(count.rows, 4);
    }
}
