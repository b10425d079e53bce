//! A compact binary on-disk format for access logs.
//!
//! CSV is the interchange format; at paper scale it spends most of its
//! bytes repeating the same few thousand strings. This module stores a
//! log the way [`crate::table::LogTable`] holds it in memory: a string
//! dictionary plus fixed-width rows of 4-byte symbol ids.
//!
//! ## Layout
//!
//! ```text
//! header    "BSCL" magic + u32 LE version (currently 1)
//! page*     tagged pages, in file order:
//!   0x01    dictionary page: u32 LE count, then count entries of
//!           (u32 LE byte length, UTF-8 bytes). Entries are assigned
//!           consecutive ids starting from the number of entries in
//!           all previous dictionary pages.
//!   0x02    row page: u32 LE count, then count fixed 46-byte rows
//!           (all integers LE): useragent u32, asn u32, sitename u32,
//!           uri_path u32, referer u32 (`u32::MAX` = none),
//!           timestamp u64, ip_hash u64, bytes u64, status u16.
//!           Ids must reference already-defined dictionary entries.
//!   0x00    end marker; nothing may follow it.
//! ```
//!
//! Dictionary pages may interleave with row pages, so a producer can
//! stream rows as they are generated ([`BinSink`]) while a whole-table
//! writer emits one dictionary up front ([`write_table`]). Both decode
//! identically with [`BinReader`], which needs only `BufRead` — memory
//! stays bounded by the dictionary plus one chunk of [`CHUNK_ROWS`] rows.
//!
//! Decoding is hardened against corrupt or hostile input: every failure
//! is a clean [`DecodeError`] (with the byte offset in the message), and
//! no allocation is ever sized from an untrusted length field beyond the
//! [`MAX_STRING_LEN`] cap.

use std::io::{self, BufRead, Write};

use crate::codec::DecodeError;
use crate::intern::{StringInterner, Sym, SymMap};
use crate::sink::RowSink;
use crate::table::{LogTable, RecordRow};
use crate::time::Timestamp;

/// File magic: the first four bytes of every binary log.
pub const MAGIC: [u8; 4] = *b"BSCL";

/// Current format version, written after the magic.
pub const VERSION: u32 = 1;

/// End-of-file marker tag.
const TAG_END: u8 = 0x00;
/// Dictionary page tag.
const TAG_DICT: u8 = 0x01;
/// Row page tag.
const TAG_ROWS: u8 = 0x02;

/// Bytes of one encoded row.
const ROW_BYTES: usize = 46;

/// Sentinel id for "no referer".
const NO_REFERER: u32 = u32::MAX;

/// Upper bound on a dictionary string's byte length. Anything larger is
/// rejected as corrupt before any allocation happens.
pub const MAX_STRING_LEN: u32 = 1 << 20;

/// Default number of rows buffered per row page by [`BinSink`].
pub const PAGE_ROWS: usize = 4096;

/// Most rows [`BinReader`] decodes at once straight out of its input
/// buffer (3 KB of encoded rows, so a chunk stays in L1).
pub const CHUNK_ROWS: usize = 64;

fn encode_row(row: &RecordRow, buf: &mut [u8; ROW_BYTES]) {
    let id = |sym: Sym| sym.index() as u32;
    buf[0..4].copy_from_slice(&id(row.useragent).to_le_bytes());
    buf[4..8].copy_from_slice(&id(row.asn).to_le_bytes());
    buf[8..12].copy_from_slice(&id(row.sitename).to_le_bytes());
    buf[12..16].copy_from_slice(&id(row.uri_path).to_le_bytes());
    buf[16..20].copy_from_slice(&row.referer.map_or(NO_REFERER, id).to_le_bytes());
    buf[20..28].copy_from_slice(&row.timestamp.unix().to_le_bytes());
    buf[28..36].copy_from_slice(&row.ip_hash.to_le_bytes());
    buf[36..44].copy_from_slice(&row.bytes.to_le_bytes());
    buf[44..46].copy_from_slice(&row.status.to_le_bytes());
}

/// The format header: magic, then version.
fn header() -> [u8; 8] {
    let mut header = [0; 8];
    header[..4].copy_from_slice(&MAGIC);
    header[4..].copy_from_slice(&VERSION.to_le_bytes());
    header
}

/// Append one dictionary entry (length-prefixed UTF-8) to a page body.
fn push_dict_entry(body: &mut Vec<u8>, s: &str) {
    body.extend_from_slice(&(s.len() as u32).to_le_bytes());
    body.extend_from_slice(s.as_bytes());
}

/// Append a dictionary page of `count` entries encoded in `body`.
fn encode_dict_page(page: &mut Vec<u8>, count: u32, body: &[u8]) {
    page.push(TAG_DICT);
    page.extend_from_slice(&count.to_le_bytes());
    page.extend_from_slice(body);
}

/// Append a row page (tag, count, rows) to `page`.
fn encode_row_page(page: &mut Vec<u8>, rows: &[RecordRow]) {
    page.reserve(5 + rows.len() * ROW_BYTES);
    page.push(TAG_ROWS);
    page.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    let mut buf = [0u8; ROW_BYTES];
    for row in rows {
        encode_row(row, &mut buf);
        page.extend_from_slice(&buf);
    }
}

/// Hand the encoded `page` to `w` in one write and empty it, even when
/// the write fails, so a failed page is never sent twice.
fn write_page<W: Write>(w: &mut W, page: &mut Vec<u8>) -> io::Result<()> {
    let written = w.write_all(page);
    page.clear();
    written
}

/// Write a whole table: header, one dictionary page covering the full
/// interner in id order, then the rows (raw symbol ids) in pages of
/// [`PAGE_ROWS`], then the end marker. Does not flush.
///
/// Each row page reaches `w` as one write (the header and dictionary
/// ride on the first, the end marker on the last), so an unbuffered
/// writer costs one system call per page. [`table_bytes`] says how many
/// bytes this writes.
///
/// Because the dictionary is written in id order, a [`BinReader`]
/// decoding the file rebuilds an interner with **identical** ids — rows
/// spilled through this path keep their symbols valid against the
/// writing table's interner (or any append-only extension of it).
pub fn write_table<W: Write>(w: &mut W, table: &LogTable) -> io::Result<()> {
    let mut page = header().to_vec();
    let interner = table.interner();
    if !interner.is_empty() {
        page.push(TAG_DICT);
        page.extend_from_slice(&(interner.len() as u32).to_le_bytes());
        for (_, s) in interner.iter() {
            push_dict_entry(&mut page, s);
        }
    }
    let mut chunks = table.rows().chunks(PAGE_ROWS).peekable();
    while let Some(chunk) = chunks.next() {
        encode_row_page(&mut page, chunk);
        if chunks.peek().is_some() {
            write_page(w, &mut page)?;
        }
    }
    page.push(TAG_END);
    write_page(w, &mut page)
}

/// The exact number of bytes [`write_table`] writes for `table`, without
/// encoding it: header, dictionary page, row pages and end marker.
pub fn table_bytes(table: &LogTable) -> u64 {
    let interner = table.interner();
    let dict = if interner.is_empty() {
        0
    } else {
        5 + interner.iter().map(|(_, s)| 4 + s.len() as u64).sum::<u64>()
    };
    let rows = table.len() as u64;
    let pages = rows.div_ceil(PAGE_ROWS as u64);
    8 + dict + pages * 5 + rows * ROW_BYTES as u64 + 1
}

/// Streams rows into the binary format, building the file dictionary
/// on the fly.
///
/// Every [`PAGE_ROWS`] rows (configurable via
/// [`BinSink::with_page_rows`]) the sink emits a dictionary page holding
/// the strings first seen since the previous page, followed by a row
/// page — so a consumer always sees a string's definition before any
/// row that references it. [`RowSink::finish`] writes the remainder, the
/// end marker, and flushes.
///
/// Incoming symbols get file ids on first sight, in field order
/// (useragent, asn, sitename, uri_path, referer), matching
/// [`crate::table::LogTable::push_record`]: feeding the same rows in
/// the same order as a materialized table produces the same dictionary.
/// Each symbol is resolved once; the sink keeps no strings beyond the
/// pending dictionary page.
#[derive(Debug)]
pub struct BinSink<W: Write> {
    writer: W,
    /// Incoming symbol → file dictionary id.
    ids: SymMap,
    /// File dictionary ids assigned so far.
    defined: usize,
    /// Entries first seen since the last page, encoded.
    dict_page: Vec<u8>,
    dict_page_entries: u32,
    rows: Vec<RecordRow>,
    /// The next write, encoded; reused from page to page.
    page: Vec<u8>,
    page_rows: usize,
    finished: bool,
}

impl<W: Write> BinSink<W> {
    /// Wrap `writer`, emitting the format header immediately.
    pub fn new(mut writer: W) -> io::Result<BinSink<W>> {
        writer.write_all(&header())?;
        Ok(BinSink {
            writer,
            ids: SymMap::new(),
            defined: 0,
            dict_page: Vec::new(),
            dict_page_entries: 0,
            rows: Vec::new(),
            page: Vec::new(),
            page_rows: PAGE_ROWS,
            finished: false,
        })
    }

    /// Use `page_rows` rows per page instead of [`PAGE_ROWS`] (must be
    /// at least 1). Smaller pages mean earlier bytes on the wire;
    /// larger pages mean fewer page headers.
    pub fn with_page_rows(mut self, page_rows: usize) -> BinSink<W> {
        assert!(page_rows >= 1, "page_rows must be at least 1");
        self.page_rows = page_rows;
        self
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }

    /// Write the pending dictionary entries and rows as one page, with
    /// the end marker after them when `end`.
    fn flush_page(&mut self, end: bool) -> io::Result<()> {
        if self.dict_page_entries > 0 {
            encode_dict_page(&mut self.page, self.dict_page_entries, &self.dict_page);
            self.dict_page.clear();
            self.dict_page_entries = 0;
        }
        if !self.rows.is_empty() {
            encode_row_page(&mut self.page, &self.rows);
            self.rows.clear();
        }
        if end {
            self.page.push(TAG_END);
        }
        write_page(&mut self.writer, &mut self.page)
    }
}

impl<W: Write> RowSink for BinSink<W> {
    fn write_row(&mut self, row: &RecordRow, strings: &StringInterner) -> io::Result<()> {
        let BinSink { ids, defined, dict_page, dict_page_entries, .. } = self;
        let row = row.map_syms(|sym| {
            ids.map(sym, || {
                push_dict_entry(dict_page, strings.resolve(sym));
                *dict_page_entries += 1;
                *defined += 1;
                Sym::from_index(*defined - 1)
            })
        });
        self.rows.push(row);
        if self.rows.len() >= self.page_rows {
            self.flush_page(false)?;
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        if !self.finished {
            self.flush_page(true)?;
            self.finished = true;
        }
        self.writer.flush()
    }
}

#[inline]
fn u32_at(b: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(b[i..i + 4].try_into().expect("4 bytes"))
}

#[inline]
fn u64_at(b: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"))
}

/// Decode one encoded row whose ids are all defined, mapping each
/// through `sym`. A `u32::MAX` referer (none) is mapped as id 0 and
/// dropped, so decoding takes no branch on it.
fn decode_row(b: &[u8], sym: impl Fn(u32) -> Sym) -> RecordRow {
    let referer = u32_at(b, 16);
    let referer_sym = sym(referer.wrapping_add(1).saturating_sub(1));
    RecordRow {
        useragent: sym(u32_at(b, 0)),
        asn: sym(u32_at(b, 4)),
        sitename: sym(u32_at(b, 8)),
        uri_path: sym(u32_at(b, 12)),
        referer: (referer != NO_REFERER).then_some(referer_sym),
        timestamp: Timestamp::from_unix(u64_at(b, 20)),
        ip_hash: u64_at(b, 28),
        bytes: u64_at(b, 36),
        status: u16::from_le_bytes(b[44..46].try_into().expect("2 bytes")),
    }
}

/// The largest dictionary id any of `rows` (whole encoded rows)
/// references; a row without a referer contributes its other four ids.
fn max_id(rows: &[u8]) -> u32 {
    rows.chunks_exact(ROW_BYTES).fold(0, |max, b| {
        max.max(u32_at(b, 0))
            .max(u32_at(b, 4))
            .max(u32_at(b, 8))
            .max(u32_at(b, 12))
            .max(u32_at(b, 16).wrapping_add(1).saturating_sub(1))
    })
}

/// Streaming binary decoder.
///
/// Yields one [`RecordRow`] at a time; symbols live in the reader's own
/// interner ([`BinReader::interner`]), which grows as dictionary pages
/// arrive. The reader deduplicates dictionary strings, so even a
/// (corrupt) file defining the same string twice resolves to one
/// symbol. All errors — truncation, bad magic, hostile lengths,
/// undefined ids, trailing garbage — surface as [`DecodeError`] with
/// the byte offset in the message; decoding never panics.
///
/// Rows decode in chunks of up to [`CHUNK_ROWS`] whole rows taken
/// straight from the input's buffer, with one id check per chunk (its
/// largest id against the dictionary size). A chunk that fails the
/// check, or a row split across a buffer refill, is read row by row
/// instead, so every error names the same field and byte offset as
/// decoding one row at a time would.
#[derive(Debug)]
pub struct BinReader<R: BufRead> {
    reader: R,
    /// Rows decoded ahead from the input buffer, yielded from `chunk_at`.
    chunk: Vec<RecordRow>,
    chunk_at: usize,
    interner: StringInterner,
    /// File dictionary id → symbol in `interner` (empty in raw mode).
    syms: Vec<Sym>,
    /// Raw mode: dictionary entries are counted and skipped, never
    /// materialized; row ids pass through as-written.
    raw: bool,
    /// Dictionary entries defined so far (raw mode's id bound).
    raw_defined: u32,
    /// Rows remaining in the current row page.
    pending_rows: u32,
    /// Bytes consumed so far (for error messages).
    offset: u64,
    /// Set once the end marker (or an error) has been seen.
    done: bool,
}

impl<R: BufRead> BinReader<R> {
    /// Wrap `reader` and validate the format header.
    pub fn new(reader: R) -> Result<BinReader<R>, DecodeError> {
        BinReader::with_mode(reader, false)
    }

    /// A reader that yields rows with symbol ids **exactly as written**,
    /// skipping over dictionary strings without materializing them.
    ///
    /// For files produced by [`write_table`] the ids on disk are the
    /// writing table's own, so a caller holding that interner (or an
    /// append-only extension — e.g. a generation worker's final
    /// dictionary covering every run it spilled) can resolve the rows
    /// without this reader rebuilding a per-file dictionary copy. Memory
    /// stays O(1) per reader regardless of dictionary size, which is
    /// what keeps a wide k-way spill merge inside its budget.
    ///
    /// Ids are still bounds-checked against the count of dictionary
    /// entries defined so far, and string lengths against
    /// [`MAX_STRING_LEN`]; corrupt input fails with a clean
    /// [`DecodeError`], never a panic. [`BinReader::interner`] stays
    /// empty in this mode.
    pub fn new_raw(reader: R) -> Result<BinReader<R>, DecodeError> {
        BinReader::with_mode(reader, true)
    }

    fn with_mode(reader: R, raw: bool) -> Result<BinReader<R>, DecodeError> {
        let mut r = BinReader {
            reader,
            chunk: Vec::with_capacity(CHUNK_ROWS),
            chunk_at: 0,
            interner: StringInterner::new(),
            syms: Vec::new(),
            raw,
            raw_defined: 0,
            pending_rows: 0,
            offset: 0,
            done: false,
        };
        let mut header = [0u8; 8];
        r.read_exact(&mut header, "file header")?;
        if header[0..4] != MAGIC {
            return Err(r.err(format!("bad magic {:?} (want {:?})", &header[0..4], MAGIC)));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(r.err(format!("unsupported version {version} (want {VERSION})")));
        }
        Ok(r)
    }

    /// The dictionary decoded so far. After a full decode of a file
    /// written by [`write_table`], ids match the writing table's
    /// interner exactly.
    pub fn interner(&self) -> &StringInterner {
        &self.interner
    }

    /// Consume the reader, returning its interner.
    pub fn into_interner(self) -> StringInterner {
        self.interner
    }

    fn err(&self, message: String) -> DecodeError {
        DecodeError { line: 0, message: format!("{message} (byte offset {})", self.offset) }
    }

    fn read_exact(&mut self, buf: &mut [u8], what: &str) -> Result<(), DecodeError> {
        self.reader.read_exact(buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                self.err(format!("truncated {what}"))
            } else {
                self.err(format!("read failed in {what}: {e}"))
            }
        })?;
        self.offset += buf.len() as u64;
        Ok(())
    }

    fn read_u32(&mut self, what: &str) -> Result<u32, DecodeError> {
        let mut buf = [0u8; 4];
        self.read_exact(&mut buf, what)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Skip `len` bytes through a bounded scratch buffer (never sizes an
    /// allocation from the untrusted length).
    fn skip_bytes(&mut self, len: u32, what: &str) -> Result<(), DecodeError> {
        let mut scratch = [0u8; 4096];
        let mut remaining = len as usize;
        while remaining > 0 {
            let take = remaining.min(scratch.len());
            self.read_exact(&mut scratch[..take], what)?;
            remaining -= take;
        }
        Ok(())
    }

    fn read_dict_page(&mut self) -> Result<(), DecodeError> {
        // The count is untrusted: entries are read one by one, so a
        // hostile count just hits EOF — it never sizes an allocation.
        let count = self.read_u32("dictionary count")?;
        for _ in 0..count {
            let len = self.read_u32("string length")?;
            if len > MAX_STRING_LEN {
                return Err(self.err(format!("string length {len} exceeds cap {MAX_STRING_LEN}")));
            }
            if self.raw {
                self.skip_bytes(len, "dictionary string")?;
                self.raw_defined = self
                    .raw_defined
                    .checked_add(1)
                    .ok_or_else(|| self.err("dictionary entry count overflows u32".into()))?;
                continue;
            }
            let mut buf = vec![0u8; len as usize];
            self.read_exact(&mut buf, "dictionary string")?;
            let s = std::str::from_utf8(&buf)
                .map_err(|e| self.err(format!("dictionary string is not UTF-8: {e}")))?;
            let sym = self.interner.intern(s);
            self.syms.push(sym);
        }
        Ok(())
    }

    /// Dictionary entries defined so far: every row id must be below.
    fn defined(&self) -> u32 {
        if self.raw {
            self.raw_defined
        } else {
            u32::try_from(self.syms.len()).unwrap_or(u32::MAX)
        }
    }

    /// The symbol of a defined id.
    fn sym(raw: bool, syms: &[Sym], id: u32) -> Sym {
        if raw {
            Sym::from_index(id as usize)
        } else {
            syms[id as usize]
        }
    }

    /// Read one row on its own, reporting its first undefined id (the
    /// referer checked first, then the other ids in field order).
    fn read_row(&mut self) -> Result<RecordRow, DecodeError> {
        let mut buf = [0u8; ROW_BYTES];
        self.read_exact(&mut buf, "row")?;
        for (at, field) in
            [(16, "referer"), (0, "useragent"), (4, "asn"), (8, "sitename"), (12, "uri_path")]
        {
            let id = u32_at(&buf, at);
            if id >= self.defined() && !(at == 16 && id == NO_REFERER) {
                return Err(self.err(format!("{field} id {id} not in dictionary")));
            }
        }
        Ok(decode_row(&buf, |id| Self::sym(self.raw, &self.syms, id)))
    }

    /// Decode up to [`CHUNK_ROWS`] of the current page's rows that sit
    /// whole in the input buffer into `chunk`, if every id they hold is
    /// defined. Returns whether it decoded any; when it did not, the
    /// next row is for [`BinReader::read_row`].
    fn read_chunk(&mut self) -> bool {
        let defined = self.defined();
        let BinReader { reader, chunk, chunk_at, syms, raw, .. } = self;
        let Ok(buf) = reader.fill_buf() else { return false };
        let n = (buf.len() / ROW_BYTES).min(CHUNK_ROWS).min(self.pending_rows as usize);
        let rows = &buf[..n * ROW_BYTES];
        if n == 0 || max_id(rows) >= defined {
            return false;
        }
        chunk.clear();
        *chunk_at = 0;
        chunk.extend(
            rows.chunks_exact(ROW_BYTES).map(|b| decode_row(b, |id| Self::sym(*raw, syms, id))),
        );
        reader.consume(n * ROW_BYTES);
        self.offset += (n * ROW_BYTES) as u64;
        self.pending_rows -= n as u32;
        true
    }

    /// Decode the next row, `None` at (a well-formed) end of file. Fuses
    /// after the first error.
    pub fn next_row(&mut self) -> Option<Result<RecordRow, DecodeError>> {
        if let Some(&row) = self.chunk.get(self.chunk_at) {
            self.chunk_at += 1;
            return Some(Ok(row));
        }
        if self.done {
            return None;
        }
        let result = self.advance();
        match &result {
            Some(Err(_)) | None => self.done = true,
            Some(Ok(_)) => {}
        }
        result
    }

    fn advance(&mut self) -> Option<Result<RecordRow, DecodeError>> {
        loop {
            if self.pending_rows > 0 {
                if self.read_chunk() {
                    self.chunk_at = 1;
                    return Some(Ok(self.chunk[0]));
                }
                self.pending_rows -= 1;
                return Some(self.read_row());
            }
            let mut tag = [0u8; 1];
            if let Err(e) = self.read_exact(&mut tag, "page tag (missing end marker?)") {
                return Some(Err(e));
            }
            match tag[0] {
                TAG_END => {
                    // Nothing may follow the end marker.
                    return match self.reader.fill_buf() {
                        Ok([]) => None,
                        Ok(_) => Some(Err(self.err("trailing data after end marker".into()))),
                        Err(e) => Some(Err(self.err(format!("read failed after end: {e}")))),
                    };
                }
                TAG_DICT => {
                    if let Err(e) = self.read_dict_page() {
                        return Some(Err(e));
                    }
                }
                TAG_ROWS => match self.read_u32("row count") {
                    Ok(n) => self.pending_rows = n,
                    Err(e) => return Some(Err(e)),
                },
                other => return Some(Err(self.err(format!("unknown page tag {other:#04x}")))),
            }
        }
    }
}

/// Decode a whole binary file into a [`LogTable`].
///
/// The table's interner is the reader's dictionary, so for files from
/// [`write_table`] the round trip preserves symbol ids exactly.
pub fn read_table<R: BufRead>(reader: R) -> Result<LogTable, DecodeError> {
    let mut r = BinReader::new(reader)?;
    let mut rows = Vec::new();
    while let Some(row) = r.next_row() {
        rows.push(row?);
    }
    Ok(LogTable::from_parts(r.into_interner(), rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::record::AccessRecord;

    fn sample(i: u64) -> AccessRecord {
        AccessRecord {
            useragent: format!("bot/{}", i % 3),
            timestamp: Timestamp::from_unix(1_000 + i),
            ip_hash: i * 7,
            asn: "GOOGLE".into(),
            sitename: "site-00.example.edu".into(),
            uri_path: if i.is_multiple_of(4) { "/robots.txt".into() } else { format!("/page/{i}") },
            status: 200,
            bytes: 10 + i,
            referer: (i.is_multiple_of(2)).then(|| format!("https://ref.example/{}", i % 2)),
        }
    }

    fn sample_table(n: u64) -> LogTable {
        let records: Vec<AccessRecord> = (0..n).map(sample).collect();
        LogTable::from_records(&records)
    }

    #[test]
    fn write_table_roundtrip_preserves_ids() {
        let table = sample_table(100);
        let mut bytes = Vec::new();
        write_table(&mut bytes, &table).unwrap();
        let back = read_table(&bytes[..]).unwrap();
        // Same interner ids, same raw rows — not just equal records.
        assert_eq!(back.rows(), table.rows());
        let ids: Vec<(usize, String)> =
            table.interner().iter().map(|(s, t)| (s.index(), t.to_string())).collect();
        let back_ids: Vec<(usize, String)> =
            back.interner().iter().map(|(s, t)| (s.index(), t.to_string())).collect();
        assert_eq!(back_ids, ids);
        assert_eq!(back.to_records(), table.to_records());
    }

    #[test]
    fn empty_table_roundtrip() {
        let table = LogTable::new();
        let mut bytes = Vec::new();
        write_table(&mut bytes, &table).unwrap();
        assert_eq!(bytes.len(), 9); // magic + version + end tag
        let back = read_table(&bytes[..]).unwrap();
        assert!(back.is_empty());
    }

    /// `n` rows over five user agents, optionally with referers
    /// and multi-byte strings.
    fn varied_table(n: usize, referers: bool, multibyte: bool) -> LogTable {
        let ua = if multibyte { "bøt-ü/ツ" } else { "bot" };
        let records: Vec<AccessRecord> = (0..n as u64)
            .map(|i| AccessRecord {
                useragent: format!("{ua}{}", i % 5),
                uri_path: if multibyte { format!("/ページ/{i}") } else { format!("/p/{i}") },
                referer: (referers && i % 3 == 0).then(|| format!("https://réf.example/{}", i % 7)),
                ..sample(i)
            })
            .collect();
        LogTable::from_records(&records)
    }

    #[test]
    fn table_bytes_is_what_write_table_writes() {
        let mut strings_only = LogTable::new();
        strings_only.intern("défini mais jamais référencé");
        strings_only.intern("");
        let mut tables =
            vec![("empty".to_string(), LogTable::new()), ("strings only".into(), strings_only)];
        for n in [1, PAGE_ROWS, PAGE_ROWS + 1] {
            for referers in [false, true] {
                for multibyte in [false, true] {
                    let name = format!("{n} rows, referers {referers}, multibyte {multibyte}");
                    tables.push((name, varied_table(n, referers, multibyte)));
                }
            }
        }
        for (name, table) in &tables {
            let mut bytes = Vec::new();
            write_table(&mut bytes, table).unwrap();
            assert_eq!(table_bytes(table), bytes.len() as u64, "{name}");
        }
    }

    /// A writer that records every write it is handed.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writers_hand_over_whole_pages() {
        let full_page = 5 + PAGE_ROWS * ROW_BYTES;
        let table = varied_table(2 * PAGE_ROWS + 100, true, true);
        let mut whole = Vec::new();
        write_table(&mut whole, &table).unwrap();

        // write_table: one write per row page; the header and dictionary
        // ride on the first, the end marker on the last.
        let mut recorder = Recorder::default();
        write_table(&mut recorder, &table).unwrap();
        assert_eq!(recorder.bytes, whole);
        assert_eq!(recorder.writes.len(), 3, "{:?}", recorder.writes);
        let last = recorder.writes.len() - 1;
        assert!(recorder.writes[..last].iter().all(|&n| n >= full_page), "{:?}", recorder.writes);

        // BinSink: the header at creation, then one write per page.
        let mut sink = BinSink::new(Recorder::default()).unwrap();
        for row in table.rows() {
            sink.write_row(row, table.interner()).unwrap();
        }
        sink.finish().unwrap();
        let recorder = sink.into_inner();
        assert_eq!(read_table(&recorder.bytes[..]).unwrap().to_records(), table.to_records());
        let (header, pages) = recorder.writes.split_at(1);
        assert_eq!(header, [8]);
        assert_eq!(pages.len(), 3, "{:?}", recorder.writes);
        let last = pages.len() - 1;
        assert!(pages[..last].iter().all(|&n| n >= full_page), "{:?}", recorder.writes);
    }

    #[test]
    fn sink_matches_write_table_for_push_record_order() {
        // A table built by push_record interns in the same order as the
        // sink, so the bytes agree even with interleaved pages.
        let table = sample_table(10);
        let mut whole = Vec::new();
        write_table(&mut whole, &table).unwrap();

        let mut sink = BinSink::new(Vec::new()).unwrap().with_page_rows(4);
        for row in table.rows() {
            sink.write_row(row, table.interner()).unwrap();
        }
        sink.finish().unwrap();
        let streamed = sink.into_inner();
        // Page boundaries differ, decoded content does not.
        let back = read_table(&streamed[..]).unwrap();
        assert_eq!(back.rows(), table.rows());
        assert_eq!(read_table(&whole[..]).unwrap().rows(), back.rows());
    }

    #[test]
    fn sink_is_deterministic_for_fixed_page_size() {
        let table = sample_table(23);
        let mut outs = Vec::new();
        for _ in 0..2 {
            let mut sink = BinSink::new(Vec::new()).unwrap().with_page_rows(7);
            for row in table.rows() {
                sink.write_row(row, table.interner()).unwrap();
            }
            sink.finish().unwrap();
            outs.push(sink.into_inner());
        }
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn finish_is_idempotent() {
        let table = LogTable::from_records(&[sample(1)]);
        let mut sink = BinSink::new(Vec::new()).unwrap();
        sink.write_row(&table.rows()[0], table.interner()).unwrap();
        sink.finish().unwrap();
        sink.finish().unwrap();
        let bytes = sink.into_inner();
        assert_eq!(read_table(&bytes[..]).unwrap().len(), 1);
    }

    #[test]
    fn binary_is_smaller_than_csv_at_volume() {
        // Realistic repetition: a bounded path population, as in real
        // logs, so the dictionary amortizes across rows.
        let records: Vec<AccessRecord> = (0..2_000)
            .map(|i| AccessRecord { uri_path: format!("/page/{}", i % 64), ..sample(i) })
            .collect();
        let table = LogTable::from_records(&records);
        let mut bin = Vec::new();
        write_table(&mut bin, &table).unwrap();
        let csv = codec::encode_table(&table);
        assert!(
            bin.len() * 2 < csv.len(),
            "binary {} bytes should be well under CSV {} bytes",
            bin.len(),
            csv.len()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let e = BinReader::new(&b"NOPE\x01\x00\x00\x00\x00"[..]).unwrap_err();
        assert!(e.message.contains("bad magic"), "{e}");
        assert_eq!(e.line, 0);
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.push(TAG_END);
        let e = BinReader::new(&bytes[..]).unwrap_err();
        assert!(e.message.contains("unsupported version 99"), "{e}");
    }

    #[test]
    fn truncation_is_clean_error_at_every_length() {
        let table = sample_table(5);
        let mut bytes = Vec::new();
        write_table(&mut bytes, &table).unwrap();
        for cut in 0..bytes.len() {
            let r = read_table(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes should fail to decode");
        }
        assert!(read_table(&bytes[..]).is_ok());
    }

    #[test]
    fn hostile_string_length_is_capped_not_allocated() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(TAG_DICT);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // 4 GiB "string"
        let e = read_table(&bytes[..]).unwrap_err();
        assert!(e.message.contains("exceeds cap"), "{e}");
    }

    #[test]
    fn hostile_counts_hit_eof_not_oom() {
        // A dict page claiming u32::MAX entries with no bytes behind it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(TAG_DICT);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_table(&bytes[..]).is_err());
        // Same for a row page.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(TAG_ROWS);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_table(&bytes[..]).is_err());
    }

    #[test]
    fn undefined_symbol_id_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(TAG_ROWS);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; ROW_BYTES]); // ids 0 with empty dict
        let e = read_table(&bytes[..]).unwrap_err();
        assert!(e.message.contains("not in dictionary"), "{e}");
    }

    #[test]
    fn missing_end_marker_rejected() {
        let table = sample_table(3);
        let mut bytes = Vec::new();
        write_table(&mut bytes, &table).unwrap();
        bytes.pop(); // drop TAG_END
        let e = read_table(&bytes[..]).unwrap_err();
        assert!(e.message.contains("end marker"), "{e}");
    }

    #[test]
    fn trailing_data_rejected() {
        let table = sample_table(3);
        let mut bytes = Vec::new();
        write_table(&mut bytes, &table).unwrap();
        bytes.push(0x7F);
        let e = read_table(&bytes[..]).unwrap_err();
        assert!(e.message.contains("trailing data"), "{e}");
    }

    #[test]
    fn duplicate_dictionary_strings_deduplicate() {
        // Two dict entries with the same text: both file ids must
        // resolve, to the same interned symbol.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(TAG_DICT);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        for _ in 0..2 {
            bytes.extend_from_slice(&2u32.to_le_bytes());
            bytes.extend_from_slice(b"ua");
        }
        let mut row = [0u8; ROW_BYTES];
        row[0..4].copy_from_slice(&0u32.to_le_bytes()); // ua -> id 0
        row[4..8].copy_from_slice(&1u32.to_le_bytes()); // asn -> id 1 (same string)
        row[8..12].copy_from_slice(&0u32.to_le_bytes());
        row[12..16].copy_from_slice(&1u32.to_le_bytes());
        row[16..20].copy_from_slice(&NO_REFERER.to_le_bytes());
        bytes.push(TAG_ROWS);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&row);
        bytes.push(TAG_END);
        let table = read_table(&bytes[..]).unwrap();
        assert_eq!(table.interner().len(), 1);
        assert_eq!(table.rows()[0].useragent, table.rows()[0].asn);
        assert_eq!(table.resolve(table.rows()[0].useragent), "ua");
    }

    #[test]
    fn raw_reader_yields_ids_as_written() {
        // write_table preserves the writing table's ids, so the raw
        // reader's rows must equal the table's raw rows exactly — the
        // contract the spill merge's shared-dictionary resolution
        // depends on.
        let table = sample_table(100);
        let mut bytes = Vec::new();
        write_table(&mut bytes, &table).unwrap();
        let mut raw = BinReader::new_raw(&bytes[..]).unwrap();
        let mut rows = Vec::new();
        while let Some(row) = raw.next_row() {
            rows.push(row.unwrap());
        }
        assert_eq!(rows, table.rows());
        assert!(raw.interner().is_empty(), "raw mode must not materialize the dictionary");
    }

    #[test]
    fn raw_reader_still_bounds_checks_ids() {
        // A row referencing an id beyond the dictionary must fail
        // cleanly in raw mode too.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(TAG_DICT);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(b"ua");
        let mut row = [0u8; ROW_BYTES];
        row[0..4].copy_from_slice(&7u32.to_le_bytes()); // undefined id
        row[16..20].copy_from_slice(&NO_REFERER.to_le_bytes());
        bytes.push(TAG_ROWS);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&row);
        bytes.push(TAG_END);
        let mut raw = BinReader::new_raw(&bytes[..]).unwrap();
        let e = raw.next_row().unwrap().unwrap_err();
        assert!(e.message.contains("not in dictionary"), "{e}");
    }

    #[test]
    fn raw_reader_truncation_is_clean_error_at_every_length() {
        let table = sample_table(5);
        let mut bytes = Vec::new();
        write_table(&mut bytes, &table).unwrap();
        for cut in 0..bytes.len() {
            let mut ok = true;
            match BinReader::new_raw(&bytes[..cut]) {
                Err(_) => ok = false,
                Ok(mut r) => {
                    while let Some(row) = r.next_row() {
                        if row.is_err() {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            assert!(!ok, "prefix of {cut} bytes should fail to decode");
        }
    }

    /// Every row and the final interner of `bytes` read through a
    /// `BufReader` of `capacity` bytes, in normal or raw mode.
    fn drain_through(bytes: &[u8], capacity: usize, raw: bool) -> (Vec<RecordRow>, Vec<String>) {
        let input = io::BufReader::with_capacity(capacity, bytes);
        let mut r =
            if raw { BinReader::new_raw(input) } else { BinReader::new(input) }.expect("header");
        let mut rows = Vec::new();
        while let Some(row) = r.next_row() {
            rows.push(row.expect("a clean row"));
        }
        (rows, r.interner().iter().map(|(_, s)| s.to_string()).collect())
    }

    #[test]
    fn rows_straddling_buffer_refills_decode_like_a_large_buffer() {
        // Pages of 7 rows with a dictionary page before each: chunks end
        // at page ends, at refills, and at rows split across refills.
        let table = sample_table(300);
        let mut sink = BinSink::new(Vec::new()).unwrap().with_page_rows(7);
        for row in table.rows() {
            sink.write_row(row, table.interner()).unwrap();
        }
        sink.finish().unwrap();
        let streamed = sink.into_inner();
        let mut whole = Vec::new();
        write_table(&mut whole, &table).unwrap();
        for bytes in [&streamed, &whole] {
            for raw in [false, true] {
                let large = drain_through(bytes, 64 * 1024, raw);
                assert_eq!(large.0.len(), 300);
                for capacity in [1, 45, 46, 47, 50, 97, 1000] {
                    assert!(
                        drain_through(bytes, capacity, raw) == large,
                        "{capacity} B, raw {raw}"
                    );
                }
            }
        }
        assert_eq!(drain_through(&whole, 50, true).0, table.rows());
    }

    #[test]
    fn undefined_id_mid_chunk_names_its_field_and_offset() {
        // Row 30 of a 64-row chunk names the first asn id past the
        // dictionary: its 30 predecessors decode, then the error reports
        // the field and the offset just past the bad row, as a row-by-row
        // read does.
        let table = sample_table(100);
        let mut bytes = Vec::new();
        write_table(&mut bytes, &table).unwrap();
        let rows_at = bytes.len() - 1 - 100 * ROW_BYTES;
        let bad = rows_at + 30 * ROW_BYTES;
        let undefined = table.interner().len() as u32;
        bytes[bad + 4..bad + 8].copy_from_slice(&undefined.to_le_bytes());
        assert_eq!(rows_at, 1011);
        for raw in [false, true] {
            for capacity in [50, 97, 64 * 1024] {
                let input = io::BufReader::with_capacity(capacity, &bytes[..]);
                let mut r = if raw { BinReader::new_raw(input) } else { BinReader::new(input) }
                    .expect("header");
                for i in 0..30 {
                    assert_eq!(r.next_row().unwrap().unwrap(), table.rows()[i]);
                }
                let e = r.next_row().unwrap().unwrap_err();
                assert_eq!(
                    e.to_string(),
                    "decode error: asn id 82 not in dictionary (byte offset 2437)",
                    "raw {raw}, {capacity} B"
                );
                assert!(r.next_row().is_none());
            }
        }
    }

    #[test]
    fn a_chunk_ends_with_its_page_even_when_the_next_bytes_pass_the_id_check() {
        // 60,000 empty dictionary strings define ids 0..60,000, so the
        // dictionary page after the one-row page (tag 0x01, count 1,
        // length 200, 200 NUL bytes) would pass the chunk's id check if
        // it were read as rows.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(TAG_DICT);
        bytes.extend_from_slice(&60_000u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4 * 60_000]);
        bytes.push(TAG_ROWS);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; ROW_BYTES]);
        bytes.push(TAG_DICT);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&200u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 200]);
        bytes.push(TAG_END);
        for raw in [false, true] {
            let (rows, strings) = drain_through(&bytes, bytes.len(), raw);
            assert_eq!(rows.len(), 1, "raw {raw}");
            assert_eq!(strings.len(), if raw { 0 } else { 2 }, "raw {raw}");
        }
    }

    #[test]
    fn reader_fuses_after_error() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(0x7F); // unknown tag
        let mut r = BinReader::new(&bytes[..]).unwrap();
        assert!(r.next_row().unwrap().is_err());
        assert!(r.next_row().is_none());
        assert!(r.next_row().is_none());
    }

    #[test]
    fn non_utf8_dictionary_string_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(TAG_DICT);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let e = read_table(&bytes[..]).unwrap_err();
        assert!(e.message.contains("not UTF-8"), "{e}");
    }
}
