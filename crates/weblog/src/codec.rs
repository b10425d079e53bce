//! CSV persistence for access records.
//!
//! A small, standards-correct CSV implementation (RFC 4180 quoting) fixed
//! to the ten-column record schema. Hand-rolled deliberately: the schema is
//! static, so a serde stack would add dependency weight without value
//! (see DESIGN.md §7).

use std::io::{self, BufRead, Write};

use crate::fieldfmt::{push_decimal, push_hex16, SymBytes};
use crate::intern::StringInterner;
use crate::record::AccessRecord;
use crate::sink::{CsvSink, RowSink};
use crate::table::{LogTable, RecordRow};
use crate::time::{Iso8601Writer, Timestamp};

/// The header row.
pub const HEADER: &str = "useragent,timestamp,ip_hash,asn,sitename,uri_path,status,bytes,referer";

/// Error decoding a CSV line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// 1-based line number (0 when unknown).
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Line 0 means "no line number", e.g. errors from the binary
        // format (`crate::colfmt`), which reports byte offsets in the
        // message instead.
        if self.line == 0 {
            write!(f, "decode error: {}", self.message)
        } else {
            write!(f, "CSV decode error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append `field`, quoted per RFC 4180 if it contains a comma, quote,
/// or line break.
fn quote_into(field: &str, out: &mut Vec<u8>) {
    if field.bytes().any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r')) {
        out.push(b'"');
        for b in field.bytes() {
            if b == b'"' {
                out.push(b'"');
            }
            out.push(b);
        }
        out.push(b'"');
    } else {
        out.extend_from_slice(field.as_bytes());
    }
}

/// Append `,ip_hash,` with the hash as 16 hex digits.
fn push_ip_hash(out: &mut Vec<u8>, ip_hash: u64) {
    out.push(b',');
    push_hex16(out, ip_hash);
    out.push(b',');
}

/// Append `,status,bytes,`.
fn push_status_bytes(out: &mut Vec<u8>, status: u16, bytes: u64) {
    out.push(b',');
    push_decimal(out, u64::from(status), 0);
    out.push(b',');
    push_decimal(out, bytes, 0);
    out.push(b',');
}

/// Encode one record as a CSV line (no trailing newline).
pub fn encode_record(r: &AccessRecord) -> String {
    let mut out = Vec::with_capacity(128);
    quote_into(&r.useragent, &mut out);
    out.push(b',');
    Iso8601Writer::new().push(&mut out, r.timestamp);
    push_ip_hash(&mut out, r.ip_hash);
    quote_into(&r.asn, &mut out);
    out.push(b',');
    quote_into(&r.sitename, &mut out);
    out.push(b',');
    quote_into(&r.uri_path, &mut out);
    push_status_bytes(&mut out, r.status, r.bytes);
    quote_into(r.referer.as_deref().unwrap_or(""), &mut out);
    String::from_utf8(out).expect("CSV of UTF-8 fields is UTF-8")
}

/// The CSV row encoder behind [`write_table`] and
/// [`crate::sink::CsvSink`]: the same line as [`encode_record`], with
/// every string field copied from a per-symbol cache of its quoted
/// bytes and the timestamp's date prefix cached per day.
#[derive(Debug, Clone)]
pub(crate) struct CsvEncoder {
    strings: SymBytes,
    time: Iso8601Writer,
}

impl CsvEncoder {
    pub(crate) fn new() -> CsvEncoder {
        CsvEncoder { strings: SymBytes::new(quote_into), time: Iso8601Writer::new() }
    }

    /// Append `row` as one CSV line, newline included.
    pub(crate) fn push_row(
        &mut self,
        out: &mut Vec<u8>,
        row: &RecordRow,
        strings: &StringInterner,
    ) {
        self.strings.push(out, row.useragent, strings);
        out.push(b',');
        self.time.push(out, row.timestamp);
        push_ip_hash(out, row.ip_hash);
        self.strings.push(out, row.asn, strings);
        out.push(b',');
        self.strings.push(out, row.sitename, strings);
        out.push(b',');
        self.strings.push(out, row.uri_path, strings);
        push_status_bytes(out, row.status, row.bytes);
        if let Some(referer) = row.referer {
            self.strings.push(out, referer, strings);
        }
        out.push(b'\n');
    }
}

/// Encode a full dataset with header.
pub fn encode(records: &[AccessRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 128 + HEADER.len() + 1);
    out.push_str(HEADER);
    out.push('\n');
    for r in records {
        out.push_str(&encode_record(r));
        out.push('\n');
    }
    out
}

/// Split one CSV line into fields honouring RFC 4180 quoting.
fn split_csv_line(line: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(ch) = chars.next() {
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => cur.push(ch),
            }
        } else {
            match ch {
                '"' if cur.is_empty() => in_quotes = true,
                ',' => {
                    fields.push(std::mem::take(&mut cur));
                }
                '"' => return Err("stray quote inside unquoted field".into()),
                _ => cur.push(ch),
            }
        }
    }
    if in_quotes {
        return Err("unterminated quoted field".into());
    }
    fields.push(cur);
    Ok(fields)
}

/// Decode one CSV line (not the header) into a record.
pub fn decode_record(line: &str, line_no: usize) -> Result<AccessRecord, DecodeError> {
    let err = |m: String| DecodeError { line: line_no, message: m };
    let fields = split_csv_line(line).map_err(&err)?;
    if fields.len() != 9 {
        return Err(err(format!("expected 9 fields, got {}", fields.len())));
    }
    let timestamp = Timestamp::parse_iso8601(&fields[1]).map_err(|e| err(e.to_string()))?;
    let ip_hash = u64::from_str_radix(&fields[2], 16)
        .map_err(|_| err(format!("bad ip_hash {:?}", fields[2])))?;
    let status =
        fields[6].parse::<u16>().map_err(|_| err(format!("bad status {:?}", fields[6])))?;
    let bytes = fields[7].parse::<u64>().map_err(|_| err(format!("bad bytes {:?}", fields[7])))?;
    let referer = if fields[8].is_empty() { None } else { Some(fields[8].clone()) };
    Ok(AccessRecord {
        useragent: fields[0].clone(),
        timestamp,
        ip_hash,
        asn: fields[3].clone(),
        sitename: fields[4].clone(),
        uri_path: fields[5].clone(),
        status,
        bytes,
        referer,
    })
}

/// Decode a full CSV document (header required).
pub fn decode(text: &str) -> Result<Vec<AccessRecord>, DecodeError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h == HEADER => {}
        Some((_, h)) => {
            return Err(DecodeError { line: 1, message: format!("unexpected header {h:?}") })
        }
        None => return Ok(Vec::new()),
    }
    let mut out = Vec::new();
    for (idx, line) in lines {
        if line.is_empty() {
            continue;
        }
        out.push(decode_record(line, idx + 1)?);
    }
    Ok(out)
}

/// Streaming decoder state: see [`decode_stream`].
#[derive(Debug)]
pub struct DecodeStream<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    header_checked: bool,
    done: bool,
}

impl Iterator for DecodeStream<'_> {
    type Item = Result<AccessRecord, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if !self.header_checked {
            self.header_checked = true;
            match self.lines.next() {
                Some((_, h)) if h == HEADER => {}
                Some((_, h)) => {
                    self.done = true;
                    return Some(Err(DecodeError {
                        line: 1,
                        message: format!("unexpected header {h:?}"),
                    }));
                }
                None => {
                    self.done = true;
                    return None;
                }
            }
        }
        for (idx, line) in self.lines.by_ref() {
            if line.is_empty() {
                continue;
            }
            let result = decode_record(line, idx + 1);
            if result.is_err() {
                self.done = true;
            }
            return Some(result);
        }
        self.done = true;
        None
    }
}

/// Decode a CSV document line by line, yielding one record (or the
/// first error) at a time without materializing the whole dataset.
/// Consuming the iterator to the first error is exactly equivalent to
/// [`decode`]; the stream fuses after an error.
pub fn decode_stream(text: &str) -> DecodeStream<'_> {
    DecodeStream { lines: text.lines().enumerate(), header_checked: false, done: false }
}

/// Decode a full CSV document directly into a [`LogTable`], interning
/// strings as rows stream in. Equivalent to
/// `LogTable::from_records(&decode(text)?)` without the intermediate
/// record vector.
pub fn decode_table(text: &str) -> Result<LogTable, DecodeError> {
    let mut table = LogTable::new();
    for result in decode_stream(text) {
        table.push_record(&result?);
    }
    Ok(table)
}

/// Decode from a buffered reader into a [`LogTable`], one line at a
/// time — the path for logs too large to hold as text. I/O errors are
/// reported as [`DecodeError`]s carrying the failing line number.
pub fn decode_table_read<R: BufRead>(mut reader: R) -> Result<LogTable, DecodeError> {
    let mut table = LogTable::new();
    let mut buf = String::new();
    let mut line_no = 0usize;
    loop {
        buf.clear();
        line_no += 1;
        let n = reader
            .read_line(&mut buf)
            .map_err(|e| DecodeError { line: line_no, message: format!("read failed: {e}") })?;
        if n == 0 {
            return Ok(table);
        }
        // Strip exactly one line terminator (`\n` or `\r\n`), matching
        // `str::lines`: a `\r` not followed by `\n` — including on an
        // unterminated final line — is field content.
        let line = match buf.strip_suffix('\n') {
            Some(rest) => rest.strip_suffix('\r').unwrap_or(rest),
            None => buf.as_str(),
        };
        if line_no == 1 {
            if line != HEADER {
                return Err(DecodeError {
                    line: 1,
                    message: format!("unexpected header {line:?}"),
                });
            }
            continue;
        }
        if line.is_empty() {
            continue;
        }
        table.push_record(&decode_record(line, line_no)?);
    }
}

/// Encode a table to a writer (header included) through a
/// [`CsvSink`], so the bytes equal streaming the same rows into one.
/// Flushes `w`.
pub fn write_table<W: Write>(w: &mut W, table: &LogTable) -> io::Result<()> {
    let mut sink = CsvSink::new(w)?;
    for row in table.rows() {
        sink.write_row(row, table.interner())?;
    }
    sink.finish()
}

/// Encode a whole table as a CSV string (header included). Equivalent
/// to `encode(&table.to_records())`.
pub fn encode_table(table: &LogTable) -> String {
    let mut out = Vec::with_capacity(table.len() * 128 + HEADER.len() + 1);
    write_table(&mut out, table).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("encoded CSV is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ua: &str, path: &str) -> AccessRecord {
        AccessRecord {
            useragent: ua.into(),
            timestamp: Timestamp::from_date(2025, 2, 12),
            ip_hash: 0xABCD,
            asn: "GOOGLE".into(),
            sitename: "site-00.example.edu".into(),
            uri_path: path.into(),
            status: 200,
            bytes: 512,
            referer: None,
        }
    }

    #[test]
    fn roundtrip_simple() {
        let records = vec![sample("GPTBot/1.0", "/a"), sample("bingbot/2.0", "/b")];
        let text = encode(&records);
        let back = decode(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn roundtrip_with_quoting() {
        let mut r = sample("Mozilla/5.0 (compatible; X, \"quoted\"; +http://x)", "/q");
        r.referer = Some("https://ref.example/with,comma".into());
        let text = encode(&[r.clone()]);
        let back = decode(&text).unwrap();
        assert_eq!(back, vec![r]);
    }

    #[test]
    fn empty_dataset() {
        assert_eq!(decode("").unwrap(), vec![]);
        let enc = encode(&[]);
        assert_eq!(decode(&enc).unwrap(), vec![]);
    }

    #[test]
    fn bad_header_rejected() {
        assert!(decode("nope\n").is_err());
    }

    #[test]
    fn bad_fields_rejected() {
        let good = encode(&[sample("a", "/")]);
        let mut lines: Vec<&str> = good.lines().collect();
        let tampered = lines[1].replace("2025-02-12T00:00:00Z", "not-a-time");
        lines[1] = &tampered;
        let text = lines.join("\n");
        let e = decode(&text).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn field_count_enforced() {
        let text = format!("{HEADER}\nonly,three,fields\n");
        let e = decode(&text).unwrap_err();
        assert!(e.message.contains("9 fields"));
    }

    #[test]
    fn unterminated_quote_rejected() {
        let text = format!("{HEADER}\n\"unterminated,2025-02-12T00:00:00Z,0,a,b,/,200,1,\n");
        assert!(decode(&text).is_err());
    }

    #[test]
    fn ip_hash_is_hex() {
        let r = sample("x", "/");
        let line = encode_record(&r);
        assert!(line.contains("000000000000abcd"));
    }

    #[test]
    fn stream_matches_decode_on_valid_input() {
        let records = vec![sample("GPTBot/1.0", "/a"), sample("bingbot/2.0", "/b")];
        let text = encode(&records);
        let streamed: Vec<AccessRecord> =
            decode_stream(&text).collect::<Result<_, _>>().expect("valid input");
        assert_eq!(streamed, records);
    }

    #[test]
    fn stream_yields_error_then_fuses() {
        let text = format!("{HEADER}\nonly,three,fields\n");
        let mut stream = decode_stream(&text);
        assert!(stream.next().unwrap().is_err());
        assert!(stream.next().is_none());
        assert!(stream.next().is_none());
    }

    #[test]
    fn stream_rejects_bad_header_like_decode() {
        let e = decode_stream("nope\n").next().unwrap().unwrap_err();
        assert_eq!(e, decode("nope\n").unwrap_err());
        assert!(decode_stream("").next().is_none());
    }

    #[test]
    fn table_roundtrip_matches_record_roundtrip() {
        let mut r = sample("Mozilla/5.0 (compatible; X, \"q\"; +http://x)", "/q");
        r.referer = Some("https://ref.example/with,comma".into());
        let records = vec![r, sample("GPTBot/1.0", "/a")];
        let text = encode(&records);
        let table = decode_table(&text).expect("valid input");
        assert_eq!(table.to_records(), records);
        assert_eq!(encode_table(&table), text);
    }

    #[test]
    fn table_reader_path_matches_in_memory_path() {
        let records = vec![sample("a", "/x"), sample("b", "/y")];
        let text = encode(&records);
        let table = decode_table_read(text.as_bytes()).expect("valid input");
        assert_eq!(table.to_records(), records);
        // CRLF terminators are stripped like str::lines does…
        let crlf = text.replace('\n', "\r\n");
        assert_eq!(decode_table_read(crlf.as_bytes()).unwrap().to_records(), records);
        // …but only ONE terminator: an unquoted field ending in '\r'
        // before the '\r\n' keeps that '\r' as content, exactly as
        // str::lines-based decode sees it.
        let tricky = format!("{HEADER}\nua,2025-02-12T00:00:00Z,0,GOOGLE,site,/a,200,10,ref\r\r\n");
        let by_str = decode(&tricky).unwrap();
        assert_eq!(by_str[0].referer.as_deref(), Some("ref\r"));
        assert_eq!(decode_table_read(tricky.as_bytes()).unwrap().to_records(), by_str);
        // A bare trailing '\r' on an unterminated final line is content.
        let bare = format!("{HEADER}\nua,2025-02-12T00:00:00Z,0,GOOGLE,site,/a,200,10,ref\r");
        assert_eq!(
            decode_table_read(bare.as_bytes()).unwrap().to_records(),
            decode(&bare).unwrap()
        );
        // Errors carry the line number, as in decode.
        let bad = format!("{HEADER}\nonly,three,fields\n");
        let e = decode_table_read(bad.as_bytes()).unwrap_err();
        assert_eq!(e.line, 2);
        // Empty input is an empty table.
        assert!(decode_table_read("".as_bytes()).unwrap().is_empty());
    }
}
