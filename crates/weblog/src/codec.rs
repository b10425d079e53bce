//! CSV persistence for access records.
//!
//! A small, standards-correct CSV implementation (RFC 4180 quoting) fixed
//! to the ten-column record schema. Hand-rolled deliberately: the schema is
//! static, so a serde stack would add dependency weight without value.
//! Decoding is [`CsvRowStream`]'s; this module drains it into tables.

use std::io::{self, BufRead, Write};

use crate::fieldfmt::{push_decimal, push_hex16, SymBytes};
use crate::intern::StringInterner;
use crate::sink::{CsvSink, RowSink};
use crate::stream::{CsvRowStream, RowStream};
use crate::table::{LogTable, RecordRow};
use crate::time::Iso8601Writer;

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

/// The CSV row encoder behind [`write_table`] and
/// [`crate::sink::CsvSink`]: one line per row, every string field
/// copied from a per-symbol cache of its quoted bytes and the
/// timestamp's date prefix cached per day.
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

/// Decode a full CSV document (header required) into a [`LogTable`]:
/// [`decode_table_read`] over the text's bytes.
pub fn decode_table(text: &str) -> Result<LogTable, DecodeError> {
    decode_table_read(text.as_bytes())
}

/// Decode from a buffered reader into a [`LogTable`] by draining a
/// [`CsvRowStream`], so only one line of text is held at a time. I/O
/// and UTF-8 errors are reported as [`DecodeError`]s carrying the
/// failing line number.
pub fn decode_table_read<R: BufRead>(reader: R) -> Result<LogTable, DecodeError> {
    let mut stream = CsvRowStream::new(reader)?;
    let mut rows = Vec::new();
    while let Some(row) = stream.next_row() {
        rows.push(row?);
    }
    Ok(LogTable::from_parts(stream.into_interner(), rows))
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

/// Encode a whole table as a CSV string (header included): the bytes
/// of [`write_table`].
pub fn encode_table(table: &LogTable) -> String {
    let mut out = Vec::with_capacity(table.len() * 128 + HEADER.len() + 1);
    write_table(&mut out, table).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("encoded CSV is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AccessRecord;
    use crate::time::Timestamp;

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

    /// The body line (header stripped) of a one-row table.
    fn line(r: &AccessRecord) -> String {
        let text = encode_table(&LogTable::from_records(std::slice::from_ref(r)));
        let body = text.strip_prefix(&format!("{HEADER}\n")).expect("header first");
        body.strip_suffix('\n').expect("one terminated line").to_string()
    }

    #[test]
    fn roundtrip_simple() {
        let records = vec![sample("GPTBot/1.0", "/a"), sample("bingbot/2.0", "/b")];
        let text = encode_table(&LogTable::from_records(&records));
        assert_eq!(decode_table(&text).unwrap().to_records(), records);
    }

    #[test]
    fn ip_hash_is_hex() {
        assert_eq!(
            line(&sample("x", "/")),
            "x,2025-02-12T00:00:00Z,000000000000abcd,GOOGLE,site-00.example.edu,/,200,512,"
        );
    }

    #[test]
    fn fields_are_quoted_per_rfc_4180() {
        let mut r = sample("Mozilla/5.0 (compatible; X, \"q\"; +http://x)", "/q");
        r.referer = Some("https://ref.example/with,comma".into());
        assert_eq!(
            line(&r),
            "\"Mozilla/5.0 (compatible; X, \"\"q\"\"; +http://x)\",2025-02-12T00:00:00Z,\
             000000000000abcd,GOOGLE,site-00.example.edu,/q,200,512,\"https://ref.example/with,comma\""
        );
        let table = decode_table(&encode_table(&LogTable::from_records(&[r.clone()]))).unwrap();
        assert_eq!(table.to_records(), vec![r]);
    }

    /// One decoded row, every field visible (`{:?}` shows `\r` and
    /// quotes).
    fn show(row: &RecordRow, strings: &StringInterner) -> String {
        let s = |sym| strings.resolve(sym);
        format!(
            "{:?} {} {:x} {:?} {:?} {:?} {} {} {:?}",
            s(row.useragent),
            row.timestamp.to_iso8601(),
            row.ip_hash,
            s(row.asn),
            s(row.sitename),
            s(row.uri_path),
            row.status,
            row.bytes,
            row.referer.map(s),
        )
    }

    type Outcome = Result<Vec<String>, (usize, String)>;

    fn outcome(table: Result<LogTable, DecodeError>) -> Outcome {
        table
            .map(|t| t.rows().iter().map(|r| show(r, t.interner())).collect())
            .map_err(|e| (e.line, e.message))
    }

    /// Drain a [`CsvRowStream`] to its end or its first error.
    fn stream_outcome(input: &[u8]) -> Outcome {
        let mut stream = CsvRowStream::new(input).map_err(|e| (e.line, e.message.clone()))?;
        let mut rows = Vec::new();
        while let Some(row) = stream.next_row() {
            let row = row.map_err(|e| (e.line, e.message))?;
            rows.push(show(&row, stream.interner()));
        }
        Ok(rows)
    }

    #[test]
    fn malformed_input_corpus() {
        const T: &str = "2025-02-12T00:00:00Z";
        const ROW: &str = "ua,2025-02-12T00:00:00Z,ff,AS1,site,/a,200,10,ref";
        const SHOWN: &str = r#""ua" 2025-02-12T00:00:00Z ff "AS1" "site" "/a" 200 10 Some("ref")"#;
        let body = |lines: &str| format!("{HEADER}\n{lines}").into_bytes();
        let ok = |rows: &[&str]| -> Outcome { Ok(rows.iter().map(ToString::to_string).collect()) };
        let err = |line: usize, m: &str| -> Outcome { Err((line, m.to_string())) };
        let cases: Vec<(&str, Vec<u8>, Outcome)> = vec![
            ("valid", body(&format!("{ROW}\n")), ok(&[SHOWN])),
            (
                "stray quote",
                body(&format!("u\"a,{T},ff,AS1,site,/a,200,10,\n")),
                err(2, "stray quote inside unquoted field"),
            ),
            (
                "unterminated quote",
                body(&format!("\"ua,{T},ff,AS1,site,/a,200,10,\n")),
                err(2, "unterminated quoted field"),
            ),
            (
                "quoted line break ends the line",
                body(&format!("\"u\na\",{T},ff,AS1,site,/a,200,10,\n")),
                err(2, "unterminated quoted field"),
            ),
            ("3 fields", body("a,b,c\n"), err(2, "expected 9 fields, got 3")),
            ("12 fields", body(&format!("{ROW},x,y,z\n")), err(2, "expected 9 fields, got 12")),
            (
                "stray quote in field 10 beats the count",
                body(&format!("{ROW},x\"q,y,z\n")),
                err(2, "stray quote inside unquoted field"),
            ),
            (
                "bad time wins over every later field",
                body("ua,not-a-time,zz,AS1,site,/a,70000,-1,\n"),
                err(2, r#"invalid timestamp: expected YYYY-MM-DDTHH:MM:SS[Z]: "not-a-time""#),
            ),
            (
                "bad hex wins over status and bytes",
                body(&format!("ua,{T},zz,AS1,site,/a,70000,-1,\n")),
                err(2, r#"bad ip_hash "zz""#),
            ),
            (
                "status 70000 wins over bytes",
                body(&format!("ua,{T},ff,AS1,site,/a,70000,-1,\n")),
                err(2, r#"bad status "70000""#),
            ),
            (
                "bad bytes",
                body(&format!("ua,{T},ff,AS1,site,/a,200,-1,\n")),
                err(2, r#"bad bytes "-1""#),
            ),
            (
                "escaped quote shows unescaped in the error",
                body(&format!("ua,{T},\"x\"\"y\",AS1,site,/a,200,10,\n")),
                err(2, r#"bad ip_hash "x\"y""#),
            ),
            (
                "CRLF line endings",
                format!("{HEADER}\r\n{ROW}\r\n{ROW}\r\n").into_bytes(),
                ok(&[SHOWN, SHOWN]),
            ),
            (
                "only one terminator is stripped",
                body(&format!("{ROW}\r\r\n")),
                ok(&[&SHOWN.replace(r#""ref""#, r#""ref\r""#)]),
            ),
            (
                "a bare CR at EOF is content",
                body(&format!("{ROW}\r")),
                ok(&[&SHOWN.replace(r#""ref""#, r#""ref\r""#)]),
            ),
            (
                "missing header",
                format!("{ROW}\n").into_bytes(),
                err(1, &format!("unexpected header {ROW:?}")),
            ),
            ("header only", format!("{HEADER}\n").into_bytes(), ok(&[])),
            ("header without newline", HEADER.as_bytes().to_vec(), ok(&[])),
            ("empty input", Vec::new(), ok(&[])),
            ("empty header line", b"\n".to_vec(), err(1, r#"unexpected header """#)),
            ("blank lines are skipped", body(&format!("\n{ROW}\n\r\n\n")), ok(&[SHOWN])),
            (
                "blank lines are counted",
                body(&format!("\n{ROW}\n\n,\n")),
                err(5, "expected 9 fields, got 2"),
            ),
            (
                "Latin-1 byte in the UA",
                [body(&format!("{ROW}\n")), b"u\xE9,".to_vec(), ROW.as_bytes()[3..].to_vec()]
                    .concat(),
                err(3, "read failed: stream did not contain valid UTF-8"),
            ),
            (
                "quote quirks",
                body(&format!("\"u\"a,{T},ff,AS1,site,/a,200,10,\"\"ref\n")),
                ok(&[SHOWN]),
            ),
            (
                "signed numbers parse",
                body(&format!("ua,{T},+ff,AS1,site,/a,+200,+10,ref\n")),
                ok(&[SHOWN]),
            ),
        ];
        for (name, input, want) in cases {
            assert_eq!(stream_outcome(&input), want, "CsvRowStream: {name}");
            assert_eq!(outcome(decode_table_read(&input[..])), want, "decode_table_read: {name}");
            if let Ok(text) = std::str::from_utf8(&input) {
                assert_eq!(outcome(decode_table(text)), want, "decode_table: {name}");
            }
        }
    }
}
