//! JSON-Lines export of access records.
//!
//! Log pipelines (jq, DuckDB, pandas) prefer JSONL over CSV for nested or
//! optional fields. This is an *encoder only*, hand-rolled against RFC
//! 8259 string-escaping rules: the schema is fixed and every field is a
//! string or an integer, so a serde stack would add dependencies and
//! nothing else. Re-import uses the CSV codec.

use std::io::{self, Write};

use crate::fieldfmt::{push_decimal, push_hex16, SymBytes};
use crate::intern::StringInterner;
use crate::record::AccessRecord;
use crate::sink::{JsonlSink, RowSink};
use crate::table::{LogTable, RecordRow};
use crate::time::{Iso8601Writer, Timestamp};

/// Append `s` as a JSON string, escaped per RFC 8259 §7 (quotes
/// included). Multi-byte UTF-8 passes through unescaped.
fn escape_into(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    for b in s.bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0x08 => out.extend_from_slice(b"\\b"),
            0x0C => out.extend_from_slice(b"\\f"),
            b if b < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.extend_from_slice(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xF)]]);
            }
            b => out.push(b),
        }
    }
    out.push(b'"');
}

/// Append `,"timestamp":"…","ip_hash":"…"`.
fn push_time_ip(out: &mut Vec<u8>, time: &mut Iso8601Writer, t: Timestamp, ip_hash: u64) {
    out.extend_from_slice(b",\"timestamp\":\"");
    time.push(out, t);
    out.extend_from_slice(b"\",\"ip_hash\":\"");
    push_hex16(out, ip_hash);
    out.push(b'"');
}

/// Append `,"status":N,"bytes":N,"referer":`.
fn push_status_bytes(out: &mut Vec<u8>, status: u16, bytes: u64) {
    out.extend_from_slice(b",\"status\":");
    push_decimal(out, u64::from(status), 0);
    out.extend_from_slice(b",\"bytes\":");
    push_decimal(out, bytes, 0);
    out.extend_from_slice(b",\"referer\":");
}

/// Encode one record as a single JSON object (no trailing newline).
pub fn encode_record(r: &AccessRecord) -> String {
    let mut out = Vec::with_capacity(192);
    out.extend_from_slice(b"{\"useragent\":");
    escape_into(&r.useragent, &mut out);
    push_time_ip(&mut out, &mut Iso8601Writer::new(), r.timestamp, r.ip_hash);
    out.extend_from_slice(b",\"asn\":");
    escape_into(&r.asn, &mut out);
    out.extend_from_slice(b",\"sitename\":");
    escape_into(&r.sitename, &mut out);
    out.extend_from_slice(b",\"uri_path\":");
    escape_into(&r.uri_path, &mut out);
    push_status_bytes(&mut out, r.status, r.bytes);
    match &r.referer {
        Some(referer) => escape_into(referer, &mut out),
        None => out.extend_from_slice(b"null"),
    }
    out.push(b'}');
    String::from_utf8(out).expect("JSON of UTF-8 fields is UTF-8")
}

/// The JSONL row encoder behind [`write_table`] and
/// [`crate::sink::JsonlSink`]: the same object as [`encode_record`],
/// with every string field copied from a per-symbol cache of its
/// escaped bytes and the timestamp's date prefix cached per day.
#[derive(Debug, Clone)]
pub(crate) struct JsonlEncoder {
    strings: SymBytes,
    time: Iso8601Writer,
}

impl JsonlEncoder {
    pub(crate) fn new() -> JsonlEncoder {
        JsonlEncoder { strings: SymBytes::new(escape_into), time: Iso8601Writer::new() }
    }

    /// Append `row` as one JSON object line, newline included.
    pub(crate) fn push_row(
        &mut self,
        out: &mut Vec<u8>,
        row: &RecordRow,
        strings: &StringInterner,
    ) {
        out.extend_from_slice(b"{\"useragent\":");
        self.strings.push(out, row.useragent, strings);
        push_time_ip(out, &mut self.time, row.timestamp, row.ip_hash);
        out.extend_from_slice(b",\"asn\":");
        self.strings.push(out, row.asn, strings);
        out.extend_from_slice(b",\"sitename\":");
        self.strings.push(out, row.sitename, strings);
        out.extend_from_slice(b",\"uri_path\":");
        self.strings.push(out, row.uri_path, strings);
        push_status_bytes(out, row.status, row.bytes);
        match row.referer {
            Some(referer) => self.strings.push(out, referer, strings),
            None => out.extend_from_slice(b"null"),
        }
        out.extend_from_slice(b"}\n");
    }
}

/// Encode a table as JSON Lines through a [`JsonlSink`], so the bytes
/// equal streaming the same rows into one. Flushes `w`.
pub fn write_table<W: Write>(w: &mut W, table: &LogTable) -> io::Result<()> {
    let mut sink = JsonlSink::new(w);
    for row in table.rows() {
        sink.write_row(row, table.interner())?;
    }
    sink.finish()
}

/// Encode a dataset: one JSON object per line.
pub fn encode(records: &[AccessRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 192);
    for r in records {
        out.push_str(&encode_record(r));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn sample() -> AccessRecord {
        AccessRecord {
            useragent: "Mozilla/5.0 (compatible; \"Quoted\"Bot/1.0)".into(),
            timestamp: Timestamp::from_date(2025, 2, 12),
            ip_hash: 0xDEAD_BEEF,
            asn: "GOOGLE".into(),
            sitename: "site-00.example.edu".into(),
            uri_path: "/a\\b\tc".into(),
            status: 200,
            bytes: 1234,
            referer: None,
        }
    }

    #[test]
    fn object_shape() {
        let line = encode_record(&sample());
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"timestamp\":\"2025-02-12T00:00:00Z\""));
        assert!(line.contains("\"ip_hash\":\"00000000deadbeef\""));
        assert!(line.contains("\"status\":200"));
        assert!(line.contains("\"referer\":null"));
    }

    #[test]
    fn quotes_and_backslashes_escaped() {
        let line = encode_record(&sample());
        assert!(line.contains("\\\"Quoted\\\"Bot"));
        assert!(line.contains("/a\\\\b\\tc"));
        // The line must be a single physical line.
        assert!(!line.contains('\n'));
    }

    #[test]
    fn control_characters_become_unicode_escapes() {
        let mut r = sample();
        r.useragent = "bad\u{01}agent".into();
        let line = encode_record(&r);
        assert!(line.contains("bad\\u0001agent"));
    }

    #[test]
    fn referer_present() {
        let mut r = sample();
        r.referer = Some("https://ref/?q=\"x\"".into());
        let line = encode_record(&r);
        assert!(line.contains("\"referer\":\"https://ref/?q=\\\"x\\\"\""));
    }

    #[test]
    fn one_line_per_record() {
        let records = vec![sample(), sample(), sample()];
        let text = encode(&records);
        assert_eq!(text.lines().count(), 3);
        assert!(text.ends_with('\n'));
        assert!(encode(&[]).is_empty());
    }

    #[test]
    fn balanced_quotes_and_braces() {
        // Structural sanity for hostile inputs: every line has balanced
        // braces and an even number of unescaped quotes.
        let mut r = sample();
        r.useragent = "\\\"\\\\\"\"\n\r\t".into();
        let line = encode_record(&r);
        let unescaped_quotes = {
            let bytes = line.as_bytes();
            let mut count = 0;
            let mut i = 0;
            while i < bytes.len() {
                if bytes[i] == b'\\' {
                    i += 2;
                    continue;
                }
                if bytes[i] == b'"' {
                    count += 1;
                }
                i += 1;
            }
            count
        };
        assert_eq!(unescaped_quotes % 2, 0, "{line}");
    }
}
