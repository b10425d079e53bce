//! The line-by-line CSV decoder the crate shipped before `CsvRowStream`
//! parsed bytes into rows, kept verbatim as a test oracle: a slow,
//! obviously-correct reference for the accepted language and for every
//! error's line number and message.

use botscope_weblog::codec::{DecodeError, HEADER};
use botscope_weblog::record::AccessRecord;
use botscope_weblog::time::Timestamp;

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

/// [`decode`] over bytes, as a buffered reader sees them: the first
/// line holding invalid UTF-8 fails with the reader's message, unless
/// an earlier line already failed.
pub fn decode_bytes(bytes: &[u8]) -> Result<Vec<AccessRecord>, DecodeError> {
    let e = match std::str::from_utf8(bytes) {
        Ok(text) => return decode(text),
        Err(e) => e,
    };
    let prefix = &bytes[..e.valid_up_to()];
    let line_start = prefix.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let line = 1 + prefix.iter().filter(|&&b| b == b'\n').count();
    decode(std::str::from_utf8(&prefix[..line_start]).expect("valid prefix"))?;
    Err(DecodeError { line, message: "read failed: stream did not contain valid UTF-8".into() })
}
