//! Property-based tests for the web-log substrate.

mod csv_oracle;
mod paper_oracle;

use std::sync::Arc;

use botscope_weblog::codec::{self, decode_table, decode_table_read, HEADER};
use botscope_weblog::colfmt;
use botscope_weblog::intern::StringInterner;
use botscope_weblog::jsonl;
use botscope_weblog::merge::{merge_runs, MergeRun};
use botscope_weblog::record::AccessRecord;
use botscope_weblog::session::Session;
use botscope_weblog::sink::{CsvSink, JsonlSink, RowSink, TableSink};
use botscope_weblog::stream::{prefetch, CsvRowStream, RowStream, PREFETCH_ROWS};
use botscope_weblog::summary::DatasetSummary;
use botscope_weblog::table::{LogTable, RecordRow};
use botscope_weblog::time::{Iso8601Writer, Timestamp};
use proptest::prelude::*;

/// A decoded table as its strings in symbol order plus its rows.
fn strings_and_rows(table: LogTable) -> (Vec<String>, Vec<RecordRow>) {
    let strings = table.interner().iter().map(|(_, s)| s.to_string()).collect();
    (strings, table.rows().to_vec())
}

/// The decoder must agree with [`csv_oracle`] on any input: the same
/// rows with the same symbol order, or the same first error.
fn check_against_oracle(bytes: &[u8]) {
    let want = csv_oracle::decode_bytes(bytes)
        .map(|records| strings_and_rows(LogTable::from_records(&records)));
    assert_eq!(decode_table_read(bytes).map(strings_and_rows), want);
    if let Ok(text) = std::str::from_utf8(bytes) {
        assert_eq!(decode_table(text).map(strings_and_rows), want);
    }
}

/// Bytes that stress the decoder, weighted by repetition: quotes,
/// commas, line breaks, digits, and a Latin-1 `é`, which is not UTF-8.
const CSV_BYTES: &[u8] = b"\"\"\"\",,,,\r\r\n\n\n0123456789\xE9\xE9aT:-+";

/// Per-column values for [`soup_log`]: the first is valid, the rest
/// are the quirky or malformed ones whose handling the oracle pins
/// (quote quirks, signed numbers, out-of-range values).
const SOUP: [&[&str]; 9] = [
    &["GPTBot/1.0", "\"a, \"\"b\"\"\"", "\"a\"b", "\"\"x", "a\"b", "é"],
    &["2025-02-12T00:00:00Z", " 2025-02-12 00:00:00 ", "2025-02-30T00:00:00Z", "not-a-time"],
    &["ff", "+ff", "zz", "\"x\"\"y\"", ""],
    &["GOOGLE", "\"AS,1\""],
    &["site-00.example.edu", "\"unterminated"],
    &["/", "/robots.txt", "\"/a\"\"b\""],
    &["200", "+200", "70000", ""],
    &["10", "+10", "-1"],
    &["", "ref", "\"r,\"\"\"", "ref\r"],
];

/// Line terminators, weighted toward the `\r\r\n` that only one strip
/// of `\r\n` decodes right.
const TERMINATORS: [&str; 6] = ["\n", "\r\n", "\r\r\n", "\r\r\n", "\r", "\n\n"];

/// A headered log whose lines take each column from [`SOUP`] (the valid
/// value half the time, else any), mostly with 9 fields, and end in any
/// of [`TERMINATORS`]. Errors stop a decode, so lines are valid often
/// enough for the quirks in later lines to be reached.
fn soup_log() -> impl Strategy<Value = String> {
    let line = (prop::collection::vec(0usize..64, 12..13), 0u8..8, 0..TERMINATORS.len());
    prop::collection::vec(line, 0..8).prop_map(|lines| {
        let mut text = format!("{HEADER}\n");
        for (picks, count, terminator) in lines {
            let count = match count {
                0 => 10,
                1 => 12,
                _ => 9,
            };
            let fields: Vec<&str> = picks[..count]
                .iter()
                .enumerate()
                .map(
                    |(i, &p)| {
                        if p < 32 {
                            SOUP[i % 9][0]
                        } else {
                            SOUP[i % 9][p % SOUP[i % 9].len()]
                        }
                    },
                )
                .collect();
            text += &fields.join(",");
            text += TERMINATORS[terminator];
        }
        text
    })
}

/// Arbitrary record with adversarial string fields.
fn record_strategy() -> impl Strategy<Value = AccessRecord> {
    (
        "[ -~]{0,60}",         // useragent: printable ASCII incl. quotes/commas
        0u64..4_102_444_800,   // timestamp: epoch..2100
        any::<u64>(),          // ip hash
        "[A-Za-z0-9_-]{1,24}", // asn
        "[a-z0-9.-]{1,30}",    // sitename
        "/[ -~]{0,40}",        // path
        100u16..600,           // status
        0u64..10_000_000,      // bytes
        proptest::option::of("[ -~]{1,40}"),
    )
        .prop_map(
            |(useragent, secs, ip_hash, asn, sitename, uri_path, status, bytes, referer)| {
                AccessRecord {
                    useragent,
                    timestamp: Timestamp::from_unix(secs),
                    ip_hash,
                    asn,
                    sitename,
                    uri_path,
                    status,
                    bytes,
                    referer,
                }
            },
        )
}

/// Pieces of hostile string fields: CSV and JSON metacharacters, line
/// breaks, control bytes, and non-ASCII.
const HOSTILE_PARTS: [&str; 15] = [
    ",", "\"", "\r", "\n", "\r\n", "\\", "\t", "\u{1}", "\u{7f}", "é", "日本", "🤖", "a", " ", "/",
];

/// A string field drawn to break naive encoders: empty, printable
/// ASCII, or a run of [`HOSTILE_PARTS`].
fn hostile_field() -> impl Strategy<Value = String> {
    (0u8..3, "[ -~]{0,20}", prop::collection::vec(0..HOSTILE_PARTS.len(), 0..12)).prop_map(
        |(kind, ascii, parts)| match kind {
            0 => String::new(),
            1 => ascii,
            _ => parts.into_iter().map(|i| HOSTILE_PARTS[i]).collect(),
        },
    )
}

/// Records whose every string field is hostile.
fn hostile_record() -> impl Strategy<Value = AccessRecord> {
    (
        (hostile_field(), hostile_field(), hostile_field(), hostile_field()),
        any::<u64>(),
        any::<u64>(),
        any::<u16>(),
        any::<u64>(),
        proptest::option::of(hostile_field()),
    )
        .prop_map(
            |((useragent, asn, sitename, uri_path), secs, ip_hash, status, bytes, referer)| {
                AccessRecord {
                    useragent,
                    timestamp: Timestamp::from_unix(secs),
                    ip_hash,
                    asn,
                    sitename,
                    uri_path,
                    status,
                    bytes,
                    referer,
                }
            },
        )
}

/// Records over small pools, so runs share strings and canonical keys
/// tie often.
fn pooled_record() -> impl Strategy<Value = AccessRecord> {
    const AGENTS: [&str; 4] = ["GPTBot/1.2", "bot, \"quoted\"", "é-bot", ""];
    const PATHS: [&str; 4] = ["/", "/robots.txt", "/a\nb", "/ü"];
    const REFERERS: [&str; 2] = ["https://r.example/", "x,\"y\""];
    (
        (0..AGENTS.len(), 0u64..4, 0u64..3, 0u8..2, 0u8..2, 0..PATHS.len()),
        proptest::option::of(0..REFERERS.len()),
        0u64..1_000,
    )
        .prop_map(|((agent, t, ip_hash, asn, site, path), referer, bytes)| AccessRecord {
            useragent: AGENTS[agent].into(),
            timestamp: Timestamp::from_unix(1_739_318_400 + t * 43_200),
            ip_hash,
            asn: ["GOOGLE", "AS,1"][usize::from(asn)].into(),
            sitename: format!("site-{site:02}.example.edu"),
            uri_path: PATHS[path].into(),
            status: 200,
            bytes,
            referer: referer.map(|i| REFERERS[i].into()),
        })
}

/// `runs` as canonically sorted BSCL runs over one interner that grows
/// run by run, the way a spilling generation unit writes them, plus
/// that interner in its final state.
fn shared_interner_runs(runs: &[Vec<AccessRecord>]) -> (Arc<StringInterner>, Vec<Vec<u8>>) {
    let mut unit = LogTable::new();
    let bins = runs
        .iter()
        .map(|records| {
            let rows = records
                .iter()
                .map(|r| {
                    unit.push_record(r);
                    *unit.rows().last().expect("pushed")
                })
                .collect();
            let mut run = LogTable::from_parts(unit.interner().clone(), rows);
            run.sort_canonical();
            let mut bytes = Vec::new();
            colfmt::write_table(&mut bytes, &run).expect("encode");
            bytes
        })
        .collect();
    (Arc::new(unit.interner().clone()), bins)
}

/// User agents and paths of [`sort_case`], listed so that interning
/// them in reverse order gives symbol ids against byte order.
const SORT_AGENTS: [&str; 5] = ["", "Amazonbot", "GPTBot/1.2", "zeta-bot", "é-bot"];
const SORT_PATHS: [&str; 4] = ["/", "/a", "/robots.txt", "/ü"];

/// Records shaped against [`LogTable::sort_canonical`]: a few instants
/// on a grid whose step may pass 2^32 s (or 2^61 s, wider than the sort
/// key's time bits, with a few seconds of jitter), small string pools,
/// and canonical keys repeated with only `bytes` and `status` apart.
fn sort_case() -> impl Strategy<Value = Vec<AccessRecord>> {
    const STEPS: [u64; 4] = [1, 43_200, 1 << 33, 1 << 61];
    let step = (0..STEPS.len()).prop_map(|i| STEPS[i]);
    let record = (0u64..4, 0u64..3, 0..SORT_AGENTS.len(), 0u64..2, 0..SORT_PATHS.len(), 0u64..3);
    (step, prop::collection::vec(record, 0..200)).prop_map(|(step, rows)| {
        rows.into_iter()
            .map(|(t, jitter, agent, ip_hash, path, payload)| AccessRecord {
                useragent: SORT_AGENTS[agent].into(),
                timestamp: Timestamp::from_unix(t * step + if step > 1 << 40 { jitter } else { 0 }),
                ip_hash,
                asn: "GOOGLE".into(),
                sitename: "site-00.example.edu".into(),
                uri_path: SORT_PATHS[path].into(),
                status: 200 + payload as u16,
                bytes: payload,
                referer: None,
            })
            .collect()
    })
}

/// Tables long enough to fill several of [`LogTable::sort_canonical`]'s
/// time buckets: 2,000–20,000 rows on up to a few hundred instants, or
/// on eight instants 2^61 s apart with a few seconds of jitter (so the
/// key's time bits drop low bits). The rows come shuffled, in time
/// order (the bucketing pass is skipped), in reverse time order, or
/// all at one instant.
fn bucketed_sort_case() -> impl Strategy<Value = Vec<AccessRecord>> {
    let record = (0u64..400, 0u64..4, 0..SORT_AGENTS.len(), 0u64..2, 0..SORT_PATHS.len(), 0u64..3);
    let rows = prop::collection::vec(record, 2_000..20_000);
    (0u8..4, any::<bool>(), 1u64..400, rows).prop_map(|(order, wide, instants, rows)| {
        let mut records: Vec<AccessRecord> = rows
            .into_iter()
            .map(|(t, jitter, agent, ip_hash, path, payload)| AccessRecord {
                useragent: SORT_AGENTS[agent].into(),
                timestamp: Timestamp::from_unix(match (order, wide) {
                    (3, _) => 1_739_318_400,
                    (_, true) => (t % 8) << 61 | jitter,
                    (_, false) => 1_739_318_400 + t % instants * 60,
                }),
                ip_hash,
                asn: "GOOGLE".into(),
                sitename: "site-00.example.edu".into(),
                uri_path: SORT_PATHS[path].into(),
                status: 200 + payload as u16,
                bytes: payload,
                referer: None,
            })
            .collect();
        match order {
            1 => records.sort_by_key(|r| r.timestamp),
            2 => records.sort_by_key(|r| std::cmp::Reverse(r.timestamp)),
            _ => {}
        }
        records
    })
}

/// [`LogTable::sort_canonical`] must give what a stable sort on the
/// canonical key gives. Symbols are interned against byte order, so an
/// id-ordered sort would disagree with the string order.
fn check_sort_against_stable_sort(records: Vec<AccessRecord>) {
    let mut table = LogTable::new();
    for s in SORT_AGENTS.iter().chain(&SORT_PATHS).rev() {
        table.intern(s);
    }
    for r in &records {
        table.push_record(r);
    }
    table.sort_canonical();
    let mut expect = records;
    expect.sort_by(|a, b| {
        (a.timestamp, a.useragent.as_str(), a.ip_hash, a.uri_path.as_str()).cmp(&(
            b.timestamp,
            b.useragent.as_str(),
            b.ip_hash,
            b.uri_path.as_str(),
        ))
    });
    assert_eq!(table.to_records(), expect);
}

/// Logs shaped for sessionization: a few entities, instants on a
/// 150-second grid with a gap of 1–3 grid steps, so deltas of exactly
/// the gap are common. Half the logs are tie-heavy: every access shares
/// one UA and IP, entities differ only in ASN, and runs of six grid
/// draws collapse onto one instant.
fn session_log() -> impl Strategy<Value = (Vec<AccessRecord>, u64)> {
    const AGENTS: [&str; 3] = ["GPTBot/1.2", "bingbot/2.0", "é-bot"];
    const ASNS: [&str; 4] = ["GOOGLE", "AS,1", "OVH", "AMAZON-02"];
    const PATHS: [&str; 3] = ["/", "/a", "/robots.txt"];
    let access = ((0..AGENTS.len(), 0u64..2, 0..ASNS.len()), 0u64..24, (0u8..2, 0..PATHS.len()));
    (any::<bool>(), prop::collection::vec((access, 0u64..5_000), 0..60), 1u64..4).prop_map(
        |(ties, accesses, gap_steps)| {
            let records = accesses
                .into_iter()
                .map(|(((agent, ip_hash, asn), step, (site, path)), bytes)| AccessRecord {
                    useragent: AGENTS[if ties { 0 } else { agent }].into(),
                    timestamp: Timestamp::from_unix(
                        1_739_318_400 + if ties { step / 6 * 150 } else { step * 150 },
                    ),
                    ip_hash: if ties { 7 } else { ip_hash },
                    asn: ASNS[asn].into(),
                    sitename: format!("site-{site:02}.example.edu"),
                    uri_path: PATHS[path].into(),
                    status: 200,
                    bytes,
                    referer: None,
                })
                .collect();
            (records, gap_steps * 150)
        },
    )
}

/// `records` as the paper oracle's plain access tuples.
fn oracle_log(records: &[AccessRecord]) -> Vec<paper_oracle::Access> {
    records
        .iter()
        .map(|r| {
            let (t, site, path) = (r.timestamp.unix(), r.sitename.clone(), r.uri_path.clone());
            (r.asn.clone(), r.ip_hash, r.useragent.clone(), t, site, path, r.bytes)
        })
        .collect()
}

/// A table session as the paper oracle's tuple.
fn oracle_session(s: Session) -> paper_oracle::Session {
    let span = (s.start.unix(), s.end.unix(), s.accesses, s.bytes);
    (s.useragent, s.ip_hash, s.asn, span.0, span.1, span.2, span.3, s.urls)
}

/// `LogTable::sessionize` and `DatasetSummary` over `records` equal the
/// paper oracle, session for session and in order.
fn check_against_paper_oracle(records: &[AccessRecord], gap: u64) {
    let table = LogTable::from_records(records);
    assert_eq!(table.to_records(), records);
    let log = oracle_log(records);
    let sessions: Vec<paper_oracle::Session> =
        table.sessionize(gap).into_iter().map(oracle_session).collect();
    assert_eq!(sessions, paper_oracle::sessions(&log, gap), "gap {gap}");
    let s = DatasetSummary::compute_table_with_gap(&table, gap);
    let counts = (
        s.unique_ips,
        s.unique_user_agents,
        s.unique_asns,
        s.total_bytes,
        s.total_page_visits,
        s.unique_page_visits,
        s.raw_records,
    );
    let want = paper_oracle::summary(&log, gap);
    assert_eq!(counts, want, "gap {gap}");
    let avg = if want.4 == 0 { 0.0 } else { want.3 as f64 / want.4 as f64 };
    assert_eq!(s.avg_bytes_per_session, avg);
}

/// The formatting `Timestamp::to_iso8601` used before
/// [`Iso8601Writer`].
fn format_iso(t: Timestamp) -> String {
    let c = t.civil();
    format!(
        "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
        c.year, c.month, c.day, c.hour, c.minute, c.second
    )
}

/// A CSV field, quoted per RFC 4180 §2 when it holds a comma, a double
/// quote or a line break, with each inner double quote doubled.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\r', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The CSV line of one record (no terminator): nine comma-separated
/// fields, the IP hash as 16 lowercase hex digits, no referer as an
/// empty field.
fn csv_line(r: &AccessRecord) -> String {
    [
        csv_field(&r.useragent),
        format_iso(r.timestamp),
        format!("{:016x}", r.ip_hash),
        csv_field(&r.asn),
        csv_field(&r.sitename),
        csv_field(&r.uri_path),
        r.status.to_string(),
        r.bytes.to_string(),
        csv_field(r.referer.as_deref().unwrap_or("")),
    ]
    .join(",")
}

/// A headered CSV log of `records`, every line newline-terminated.
fn csv_text(records: &[AccessRecord]) -> String {
    let mut text = format!("{HEADER}\n");
    for r in records {
        text += &csv_line(r);
        text.push('\n');
    }
    text
}

/// A JSON string per RFC 8259 §7: quote, backslash and the control
/// characters U+0000..U+001F escaped (the two-character forms where
/// the RFC has one, else `\u00xx`); everything else verbatim.
fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The JSON Lines of `records`: one object per record in schema field
/// order, numbers bare, no referer as `null`.
fn jsonl_text(records: &[AccessRecord]) -> String {
    records
        .iter()
        .map(|r| {
            format!(
                "{{\"useragent\":{},\"timestamp\":\"{}\",\"ip_hash\":\"{:016x}\",\"asn\":{},\
                 \"sitename\":{},\"uri_path\":{},\"status\":{},\"bytes\":{},\"referer\":{}}}\n",
                json_string(&r.useragent),
                format_iso(r.timestamp),
                r.ip_hash,
                json_string(&r.asn),
                json_string(&r.sitename),
                json_string(&r.uri_path),
                r.status,
                r.bytes,
                r.referer.as_deref().map_or("null".to_string(), json_string),
            )
        })
        .collect()
}

/// Stream `table`'s rows through `sink`, then finish it.
fn feed(sink: &mut dyn RowSink, table: &LogTable) {
    for row in table.rows() {
        sink.write_row(row, table.interner()).expect("write row");
    }
    sink.finish().expect("finish");
}

#[test]
fn a_delta_of_exactly_the_gap_splits_sessions() {
    let at = |t: u64| AccessRecord {
        useragent: "GPTBot/1.2".into(),
        timestamp: Timestamp::from_unix(t),
        ip_hash: 7,
        asn: "GOOGLE".into(),
        sitename: "site-00.example.edu".into(),
        uri_path: "/".into(),
        status: 200,
        bytes: 1,
        referer: None,
    };
    let records = [at(0), at(299), at(599)];
    let table = LogTable::from_records(&records);
    // 0 → 299 is inside a 300 s gap; 299 → 599 is exactly the gap.
    assert_eq!(table.sessionize(300).len(), 2);
    assert_eq!(table.sessionize(301).len(), 1);
    for gap in [299, 300, 301] {
        check_against_paper_oracle(&records, gap);
    }
}

#[test]
fn iso_writer_matches_format_across_calendar_boundaries() {
    // Midnights either side of month ends, year ends, leap days
    // (2000 leap century, 2100 not leap, 2024 leap, 2025 not) and the
    // four-to-five-digit year rollover, written through one writer so
    // the per-day prefix cache is exercised at every boundary.
    let mut writer = Iso8601Writer::new();
    let mut days = Vec::new();
    for (y, m, d) in [
        (1970, 1, 1),
        (1999, 12, 31),
        (2000, 2, 28),
        (2000, 2, 29),
        (2000, 3, 1),
        (2024, 2, 29),
        (2025, 2, 28),
        (2025, 3, 1),
        (2025, 12, 31),
        (2100, 2, 28),
        (2100, 3, 1),
        (9999, 12, 31),
    ] {
        days.push(Timestamp::from_date(y, m, d).unix() / 86_400);
    }
    for day in days {
        let midnight = day * 86_400;
        for secs in [
            midnight.saturating_sub(1),
            midnight,
            midnight + 1,
            midnight + 86_399,
            midnight + 86_400,
        ] {
            let t = Timestamp::from_unix(secs);
            let mut out = Vec::new();
            writer.push(&mut out, t);
            assert_eq!(String::from_utf8(out).unwrap(), format_iso(t), "{secs}");
            assert_eq!(t.to_iso8601(), format_iso(t), "{secs}");
        }
    }
}

proptest! {
    // Small inputs, and most of a case's chance to find a difference
    // is in its first lines, so sample many cases.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn csv_decoder_matches_oracle_on_valid_logs(
        records in prop::collection::vec(record_strategy(), 0..30),
    ) {
        check_against_oracle(csv_text(&records).as_bytes());
    }

    #[test]
    fn csv_decoder_matches_oracle_on_hostile_logs(
        records in prop::collection::vec(hostile_record(), 0..10),
    ) {
        check_against_oracle(csv_text(&records).as_bytes());
    }

    #[test]
    fn csv_decoder_matches_oracle_on_arbitrary_text(text in "[ -~\n]{0,500}") {
        check_against_oracle(text.as_bytes());
    }

    #[test]
    fn csv_decoder_matches_oracle_on_headered_garbage(
        lines in prop::collection::vec("[ -~]{0,60}", 0..20),
    ) {
        // A valid header followed by arbitrary body lines: exercises the
        // per-record error paths rather than the header check.
        check_against_oracle(format!("{HEADER}\n{}", lines.join("\n")).as_bytes());
    }

    #[test]
    fn csv_decoder_matches_oracle_on_tampered_logs(
        records in prop::collection::vec(record_strategy(), 1..15),
        pos in 0usize..100_000,
        byte in 0x20u8..0x7F,
    ) {
        let mut text = csv_text(&records).into_bytes();
        let at = pos % text.len();
        text[at] = byte;
        check_against_oracle(&text);
    }

    #[test]
    fn csv_decoder_matches_oracle_on_raw_bytes(
        records in prop::collection::vec(record_strategy(), 0..6),
        edits in prop::collection::vec((0usize..100_000, 0..CSV_BYTES.len(), any::<bool>()), 0..40),
    ) {
        // Splice bytes from CSV_BYTES into a valid log (with no records:
        // into the bare header), inserting or overwriting.
        let mut bytes = csv_text(&records).into_bytes();
        for (pos, byte, insert) in edits {
            let at = pos % (bytes.len() + 1);
            if insert || at == bytes.len() {
                bytes.insert(at, CSV_BYTES[byte]);
            } else {
                bytes[at] = CSV_BYTES[byte];
            }
        }
        check_against_oracle(&bytes);
    }

    #[test]
    fn csv_decoder_matches_oracle_on_column_soup(text in soup_log()) {
        check_against_oracle(text.as_bytes());
    }
}

proptest! {
    #[test]
    fn iso_writer_matches_format_on_random_instants(secs in any::<u64>()) {
        let t = Timestamp::from_unix(secs);
        prop_assert_eq!(t.to_iso8601(), format_iso(t));
    }

    #[test]
    fn iso_writer_cache_matches_format_on_any_sequence(
        instants in prop::collection::vec(0u64..400_000_000_000, 0..40),
        sorted in any::<bool>(),
    ) {
        // Chronological streams hit the per-day cache; shuffled ones
        // refill it. Both must equal formatting each instant afresh.
        let mut instants = instants;
        if sorted {
            instants.sort_unstable();
        }
        let mut writer = Iso8601Writer::new();
        let mut out = Vec::new();
        let mut expect = String::new();
        for &secs in &instants {
            writer.push(&mut out, Timestamp::from_unix(secs));
            expect.push_str(&format_iso(Timestamp::from_unix(secs)));
        }
        prop_assert_eq!(String::from_utf8(out).expect("ASCII"), expect);
    }

    #[test]
    fn text_encoders_match_per_record_reference(
        records in prop::collection::vec(hostile_record(), 0..40),
    ) {
        let table = LogTable::from_records(&records);
        let csv_expect = csv_text(&records).into_bytes();
        let jsonl_expect = jsonl_text(&records).into_bytes();

        let mut csv = Vec::new();
        codec::write_table(&mut csv, &table).expect("write csv");
        prop_assert_eq!(&csv, &csv_expect);
        let mut sink = CsvSink::new(Vec::new()).expect("csv sink");
        feed(&mut sink, &table);
        prop_assert_eq!(&sink.into_inner(), &csv_expect);

        let mut json = Vec::new();
        jsonl::write_table(&mut json, &table).expect("write jsonl");
        prop_assert_eq!(&json, &jsonl_expect);
        let mut sink = JsonlSink::new(Vec::new());
        feed(&mut sink, &table);
        prop_assert_eq!(&sink.into_inner(), &jsonl_expect);
    }

    #[test]
    fn sort_canonical_matches_stable_sort_oracle(records in sort_case()) {
        check_sort_against_stable_sort(records);
    }

    #[test]
    fn every_sink_through_merge_matches_stable_sorted_reference(
        runs in prop::collection::vec(prop::collection::vec(pooled_record(), 0..8), 40..48),
    ) {
        // Each table run interns on its own, so symbol ids disagree
        // across runs; the raw runs share one growing interner, as a
        // spilling unit's runs do. The merge must still emit the
        // concatenate-then-stable-sort order, and every sink the bytes
        // of that order, at any thread count. Forty-odd runs, some
        // empty, over a few hundred keys: equal keys meet across many
        // runs and must drain in run order.
        let mut sorted: Vec<AccessRecord> = runs.concat();
        sorted.sort_by(|a, b| {
            (a.timestamp, &a.useragent, a.ip_hash, &a.uri_path)
                .cmp(&(b.timestamp, &b.useragent, b.ip_hash, &b.uri_path))
        });
        let (shared, bins) = shared_interner_runs(&runs);
        let table_runs = || runs.iter().map(|rs| MergeRun::from_table(LogTable::from_records(rs))).collect();
        let raw_runs = || {
            bins.iter()
                .map(|bytes| {
                    let reader = colfmt::BinReader::new_raw(std::io::Cursor::new(bytes.clone()))
                        .expect("header");
                    MergeRun::from_sorted_stream(Arc::clone(&shared), Box::new(reader))
                })
                .collect()
        };
        // BinSink assigns file ids in field order on first sight, as
        // push_record interns: below one page of rows its bytes are the
        // whole-table writer's over the sorted records.
        let mut bin_expect = Vec::new();
        colfmt::write_table(&mut bin_expect, &LogTable::from_records(&sorted)).expect("encode");
        for threads in [1, 2, 8] {
            for (shape, merge_runs_of) in
                [("table", &table_runs as &dyn Fn() -> Vec<MergeRun>), ("raw", &raw_runs)]
            {
                let case = format!("{shape} runs, {threads} threads");
                let mut csv = CsvSink::new(Vec::new()).expect("csv sink");
                let mut json = JsonlSink::new(Vec::new());
                let mut bin = colfmt::BinSink::new(Vec::new()).expect("bin sink");
                let mut table = TableSink::new();
                let n = merge_runs(
                    merge_runs_of(),
                    threads,
                    &mut [&mut csv as &mut dyn RowSink, &mut json, &mut bin, &mut table],
                )
                .expect("merge");
                prop_assert_eq!(n as usize, sorted.len(), "{}", case);

                prop_assert_eq!(csv.into_inner(), csv_text(&sorted).into_bytes(), "{}", case);
                prop_assert_eq!(json.into_inner(), jsonl_text(&sorted).into_bytes(), "{}", case);
                prop_assert_eq!(table.table.to_records(), sorted.clone(), "{}", case);
                prop_assert_eq!(bin.into_inner(), bin_expect.clone(), "{}", case);
            }
        }
    }

    #[test]
    fn csv_roundtrip(records in prop::collection::vec(record_strategy(), 0..30)) {
        // The decoder is line-oriented by design: a line break ends the
        // line even inside quotes, so a field holding one is rejected.
        // The strategy draws none; quoting handles commas and quotes.
        let text = csv_text(&records);
        let back = decode_table(&text).expect("decode what we encoded");
        prop_assert_eq!(back.to_records(), records);
    }

    #[test]
    fn table_agrees_with_paper_oracle(log in session_log()) {
        check_against_paper_oracle(&log.0, log.1);
    }

    #[test]
    fn table_agrees_with_paper_oracle_on_sparse_logs(
        records in prop::collection::vec(record_strategy(), 0..50),
        gap in 1u64..50_000,
    ) {
        check_against_paper_oracle(&records, gap);
    }

    #[test]
    fn timestamp_roundtrip(secs in 0u64..4_102_444_800) {
        let t = Timestamp::from_unix(secs);
        let parsed = Timestamp::parse_iso8601(&t.to_iso8601()).expect("own output parses");
        prop_assert_eq!(parsed, t);
    }

    #[test]
    fn civil_fields_in_range(secs in 0u64..4_102_444_800) {
        let c = Timestamp::from_unix(secs).civil();
        prop_assert!((1..=12).contains(&c.month));
        prop_assert!((1..=31).contains(&c.day));
        prop_assert!(c.hour < 24 && c.minute < 60 && c.second < 60);
        prop_assert!((1970..=2100).contains(&c.year));
    }

    #[test]
    fn sessionize_conserves_accesses_and_bytes(log in session_log()) {
        let (records, gap) = log;
        let sessions = LogTable::from_records(&records).sessionize(gap);
        let total_accesses: u64 = sessions.iter().map(|s| s.accesses).sum();
        prop_assert_eq!(total_accesses, records.len() as u64);
        let total_bytes: u64 = sessions.iter().map(|s| s.bytes).sum();
        let expect: u64 = records.iter().map(|r| r.bytes).sum();
        prop_assert_eq!(total_bytes, expect);
    }

    #[test]
    fn sessionize_monotone_in_gap(log in session_log()) {
        let (records, gap) = log;
        // A larger gap can only merge sessions, never split them.
        let table = LogTable::from_records(&records);
        let small = table.sessionize(gap).len();
        let large = table.sessionize(gap * 2).len();
        prop_assert!(large <= small, "gap {gap}: {small} vs {large}");
    }

    #[test]
    fn sessions_never_cross_entities(log in session_log()) {
        let (records, gap) = log;
        for s in LogTable::from_records(&records).sessionize(gap) {
            let members: Vec<&AccessRecord> = records
                .iter()
                .filter(|r| {
                    r.useragent == s.useragent && r.ip_hash == s.ip_hash && r.asn == s.asn
                })
                .collect();
            prop_assert!(s.accesses as usize <= members.len());
        }
    }

    #[test]
    fn robots_fetches_are_recognized_on_interned_rows(
        records in prop::collection::vec(record_strategy(), 0..50),
    ) {
        let table = LogTable::from_records(&records);
        let robots_total = table.rows().iter().filter(|row| table.is_robots_fetch(row)).count();
        let expect = records.iter().filter(|r| r.is_robots_fetch()).count();
        prop_assert_eq!(robots_total, expect);
    }

    #[test]
    fn binary_roundtrip_matches_csv_and_table(
        records in prop::collection::vec(record_strategy(), 0..40),
    ) {
        let table = LogTable::from_records(&records);

        // Materialized writer (full dictionary up front, ids preserved).
        let mut bin = Vec::new();
        colfmt::write_table(&mut bin, &table).expect("encode binary");
        let back = colfmt::read_table(&bin[..]).expect("decode own binary");
        prop_assert_eq!(back.to_records(), records.clone());

        // Streaming writer (dictionary deltas, sink-side re-interning).
        let mut sink = colfmt::BinSink::new(Vec::new()).expect("bin sink");
        for row in table.rows() {
            sink.write_row(row, table.interner()).expect("write row");
        }
        sink.finish().expect("finish");
        let streamed_bytes = sink.into_inner();
        let back = colfmt::read_table(&streamed_bytes[..]).expect("decode streamed binary");
        prop_assert_eq!(back.to_records(), records.clone());

        // Row-by-row reader agrees with the CSV round trip record for
        // record (interner remapping included: the reader builds its
        // own dictionary, so symbol ids need not match the writer's).
        let csv = csv_text(&records);
        let from_csv = decode_table(&csv).expect("decode own CSV").to_records();
        let mut reader = colfmt::BinReader::new(&bin[..]).expect("binary header");
        let mut from_bin = Vec::new();
        while let Some(row) = reader.next_row() {
            let row = row.expect("clean row");
            let i = reader.interner();
            from_bin.push(AccessRecord {
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
        prop_assert_eq!(from_bin, from_csv);
    }

    #[test]
    fn binary_concatenated_chunks_roundtrip(
        a in prop::collection::vec(record_strategy(), 0..20),
        b in prop::collection::vec(record_strategy(), 0..20),
    ) {
        // Two chunks through one sink exercise dictionary-delta pages:
        // chunk b's new strings arrive in a later dict page and must
        // remap onto the reader's interner cleanly.
        let expect: Vec<AccessRecord> = a.into_iter().chain(b).collect();
        let table = LogTable::from_records(&expect);
        let mut sink = colfmt::BinSink::new(Vec::new()).expect("bin sink").with_page_rows(7);
        for row in table.rows() {
            sink.write_row(row, table.interner()).expect("write row");
        }
        sink.finish().expect("finish");
        let bytes = sink.into_inner();
        let back = colfmt::read_table(&bytes[..]).expect("decode");
        prop_assert_eq!(back.to_records(), expect);
    }

    #[test]
    fn binary_mutation_never_panics(
        records in prop::collection::vec(record_strategy(), 1..15),
        pos in 0usize..100_000,
        byte in any::<u8>(),
    ) {
        // Flip one byte anywhere in a valid binary log: decoding must
        // return clean records or a DecodeError — never panic, and
        // never allocate from a hostile length field.
        let table = LogTable::from_records(&records);
        let mut bytes = Vec::new();
        colfmt::write_table(&mut bytes, &table).expect("encode binary");
        let at = pos % bytes.len();
        bytes[at] = byte;
        match colfmt::read_table(&bytes[..]) {
            Ok(table) => prop_assert!(table.len() <= records.len() + bytes.len()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        // The raw (dictionary-skipping) reader must be just as safe.
        match colfmt::BinReader::new_raw(&bytes[..]) {
            Err(e) => prop_assert!(!e.to_string().is_empty()),
            Ok(mut raw) => {
                let mut n = 0usize;
                while let Some(row) = raw.next_row() {
                    match row {
                        Ok(_) => n += 1,
                        Err(e) => {
                            prop_assert!(!e.to_string().is_empty());
                            break;
                        }
                    }
                }
                prop_assert!(n <= records.len() + bytes.len());
            }
        }
    }

    #[test]
    fn binary_truncation_never_panics(
        records in prop::collection::vec(record_strategy(), 1..15),
        keep in 0usize..100_000,
    ) {
        // Any prefix of a valid binary log decodes cleanly or fails
        // with a DecodeError mentioning truncation — never a panic.
        let table = LogTable::from_records(&records);
        let mut bytes = Vec::new();
        colfmt::write_table(&mut bytes, &table).expect("encode binary");
        bytes.truncate(keep % (bytes.len() + 1));
        match colfmt::read_table(&bytes[..]) {
            Ok(table) => prop_assert!(table.len() <= records.len()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn csv_decode_errors_carry_one_based_line_numbers(
        records in prop::collection::vec(record_strategy(), 0..12),
        at in 0usize..13,
    ) {
        // Insert one malformed body line into a valid log: the reported
        // line number must point at it exactly, counting the header as
        // line 1.
        let at = at.min(records.len());
        let mut lines: Vec<String> = csv_text(&records).lines().map(String::from).collect();
        lines.insert(1 + at, "not,a,record".into());
        let text = lines.join("\n");
        let err = decode_table(&text).expect_err("malformed line must fail");
        prop_assert_eq!(err.line, 1 + at + 1, "header is line 1, body starts at 2");
    }

    #[test]
    fn summary_counts_bounded_by_records(
        records in prop::collection::vec(record_strategy(), 0..50),
    ) {
        let s = DatasetSummary::compute_table(&LogTable::from_records(&records));
        prop_assert!(s.unique_ips <= records.len());
        prop_assert!(s.unique_user_agents <= records.len());
        prop_assert!(s.unique_asns <= records.len());
        prop_assert!(s.total_page_visits <= records.len());
        prop_assert!(s.unique_page_visits <= records.len());
        prop_assert_eq!(s.raw_records, records.len());
        prop_assert_eq!(s.total_bytes, records.iter().map(|r| r.bytes).sum::<u64>());
    }
}

proptest! {
    // Each case sorts thousands of rows.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sort_canonical_matches_stable_sort_oracle_across_buckets(records in bucketed_sort_case()) {
        check_sort_against_stable_sort(records);
    }
}

/// What a consumer observes of a stream: each row as it arrives, both
/// raw and resolved against the interner of that moment, the first
/// error, and the final interner in id order. The stream must fuse.
type Observed = (Vec<RecordRow>, Vec<AccessRecord>, Option<String>, Vec<String>);

fn observe(stream: &mut dyn RowStream) -> Observed {
    let (mut rows, mut records, mut error) = (Vec::new(), Vec::new(), None);
    while let Some(row) = stream.next_row() {
        match row {
            Ok(row) => {
                let i = stream.interner();
                records.push(AccessRecord {
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
                rows.push(row);
            }
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    assert!(stream.next_row().is_none(), "the stream fuses");
    let strings = stream.interner().iter().map(|(_, s)| s.to_string()).collect();
    (rows, records, error, strings)
}

/// `bytes` as a BSCL or CSV stream, drained directly and through
/// `prefetch` at 1 and 2 threads: all three must observe the same.
fn check_prefetch(bytes: &[u8]) {
    if bytes.starts_with(&colfmt::MAGIC) {
        check_prefetch_of(|| colfmt::BinReader::new(bytes).ok());
    } else {
        check_prefetch_of(|| CsvRowStream::new(bytes).ok());
    }
}

fn check_prefetch_of<S: RowStream + Send>(open: impl Fn() -> Option<S>) {
    let Some(mut direct) = open() else { return };
    let expect = observe(&mut direct);
    for threads in [1, 2] {
        let got = prefetch(open().expect("opens as before"), threads, observe);
        assert!(got == expect, "{threads} threads: {:?} vs {:?}", got.2, expect.2);
    }
}

/// `records` as a BSCL stream with a dictionary page before every
/// `page_rows` rows, or as CSV; then truncated at or flipped at `at`.
fn prefetch_case(
    records: &[AccessRecord],
    bin: bool,
    page_rows: usize,
    cut: u8,
    at: usize,
) -> Vec<u8> {
    let table = LogTable::from_records(records);
    let mut bytes = if bin {
        let mut sink =
            colfmt::BinSink::new(Vec::new()).expect("bin sink").with_page_rows(page_rows);
        feed(&mut sink, &table);
        sink.into_inner()
    } else {
        csv_text(records).into_bytes()
    };
    let at = at % (bytes.len() + 1);
    match cut {
        1 => bytes.truncate(at),
        2 if at < bytes.len() => bytes[at] ^= 0x5A,
        _ => {}
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prefetch_matches_direct_drain(
        records in prop::collection::vec(record_strategy(), 0..40),
        bin in any::<bool>(),
        page_rows in 1usize..9,
        cut in 0u8..3,
        at in any::<usize>(),
    ) {
        check_prefetch(&prefetch_case(&records, bin, page_rows, cut, at));
    }
}

proptest! {
    // Each case streams several prefetch batches.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prefetch_matches_direct_drain_across_batches(
        seed in prop::collection::vec(record_strategy(), 1..4),
        n in 0..3 * PREFETCH_ROWS,
        bin in any::<bool>(),
        cut in 0u8..3,
        at in any::<usize>(),
    ) {
        // New paths keep arriving, so later batches carry new strings.
        let records: Vec<AccessRecord> = (0..n)
            .map(|i| AccessRecord {
                uri_path: format!("/p/{}", i % 5_000),
                ..seed[i % seed.len()].clone()
            })
            .collect();
        check_prefetch(&prefetch_case(&records, bin, 1_000, cut, at));
    }
}

/// The string an interner operation names: `shape` picks empty, shared
/// prefix, multi-byte UTF-8, long, trailing-NUL and heavily duplicated
/// strings, `n` the member.
fn interner_key(shape: u8, n: usize) -> String {
    match shape {
        0 => String::new(),
        1 => format!("/news/item-{n:04}"),
        2 => format!("{}{n}", "é日🤖".repeat(n % 5)),
        3 => format!("{}{n}", "GPTBot/1.2 ".repeat(20 + n % 30)),
        4 => format!("a{}", "\0".repeat(n % 10)),
        _ => format!("dup-{}", n % 4),
    }
}

/// Apply `ops` (intern, or look up, `interner_key(shape, n)`) to an
/// interner and to the naive model of one: every string in a `Vec` in
/// first-sight order, found by linear search.
fn run_interner_ops(
    interner: &mut StringInterner,
    model: &mut Vec<String>,
    ops: &[(bool, u8, usize)],
) {
    for &(intern, shape, n) in ops {
        let key = interner_key(shape, n);
        let seen = model.iter().position(|s| *s == key);
        if intern {
            let sym = interner.intern(&key);
            assert_eq!(sym.index(), seen.unwrap_or(model.len()), "dense first-sight id of {key:?}");
            if seen.is_none() {
                model.push(key);
            }
        } else {
            assert_eq!(
                interner.get(&key).map(botscope_weblog::intern::Sym::index),
                seen,
                "get {key:?}"
            );
        }
    }
}

/// Every observable of `interner` agrees with `model`.
fn check_interner_against_model(interner: &StringInterner, model: &[String], tail_from: usize) {
    assert_eq!(interner.len(), model.len());
    assert_eq!(interner.is_empty(), model.is_empty());
    for (i, s) in model.iter().enumerate() {
        let sym = interner.get(s).expect("interned string is found");
        assert_eq!(sym.index(), i);
        assert_eq!(interner.resolve(sym), s);
    }
    let all: Vec<(usize, &str)> = interner.iter().map(|(sym, s)| (sym.index(), s)).collect();
    let want: Vec<(usize, &str)> = model.iter().map(String::as_str).enumerate().collect();
    assert_eq!(all, want);
    let start = tail_from % (model.len() + 2);
    let tail: Vec<(usize, &str)> =
        interner.iter_from(start).map(|(sym, s)| (sym.index(), s)).collect();
    assert_eq!(tail, want.get(start..).unwrap_or_default());
}

/// Intern/get operations: intern two times in three; `n` ranges wide
/// enough that a long run holds ~2,000 distinct strings and so crosses
/// every slot-table growth up to 4,096 slots.
fn interner_ops(max: usize) -> impl Strategy<Value = Vec<(bool, u8, usize)>> {
    prop::collection::vec((0u8..3, 0u8..7, 0usize..2_500), 0..max)
        .prop_map(|ops| ops.into_iter().map(|(op, shape, n)| (op < 2, shape, n)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interner_matches_naive_model(
        ops in interner_ops(4_000),
        more in interner_ops(600),
        split in 0usize..4_000,
        tail_from in 0usize..3_000,
    ) {
        let split = split.min(ops.len());
        let (mut interner, mut model) = (StringInterner::new(), Vec::new());
        run_interner_ops(&mut interner, &mut model, &ops[..split]);
        // A clone grows on its own: neither side sees the other's strings.
        let (mut clone, mut clone_model) = (interner.clone(), model.clone());
        run_interner_ops(&mut interner, &mut model, &ops[split..]);
        run_interner_ops(&mut clone, &mut clone_model, &more);
        check_interner_against_model(&interner, &model, tail_from);
        check_interner_against_model(&clone, &clone_model, tail_from);
        let unseen = [1, 2, 3].map(|shape| interner_key(shape, 2_500));
        for key in unseen.iter().map(String::as_str).chain(["a\0\0\0\0\0\0\0\0\0\0", "dup-4", "\0"]) {
            prop_assert_eq!(interner.get(key), None, "never-interned {:?}", key);
            prop_assert_eq!(clone.get(key), None, "never-interned {:?}", key);
        }
    }

    #[test]
    fn interner_with_capacity_matches_naive_model(ops in interner_ops(300), cap in 0usize..600) {
        let (mut interner, mut model) = (StringInterner::with_capacity(cap), Vec::new());
        run_interner_ops(&mut interner, &mut model, &ops);
        check_interner_against_model(&interner, &model, cap);
    }
}
