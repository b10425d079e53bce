//! Hostile `admit` query files: truncated, byte-flipped, spliced and
//! CRLF variants of a valid file, empty fields, commas in paths and a
//! header-only file. Every one must parse to its queries or fail with
//! exactly one `line N: …` / `no queries …` line, never panic.

use botscope::pipelines::{self, Error, Query};
use proptest::prelude::*;

/// A query file: optional header, then `agent,site,path` rows whose
/// fields may be empty and whose paths may hold commas, with blank and
/// space-padded lines mixed in.
fn query_file() -> impl Strategy<Value = String> {
    (
        any::<bool>(),
        prop::collection::vec(("[A-Za-z ]{0,6}", "[a-z.]{0,8}", "[/a-z,% ]{0,12}", 0..8u8), 0..14),
    )
        .prop_map(|(header, rows)| {
            let mut text = if header { String::from("agent,site,path\n") } else { String::new() };
            for (agent, site, path, shape) in rows {
                match shape {
                    0 => text.push('\n'),
                    1 => text.push_str(&format!("  {agent},{site},{path}  \n")),
                    2 => text.push_str(&format!("{agent},{site}\n")),
                    _ => text.push_str(&format!("{agent},{site},{path}\n")),
                }
            }
            text
        })
}

/// Apply one mutation: truncate, flip a byte, splice in the tail of
/// `other`, or switch to CRLF line ends (0 leaves `text` as it is).
fn mutate(text: &str, other: &str, kind: u8, at: usize, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let cut = at % (bytes.len() + 1);
    match kind {
        1 => bytes.truncate(cut),
        2 if !bytes.is_empty() => bytes[at % text.len()] ^= byte | 1,
        3 => {
            bytes.truncate(cut);
            bytes.extend_from_slice(&other.as_bytes()[at % (other.len() + 1)..]);
        }
        4 => return text.replace('\n', "\r\n"),
        _ => {}
    }
    // `admit` reads its file as UTF-8 text before parsing.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Whether the trimmed line `line` is a valid row: three fields split at
/// the first two commas, agent and site non-empty.
fn is_row(line: &str) -> bool {
    let fields: Vec<&str> = line.splitn(3, ',').collect();
    fields.len() == 3 && !fields[0].is_empty() && !fields[1].is_empty()
}

/// The parser's contract, checked line by line against the text.
fn check(text: &str, parsed: Result<Vec<Query<'_>>, Error>) {
    let rows: Vec<(usize, &str)> = text
        .lines()
        .map(str::trim)
        .enumerate()
        .filter(|&(i, line)| !(line.is_empty() || (i == 0 && line == "agent,site,path")))
        .collect();
    match parsed {
        Ok(queries) => {
            assert_eq!(queries.len(), rows.len(), "{text:?}");
            for (q, (_, line)) in queries.iter().zip(&rows) {
                assert_eq!(format!("{},{},{}", q.agent, q.site, q.path), *line);
                assert!(!q.agent.is_empty() && !q.site.is_empty(), "{q:?}");
            }
            let mut verdicts = Vec::new();
            pipelines::admit(&queries, None, Some(&mut verdicts)).expect("a Vec never fails");
            assert_eq!(verdicts.iter().filter(|&&b| b == b'\n').count(), queries.len());
        }
        Err(Error::Invalid(message)) => {
            assert_eq!(message.lines().count(), 1, "{message:?}");
            match rows.iter().find(|(_, line)| !is_row(line)) {
                Some((i, _)) => {
                    assert!(message.starts_with(&format!("line {}: ", i + 1)), "{message}")
                }
                None => {
                    assert!(rows.is_empty(), "{message}");
                    assert!(message.starts_with("no queries"), "{message}");
                }
            }
        }
        Err(other) => panic!("unexpected error kind: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn mutated_query_files_parse_or_fail_in_one_line(
        text in query_file(),
        other in query_file(),
        kind in 0..5u8,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let text = mutate(&text, &other, kind, at, byte);
        check(&text, pipelines::parse_queries(&text));
    }
}

#[test]
fn query_file_boundaries() {
    for text in ["", "agent,site,path\n", "agent,site,path", "\n\n  \n", "agent,site,path\r\n"] {
        check(text, pipelines::parse_queries(text));
    }
    let with_commas = "GPTBot,site-00.example.edu,/a,b,c\n";
    let queries = pipelines::parse_queries(with_commas).expect("commas stay in the path");
    assert_eq!(queries[0].path, "/a,b,c");
    for bad in [",site,/x", "GPTBot,,/x", "GPTBot,site", "GPTBot"] {
        let err = pipelines::parse_queries(bad).unwrap_err().to_string();
        assert!(err.starts_with("line 1: want `agent,site,path`"), "{bad:?}: {err}");
    }
}

/// `admit` without `--robots` serves each site the corpus version its
/// name hashes to (FNV-1a 64, mod 4). The estate's decisions depend on
/// this assignment, so it is pinned for the study's first eight sites
/// and a few arbitrary names.
#[test]
fn site_version_assignment_is_pinned() {
    use botscope::study::PolicyVersion::{Base, V1CrawlDelay, V2EndpointOnly, V3DisallowAll};
    let pins = [
        ("site-00.example.edu", V3DisallowAll),
        ("site-01.example.edu", Base),
        ("site-02.example.edu", V1CrawlDelay),
        ("site-03.example.edu", V2EndpointOnly),
        ("site-04.example.edu", V3DisallowAll),
        ("site-05.example.edu", Base),
        ("site-06.example.edu", V1CrawlDelay),
        ("site-07.example.edu", V2EndpointOnly),
        ("site-36.example.edu", V2EndpointOnly),
        ("example.com", V2EndpointOnly),
        ("news.example.org", V2EndpointOnly),
        ("Ünïcode.example", V3DisallowAll),
        ("a", Base),
        ("", V1CrawlDelay),
    ];
    for (site, version) in pins {
        assert_eq!(pipelines::site_version(site), version, "{site:?}");
    }
}
