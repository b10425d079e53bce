//! Hostile input at the pipeline boundary: truncated, byte-flipped and
//! spliced logs through `pipelines::analyze` in all three modes at one
//! and two threads, and mutated robots.txt files through the `botscope
//! check` and `audit` binary. Every case must succeed or fail with
//! exactly one error line (one stderr line and exit 1 for the binary),
//! never panic, and a log must give the same report or the same error
//! at either thread count.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use botscope::pipelines::{self, AnalyzeMode, Error, LogFormat, Study};
use botscope::simnet::SimConfig;
use proptest::prelude::*;

const MODES: [AnalyzeMode; 3] =
    [AnalyzeMode::Plain, AnalyzeMode::PhaseReport, AnalyzeMode::PhaseReportTable];

/// `simulate 2 0.02 - 42` as CSV and as BSCL: a few hundred rows, so a
/// debug build analyzes each mutant in milliseconds.
fn logs() -> &'static [Vec<u8>; 2] {
    static LOGS: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    LOGS.get_or_init(|| {
        let cfg = SimConfig { days: 2, scale: 0.02, seed: 42, ..SimConfig::default() };
        [LogFormat::Csv, LogFormat::Bin].map(|format| {
            let mut out = Vec::new();
            pipelines::simulate(&cfg, Study::Estate, false, format, 1, &mut out)
                .expect("simulate runs");
            out
        })
    })
}

/// The robots.txt files of the audit fixture corpus, as bytes.
fn robots_fixtures() -> &'static [Vec<u8>] {
    static FIXTURES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/audit");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("fixture dir")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.to_string_lossy().ends_with(".robots.txt"))
            .collect();
        paths.sort();
        paths.iter().map(|path| std::fs::read(path).expect("fixture reads")).collect()
    })
}

/// Apply one mutation: truncate, flip a byte, or splice in the tail of
/// `other` (0 leaves `bytes` as they are).
fn mutate(bytes: &[u8], other: &[u8], kind: u8, at: usize, byte: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let cut = at % (out.len() + 1);
    match kind {
        1 => out.truncate(cut),
        2 if !out.is_empty() => out[at % bytes.len()] ^= byte | 1,
        3 => {
            out.truncate(cut);
            out.extend_from_slice(&other[at % (other.len() + 1)..]);
        }
        _ => {}
    }
    out
}

/// Run the built binary on a robots.txt body written to a temp file and
/// check its contract: exit 0, or exit 1 with one `error: …` line.
fn run_binary(body: &[u8], args: &[&str]) {
    static CASES: AtomicUsize = AtomicUsize::new(0);
    let case = CASES.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir()
        .join(format!("botscope-test-{}-hostile-{case}.robots.txt", std::process::id()));
    std::fs::write(&path, body).expect("write temp robots.txt");
    let mut argv: Vec<String> = vec![args[0].to_string(), path.to_string_lossy().into_owned()];
    argv.extend(args[1..].iter().map(|s| s.to_string()));
    let out =
        Command::new(env!("CARGO_BIN_EXE_botscope")).args(&argv).output().expect("binary runs");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
    match out.status.code() {
        Some(0) => {}
        Some(1) => {
            assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
            assert!(stderr.starts_with("error: "), "{argv:?}: {stderr}");
        }
        other => panic!("{argv:?} exited {other:?}: {stderr}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mutated_logs_analyze_or_fail_in_one_line(
        which in 0..2usize,
        kind in 0..4u8,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let [csv, bin] = logs();
        let (log, other) = if which == 0 { (csv, bin) } else { (bin, csv) };
        let log = mutate(log, other, kind, at, byte);
        for mode in MODES {
            let serial = pipelines::analyze(&log[..], mode, 1);
            if let Err(e) = &serial {
                let message = e.to_string();
                prop_assert!(matches!(e, Error::Invalid(_)), "{mode:?}: {message}");
                prop_assert!(!message.is_empty() && !message.contains('\n'), "{mode:?}: {message:?}");
            }
            let decoded_ahead = pipelines::analyze(&log[..], mode, 2);
            prop_assert_eq!(
                serial.map_err(|e| e.to_string()),
                decoded_ahead.map_err(|e| e.to_string()),
                "{:?} at 1 and 2 threads", mode
            );
        }
    }

    #[test]
    fn mutated_robots_files_check_and_audit_or_fail_in_one_line(
        file in any::<usize>(),
        other in any::<usize>(),
        kind in 1..4u8,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let fixtures = robots_fixtures();
        let pick = |i: usize| &fixtures[i % fixtures.len()];
        let body = mutate(pick(file), pick(other), kind, at, byte);
        run_binary(&body, &["check", "GPTBot", "/", "/secure/x", "/page-data/a/page-data.json"]);
        run_binary(&body, &["audit"]);
    }
}

#[test]
fn unmodified_inputs_pass() {
    for log in logs() {
        for mode in MODES {
            pipelines::analyze(&log[..], mode, 2).expect("an unmodified log analyzes");
        }
    }
    for body in robots_fixtures() {
        run_binary(body, &["audit"]);
    }
}
