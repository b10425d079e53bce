//! The CI workflow's scale-0.05 byte pins, run in process through
//! `botscope::pipelines`: the same hashes `.github/workflows/ci.yml`
//! checks on the binary's output, so `cargo test` sees a drift too.

use botscope::core::attribution::PolicyBasis;
use botscope::monitor::daemon::MonitorConfig;
use botscope::monitor::{CoupledConfig, RefreshModel, ScenarioKind};
use botscope::obs::digest::sha256_hex;
use botscope::pipelines::{self, AnalyzeMode, LogFormat, MonitorOutputs, Study};
use botscope::simnet::SimConfig;

const PHASE_BIN_STREAMED: &str = "3f6cae7e7650a41e4cd390991feeb4b95fc493728f547120f6eb7252965911da";
const PHASE_BIN_MATERIALIZED: &str =
    "3d866b44f1388de1146c40d4e305094e80573372119a3ab35331f3c007b6d5f8";
const PHASE_REPORT: &str = "842c4b65d203fcdaa19e8708ae2a62b940722f2ca3410a5befbd2b4c50cafc9e";
const PLAIN_REPORT: &str = "027b475b2b5193a8e2047cee4d82833761c014c766b1f34f4c486cbb36337672";
const MONITOR_CSV: &str = "62b718939f0da76ac033dc25bec5feb9cdd1d90de108430f8958fc412306e175";
const MONITOR_JSONL: &str = "faf21b3fb66623fd1007e8969698931c55bf1a52fd318d65b90c0ce77e1492c9";
const INSTANT_CSV: &str = "35da31f2390a3c2e23b272a7a413ea3bb117437655c74729b38e06d21df0a534";
const INSTANT_REPORT: &str = "a66fbe8eeeef419fc9725e447408c2f6f392761438941a5e9b0e01488a4b2edb";
const FLEET_CSV: &str = "ca0e999a619a6545bafea1ae16031f0871df1f1cbbd3cea2b208905a26720038";
const FLEET_SERVED_REPORT: &str =
    "8a9e02ab99480bc0c704e4534accef0e38b950bf7e19fcaea7256437131ed859";
const FLEET_BELIEVED_REPORT: &str =
    "d2bec8565bda73c6143d7383c0c262b62edf564eebe148dfbbf04824879438e3";

/// `simulate 7 0.05 <out> 42 [--phase-study] [--stream] --format F`.
fn simulate(study: Study, stream: bool, format: LogFormat, threads: usize) -> Vec<u8> {
    let cfg = SimConfig { days: 7, scale: 0.05, seed: 42, ..SimConfig::default() };
    let mut out = Vec::new();
    pipelines::simulate(&cfg, study, stream, format, threads, &mut out).expect("simulate runs");
    out
}

/// The report of `log`, which must be the same at 1, 2 and 8 threads.
fn analyze(log: &[u8], mode: AnalyzeMode) -> String {
    let report = pipelines::analyze(log, mode, 1).expect("the log analyzes");
    for threads in [2, 8] {
        let again = pipelines::analyze(log, mode, threads).expect("the log analyzes");
        assert!(again == report, "{mode:?} differs at {threads} threads");
    }
    report
}

/// The CSV's header, then its data lines in a fixed scrambled order.
fn shuffled(csv: &[u8]) -> Vec<u8> {
    let text = std::str::from_utf8(csv).expect("CSV is UTF-8");
    let mut lines: Vec<&str> = text.lines().collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in (2..lines.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        lines.swap(i, 1 + (state % i as u64) as usize);
    }
    let mut out = lines.join("\n").into_bytes();
    out.push(b'\n');
    out
}

#[test]
fn phase_study_bscl_bytes_are_pinned_at_one_and_two_workers() {
    for threads in [1, 2] {
        let streamed = simulate(Study::Phase, true, LogFormat::Bin, threads);
        assert_eq!(sha256_hex(&streamed), PHASE_BIN_STREAMED, "streamed, {threads} workers");
        let materialized = simulate(Study::Phase, false, LogFormat::Bin, threads);
        assert_eq!(sha256_hex(&materialized), PHASE_BIN_MATERIALIZED, "{threads} workers");
    }
}

#[test]
fn streamed_csv_equals_materialized_csv() {
    let materialized = simulate(Study::Estate, false, LogFormat::Csv, 2);
    for threads in [1, 2] {
        let streamed = simulate(Study::Estate, true, LogFormat::Csv, threads);
        assert!(streamed == materialized, "streamed CSV differs at {threads} workers");
    }
}

#[test]
fn phase_and_plain_reports_are_pinned_on_sorted_and_shuffled_logs() {
    let csv = simulate(Study::Phase, false, LogFormat::Csv, 2);
    let scrambled = shuffled(&csv);
    assert!(scrambled != csv && scrambled.len() == csv.len());
    let streamed_bin = simulate(Study::Phase, true, LogFormat::Bin, 2);
    for (what, report) in [
        ("streamed BSCL", analyze(&streamed_bin, AnalyzeMode::PhaseReport)),
        ("streamed CSV", analyze(&csv, AnalyzeMode::PhaseReport)),
        ("--table", analyze(&csv, AnalyzeMode::PhaseReportTable)),
        ("--table, shuffled", analyze(&scrambled, AnalyzeMode::PhaseReportTable)),
    ] {
        assert_eq!(sha256_hex(report.as_bytes()), PHASE_REPORT, "phase report, {what}");
    }
    for (what, log) in [("sorted", &csv), ("shuffled", &scrambled)] {
        let report = analyze(log, AnalyzeMode::Plain);
        assert_eq!(sha256_hex(report.as_bytes()), PLAIN_REPORT, "plain analyze, {what}");
    }
    // The streamed engine rejects the shuffled log instead of guessing.
    for threads in [1, 2] {
        let err =
            pipelines::analyze(&scrambled[..], AnalyzeMode::PhaseReport, threads).unwrap_err();
        assert!(err.to_string().contains("is earlier than the row before it"), "{err}");
    }
}

/// A log reader that notes every thread that reads from it.
struct ThreadLog<'a> {
    bytes: &'a [u8],
    readers: Vec<std::thread::ThreadId>,
}

impl std::io::Read for ThreadLog<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.readers.push(std::thread::current().id());
        self.bytes.read(buf)
    }
}

impl std::io::BufRead for ThreadLog<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.readers.push(std::thread::current().id());
        Ok(self.bytes)
    }

    fn consume(&mut self, n: usize) {
        self.bytes = &self.bytes[n..];
    }
}

/// At 1 thread the phase report reads its BSCL log on the calling thread
/// only; from 2 threads on, past the header, on exactly one helper.
#[test]
fn phase_report_decodes_bscl_on_one_helper_from_two_threads() {
    let log = simulate(Study::Phase, true, LogFormat::Bin, 2);
    let me = std::thread::current().id();
    for threads in [1, 2, 8] {
        let mut reader = ThreadLog { bytes: &log, readers: Vec::new() };
        let report = pipelines::analyze(&mut reader, AnalyzeMode::PhaseReport, threads)
            .expect("the log analyzes");
        assert_eq!(sha256_hex(report.as_bytes()), PHASE_REPORT, "{threads} threads");
        let mut helpers: Vec<_> = reader.readers.iter().filter(|&&id| id != me).collect();
        helpers.dedup();
        assert_eq!(helpers.len(), usize::from(threads > 1), "{threads} threads: {helpers:?}");
    }
}

#[test]
fn monitor_logs_are_pinned_at_one_and_two_workers() {
    let cfg = MonitorConfig { sites: 24, days: 8, bots: 4, ..MonitorConfig::default() };
    for threads in [1, 2] {
        let (mut csv, mut jsonl) = (Vec::new(), Vec::new());
        let outputs =
            MonitorOutputs { csv: Some(&mut csv), jsonl: Some(&mut jsonl), ..Default::default() };
        let report = pipelines::monitor(&cfg, threads, outputs).expect("monitor runs");
        assert!(report.summary.starts_with("monitored 24 sites x 4 bots"), "{}", report.summary);
        assert_eq!(sha256_hex(&csv), MONITOR_CSV, "{threads} workers");
        assert_eq!(sha256_hex(&jsonl), MONITOR_JSONL, "{threads} workers");
    }
}

/// `simulate --coupled --scale 0.05 --sites 8 --refresh instant --basis
/// believed --out -`: every bot believes the served policy, weather
/// included, so the mixed scenario's outages still shape the traffic.
#[test]
fn coupled_instant_refresh_under_weather_is_pinned_at_one_and_two_workers() {
    let cfg = CoupledConfig {
        sim: SimConfig { scale: 0.05, sites: 8, seed: 9309, ..SimConfig::default() },
        scenario: ScenarioKind::Mixed,
        refresh: RefreshModel::Instant,
    };
    for threads in [1, 2] {
        let mut csv = Vec::new();
        let report = pipelines::coupled(&cfg, PolicyBasis::Believed, threads, Some(&mut csv))
            .expect("coupled runs");
        assert_eq!(sha256_hex(&csv), INSTANT_CSV, "{threads} workers");
        assert_eq!(sha256_hex(report.as_bytes()), INSTANT_REPORT, "{threads} workers");
    }
}

/// `simulate --coupled --scale 0.05 --sites 8 --basis served|believed
/// --out /dev/null`: the report pins are the hashes of that command's
/// stdout, and the CSV pin is the hash of the file `--out FILE` writes.
/// Fleet refresh leaves bots on stale beliefs, so the believed basis
/// drops excused rows and its report differs from the served one.
#[test]
fn coupled_fleet_refresh_reports_are_pinned_under_both_bases() {
    let cfg = CoupledConfig {
        sim: SimConfig { scale: 0.05, sites: 8, seed: 9309, ..SimConfig::default() },
        scenario: ScenarioKind::Mixed,
        refresh: RefreshModel::Fleet,
    };
    for threads in [1, 2] {
        for (basis, pin) in [
            (PolicyBasis::Served, FLEET_SERVED_REPORT),
            (PolicyBasis::Believed, FLEET_BELIEVED_REPORT),
        ] {
            let mut csv = Vec::new();
            let report =
                pipelines::coupled(&cfg, basis, threads, Some(&mut csv)).expect("coupled runs");
            assert_eq!(sha256_hex(&csv), FLEET_CSV, "{basis:?}, {threads} workers");
            assert_eq!(sha256_hex(report.as_bytes()), pin, "{basis:?}, {threads} workers");
        }
    }
}
