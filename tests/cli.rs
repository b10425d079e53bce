//! End-to-end tests of the `botscope` command-line binary.

use std::process::{Command, Output};

fn botscope(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_botscope")).args(args).output().expect("binary runs")
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("botscope-test-{}-{name}", std::process::id()));
    std::fs::write(&path, content).expect("write temp file");
    path
}

#[test]
fn help_prints_usage() {
    for args in [
        vec!["help"],
        vec!["--help"],
        vec![],
        vec!["simulate", "--help"],
        vec!["monitor", "-h"],
        vec!["analyze", "--help"],
    ] {
        let out = botscope(&args);
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("USAGE"), "{text}");
        assert!(text.contains("botscope check"));
    }
}

#[test]
fn unknown_subcommand_fails() {
    let out = botscope(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"));
}

#[test]
fn check_reports_decisions() {
    let robots = write_temp(
        "check.txt",
        "User-agent: *\nAllow: /page-data/*\nDisallow: /\nCrawl-delay: 30\n",
    );
    let out =
        botscope(&["check", robots.to_str().unwrap(), "GPTBot", "/page-data/x.json", "/news/item"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ALLOW /page-data/x.json"), "{text}");
    assert!(text.contains("DENY  /news/item"), "{text}");
    assert!(text.contains("crawl delay for GPTBot: 30s"), "{text}");
    let _ = std::fs::remove_file(robots);
}

#[test]
fn admit_answers_batch_queries_from_compiled_policies() {
    let robots = write_temp(
        "admit-robots.txt",
        "User-agent: GPTBot\nDisallow: /private/\n\nUser-agent: *\nAllow: /\n",
    );
    let queries = write_temp(
        "admit-queries.csv",
        "agent,site,path\n\
         GPTBot,a.example.edu,/private/report\n\
         GPTBot,a.example.edu,/public/page\n\
         ClaudeBot,b.example.edu,/private/report\n",
    );
    let out = botscope(&["admit", "--robots", robots.to_str().unwrap(), queries.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DENY  GPTBot a.example.edu /private/report"), "{text}");
    assert!(text.contains("ALLOW GPTBot a.example.edu /public/page"), "{text}");
    assert!(text.contains("ALLOW ClaudeBot b.example.edu /private/report"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("3 queries over 2 site(s)"), "{err}");
    assert!(err.contains("2 policy compile(s)"), "{err}");
    assert!(err.contains("checks/s"), "{err}");
    let _ = std::fs::remove_file(robots);
    let _ = std::fs::remove_file(queries);
}

#[test]
fn admit_corpus_defaults_are_deterministic_and_quiet_suppresses_verdicts() {
    let queries = write_temp(
        "admit-corpus.csv",
        "GPTBot,site-00.example.edu,/news/item-001\n\
         Googlebot,site-01.example.edu,/page-data/item-1/page-data.json\n",
    );
    let a = botscope(&["admit", queries.to_str().unwrap()]);
    let b = botscope(&["admit", queries.to_str().unwrap()]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout, "corpus assignment must be stable across runs");
    assert_eq!(String::from_utf8_lossy(&a.stdout).lines().count(), 2);

    let quiet = botscope(&["admit", "--quiet", queries.to_str().unwrap()]);
    assert!(quiet.status.success());
    assert!(quiet.stdout.is_empty(), "--quiet must suppress per-query verdicts");
    assert!(String::from_utf8_lossy(&quiet.stderr).contains("2 queries"), "summary still prints");
    let _ = std::fs::remove_file(queries);
}

#[test]
fn admit_rejects_malformed_queries_cleanly() {
    let queries = write_temp("admit-bad.csv", "GPTBot-only-one-field\n");
    let out = botscope(&["admit", queries.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("want `agent,site,path`"));
    let _ = std::fs::remove_file(queries);

    let out = botscope(&["admit"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: botscope admit"));
}

#[test]
fn admit_query_csv_boundaries() {
    // (case, file bytes, stderr fragment or None when the file is accepted)
    let cases: [(&str, &[u8], Option<&str>); 6] = [
        ("non-utf8", b"GPTBot,a.example.edu,/\xff\xfe\n", Some("valid UTF-8")),
        ("empty-agent", b",a.example.edu,/x\n", Some("line 1: want `agent,site,path`")),
        ("two-fields", b"GPTBot,a.example.edu\n", Some("line 1: want `agent,site,path`")),
        ("blank", b"", Some("no queries")),
        ("blank-lines", b"\n  \n\n", Some("no queries")),
        ("crlf", b"agent,site,path\r\nGPTBot,a.example.edu,/x\r\nGPTBot,b.example.edu,/\r\n", None),
    ];
    let lf = write_temp("admit-lf.csv", "GPTBot,a.example.edu,/x\nGPTBot,b.example.edu,/\n");
    let expected = botscope(&["admit", lf.to_str().unwrap()]);
    assert!(expected.status.success());
    for (case, bytes, error) in cases {
        let path = std::env::temp_dir()
            .join(format!("botscope-test-{}-admit-{case}.csv", std::process::id()));
        std::fs::write(&path, bytes).expect("write temp file");
        let out = botscope(&["admit", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        match error {
            Some(fragment) => {
                assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
                assert_eq!(stderr.lines().count(), 1, "{case}: one error line, got {stderr:?}");
                assert!(
                    stderr.starts_with("error: ") && stderr.contains(fragment),
                    "{case}: {stderr}"
                );
                assert!(out.stdout.is_empty(), "{case}");
            }
            None => {
                assert!(out.status.success(), "{case}: {stderr}");
                assert_eq!(out.stdout, expected.stdout, "{case}: same verdicts as LF line ends");
            }
        }
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_file(lf);
}

#[test]
fn latin1_robots_files_are_read_with_percent_encoded_octets() {
    // One Latin-1 byte (0xE9) used to fail the whole read as not UTF-8.
    let root = env!("CARGO_MANIFEST_DIR");
    let latin1 = format!("{root}/tests/fixtures/audit/latin1.robots.txt");
    let out = botscope(&["check", &latin1, "GPTBot", "/caf%E9/x", "/caf%e9/menu", "/other"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DENY  /caf%E9/x"), "{text}");
    assert!(text.contains("ALLOW /caf%e9/menu"), "{text}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("1 parse warning"));

    let out = botscope(&["audit", &latin1]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("InvalidUtf8 { line: 2, octets: 2 }"));

    let utf8 = write_temp("latin1-diff-new.txt", "User-agent: *\nDisallow: /caf%E9/\n");
    let out = botscope(&["diff", &latin1, utf8.to_str().unwrap(), "GPTBot"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_file(utf8);

    let queries =
        write_temp("latin1-queries.csv", "agent,site,path\nGPTBot,a.example.edu,/caf%E9/\n");
    let out = botscope(&["admit", "--robots", &latin1, queries.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("DENY  GPTBot a.example.edu /caf%E9/"));
    let _ = std::fs::remove_file(queries);
}

#[test]
fn check_missing_file_fails_cleanly() {
    let out = botscope(&["check", "/no/such/file", "bot", "/x"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn audit_flags_problems_and_clean_files() {
    let bad = write_temp("audit-bad.txt", "User-agent: *\nDisallow: /x\nDisallow: /x\n");
    let out = botscope(&["audit", bad.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DuplicateRule"), "{text}");
    assert!(text.contains("DeadRule"), "{text}");
    let _ = std::fs::remove_file(bad);

    // Wildcard-free single-rule policy: no lints, no divergence hazards.
    let good = write_temp("audit-good.txt", "User-agent: *\nDisallow: /secure/\n");
    let out = botscope(&["audit", good.to_str().unwrap()]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));
    let _ = std::fs::remove_file(good);
}

#[test]
fn audit_deny_gates_exit_status() {
    let bad = write_temp("audit-deny.txt", "User-agent: *\nDisallow: /x\nDisallow: /x\n");
    let out = botscope(&["audit", "--deny", "warning", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at or above warning"));

    // Raising the bar to `error` lets warnings through.
    let out = botscope(&["audit", "--deny", "error", bad.to_str().unwrap()]);
    assert!(out.status.success());
    let _ = std::fs::remove_file(bad);
}

#[test]
fn audit_json_is_machine_readable() {
    let file = write_temp("audit-json.txt", "User-agent: *\nDisallow: ne/ver\n");
    let out = botscope(&["audit", "--json", file.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("{\"files\":["), "{text}");
    assert!(text.contains("\"code\":\"UnreachableRule\""), "{text}");
    assert!(text.contains("\"severity\":\"error\""), "{text}");
    assert!(text.trim_end().ends_with("\"denied\":0}"), "{text}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn audit_json_snapshot_matches_committed() {
    // Same invocation CI runs: relative paths from the repo root, sorted.
    let root = env!("CARGO_MANIFEST_DIR");
    let mut files: Vec<String> = std::fs::read_dir(format!("{root}/tests/fixtures/audit"))
        .expect("fixture dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".robots.txt"))
        .map(|n| format!("tests/fixtures/audit/{n}"))
        .collect();
    files.sort();
    let mut args: Vec<&str> = vec!["audit", "--json"];
    args.extend(files.iter().map(String::as_str));
    let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
        .current_dir(root)
        .args(&args)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let expected = std::fs::read_to_string(format!("{root}/tests/fixtures/audit/snapshot.json"))
        .expect("committed snapshot");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "analyzer output drifted from tests/fixtures/audit/snapshot.json; \
         regenerate it if the change is intentional"
    );
}

#[test]
fn audit_estate_reports_digest_classes_and_recompile_debt() {
    let out = botscope(&["audit", "--estate", "--sites", "8", "--days", "16"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("version transitions: 12 behavioral"), "{text}");
    assert!(text.contains("admission replay"), "{text}");
    assert!(text.contains("behavioral transitions only"), "{text}");
}

#[test]
fn audit_estate_output_is_pinned() {
    use botscope::obs::digest::sha256_hex;
    // (sites, days, sha256 of `--json`, sha256 of the text report
    // without its timing line), the same at every worker count.
    let pins = [
        (
            "12",
            "12",
            "3598f58114853dcb8b1ca29fa50db0a03f76a0738707c40362d6e09257112eaa",
            "d0eede78e0ce589381ec9b4fb5d4be0c83f7a4ca44f8d6d70d018f6a4c97ff6a",
        ),
        (
            "16",
            "24",
            "d8f2f26432a88bc21b51eb078acb7cdf87af78cdc8b5f7996210076d9e0832ba",
            "5294079ba55e9e748405f494066c8e9da7fd6f1404b6ef7a785fcab70e490105",
        ),
    ];
    for (sites, days, json_pin, text_pin) in pins {
        for threads in ["1", "2"] {
            let run = |extra: &[&str]| {
                let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
                    .args(
                        [&["audit", "--estate", "--sites", sites, "--days", days], extra].concat(),
                    )
                    .env("BOTSCOPE_THREADS", threads)
                    .output()
                    .expect("binary runs");
                assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
                String::from_utf8(out.stdout).expect("UTF-8 report")
            };
            let label = format!("{sites} sites x {days} days, {threads} workers");
            assert_eq!(sha256_hex(run(&["--json"]).as_bytes()), json_pin, "--json, {label}");
            let text: String = run(&[])
                .lines()
                .filter(|l| !l.contains("ms analyzer time"))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(sha256_hex(text.as_bytes()), text_pin, "text, {label}");
        }
    }
}

#[test]
fn diff_reports_tightening() {
    let old = write_temp("diff-old.txt", "User-agent: *\nAllow: /\n");
    let new = write_temp("diff-new.txt", "User-agent: *\nDisallow: /\n");
    let out = botscope(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tightened"), "{text}");
    assert!(text.contains("AccessChanged"), "{text}");
    let _ = std::fs::remove_file(old);
    let _ = std::fs::remove_file(new);
}

#[test]
fn simulate_seed_is_deterministic() {
    let pid = std::process::id();
    let run = |name: &str, seed: &str| {
        let path = std::env::temp_dir().join(format!("botscope-test-{pid}-{name}.csv"));
        let out = botscope(&["simulate", "1", "0.02", path.to_str().unwrap(), seed]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let bytes = std::fs::read(&path).expect("read simulated csv");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let first = run("seed-a", "42");
    let second = run("seed-b", "42");
    assert_eq!(first, second, "same seed must yield a byte-identical log");
    let other = run("seed-c", "43");
    assert_ne!(first, other, "different seeds should yield different logs");
}

#[test]
fn help_documents_thread_knob() {
    let out = botscope(&["help"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("BOTSCOPE_THREADS"), "{text}");
    assert!(text.contains("available parallelism"), "{text}");
}

#[test]
fn simulate_output_is_thread_count_invariant() {
    let run_with_threads = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
            .args(["simulate", "1", "0.02", "-", "42"])
            .env("BOTSCOPE_THREADS", threads)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let serial = run_with_threads("1");
    assert_eq!(serial, run_with_threads("2"), "2 workers must match serial output");
    assert_eq!(serial, run_with_threads("8"), "8 workers must match serial output");
}

#[test]
fn simulate_rejects_bad_seed() {
    let out = botscope(&["simulate", "1", "0.02", "/dev/null", "not-a-seed"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad seed"));
}

#[test]
fn simulate_rejects_degenerate_config_cleanly() {
    let out = botscope(&["simulate", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("days must be at least 1"));

    let out = botscope(&["simulate", "1", "-0.5"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("scale must be a positive number"));
}

#[test]
fn simulate_dash_writes_seeded_log_to_stdout() {
    let out = botscope(&["simulate", "1", "0.02", "-", "42"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let again = botscope(&["simulate", "1", "0.02", "-", "42"]);
    assert_eq!(out.stdout, again.stdout, "seeded stdout runs must be identical");
    assert!(!out.stdout.is_empty());
}

#[test]
fn simulate_then_analyze_roundtrip() {
    let csv = std::env::temp_dir().join(format!("botscope-test-{}-sim.csv", std::process::id()));
    let out = botscope(&["simulate", "2", "0.02", csv.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(csv.exists());

    let out = botscope(&["analyze", csv.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("known bots"), "{text}");
    assert!(text.contains("YisouSpider") || text.contains("Applebot"), "{text}");
    let _ = std::fs::remove_file(csv);
}

#[test]
fn analyze_reports_malformed_csv_in_one_line_on_every_path() {
    // A pre-1970 year must fail as a decode error, not in the calendar
    // arithmetic behind the timestamp parser.
    let csv = write_temp(
        "malformed.csv",
        &format!(
            "{}\nua,2025-02-12T00:00:00Z,ff,AS1,site,/,200,10,\nua,1969-12-31T23:59:59Z,ff,AS1,site,/,200,10,\n",
            botscope::weblog::codec::HEADER
        ),
    );
    let csv = csv.to_str().unwrap();
    let want = "error: CSV decode error at line 3: invalid timestamp: date field out of range: \
                \"1969-12-31T23:59:59Z\"\n";
    for args in [
        &["analyze", csv][..],
        &["analyze", "--phase-report", csv],
        &["analyze", "--phase-report", "--table", csv],
    ] {
        let out = botscope(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), want, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let _ = std::fs::remove_file(csv);
}

/// Run `botscope args` with its stdout piped to a reader that is closed
/// before the child writes anything; returns the exit code and stderr.
/// The child gets a fresh `TMPDIR`, which must end empty: a failed
/// streamed simulate leaves no spill file behind.
fn run_into_closed_stdout(args: &[&str]) -> (Option<i32>, String) {
    use std::process::Stdio;
    use std::sync::atomic::{AtomicUsize, Ordering};
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let tmpdir = std::env::temp_dir().join(format!(
        "botscope-test-{}-epipe-tmp-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&tmpdir).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_botscope"))
        .args(args)
        .env("TMPDIR", &tmpdir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let leftovers: Vec<_> = std::fs::read_dir(&tmpdir).unwrap().collect();
    assert!(leftovers.is_empty(), "{args:?} left in TMPDIR: {leftovers:?}");
    std::fs::remove_dir(&tmpdir).unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn report_commands_fail_cleanly_on_a_closed_stdout() {
    let csv = std::env::temp_dir().join(format!("botscope-test-{}-epipe.csv", std::process::id()));
    let csv = csv.to_str().unwrap();
    let out = botscope(&["simulate", "2", "0.02", csv]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Streamed writes (the monitor's merge, simulate's spill merge) name
    // their target like the report funnel does.
    for args in [
        &["analyze", csv][..],
        &["audit", "--estate", "--sites", "6", "--days", "6"],
        &["monitor", "--out", "-"],
        &["simulate", "2", "0.02", "-", "42", "--stream"],
    ] {
        let (code, stderr) = run_into_closed_stdout(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: cannot write stdout: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(csv);
}

#[test]
fn streamed_simulate_names_an_unusable_spill_file() {
    // TMPDIR is a regular file, so no spill file can be created in it.
    let not_a_dir = write_temp("tmpdir-file", "not a directory\n");
    let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
        .args(["simulate", "1", "0.02", "-", "42", "--stream"])
        .env("TMPDIR", &not_a_dir)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    let prefix = format!("error: cannot create spill file {}/botscope-spill-", not_a_dir.display());
    assert!(stderr.starts_with(&prefix), "{stderr}");
    assert!(stderr.contains("Not a directory"), "{stderr}");
    std::fs::remove_file(&not_a_dir).unwrap();
}

#[test]
fn monitor_reports_and_streams_csv() {
    // Summary stats go to stderr; stdout carries only report artifacts.
    let out = botscope(&["monitor", "--sites", "8", "--days", "5", "--bots", "3"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stats = String::from_utf8_lossy(&out.stderr);
    assert!(stats.contains("monitored 8 sites x 3 bots over 5 days"), "{stats}");
    assert!(stats.contains("fetches"), "{stats}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("re-check coverage from monitored logs"), "{text}");

    // `--out -` streams the fetch log as CSV on stdout, report on stderr.
    let out = botscope(&["monitor", "--sites", "8", "--days", "5", "--bots", "3", "--out", "-"]);
    assert!(out.status.success());
    let csv = String::from_utf8_lossy(&out.stdout);
    assert!(csv.lines().count() > 10, "{csv}");
    assert!(csv.lines().skip(1).all(|l| l.is_empty() || l.contains("/robots.txt")), "{csv}");
    let report = String::from_utf8_lossy(&out.stderr);
    assert!(report.contains("monitored 8 sites"), "{report}");
    assert!(report.contains("re-check coverage from monitored logs"), "{report}");
}

#[test]
fn monitor_is_deterministic_and_thread_count_invariant() {
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
            .args(["monitor", "--sites", "24", "--days", "6", "--bots", "4", "--out", "-"])
            .env("BOTSCOPE_THREADS", threads)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let serial = run("1");
    assert!(!serial.is_empty());
    assert_eq!(serial, run("1"), "same seed must reproduce");
    assert_eq!(serial, run("2"), "2 workers must match serial output");
    assert_eq!(serial, run("8"), "8 workers must match serial output");
}

#[test]
fn monitor_writes_change_digests() {
    // All sites swap on a horizon long enough to cross the first swap.
    let out = botscope(&[
        "monitor",
        "--sites",
        "4",
        "--days",
        "30",
        "--bots",
        "2",
        "--swap-every",
        "1",
        "--scenario",
        "stable",
        "--changes",
        "-",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let csv = String::from_utf8_lossy(&out.stdout);
    assert!(csv.starts_with("site,at,from,to,"), "{csv}");
    assert!(csv.lines().count() > 1, "expected at least one change: {csv}");
    assert!(csv.contains("v1 (crawl delay)"), "{csv}");
}

#[test]
fn monitor_stream_matches_materialized_output() {
    let args = ["monitor", "--sites", "12", "--days", "5", "--bots", "3", "--out", "-"];
    let materialized = botscope(&args);
    assert!(materialized.status.success());
    let streamed = botscope(&[
        "monitor", "--sites", "12", "--days", "5", "--bots", "3", "--out", "-", "--stream",
    ]);
    assert!(streamed.status.success(), "{}", String::from_utf8_lossy(&streamed.stderr));
    assert_eq!(materialized.stdout, streamed.stdout, "streamed CSV must be byte-identical");
    // Every run streams; `--stream` is accepted and changes nothing.
    assert_eq!(materialized.stderr, streamed.stderr, "same run statistics");

    // Reports only (no --out): both modes print the same report bytes.
    // Swaps every day so the monitored Table 7 prints too.
    let args = ["monitor", "--sites", "12", "--days", "24", "--bots", "3", "--swap-every", "1"];
    let materialized = botscope(&args);
    assert!(materialized.status.success(), "{}", String::from_utf8_lossy(&materialized.stderr));
    let streamed = botscope(&[&args[..], &["--stream"]].concat());
    assert!(streamed.status.success(), "{}", String::from_utf8_lossy(&streamed.stderr));
    let report = String::from_utf8_lossy(&materialized.stdout);
    assert!(report.contains("Table 7 (monitored)"), "{report}");
    assert!(report.contains("re-check coverage from monitored logs"), "{report}");
    assert_eq!(materialized.stdout, streamed.stdout, "streamed reports must be byte-identical");
}

#[test]
fn coupled_simulate_reports_attribution_and_is_thread_invariant() {
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
            .args(["simulate", "--coupled", "--scale", "0.02", "--sites", "4", "--out", "-"])
            .env("BOTSCOPE_THREADS", threads)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out
    };
    let serial = run("1");
    assert!(!serial.stdout.is_empty());
    let report = String::from_utf8_lossy(&serial.stderr);
    assert!(report.contains("coupled run:"), "{report}");
    assert!(report.contains("belief transitions"), "{report}");
    assert!(report.contains("Stale cache"), "{report}");
    assert_eq!(serial.stdout, run("2").stdout, "2 workers must match serial output");
    assert_eq!(serial.stdout, run("8").stdout, "8 workers must match serial output");

    // Unknown coupled flags fail cleanly.
    let out = botscope(&["simulate", "--coupled", "--refresh", "psychic"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --refresh"));
    let out = botscope(&["simulate", "--coupled", "--basis", "wishful"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --basis"));
}

#[test]
fn coupled_believed_basis_degenerates_under_instant_refresh() {
    // Instant refresh + always-healthy weather: beliefs track the
    // served timelines exactly, so nothing is excused and the believed
    // basis must reproduce the served-basis tables verbatim.
    let run = |basis: &str| {
        let out = botscope(&[
            "simulate",
            "--coupled",
            "--scale",
            "0.02",
            "--sites",
            "4",
            "--refresh",
            "instant",
            "--scenario",
            "stable",
            "--basis",
            basis,
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let believed = run("believed");
    let served = run("served");
    assert!(
        believed.contains("compliance tables (believed basis, 0 excused rows dropped):"),
        "{believed}"
    );
    assert!(served.contains("compliance tables (served basis):"), "{served}");
    // Identical everywhere except the one banner line.
    let tables_after_banner = |report: &str| -> String {
        let (_, tail) = report.split_once("compliance tables").expect("banner present");
        tail.split_once('\n').expect("banner line ends").1.to_string()
    };
    assert_eq!(
        tables_after_banner(&believed),
        tables_after_banner(&served),
        "believed basis must degenerate to served tables under instant refresh"
    );
}

/// The CSV encode runs on its own thread: a write error must still end
/// the run with one error line, before any report, and never a panic.
/// A report that cannot reach stdout fails the same way.
#[test]
fn coupled_write_errors_fail_cleanly_before_the_report() {
    let base = ["simulate", "--coupled", "--scale", "0.02", "--sites", "4", "--out"];
    let closed_csv = run_into_closed_stdout(&[&base[..], &["-"]].concat());
    let missing = botscope(&[&base[..], &["/nonexistent/x.csv"]].concat());
    let missing = (missing.status.code(), String::from_utf8_lossy(&missing.stderr).into_owned());
    let csv =
        std::env::temp_dir().join(format!("botscope-test-{}-coupled.csv", std::process::id()));
    let closed_report = run_into_closed_stdout(&[&base[..], &[csv.to_str().unwrap()]].concat());
    let _ = std::fs::remove_file(csv);
    for (target, (code, stderr)) in
        [("stdout", closed_csv), ("/nonexistent/x.csv", missing), ("stdout", closed_report)]
    {
        assert_eq!(code, Some(1), "{target}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{target}: {stderr}");
        assert!(stderr.starts_with(&format!("error: cannot write {target}: ")), "{stderr}");
        assert!(!stderr.contains("panicked"), "{target}: {stderr}");
    }
}

/// `perf.phases` covers the whole coupled run: belief, generation, and
/// the encode and scoring stages of the tail.
#[test]
fn coupled_manifest_lists_every_stage() {
    let dir = empty_dir("coupled-phases");
    let out = botscope_in(
        &dir,
        &[
            "simulate",
            "--coupled",
            "--scale",
            "0.02",
            "--sites",
            "4",
            "--out",
            "log.csv",
            "--manifest",
            "run.manifest",
        ],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let manifest = std::fs::read_to_string(dir.join("run.manifest")).expect("manifest written");
    let phases = manifest.lines().find(|l| l.contains("\"phases\"")).expect("phases line");
    for phase in
        ["coupled_belief_stage", "coupled_generate_stage", "coupled_csv_encode", "coupled_score"]
    {
        assert!(phases.contains(&format!("[\"{phase}\", ")), "{phase} missing: {phases}");
    }
    // Attribution and the basis analysis are one scoring sweep.
    for gone in ["coupled_attribution", "coupled_basis_analysis"] {
        assert!(!phases.contains(gone), "{gone} listed: {phases}");
    }
    // The belief stage runs the monitor's agents but records beliefs
    // only: no fetch log is assembled.
    assert!(phases.contains("[\"monitor_agents\", "), "{phases}");
    assert!(!phases.contains("monitor_log_assembly"), "{phases}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn monitor_manifest_lists_its_stages() {
    let dir = empty_dir("monitor-phases");
    let args = ["monitor", "--sites", "8", "--days", "5", "--bots", "3"];
    let out = botscope_in(&dir, &[&args[..], &["--manifest", "run.manifest"]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let manifest = std::fs::read_to_string(dir.join("run.manifest")).expect("manifest written");
    let phases = manifest.lines().find(|l| l.contains("\"phases\"")).expect("phases line");
    for phase in ["monitor_agents", "monitor_log_assembly"] {
        assert!(phases.contains(&format!("[\"{phase}\", ")), "{phase} missing: {phases}");
    }
    // The §5.1 reports ride the merge: no separate re-check pass.
    assert!(!phases.contains("monitor_recheck"), "{phases}");
    let _ = std::fs::remove_dir_all(dir);
}

/// `analyze --manifest` splits the phase report into decode, fold and
/// render; at 2 threads a BSCL log decodes on its own thread. The report
/// is the same with and without the manifest, and at 1 thread.
#[test]
fn analyze_manifest_lists_decode_fold_and_render() {
    let dir = empty_dir("analyze-phases");
    let simulate = ["simulate", "7", "0.02", "log.bin", "42", "--phase-study", "--format", "bin"];
    assert!(botscope_in(&dir, &simulate).status.success());
    let analyze = |threads: &str, extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
            .current_dir(&dir)
            .args([&["analyze", "--phase-report", "log.bin"], extra].concat())
            .env("BOTSCOPE_THREADS", threads)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let plain = analyze("1", &[]);
    assert!(String::from_utf8_lossy(&plain).contains("Table 4."));
    for threads in ["1", "2"] {
        let report = analyze(threads, &["--manifest", "run.manifest"]);
        assert!(report == plain, "{threads} threads: --manifest changed the report");
        let manifest = std::fs::read_to_string(dir.join("run.manifest")).expect("manifest written");
        let phases = manifest.lines().find(|l| l.contains("\"phases\"")).expect("phases line");
        for phase in ["analyze_fold", "analyze_render"] {
            assert!(phases.contains(&format!("[\"{phase}\", ")), "{phase} missing: {phases}");
        }
        // Decoding is a phase of its own only on a decode thread.
        let decode = phases.contains("[\"analyze_decode\", ");
        assert_eq!(decode, threads == "2", "{threads} threads: {phases}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn simulate_stream_matches_materialized_at_any_worker_count() {
    let run = |threads: &str, extra: &[&str]| {
        let mut args = vec!["simulate", "1", "0.02", "-", "42"];
        args.extend_from_slice(extra);
        let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
            .args(&args)
            .env("BOTSCOPE_THREADS", threads)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let materialized = run("1", &[]);
    for threads in ["1", "2", "8"] {
        assert_eq!(
            run(threads, &["--stream"]),
            materialized,
            "{threads} workers: streamed CSV must be byte-identical"
        );
    }
}

#[test]
fn simulate_binary_format_analyzes_identically_and_is_smaller() {
    let pid = std::process::id();
    let csv = std::env::temp_dir().join(format!("botscope-test-{pid}-fmt.csv"));
    let bin = std::env::temp_dir().join(format!("botscope-test-{pid}-fmt.bin"));
    let out = botscope(&["simulate", "2", "0.02", csv.to_str().unwrap(), "42"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = botscope(&["simulate", "2", "0.02", bin.to_str().unwrap(), "42", "--format", "bin"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let csv_len = std::fs::metadata(&csv).expect("csv written").len();
    let bin_len = std::fs::metadata(&bin).expect("bin written").len();
    assert!(bin_len < csv_len, "binary ({bin_len} B) should beat CSV ({csv_len} B)");

    let from_csv = botscope(&["analyze", csv.to_str().unwrap()]);
    let from_bin = botscope(&["analyze", bin.to_str().unwrap()]);
    assert!(from_csv.status.success() && from_bin.status.success());
    assert_eq!(from_csv.stdout, from_bin.stdout, "formats must analyze identically");
    let _ = std::fs::remove_file(csv);
    let _ = std::fs::remove_file(bin);
}

#[test]
fn phase_report_from_streamed_binary_matches_in_memory_engine() {
    use std::process::Stdio;

    let pid = std::process::id();
    let bin = std::env::temp_dir().join(format!("botscope-test-{pid}-phase.bin"));
    let csv = std::env::temp_dir().join(format!("botscope-test-{pid}-phase.csv"));
    let out = botscope(&[
        "simulate",
        "7",
        "0.02",
        bin.to_str().unwrap(),
        "42",
        "--phase-study",
        "--stream",
        "--format",
        "bin",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = botscope(&["simulate", "7", "0.02", csv.to_str().unwrap(), "42", "--phase-study"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Streaming analyzer over the binary file, fed through stdin ("-").
    let streamed = Command::new(env!("CARGO_BIN_EXE_botscope"))
        .args(["analyze", "--phase-report", "-"])
        .stdin(Stdio::from(std::fs::File::open(&bin).expect("open bin")))
        .output()
        .expect("binary runs");
    assert!(streamed.status.success(), "{}", String::from_utf8_lossy(&streamed.stderr));
    let text = String::from_utf8_lossy(&streamed.stdout);
    assert!(text.contains("Table 4."), "{text}");
    assert!(text.contains("Table 10."), "{text}");

    // In-memory engine over the materialized CSV: same bytes.
    let tabled = botscope(&["analyze", "--phase-report", "--table", csv.to_str().unwrap()]);
    assert!(tabled.status.success(), "{}", String::from_utf8_lossy(&tabled.stderr));
    assert_eq!(
        streamed.stdout, tabled.stdout,
        "streamed and in-memory phase reports must be byte-identical"
    );
    let _ = std::fs::remove_file(bin);
    let _ = std::fs::remove_file(csv);
}

#[test]
fn unsorted_log_fails_streamed_analysis_and_sorts_under_table() {
    use std::process::Stdio;

    let pid = std::process::id();
    let csv = std::env::temp_dir().join(format!("botscope-test-{pid}-sorted.csv"));
    let out = botscope(&["simulate", "7", "0.02", csv.to_str().unwrap(), "42", "--phase-study"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let sorted = botscope(&["analyze", "--phase-report", csv.to_str().unwrap()]);
    assert!(sorted.status.success(), "{}", String::from_utf8_lossy(&sorted.stderr));

    // Shuffle the data lines (fixed Fisher-Yates over an LCG), keeping
    // the header first.
    let text = std::fs::read_to_string(&csv).expect("read CSV");
    let (header, body) = text.split_once('\n').expect("header line");
    let mut lines: Vec<&str> = body.lines().collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..lines.len()).rev() {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        lines.swap(i, (state >> 33) as usize % (i + 1));
    }
    let shuffled_csv = write_temp("shuffled.csv", &format!("{header}\n{}\n", lines.join("\n")));
    let table =
        botscope::weblog::codec::decode_table(&std::fs::read_to_string(&shuffled_csv).unwrap())
            .expect("shuffled CSV decodes");
    let mut bin = Vec::new();
    botscope::weblog::colfmt::write_table(&mut bin, &table).expect("encode binary");
    let shuffled_bin = std::env::temp_dir().join(format!("botscope-test-{pid}-shuffled.bin"));
    std::fs::write(&shuffled_bin, bin).expect("write binary");

    // Streamed: one line naming the row, pointing at --table; no report.
    for input in [&shuffled_csv, &shuffled_bin] {
        for stdin in [false, true] {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_botscope"));
            if stdin {
                cmd.args(["analyze", "--phase-report", "-"])
                    .stdin(Stdio::from(std::fs::File::open(input).expect("open input")));
            } else {
                cmd.args(["analyze", "--phase-report", input.to_str().unwrap()]);
            }
            let out = cmd.output().expect("binary runs");
            let err = String::from_utf8_lossy(&out.stderr);
            let label = format!("{} (stdin: {stdin})", input.display());
            assert_eq!(out.status.code(), Some(1), "{label}: {err}");
            assert!(out.stdout.is_empty(), "{label}");
            assert_eq!(err.lines().count(), 1, "{label}: {err}");
            assert!(err.starts_with("error: decode error: row "), "{label}: {err}");
            assert!(err.contains("use --table"), "{label}: {err}");
        }

        // Materialized: the sorted log's exact report.
        let tabled = botscope(&["analyze", "--phase-report", "--table", input.to_str().unwrap()]);
        assert!(tabled.status.success(), "{}", String::from_utf8_lossy(&tabled.stderr));
        assert_eq!(tabled.stdout, sorted.stdout, "{}", input.display());
    }
    for path in [&csv, &shuffled_csv, &shuffled_bin] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn simulate_and_analyze_reject_bad_flags_cleanly() {
    let out = botscope(&["simulate", "1", "0.02", "-", "42", "--format", "xml"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --format"));

    let out = botscope(&["simulate", "--turbo"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown simulate flag"));

    let out = botscope(&["analyze", "--frobnicate", "x.csv"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown analyze flag"));

    let out = botscope(&["analyze", "--table", "x.csv"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--phase-report"));
}

#[test]
fn monitor_rejects_bad_flags_cleanly() {
    let out = botscope(&["monitor", "--scenario", "sunny"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --scenario"));

    let out = botscope(&["monitor", "--ttl", "zero-ish"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --ttl"));

    let out = botscope(&["monitor", "--sites"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));

    let out = botscope(&["monitor", "--frobnicate", "1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown monitor flag"));
}

#[test]
fn global_telemetry_flags_reject_missing_values() {
    for flag in ["--metrics", "--manifest", "--trace"] {
        let out = botscope(&["monitor", "--sites", "2", flag]);
        assert!(!out.status.success(), "{flag} without a value must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("needs a file"), "{flag}: {err}");
    }
}

/// `--metrics`/`--trace`/`--manifest` must never perturb the data
/// artifacts: stdout is byte-identical with telemetry on vs off, at
/// every worker count, for every instrumented pipeline.
#[test]
fn telemetry_flags_do_not_perturb_output_at_any_worker_count() {
    let pid = std::process::id();
    let queries = write_temp(
        "telemetry-queries.csv",
        "GPTBot,site-00.example.edu,/news/item-001\n\
         Googlebot,site-01.example.edu,/page-data/item-1/page-data.json\n",
    );
    let queries = queries.to_str().expect("utf-8 temp path").to_string();
    let scenarios: [(&str, Vec<&str>); 3] = [
        ("simulate", vec!["simulate", "1", "0.02", "-", "42", "--stream"]),
        ("monitor", vec!["monitor", "--sites", "12", "--days", "5", "--bots", "3", "--out", "-"]),
        ("admit", vec!["admit", &queries]),
    ];
    for (name, args) in &scenarios {
        for threads in ["1", "2", "8"] {
            let run = |telemetry: &[String]| {
                let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
                    .args(args)
                    .args(telemetry)
                    .env("BOTSCOPE_THREADS", threads)
                    .output()
                    .expect("binary runs");
                assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
                out.stdout
            };
            let plain = run(&[]);
            let sink = |kind: &str| {
                std::env::temp_dir()
                    .join(format!("botscope-test-{pid}-telemetry-{name}-{threads}.{kind}"))
                    .to_string_lossy()
                    .into_owned()
            };
            let telemetry = [
                "--metrics".to_string(),
                sink("prom"),
                "--trace".to_string(),
                sink("trace"),
                "--manifest".to_string(),
                sink("manifest"),
            ];
            let instrumented = run(&telemetry);
            assert_eq!(
                plain, instrumented,
                "{name} at {threads} workers: telemetry flags must not change stdout"
            );
            for kind in ["prom", "trace", "manifest"] {
                let _ = std::fs::remove_file(sink(kind));
            }
        }
    }
    let _ = std::fs::remove_file(queries);
}

/// Telemetry files are replaced, not truncated: a longer file already at
/// the `--metrics` target ends up holding exactly the new snapshot, and
/// a symlinked target is still written through the link.
#[test]
fn metrics_file_is_replaced_and_symlinks_are_written_through() {
    // A snapshot's shape: every line, with span timings cut to their
    // series name (the only part that repeats from run to run).
    let shape = |text: &str| -> Vec<String> {
        text.lines()
            .map(|line| match line.rsplit_once(' ') {
                Some((series, _)) if series.contains("_ns") => series.to_string(),
                _ => line.to_string(),
            })
            .collect()
    };
    let run = |target: &std::path::Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
            .args(["simulate", "1", "0.02", "-", "42", "--metrics"])
            .arg(target)
            .env("BOTSCOPE_THREADS", "1")
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        shape(&std::fs::read_to_string(target).expect("metrics written"))
    };
    let fresh = write_temp("metrics-fresh.prom", "");
    std::fs::remove_file(&fresh).expect("remove placeholder");
    let snapshot = run(&fresh);
    assert!(snapshot.iter().any(|line| line.starts_with("simnet_rows_total ")), "{snapshot:?}");

    let stale = write_temp("metrics-stale.prom", &"# stale line\n".repeat(4096));
    assert_eq!(run(&stale), snapshot, "a longer stale file must not leave a tail");

    let target = write_temp("metrics-link-target.prom", "old");
    let link = target.with_extension("link");
    let _ = std::fs::remove_file(&link);
    std::os::unix::fs::symlink(&target, &link).expect("create symlink");
    assert_eq!(run(&link), snapshot);
    assert!(std::fs::symlink_metadata(&link).unwrap().file_type().is_symlink());
    assert_eq!(shape(&std::fs::read_to_string(&target).unwrap()), snapshot, "through the link");
    for path in [&fresh, &stale, &target, &link] {
        let _ = std::fs::remove_file(path);
    }
}

/// Data outputs are replaced the same way: a longer stale file ends up
/// holding exactly the fresh bytes, as a new file (a hard link to the
/// stale one keeps the old bytes), and a symlinked output is written
/// through the link.
#[test]
fn data_output_is_replaced_and_symlinks_are_written_through() {
    let fresh = botscope(&["simulate", "1", "0.02", "-", "42"]);
    assert!(fresh.status.success(), "{}", String::from_utf8_lossy(&fresh.stderr));
    let run = |target: &std::path::Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
            .args(["simulate", "1", "0.02"])
            .arg(target)
            .arg("42")
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    };

    let stale_bytes = "stale,row\n".repeat(fresh.stdout.len() / 5);
    let stale = write_temp("data-stale.csv", &stale_bytes);
    let old_link = stale.with_extension("hardlink");
    let _ = std::fs::remove_file(&old_link);
    std::fs::hard_link(&stale, &old_link).expect("create hard link");
    run(&stale);
    assert_eq!(std::fs::read(&stale).unwrap(), fresh.stdout, "no stale tail");
    assert_eq!(std::fs::read_to_string(&old_link).unwrap(), stale_bytes, "replaced, not truncated");

    let target = write_temp("data-link-target.csv", "old");
    let link = target.with_extension("link");
    let _ = std::fs::remove_file(&link);
    std::os::unix::fs::symlink(&target, &link).expect("create symlink");
    run(&link);
    assert!(std::fs::symlink_metadata(&link).unwrap().file_type().is_symlink());
    assert_eq!(std::fs::read(&target).unwrap(), fresh.stdout, "through the link");
    for path in [&stale, &old_link, &target, &link] {
        let _ = std::fs::remove_file(path);
    }
}

/// The committed fixture pins the manifest's stable prefix (everything
/// before the volatile `perf` section) for one canonical monitor run.
/// Regenerate with:
///
/// ```text
/// BOTSCOPE_THREADS=2 botscope monitor --sites 8 --days 5 --bots 3 \
///   --manifest /tmp/m.json >/dev/null 2>&1
/// sed -n '/^  "perf"/q;p' /tmp/m.json | grep -v '^  "manifest_digest"' \
///   > tests/fixtures/manifest/monitor.json
/// ```
#[test]
fn manifest_stable_prefix_matches_committed_fixture() {
    let path =
        std::env::temp_dir().join(format!("botscope-test-{}-fixture.manifest", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
        .args(["monitor", "--sites", "8", "--days", "5", "--bots", "3"])
        .arg("--manifest")
        .arg(&path)
        .env("BOTSCOPE_THREADS", "2")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let rendered = std::fs::read_to_string(&path).expect("manifest written");
    let _ = std::fs::remove_file(&path);
    let expected = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/manifest/monitor.json"
    ))
    .expect("committed fixture");
    assert_eq!(
        botscope::obs::manifest::stable_prefix(&rendered),
        expected,
        "manifest stable prefix drifted from tests/fixtures/manifest/monitor.json; \
         regenerate it if the change is intentional"
    );
}

/// A fresh, empty directory for one CLI run to work in.
fn empty_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("botscope-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Run `botscope args` inside `dir`; no run may panic.
fn botscope_in(dir: &std::path::Path, args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{args:?}: {err}");
    out
}

/// Assert `args` fails with exit 1 and one stderr line containing
/// `want`, leaving `dir` empty.
fn assert_rejected(dir: &std::path::Path, args: &[&str], want: &str) {
    let out = botscope_in(dir, args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
    assert!(err.contains(want), "{args:?}: want {want:?}, got {err}");
    let created: Vec<_> = std::fs::read_dir(dir).expect("read temp dir").collect();
    assert!(created.is_empty(), "{args:?} created {created:?}");
}

/// Every subcommand and mode reads its flags through the same grammar:
/// an unknown flag, a missing value and `--help` behave alike, and a
/// rejected command line creates no file.
#[test]
fn every_subcommand_shares_one_flag_grammar() {
    // (name in errors, command words, one valued flag it accepts)
    let grammars: [(&str, &[&str], &str); 9] = [
        ("check", &["check"], "--manifest"),
        ("admit", &["admit"], "--robots"),
        ("audit", &["audit"], "--severity"),
        ("audit --estate", &["audit", "--estate"], "--sites"),
        ("diff", &["diff"], "--trace"),
        ("analyze", &["analyze"], "--metrics"),
        ("simulate", &["simulate"], "--format"),
        ("simulate --coupled", &["simulate", "--coupled"], "--out"),
        ("monitor", &["monitor"], "--changes"),
    ];
    for (name, command, valued) in grammars {
        let dir = empty_dir(&format!("grammar-{}", name.replace(' ', "")));
        let args = |extra: &[&'static str]| [command, extra].concat();
        assert_rejected(&dir, &args(&["--frob"]), &format!("unknown {name} flag \"--frob\""));
        let needs = format!("{valued} needs");
        assert_rejected(&dir, &args(&[valued]), &needs);
        assert_rejected(&dir, &args(&[valued, "--metrics", "m.prom"]), &needs);

        let help = botscope_in(&dir, &args(&["--help"]));
        assert!(help.status.success(), "{name} --help");
        assert!(String::from_utf8_lossy(&help.stdout).contains("USAGE"), "{name} --help");
        let _ = std::fs::remove_dir_all(dir);
    }

    // Command lines the per-subcommand parsers used to misread.
    let dir = empty_dir("grammar-regressions");
    for (args, want) in [
        (&["monitor", "--changes", "--stream"][..], "--changes needs"),
        (&["simulate", "--coupled", "--out", "--basis"], "--out needs"),
        (&["monitor", "5"], "unexpected monitor argument \"5\""),
        (&["check", "f.txt", "GPTBot", "--frob"], "unknown check flag \"--frob\""),
        (&["audit", "--sites", "3", "f.txt"], "unknown audit flag \"--sites\""),
    ] {
        assert_rejected(&dir, args, want);
    }
    // A mode switch selects its grammar wherever it appears.
    let first = botscope_in(
        &dir,
        &["simulate", "--coupled", "--scale", "0.02", "--sites", "4", "--out", "-"],
    );
    let last = botscope_in(
        &dir,
        &["simulate", "--scale", "0.02", "--sites", "4", "--coupled", "--out", "-"],
    );
    assert!(last.status.success(), "{}", String::from_utf8_lossy(&last.stderr));
    assert!(!first.stdout.is_empty());
    assert_eq!(first.stdout, last.stdout, "--coupled must select its mode in any position");
    let _ = std::fs::remove_dir_all(dir);
}

/// The manifest records what the user asked for: a switch as `"true"`,
/// never the positional after it, and the seed however it was passed.
#[test]
fn manifest_config_records_the_parsed_flags() {
    let dir = empty_dir("manifest-config");
    std::fs::write(dir.join("robots.txt"), "User-agent: *\nDisallow: /x\n").expect("write robots");
    let stable_prefix = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
            .current_dir(&dir)
            .args(args)
            .args(["--manifest", "m.json"])
            .env_remove("BOTSCOPE_THREADS")
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        let rendered = std::fs::read_to_string(dir.join("m.json")).expect("manifest written");
        botscope::obs::manifest::stable_prefix(&rendered)
    };
    let simulate = stable_prefix(&["simulate", "1", "0.02", "log.csv", "42"]);
    assert!(simulate.contains("\n  \"seed\": 42,\n"), "{simulate}");
    assert!(simulate.contains("\n  \"config\": {},\n"), "{simulate}");
    let analyze = stable_prefix(&["analyze", "--phase-report", "log.csv"]);
    assert!(analyze.contains("\n  \"config\": {\"phase-report\": \"true\"},\n"), "{analyze}");
    let audit = stable_prefix(&["audit", "--json", "robots.txt"]);
    assert!(audit.contains("\n  \"config\": {\"json\": \"true\"},\n"), "{audit}");
    assert!(audit.contains("\n  \"seed\": null,\n"), "{audit}");
    let _ = std::fs::remove_dir_all(dir);
}
