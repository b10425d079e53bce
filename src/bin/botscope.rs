//! The `botscope` command-line tool.
//!
//! Subcommands for the workflows a site operator or researcher runs
//! day-to-day, each a thin shell over the library:
//!
//! ```text
//! botscope check <robots.txt> <agent> <path>...   access decisions
//! botscope admit [--robots F] <queries.csv|->     batch admission checks
//! botscope audit <robots.txt>                     lint a policy file
//! botscope diff <old> <new> [agent...]            what changed, for whom
//! botscope analyze [--phase-report] <log|->       per-bot compliance report
//! botscope simulate [days] [scale] [out] [seed]   generate synthetic logs
//! botscope monitor [--sites N] [--days N] ...     run the monitoring daemon
//! ```

use std::io::Write as _;
use std::process::ExitCode;

use botscope::core::attribution::PolicyBasis;
use botscope::monitor::daemon::{MonitorConfig, TtlPolicy};
use botscope::monitor::{CoupledConfig, RefreshModel, ScenarioKind};
use botscope::obs::digest::Fingerprint;
use botscope::pipelines::{self, AnalyzeMode, AuditOptions, LogFormat, MonitorOutputs, Study};
use botscope::robots::analysis::Severity;
use botscope::robots::diff::{diff, summarize};
use botscope::robots::{CompiledPolicy, RobotsTxt};
use botscope::simnet::SimConfig;
use botscope::study::worker_threads;
use botscope::weblog::sink::TargetError;

const USAGE: &str = "botscope — robots.txt compliance toolkit

USAGE:
  botscope check <robots.txt> <agent> <path>...
      Print ALLOW/DENY (and crawl delay) for each path.
  botscope admit [--robots FILE] [--quiet] <queries.csv|->
      Batch \"may-I-crawl\" admission: each query row `agent,site,path`
      (header optional; \"-\" reads stdin) is answered ALLOW/DENY on
      stdout from compiled policy automata cached per site, compiled
      lazily on first use. Sites default to the paper's policy corpus
      (version picked by a stable hash of the site name); a throughput
      and compile-cost summary goes to stderr.
        --robots FILE    serve FILE as every site's robots.txt instead
                         of the paper corpus
        --quiet          suppress per-query output (throughput runs)
  botscope audit [--json] [--severity S] [--deny S] <robots.txt>...
      Statically analyze policies: syntactic lints plus automaton-walk
      proofs — dead/shadowed rules with witness paths, rules only
      /robots.txt can match, parser-divergence hazards (first-match,
      wildcard-unaware, $-literal matchers), each with a concrete
      witness path that reproduces the divergence.
        --json           machine-readable findings on stdout
        --severity S     only show findings at/above S (info|warning|error)
        --deny S         exit nonzero when findings at/above S exist
  botscope audit --estate [options]
      Estate-scale analysis: analyze the paper's policy corpus, prove
      every version transition cosmetic or behavioral, run the
      monitoring daemon, classify its change digests, and replay them
      against a warmed admission estate to report the recompile debt
      actually owed (cosmetic digests keep artifacts warm).
        --sites N        estate size (default 36)
        --days N         horizon in simulated days (default 46)
        --seed N         master seed (default 9309)
        --bots N         monitored bots (default 6)
        --scenario K     stable|outages|flapping|redirects|mixed (default mixed)
        --swap-every N   every Nth site swaps policies mid-study (default 4)
        --json / --severity / --deny  as above
  botscope diff <old-robots.txt> <new-robots.txt> [agent]...
      Report decision flips over the file's own rule paths.
      Agents default to: Googlebot GPTBot ClaudeBot Bytespider *anybot*.
  botscope analyze [--phase-report [--table]] <log|->
      Standardize user agents and report per-bot pacing and spoof signals.
      The input is the workspace CSV schema or the columnar binary
      format (auto-detected from the magic bytes); \"-\" reads stdin.
      CSV columns: useragent,timestamp,ip_hash,asn,sitename,uri_path,status,bytes,referer
        --phase-report   treat the log as the 8-week phase study and
                         print the paper's experiment tables via the
                         single-pass streaming analyzer (bounded memory)
        --table          with --phase-report: materialize the log first,
                         so its rows may come in any order (the
                         streamed default needs time-sorted rows and
                         rejects a log that goes back in time); same
                         engine, same report bytes on a sorted log
  botscope simulate [days=7] [scale=0.05] [out] [seed=9309] [flags]
      Generate a synthetic access log (stdout or out; pass \"-\" for
      out to pipe a seeded run to stdout). The same seed always
      yields a byte-identical log.
        --format F       csv (default) or bin, the columnar binary
                         format (smaller, dictionary-compressed)
        --stream         bounded-memory generation: workers spill
                         sorted runs to disk and a k-way merge streams
                         rows to the output without ever materializing
                         the full table
        --phase-study    generate the 8-week four-phase robots.txt
                         experiment instead of the flat estate study
                         (days is ignored; pair with `analyze
                         --phase-report`)
  botscope simulate --coupled [options]
      Generate the 8-week phase study in *coupled* mode: a monitoring
      daemon first derives each bot's believed policy per site from
      virtual robots.txt fetches (stale caches, 4xx/5xx windows,
      backoff gaps), traffic generation then acts on those beliefs,
      and compliance is attributed against served ground truth
      (deliberate / stale-cache / fetch-artifact split).
        --scale F        traffic multiplier (default 0.05)
        --sites N        estate size (default 36)
        --seed N         master seed (default 9309)
        --scenario K     stable|outages|flapping|redirects|mixed (default mixed)
        --refresh M      fleet|instant belief refresh (default fleet)
        --basis B        believed|served compliance basis for the
                         printed Tables 5/6/10 (default served);
                         believed drops stale-cache and fetch-artifact
                         rows from the non-compliant pool
        --out FILE       write the generated log as CSV (\"-\" = stdout)
  botscope monitor [options]
      Run the robots.txt monitoring daemon over the virtual estate:
      one cache-backed fetch agent per (bot, site), scripted outages /
      redirect chains / policy swaps, conditional revalidation (304s),
      change detection, and a §5.1 re-check report computed from the
      monitored fetch log.
        --sites N        estate size (default 36)
        --days N         horizon in simulated days (default 46)
        --seed N         master seed (default 9309)
        --bots N         monitored bots, top of the fleet (default 6)
        --ttl P          re-check TTL: \"spectrum\" or hours (default spectrum)
        --scenario K     stable|outages|flapping|redirects|mixed (default mixed)
        --swap-every N   every Nth site swaps policies mid-study (default 4; 0 = off)
        --out FILE       write the fetch-event log as CSV (\"-\" = stdout)
        --jsonl FILE     write the fetch-event log as JSONL (\"-\" = stdout)
        --changes FILE   write detected policy changes as CSV (\"-\" = stdout)
        --stream         accepted for compatibility; every run streams
                         its fetch log row by row through the k-way
                         shard merge into the CSV/JSONL writers and the
                         bounded-memory report accumulators

FLAG GRAMMAR (every subcommand):
  Flags may appear in any order after the subcommand, and --coupled /
  --estate select their mode wherever they appear. A flag that takes a
  value never takes a token starting with -- as that value (\"-\" is a
  value). Unknown flags and surplus arguments are errors.

GLOBAL FLAGS (any subcommand):
  --metrics FILE   write a Prometheus-style text snapshot of every
                   counter, gauge and histogram on exit
  --manifest FILE  write a run-manifest JSON: config, seed, threads,
                   counters, output digests, phase timings, peak RSS
  --trace FILE     stream span events as JSONL while the run executes
      FILE may be \"-\" to write to stderr. Stdout always stays
      reserved for data artifacts, and telemetry never changes
      artifact bytes: instrumented runs are byte-identical to
      uninstrumented ones at any thread count.

ENVIRONMENT:
  BOTSCOPE_THREADS
      Worker threads for log generation (simulate, simulate
      --coupled) and the monitor's event-queue shards (monitor, and
      the belief stage of simulate --coupled). At 2 or more,
      `analyze --phase-report` decodes a BSCL log on one helper
      thread ahead of the §4 analysis, and the k-way merges (simulate
      --stream, monitor) run on one helper thread while the output
      writers encode on the main one. Attribution and the §4
      analysis are serial; the CSV encode of `simulate --coupled
      --out` runs on its own thread beside them at any count.
      Defaults to the machine's available parallelism; the output is
      byte-identical for a fixed seed at any thread count.
";

fn main() -> ExitCode {
    let started = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--help`/`-h` anywhere (e.g. `simulate --help`) means `help`.
    if args.iter().any(|a| a == "--help" || a == "-h")
        || matches!(args.first().map(String::as_str), None | Some("help"))
    {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args[0], &args[1..], started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Parse `args` with `command`'s grammar, then run the command between
/// the telemetry hooks.
fn run(command: &str, args: &[String], started: std::time::Instant) -> Result<(), String> {
    let grammar = grammar_for(command, args)
        .ok_or_else(|| format!("unknown subcommand {command:?}\n\n{USAGE}"))?;
    let parsed = parse(grammar, args)?;
    start_telemetry(&parsed)?;
    (grammar.run)(&parsed)?;
    finish_telemetry(command, &parsed, started)
}

/// One flag of a grammar: a switch, or a flag that takes the next
/// token as its value.
struct Flag {
    name: &'static str,
    /// For a valued flag, what its "needs …" error asks for.
    needs: Option<&'static str>,
}

const fn switch(name: &'static str) -> Flag {
    Flag { name, needs: None }
}

const fn valued(name: &'static str, needs: &'static str) -> Flag {
    Flag { name, needs: Some(needs) }
}

const A_VALUE: &str = "a value";
const OUT_FILE: &str = "a file or \"-\" for stdout";
const DIAG_FILE: &str = "a file or \"-\" for stderr";
const SCENARIOS: &str = "stable|outages|flapping|redirects|mixed";
const SEVERITIES: &str = "info|warning|error";
/// `simulate`'s positional seed: `simulate [days] [scale] [out] [seed]`.
const SIMULATE_SEED_ARG: usize = 3;

/// `--metrics`, `--manifest` and `--trace`, accepted by every subcommand.
const TELEMETRY: &[Flag] = &[
    valued("--metrics", DIAG_FILE),
    valued("--manifest", DIAG_FILE),
    valued("--trace", DIAG_FILE),
];
const ADMIT: &[Flag] = &[valued("--robots", "a file"), switch("--quiet")];
/// The report options of both `audit` modes.
const AUDIT_REPORT: &[Flag] =
    &[switch("--json"), valued("--severity", A_VALUE), valued("--deny", A_VALUE)];
const AUDIT_ESTATE: &[Flag] = &[switch("--estate")];
const ANALYZE: &[Flag] = &[switch("--phase-report"), switch("--table")];
const SIMULATE: &[Flag] =
    &[switch("--stream"), switch("--phase-study"), valued("--format", "csv or bin")];
const SIMULATE_COUPLED: &[Flag] = &[
    switch("--coupled"),
    valued("--scale", A_VALUE),
    valued("--sites", A_VALUE),
    valued("--seed", A_VALUE),
    valued("--scenario", A_VALUE),
    valued("--refresh", A_VALUE),
    valued("--basis", A_VALUE),
    valued("--out", OUT_FILE),
];
/// The estate shared by `monitor` and `audit --estate`; read by
/// [`monitor_config`].
const MONITOR_CONFIG: &[Flag] = &[
    valued("--sites", A_VALUE),
    valued("--days", A_VALUE),
    valued("--seed", A_VALUE),
    valued("--bots", A_VALUE),
    valued("--scenario", A_VALUE),
    valued("--swap-every", A_VALUE),
];
const MONITOR: &[Flag] = &[
    valued("--ttl", A_VALUE),
    valued("--out", OUT_FILE),
    valued("--jsonl", OUT_FILE),
    valued("--changes", OUT_FILE),
    switch("--stream"),
];

/// A subcommand's (or a mode's) whole command line: its flag tables
/// (the telemetry flags are added to every grammar), how many
/// positional arguments it takes, and the function it runs.
#[derive(Clone, Copy)]
struct Grammar {
    /// The name errors use: `unknown <name> flag`.
    name: &'static str,
    flags: &'static [&'static [Flag]],
    positionals: usize,
    run: fn(&Parsed) -> Result<(), String>,
}

/// The grammar for `command`; a mode switch selects its mode's grammar
/// wherever it appears in `args`.
fn grammar_for(command: &str, args: &[String]) -> Option<Grammar> {
    let mode = |flag: &str| args.iter().any(|a| a == flag);
    let any = usize::MAX;
    Some(match command {
        "check" => Grammar { name: "check", flags: &[], positionals: any, run: cmd_check },
        "admit" => Grammar { name: "admit", flags: &[ADMIT], positionals: 1, run: cmd_admit },
        "audit" if mode("--estate") => Grammar {
            name: "audit --estate",
            flags: &[AUDIT_ESTATE, AUDIT_REPORT, MONITOR_CONFIG],
            positionals: 0,
            run: audit_estate,
        },
        "audit" => {
            Grammar { name: "audit", flags: &[AUDIT_REPORT], positionals: any, run: audit_files }
        }
        "diff" => Grammar { name: "diff", flags: &[], positionals: any, run: cmd_diff },
        "analyze" => {
            Grammar { name: "analyze", flags: &[ANALYZE], positionals: 1, run: cmd_analyze }
        }
        "simulate" if mode("--coupled") => Grammar {
            name: "simulate --coupled",
            flags: &[SIMULATE_COUPLED],
            positionals: 0,
            run: cmd_simulate_coupled,
        },
        "simulate" => Grammar {
            name: "simulate",
            flags: &[SIMULATE],
            positionals: SIMULATE_SEED_ARG + 1,
            run: cmd_simulate,
        },
        "monitor" => Grammar {
            name: "monitor",
            flags: &[MONITOR_CONFIG, MONITOR],
            positionals: 0,
            run: cmd_monitor,
        },
        _ => return None,
    })
}

/// A command line split by its grammar.
struct Parsed {
    grammar: Grammar,
    /// The arguments verbatim, minus the telemetry flags and their values.
    args: Vec<String>,
    /// Flags in command-line order, telemetry included; a switch has no
    /// value.
    flags: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

fn is_telemetry(name: &str) -> bool {
    TELEMETRY.iter().any(|f| f.name == name)
}

/// The one flag parser. A token starting with `--` is a flag of the
/// grammar; a valued flag takes the next token, which must exist and
/// must not start with `--` (`-` is a value); any other token is a
/// positional.
fn parse(grammar: Grammar, args: &[String]) -> Result<Parsed, String> {
    let mut p = Parsed { grammar, args: Vec::new(), flags: Vec::new(), positionals: Vec::new() };
    let mut tokens = args.iter();
    while let Some(token) = tokens.next() {
        if !token.starts_with("--") {
            if p.positionals.len() == grammar.positionals {
                return Err(format!(
                    "unexpected {} argument {token:?} (see `botscope help`)",
                    grammar.name
                ));
            }
            p.positionals.push(token.clone());
            p.args.push(token.clone());
            continue;
        }
        let flag = grammar
            .flags
            .iter()
            .copied()
            .flatten()
            .chain(TELEMETRY)
            .find(|f| f.name == token)
            .ok_or_else(|| {
                format!("unknown {} flag {token:?} (see `botscope help`)", grammar.name)
            })?;
        let value = match flag.needs {
            None => None,
            Some(noun) => match tokens.next() {
                Some(value) if !value.starts_with("--") => Some(value.clone()),
                _ => return Err(format!("{} needs {noun} (see `botscope help`)", flag.name)),
            },
        };
        if !is_telemetry(flag.name) {
            p.args.push(token.clone());
            p.args.extend(value.clone());
        }
        p.flags.push((flag.name, value));
    }
    Ok(p)
}

impl Parsed {
    fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| *flag == name)
    }

    /// The value of the last `name` on the command line.
    fn value(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(flag, _)| *flag == name).and_then(|(_, v)| v.as_deref())
    }

    /// `name`'s value as a number, or `default` when the flag is absent.
    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.value(name).map_or(Ok(default), |v| v.parse().map_err(|_| format!("bad {name} {v}")))
    }

    /// `name`'s value through `parse`, or `default` when the flag is
    /// absent; a failure names the accepted values.
    fn get<T>(
        &self,
        name: &str,
        default: T,
        parse: impl FnOnce(&str) -> Option<T>,
        want: &str,
    ) -> Result<T, String> {
        self.value(name).map_or(Ok(default), |v| {
            parse(v).ok_or_else(|| format!("bad {name} {v} (want {want})"))
        })
    }
}

/// Whether `--manifest` is active: every output writer then
/// fingerprints its bytes and records `(target, bytes, fingerprint)`.
static MANIFEST_ACTIVE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn manifest_active() -> bool {
    MANIFEST_ACTIVE.load(std::sync::atomic::Ordering::Relaxed)
}

/// Create the output file `path`.
///
/// An existing regular file is removed and created afresh rather than
/// truncated: on ext4, closing a truncated file that held data flushes
/// the data written before it (a large log just written costs ~10 % of
/// the run), while a new file's close does not. Symlinks, FIFOs and
/// devices are opened in place, so writes still go through them.
fn create_output(path: &str) -> Result<std::fs::File, String> {
    if std::fs::symlink_metadata(path).is_ok_and(|m| m.file_type().is_file()) {
        // A failed removal leaves the truncating create below.
        let _ = std::fs::remove_file(path);
    }
    std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))
}

/// A buffered diagnostics writer: a file, or stderr for `-`.
fn diag_writer(path: &str) -> Result<Box<dyn std::io::Write + Send>, String> {
    Ok(if path == "-" {
        Box::new(std::io::BufWriter::new(std::io::stderr()))
    } else {
        Box::new(std::io::BufWriter::new(create_output(path)?))
    })
}

/// Enable the registry when any telemetry flag is present, and attach
/// the trace sink up front so spans stream while the run executes.
///
/// Diagnostics never touch stdout: `-` routes metrics, manifests and
/// traces to *stderr*, keeping stdout reserved for data artifacts.
/// Telemetry also never changes artifact bytes — instrumented runs
/// are byte-identical to uninstrumented ones.
fn start_telemetry(p: &Parsed) -> Result<(), String> {
    if !p.flags.iter().any(|(flag, _)| is_telemetry(flag)) {
        return Ok(());
    }
    botscope::obs::global().set_enabled(true);
    if p.value("--manifest").is_some() {
        MANIFEST_ACTIVE.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    if let Some(path) = p.value("--trace") {
        botscope::obs::global().set_trace(diag_writer(path)?);
    }
    Ok(())
}

/// After the subcommand succeeds: flush the trace, render the metrics
/// snapshot, and write the run manifest.
fn finish_telemetry(command: &str, p: &Parsed, started: std::time::Instant) -> Result<(), String> {
    let obs = botscope::obs::global();
    if !obs.enabled() {
        return Ok(());
    }
    obs.close_trace().map_err(|e| format!("cannot flush trace: {e}"))?;
    if let Some(path) = p.value("--metrics") {
        let text = obs.render_prometheus();
        let mut w = diag_writer(path)?;
        w.write_all(text.as_bytes())
            .and_then(|()| w.flush())
            .map_err(|e| format!("cannot write metrics: {e}"))?;
    }
    if let Some(path) = p.value("--manifest") {
        let manifest = build_manifest(command, p, started);
        let mut w = diag_writer(path)?;
        w.write_all(manifest.render().as_bytes())
            .and_then(|()| w.flush())
            .map_err(|e| format!("cannot write manifest: {e}"))?;
    }
    Ok(())
}

/// Assemble the run manifest: identity and config first (the stable
/// prefix CI snapshots), volatile perf numbers last. `config` holds the
/// parsed flags (a switch as `"true"`) and `seed` the seed the user
/// passed, if any.
fn build_manifest(
    command: &str,
    p: &Parsed,
    started: std::time::Instant,
) -> botscope::obs::manifest::RunManifest {
    use botscope::obs::manifest::{PerfSection, RunManifest};

    let obs = botscope::obs::global();
    let config = p
        .flags
        .iter()
        .filter(|(flag, _)| !is_telemetry(flag))
        .map(|(flag, value)| {
            let name = flag.trim_start_matches("--").to_string();
            (name, value.clone().unwrap_or_else(|| "true".to_string()))
        })
        .chain(std::env::var("BOTSCOPE_THREADS").map(|t| ("env.BOTSCOPE_THREADS".to_string(), t)))
        .collect();
    let seed_arg = match p.grammar.name {
        "simulate" => p.positionals.get(SIMULATE_SEED_ARG).map(String::as_str),
        _ => p.value("--seed"),
    };
    let mut counters = obs.snapshot_counters();
    counters.extend(obs.snapshot_gauges());
    let mem = botscope::obs::rss::sample_self().unwrap_or_default();
    RunManifest {
        tool: "botscope".to_string(),
        version: env!("CARGO_PKG_VERSION").to_string(),
        command: command.to_string(),
        args: p.args.clone(),
        seed: seed_arg.and_then(|s| s.parse().ok()),
        threads: worker_threads(),
        config,
        counters,
        outputs: obs.snapshot_outputs(),
        perf: PerfSection {
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            host_cores: botscope::obs::manifest::host_cores(),
            rss_kb: mem.rss_kb,
            peak_rss_kb: mem.peak_rss_kb,
            phases: obs.snapshot_phases(),
        },
    }
}

/// Read and parse a robots.txt file from its raw bytes: octets that are
/// not UTF-8 (Latin-1 files) are percent-encoded with a parse warning,
/// never an error.
fn read_robots(path: &str) -> Result<RobotsTxt, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(RobotsTxt::parse_bytes(&bytes))
}

fn cmd_check(p: &Parsed) -> Result<(), String> {
    let [file, agent, paths @ ..] = p.positionals.as_slice() else {
        return Err("usage: botscope check <robots.txt> <agent> <path>...".into());
    };
    if paths.is_empty() {
        return Err("no paths given".into());
    }
    let doc = read_robots(file)?;
    if !doc.warnings.is_empty() {
        eprintln!(
            "note: {} parse warning(s); run `botscope audit` for details",
            doc.warnings.len()
        );
    }
    let policy = CompiledPolicy::compile(&doc);
    write_output("-", |w| {
        if let Some(delay) = policy.crawl_delay(agent) {
            writeln!(w, "crawl delay for {agent}: {delay}s")?;
        }
        for path in paths {
            let d = policy.check(agent, path);
            let verdict = if d.allow { "ALLOW" } else { "DENY " };
            match d.matched_rule {
                Some(rule) => {
                    writeln!(w, "{verdict} {path}  ({}: {})", rule.verb.as_str(), rule.pattern)?;
                }
                None => writeln!(w, "{verdict} {path}  (default)")?,
            }
        }
        Ok(())
    })
}

fn cmd_diff(p: &Parsed) -> Result<(), String> {
    let [old_file, new_file, agents @ ..] = p.positionals.as_slice() else {
        return Err("usage: botscope diff <old> <new> [agent]...".into());
    };
    let old = read_robots(old_file)?;
    let new = read_robots(new_file)?;

    let default_agents = ["Googlebot", "GPTBot", "ClaudeBot", "Bytespider", "anybot"];
    let agents: Vec<&str> = if agents.is_empty() {
        default_agents.to_vec()
    } else {
        agents.iter().map(String::as_str).collect()
    };

    // Probe over every rule path mentioned in either file, plus roots.
    let mut paths: Vec<String> = vec!["/".into()];
    for doc in [&old, &new] {
        for g in &doc.groups {
            for r in &g.rules {
                let raw = r.pattern.as_str().trim_end_matches(['*', '$']).to_string();
                if !raw.is_empty() && !paths.contains(&raw) {
                    paths.push(raw.clone());
                    paths.push(format!("{}probe", raw.trim_end_matches('/').to_owned() + "/"));
                }
            }
        }
    }
    let path_refs: Vec<&str> = paths.iter().map(String::as_str).collect();
    let changes =
        diff(&CompiledPolicy::compile(&old), &CompiledPolicy::compile(&new), &agents, &path_refs);
    let (tightened, loosened) = summarize(&changes);
    write_output("-", |w| {
        writeln!(w, "{} change(s): {tightened} tightened, {loosened} loosened", changes.len())?;
        for c in &changes {
            writeln!(w, "  {c:?}")?;
        }
        Ok(())
    })
}

fn cmd_admit(p: &Parsed) -> Result<(), String> {
    let Some(file) = p.positionals.first() else {
        return Err("usage: botscope admit [--robots FILE] [--quiet] <queries.csv|->".into());
    };
    let (source, text) = if file == "-" {
        ("stdin", std::io::read_to_string(std::io::stdin()))
    } else {
        (file.as_str(), std::fs::read_to_string(file))
    };
    let text = text.map_err(|e| format!("cannot read {source}: {e}"))?;
    let queries = pipelines::parse_queries(&text).map_err(pipeline_error)?;
    let robots = p.value("--robots").map(read_robots).transpose()?;
    let mut verdicts = (!p.switch("--quiet")).then(|| writer_for("-")).transpose()?;
    let summary = pipelines::admit(&queries, robots.as_ref(), borrow(&mut verdicts))
        .map_err(pipeline_error)?;
    eprint!("{summary}");
    Ok(())
}

/// `--json`, `--severity` and `--deny`, the report options of both
/// `audit` modes.
fn audit_options(p: &Parsed) -> Result<AuditOptions, String> {
    Ok(AuditOptions {
        json: p.switch("--json"),
        severity: p.get("--severity", Severity::Info, |v| v.parse().ok(), SEVERITIES)?,
        deny: p.get("--deny", None, |v| v.parse().ok().map(Some), SEVERITIES)?,
    })
}

fn audit_files(p: &Parsed) -> Result<(), String> {
    let opts = audit_options(p)?;
    if p.positionals.is_empty() {
        return Err(
            "usage: botscope audit [--json] [--severity S] [--deny S] <robots.txt>...".into()
        );
    }
    let files = p
        .positionals
        .iter()
        .map(|file| read_robots(file).map(|doc| (file.clone(), doc)))
        .collect::<Result<Vec<_>, _>>()?;
    let report = pipelines::audit(&files, opts);
    print_report(&report.text, false)?;
    report.verdict().map_err(pipeline_error)
}

fn audit_estate(p: &Parsed) -> Result<(), String> {
    let cfg = monitor_config(p)?;
    let report = pipelines::audit_estate(&cfg, worker_threads(), audit_options(p)?);
    print_report(&report.text, false)?;
    report.verdict().map_err(pipeline_error)
}

/// Read buffer for `analyze`'s input, a file or stdin: large enough that
/// the decoders make few `read` calls on a multi-megabyte log.
const ANALYZE_READ_BUFFER: usize = 64 * 1024;

fn cmd_analyze(p: &Parsed) -> Result<(), String> {
    let (phase_report, use_table) = (p.switch("--phase-report"), p.switch("--table"));
    let Some(file) = p.positionals.first() else {
        return Err("usage: botscope analyze [--phase-report [--table]] <log.csv|log.bin|->".into());
    };
    let mode = match (phase_report, use_table) {
        (false, false) => AnalyzeMode::Plain,
        (false, true) => return Err("--table only applies together with --phase-report".into()),
        (true, false) => AnalyzeMode::PhaseReport,
        (true, true) => AnalyzeMode::PhaseReportTable,
    };
    // Not a `StdinLock`: the reader may move to a decode thread.
    let input: Box<dyn std::io::Read + Send> = if file == "-" {
        Box::new(std::io::stdin())
    } else {
        Box::new(std::fs::File::open(file).map_err(|e| format!("cannot read {file}: {e}"))?)
    };
    let reader = std::io::BufReader::with_capacity(ANALYZE_READ_BUFFER, input);
    let report = pipelines::analyze(reader, mode, worker_threads()).map_err(|e| match e {
        pipelines::Error::Read(e) => format!("cannot read {file}: {e}"),
        e => pipeline_error(e),
    })?;
    print_report(&report, false)
}

/// A data writer: a file, or stdout for `-`.
type Writer = Box<dyn std::io::Write + Send>;

/// Run `f` against a buffered writer for `path` (`-` = stdout), then
/// flush and surface every error — including the final flush, which a
/// bare `BufWriter` drop would swallow. The single funnel for all data
/// output that no pipeline writes.
fn write_output<F>(path: &str, f: F) -> Result<(), String>
where
    F: FnOnce(&mut dyn std::io::Write) -> std::io::Result<()>,
{
    let mut w = writer_for(path)?;
    f(&mut w).and_then(|()| w.flush()).map_err(|e| write_error(e, "cannot write"))
}

/// Print a pipeline's report on stdout through [`write_output`] — or on
/// stderr when `data_on_stdout`: a data output already claimed stdout.
/// An empty report prints nothing.
fn print_report(report: &str, data_on_stdout: bool) -> Result<(), String> {
    if report.is_empty() {
        Ok(())
    } else if data_on_stdout {
        eprint!("{report}");
        Ok(())
    } else {
        write_output("-", |w| w.write_all(report.as_bytes()))
    }
}

/// The one-line message for an I/O error: a [`TargetError`] names its
/// target itself; any other error is prefixed with `context`.
fn write_error(e: std::io::Error, context: &str) -> String {
    if TargetError::names_target(&e) {
        e.to_string()
    } else {
        format!("{context}: {e}")
    }
}

/// The one-line message for a pipeline's error; a write error is worded
/// by [`write_error`].
fn pipeline_error(e: pipelines::Error) -> String {
    match e {
        pipelines::Error::Write { context, source } => write_error(source, context),
        e => e.to_string(),
    }
}

/// The file end of every data writer, under its `BufWriter`: its I/O
/// errors name the target ([`TargetError`]), and under `--manifest` it
/// fingerprints the bytes it passes, recording `(target, bytes,
/// fingerprint)` when dropped (after the buffer's last flush: the owning
/// sink decides when writing ends, so Drop is the only reliable hook).
struct OutputWriter {
    target: String,
    inner: Writer,
    fingerprint: Option<Fingerprint>,
}

impl OutputWriter {
    fn tag(&self, e: std::io::Error) -> std::io::Error {
        TargetError::wrap(&e, format_args!("write {}", self.target))
    }
}

impl std::io::Write for OutputWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf).map_err(|e| self.tag(e))?;
        if let Some(fingerprint) = &mut self.fingerprint {
            fingerprint.update(&buf[..n]);
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush().map_err(|e| self.tag(e))
    }
}

impl Drop for OutputWriter {
    fn drop(&mut self) {
        if let Some(fingerprint) = &self.fingerprint {
            botscope::obs::global().record_output(
                &self.target,
                fingerprint.bytes(),
                fingerprint.hex(),
            );
        }
    }
}

/// A boxed buffered writer for `path` (`-` = stdout), over an
/// [`OutputWriter`]. Pipelines flush the writers they are given.
fn writer_for(path: &str) -> Result<Writer, String> {
    let (target, inner): (&str, Writer) = if path == "-" {
        ("stdout", Box::new(std::io::stdout()))
    } else {
        (path, Box::new(create_output(path)?))
    };
    Ok(Box::new(std::io::BufWriter::new(OutputWriter {
        target: target.to_string(),
        inner,
        fingerprint: manifest_active().then(Fingerprint::new),
    })))
}

/// An optional writer, borrowed for a pipeline.
fn borrow(w: &mut Option<Writer>) -> Option<&mut dyn std::io::Write> {
    w.as_deref_mut().map(|w| w as &mut dyn std::io::Write)
}

/// Read the estate flags shared by `monitor` and `audit --estate`.
fn monitor_config(p: &Parsed) -> Result<MonitorConfig, String> {
    let d = MonitorConfig::default();
    let cfg = MonitorConfig {
        sites: p.num("--sites", d.sites)?,
        days: p.num("--days", d.days)?,
        seed: p.num("--seed", d.seed)?,
        bots: p.num("--bots", d.bots)?,
        ttl: p.get("--ttl", d.ttl, TtlPolicy::parse, "\"spectrum\" or hours")?,
        scenario: p.get("--scenario", d.scenario, ScenarioKind::parse, SCENARIOS)?,
        swap_every: p.num("--swap-every", d.swap_every)?,
        ..d
    };
    if cfg.sites == 0 || cfg.days == 0 || cfg.bots == 0 {
        return Err("--sites, --days and --bots must be at least 1".into());
    }
    Ok(cfg)
}

/// Run stats go to stderr; the report tables go to stdout, or to
/// stderr when a data flag claimed stdout.
fn cmd_monitor(p: &Parsed) -> Result<(), String> {
    let cfg = monitor_config(p)?;
    let paths = [p.value("--out"), p.value("--jsonl"), p.value("--changes")];
    let mut csv = paths[0].map(writer_for).transpose()?;
    let mut jsonl = paths[1].map(writer_for).transpose()?;
    let mut changes = paths[2].map(writer_for).transpose()?;
    let outputs = MonitorOutputs {
        csv: borrow(&mut csv),
        jsonl: borrow(&mut jsonl),
        changes: borrow(&mut changes),
    };
    let report = pipelines::monitor(&cfg, worker_threads(), outputs).map_err(pipeline_error)?;
    drop(changes);
    eprint!("{}", report.summary);
    print_report(&report.tables, paths.contains(&Some("-")))
}

/// `simulate --coupled`: the report goes to stdout, or to stderr when
/// the CSV does.
fn cmd_simulate_coupled(p: &Parsed) -> Result<(), String> {
    let mut cfg = CoupledConfig::default();
    cfg.sim.scale = p.num("--scale", 0.05)?;
    cfg.sim.sites = p.num("--sites", cfg.sim.sites)?;
    cfg.sim.seed = p.num("--seed", cfg.sim.seed)?;
    cfg.scenario = p.get("--scenario", cfg.scenario, ScenarioKind::parse, SCENARIOS)?;
    cfg.refresh = p.get("--refresh", cfg.refresh, RefreshModel::parse, "fleet|instant")?;
    let basis = p.get("--basis", PolicyBasis::Served, PolicyBasis::parse, "believed|served")?;
    let out_path = p.value("--out");
    if !(cfg.sim.scale > 0.0 && cfg.sim.scale.is_finite()) {
        return Err(format!("scale must be a positive number, got {}", cfg.sim.scale));
    }
    if cfg.sim.sites == 0 || cfg.sim.sites > 64 {
        return Err("--sites must be between 1 and 64".into());
    }
    let mut csv = out_path.map(writer_for).transpose()?;
    let report = pipelines::coupled(&cfg, basis, worker_threads(), csv.as_deref_mut())
        .map_err(pipeline_error)?;
    drop(csv);
    print_report(&report, out_path == Some("-"))
}

fn cmd_simulate(p: &Parsed) -> Result<(), String> {
    let format = p.get("--format", LogFormat::Csv, LogFormat::parse, "csv or bin")?;
    let arg = |i: usize| p.positionals.get(i).map(String::as_str);
    let days: u64 = arg(0).map(|s| s.parse().map_err(|_| "bad days")).transpose()?.unwrap_or(7);
    let scale: f64 =
        arg(1).map(|s| s.parse().map_err(|_| "bad scale")).transpose()?.unwrap_or(0.05);
    // "-" selects stdout explicitly, so a seed can be combined with piping.
    let out_path = arg(2).unwrap_or("-");
    let seed: u64 = arg(SIMULATE_SEED_ARG)
        .map(|s| s.parse().map_err(|_| "bad seed"))
        .transpose()?
        .unwrap_or_else(|| SimConfig::default().seed);
    if days == 0 {
        return Err("days must be at least 1".into());
    }
    if !(scale > 0.0 && scale.is_finite()) {
        return Err(format!("scale must be a positive number, got {scale}"));
    }
    let cfg = SimConfig { days, scale, seed, ..SimConfig::default() };
    let study = if p.switch("--phase-study") { Study::Phase } else { Study::Estate };
    let stream = p.switch("--stream");
    let out = writer_for(out_path)?;
    let rows = pipelines::simulate(&cfg, study, stream, format, worker_threads(), out)
        .map_err(pipeline_error)?;
    if out_path != "-" {
        eprintln!("{rows} records -> {out_path}{}", if stream { " (streamed)" } else { "" });
    }
    Ok(())
}
