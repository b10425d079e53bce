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

use botscope::core::pipeline::tally_bots;
use botscope::core::recheck::{by_category, RecheckAccumulator};
use botscope::core::spoofdetect::{DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS};
use botscope::monitor::daemon::{MonitorConfig, TtlPolicy};
use botscope::monitor::ScenarioKind;
use botscope::obs::json_escape;
use botscope::robots::analysis::Severity;
use botscope::robots::diff::{diff, summarize};
use botscope::robots::{CompiledPolicy, RobotsTxt};
use botscope::simnet::{scenario, SimConfig};
use botscope::weblog::codec;

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
      Worker threads for log generation (simulate), the monitor's
      event-queue shards (monitor) and attribution (simulate
      --coupled). The k-way merges (simulate --stream, monitor) and
      the §4 analysis are serial. Defaults to the machine's
      available parallelism; the output is byte-identical for a fixed
      seed at any thread count.
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

/// Whether `--manifest` is active: the output funnels then wrap every
/// writer in a digest adapter and record `(target, bytes, sha256)`.
static MANIFEST_ACTIVE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn manifest_active() -> bool {
    MANIFEST_ACTIVE.load(std::sync::atomic::Ordering::Relaxed)
}

/// A buffered diagnostics writer: a file, or stderr for `-`.
fn diag_writer(path: &str) -> Result<Box<dyn std::io::Write + Send>, String> {
    if path == "-" {
        Ok(Box::new(std::io::BufWriter::new(std::io::stderr())))
    } else {
        std::fs::File::create(path)
            .map(|f| Box::new(std::io::BufWriter::new(f)) as Box<dyn std::io::Write + Send>)
            .map_err(|e| format!("cannot write {path}: {e}"))
    }
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
        threads: botscope::simnet::worker_threads(),
        config,
        counters,
        outputs: obs.snapshot_outputs(),
        perf: PerfSection {
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            host_cores: botscope::obs::bench::host_cores(),
            rss_kb: mem.rss_kb,
            peak_rss_kb: mem.peak_rss_kb,
            phases: obs.snapshot_phases(),
        },
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
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

/// Deterministic corpus assignment for `admit` sites without an
/// explicit robots file: FNV-1a over the site name picks one of the
/// paper's four policy versions, so repeated runs (and the CLI tests)
/// always see the same estate.
fn admit_site_version(site: &str) -> botscope::simnet::PolicyVersion {
    let h = botscope::obs::bench::fnv1a64(site.as_bytes());
    botscope::simnet::PolicyVersion::ALL[(h % 4) as usize]
}

fn cmd_admit(p: &Parsed) -> Result<(), String> {
    use botscope::robots::PolicyEstate;

    let Some(file) = p.positionals.first() else {
        return Err("usage: botscope admit [--robots FILE] [--quiet] <queries.csv|->".into());
    };

    let text = if file == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        read_file(file)?
    };

    // Parse every query up front so the timed loop measures admission
    // checks (plus lazy compiles), not file IO. `splitn` keeps commas
    // inside the path intact.
    let mut queries: Vec<(&str, &str, &str)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || (lineno == 0 && line == "agent,site,path") {
            continue;
        }
        let mut fields = line.splitn(3, ',');
        match (fields.next(), fields.next(), fields.next()) {
            (Some(agent), Some(site), Some(path)) if !agent.is_empty() && !site.is_empty() => {
                queries.push((agent, site, path));
            }
            _ => return Err(format!("line {}: want `agent,site,path`, got {line:?}", lineno + 1)),
        }
    }
    if queries.is_empty() {
        return Err("no queries (want `agent,site,path` rows)".into());
    }

    // Register every queried site; compilation stays lazy so the first
    // check against each site pays its compile below, inside the timed
    // loop — that cost is what the stderr summary reports.
    let robots_doc = p.value("--robots").map(read_robots).transpose()?;
    let mut estate = PolicyEstate::new();
    for &(_, site, _) in &queries {
        if estate.doc(site).is_none() {
            match &robots_doc {
                Some(doc) => estate.insert(site, doc.clone()),
                None => estate.insert(site, admit_site_version(site).robots_txt()),
            }
        }
    }
    let sites = estate.len();

    let obs = botscope::obs::global();
    let check_span = obs.span("admit_check");
    let started = std::time::Instant::now();
    let mut verdicts = Vec::with_capacity(queries.len());
    let mut allowed = 0u64;
    for &(agent, site, path) in &queries {
        // Sites were all primed above, so the estate always answers.
        let allow = estate.check(site, agent, path).unwrap_or(false);
        allowed += u64::from(allow);
        verdicts.push(allow);
    }
    let elapsed = started.elapsed();
    drop(check_span);
    obs.counter("admit_queries_total").add(queries.len() as u64);
    obs.counter("admit_allowed_total").add(allowed);
    obs.counter("robotstxt_compiles_total").add(estate.compiles());
    obs.counter("robotstxt_cache_hits_total").add(estate.cache_hits());
    obs.gauge("robotstxt_compile_debt").set(estate.compile_debt() as u64);

    if !p.switch("--quiet") {
        write_output("-", |w| {
            for (&(agent, site, path), &allow) in queries.iter().zip(&verdicts) {
                let verdict = if allow { "ALLOW" } else { "DENY " };
                writeln!(w, "{verdict} {agent} {site} {path}")?;
            }
            Ok(())
        })?;
    }

    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 { queries.len() as f64 / secs } else { f64::INFINITY };
    eprintln!(
        "{} queries over {} site(s): {} allowed, {} denied; {} policy compile(s); {:.3} ms ({:.0} checks/s)",
        queries.len(),
        sites,
        allowed,
        queries.len() as u64 - allowed,
        estate.compiles(),
        secs * 1e3,
        rate
    );
    Ok(())
}

/// `--json`, `--severity` and `--deny`, the report options of both
/// `audit` modes.
fn audit_report(p: &Parsed) -> Result<(bool, Severity, Option<Severity>), String> {
    let severity = p.get("--severity", Severity::Info, |v| v.parse().ok(), SEVERITIES)?;
    let deny = p.get("--deny", None, |v| v.parse().ok().map(Some), SEVERITIES)?;
    Ok((p.switch("--json"), severity, deny))
}

/// Render one finding list as JSON objects (stable field order).
fn findings_json(out: &mut String, analysis: &botscope::robots::analysis::Analysis) {
    use std::fmt::Write as _;
    out.push('[');
    for (i, f) in analysis.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"severity\":\"{}\",\"code\":\"{}\"", f.severity, f.code);
        if let Some(agent) = &f.agent {
            let _ = write!(out, ",\"agent\":\"{}\"", json_escape(agent));
        }
        let _ = write!(out, ",\"message\":\"{}\"", json_escape(&f.message));
        if let Some(w) = &f.witness {
            let _ = write!(out, ",\"witness\":\"{}\"", json_escape(w));
        }
        out.push('}');
    }
    out.push(']');
}

fn audit_files(p: &Parsed) -> Result<(), String> {
    use botscope::robots::analysis::analyze;
    use std::fmt::Write as _;

    let (json, severity, deny) = audit_report(p)?;
    let files = &p.positionals;
    if files.is_empty() {
        return Err(
            "usage: botscope audit [--json] [--severity S] [--deny S] <robots.txt>...".into()
        );
    }
    let docs = files.iter().map(|file| read_robots(file)).collect::<Result<Vec<_>, _>>()?;
    let mut denied = 0usize;
    write_output("-", |w| {
        let mut json_out = String::from("{\"files\":[");
        for (fi, (file, doc)) in files.iter().zip(&docs).enumerate() {
            let mut analysis = analyze(doc);
            analysis.findings.retain(|f| f.severity >= severity);
            if let Some(threshold) = deny {
                denied += analysis.at_or_above(threshold);
            }
            if json {
                if fi > 0 {
                    json_out.push(',');
                }
                let _ = write!(
                    json_out,
                    "{{\"file\":\"{}\",\"complete\":{},\"parse_warnings\":{},\"findings\":",
                    json_escape(file),
                    analysis.complete,
                    doc.warnings.len()
                );
                findings_json(&mut json_out, &analysis);
                json_out.push('}');
                continue;
            }
            if files.len() > 1 {
                writeln!(w, "== {file}")?;
            }
            for warning in &doc.warnings {
                writeln!(w, "parse: {warning:?}")?;
            }
            if analysis.findings.is_empty() && doc.warnings.is_empty() {
                writeln!(
                    w,
                    "clean: {} group(s), {} rule(s), no findings",
                    doc.groups.len(),
                    doc.rule_count()
                )?;
            }
            for f in &analysis.findings {
                writeln!(w, "{f}")?;
            }
        }
        if json {
            let _ = write!(json_out, "],\"denied\":{denied}}}");
            writeln!(w, "{json_out}")?;
        }
        Ok(())
    })?;
    if denied > 0 {
        let threshold = deny.expect("denied implies a threshold");
        return Err(format!("audit: {denied} finding(s) at or above {threshold}"));
    }
    Ok(())
}

/// `audit --estate`: corpus analysis + transition proofs + digest
/// classification + admission replay.
fn audit_estate(p: &Parsed) -> Result<(), String> {
    use botscope::core::recheck::coalesce_behavioral_windows;
    use botscope::core::report::table7_behavioral;
    use botscope::monitor::{apply_digests, prime_estate};
    use botscope::robots::analysis::{analyze, classify_change, ChangeClass};
    use botscope::robots::PolicyEstate;
    use botscope::simnet::server::PolicyCorpus;
    use botscope::simnet::PolicyVersion;
    use std::fmt::Write as _;

    let cfg = &monitor_config(p)?;
    let (json, severity, deny) = audit_report(p)?;

    // 1. Analyze every corpus policy.
    let corpus = PolicyCorpus::new();
    let started = std::time::Instant::now();
    let mut analyses = Vec::new();
    let mut denied = 0usize;
    for version in PolicyVersion::ALL {
        let mut analysis = analyze(corpus.doc(version));
        analysis.findings.retain(|f| f.severity >= severity);
        if let Some(threshold) = deny {
            denied += analysis.at_or_above(threshold);
        }
        analyses.push((version, analysis));
    }
    let analyze_ms = started.elapsed().as_secs_f64() * 1e3;

    // 2. Prove every ordered version transition cosmetic or behavioral.
    let mut behavioral_matrix = [[false; 4]; 4];
    let mut behavioral_transitions = 0usize;
    let mut cosmetic_transitions = 0usize;
    for from in PolicyVersion::ALL {
        for to in PolicyVersion::ALL {
            if from == to {
                continue;
            }
            let class = classify_change(corpus.doc(from), corpus.doc(to));
            behavioral_matrix[from.index()][to.index()] = class == ChangeClass::Behavioral;
            match class {
                ChangeClass::Behavioral => behavioral_transitions += 1,
                ChangeClass::Cosmetic => cosmetic_transitions += 1,
            }
        }
    }

    // 3. Run the monitor, streaming its fetch log into the
    // behavioral-only Table 7 (windows coalesced across cosmetic
    // swaps), and classify its digests.
    let monitor_run = botscope::monitor::MonitorRun::new(cfg);
    let site_windows = monitor_run.site_windows();
    let raw_spans: usize = site_windows.values().map(Vec::len).sum();
    let coalesced = coalesce_behavioral_windows(&site_windows, |from, to| {
        behavioral_matrix[from.index()][to.index()]
    });
    let coalesced_spans: usize = coalesced.values().map(Vec::len).sum();
    let mut recheck = RecheckAccumulator::new(coalesced, cfg.horizon_end());
    let summary = monitor_run
        .stream(botscope::simnet::worker_threads(), &mut [&mut recheck])
        .expect("the re-check accumulator never fails a row");
    let matrix = recheck.phase_rows();
    let changes = &summary.changes;
    let behavioral_digests = changes.iter().filter(|c| c.class == ChangeClass::Behavioral).count();
    let cosmetic_digests = changes.len() - behavioral_digests;

    // 4. Replay the digests against a warmed admission estate.
    let mut estate = PolicyEstate::new();
    let deployment: Vec<(&str, PolicyVersion)> = site_windows
        .iter()
        .filter_map(|(site, spans)| spans.first().map(|&(v, _, _)| (site.as_str(), v)))
        .collect();
    prime_estate(&mut estate, deployment.iter().copied());
    for (site, _) in &deployment {
        estate.check(site, "GPTBot", "/");
    }
    let warmed = estate.compiled_count();
    let outcome = apply_digests(&mut estate, changes);
    let obs = botscope::obs::global();
    obs.counter("robotstxt_compiles_total").add(estate.compiles());
    obs.counter("robotstxt_cache_hits_total").add(estate.cache_hits());
    obs.counter("audit_behavioral_digests_total").add(behavioral_digests as u64);
    obs.counter("audit_cosmetic_digests_total").add(cosmetic_digests as u64);

    if json {
        let mut j = String::from("{\"policies\":[");
        for (i, (version, analysis)) in analyses.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(
                j,
                "{{\"version\":\"{}\",\"complete\":{},\"findings\":",
                version.label(),
                analysis.complete
            );
            findings_json(&mut j, analysis);
            j.push('}');
        }
        let _ = write!(
            j,
            "],\"transitions\":{{\"behavioral\":{behavioral_transitions},\"cosmetic\":{cosmetic_transitions}}}"
        );
        let _ = write!(
            j,
            ",\"digests\":{{\"total\":{},\"behavioral\":{behavioral_digests},\"cosmetic\":{cosmetic_digests}}}",
            changes.len()
        );
        let _ = write!(
            j,
            ",\"admission\":{{\"sites\":{},\"warmed\":{warmed},\"dropped\":{},\"cosmetic_skips\":{}}}",
            deployment.len(),
            outcome.dropped,
            outcome.cosmetic_skips
        );
        let _ = write!(
            j,
            ",\"windows\":{{\"raw\":{raw_spans},\"coalesced\":{coalesced_spans}}},\"denied\":{denied}}}"
        );
        write_output("-", |w| writeln!(w, "{j}"))?;
    } else {
        write_output("-", |w| {
            writeln!(
                w,
                "audit --estate: sites={} days={} seed={} scenario={:?} swap-every={}",
                cfg.sites, cfg.days, cfg.seed, cfg.scenario, cfg.swap_every
            )?;
            writeln!(w)?;
            writeln!(w, "== corpus policies ({analyze_ms:.2} ms analyzer time)")?;
            for (version, analysis) in &analyses {
                if analysis.findings.is_empty() {
                    writeln!(w, "{}: clean", version.label())?;
                } else {
                    writeln!(w, "{}: {} finding(s)", version.label(), analysis.findings.len())?;
                    for f in &analysis.findings {
                        writeln!(w, "  {f}")?;
                    }
                }
            }
            writeln!(w)?;
            writeln!(
                w,
                "== version transitions: {behavioral_transitions} behavioral, {cosmetic_transitions} cosmetic (of 12 ordered pairs)"
            )?;
            writeln!(
                w,
                "== monitored digests: {} total, {behavioral_digests} behavioral, {cosmetic_digests} cosmetic",
                changes.len()
            )?;
            writeln!(
                w,
                "== admission replay: {} site(s) primed, {warmed} artifact(s) warmed; dropped={} cosmetic_skips={}",
                deployment.len(),
                outcome.dropped,
                outcome.cosmetic_skips
            )?;
            writeln!(
                w,
                "== deployment windows: {raw_spans} span(s) -> {coalesced_spans} after cosmetic coalescing"
            )?;
            writeln!(w)?;
            write!(w, "{}", table7_behavioral(&matrix))
        })?;
    }

    if denied > 0 {
        let threshold = deny.expect("denied implies a threshold");
        return Err(format!("audit: {denied} finding(s) at or above {threshold}"));
    }
    Ok(())
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

/// Read buffer for `analyze`'s input file: large enough that the decoders
/// make few `read` calls on a multi-megabyte log.
const ANALYZE_READ_BUFFER: usize = 64 * 1024;

fn cmd_analyze(p: &Parsed) -> Result<(), String> {
    let (phase_report, use_table) = (p.switch("--phase-report"), p.switch("--table"));
    let Some(file) = p.positionals.first() else {
        return Err("usage: botscope analyze [--phase-report [--table]] <log.csv|log.bin|->".into());
    };
    if use_table && !phase_report {
        return Err("--table only applies together with --phase-report".into());
    }

    let mut reader: Box<dyn std::io::BufRead> = if file == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        std::fs::File::open(file)
            .map(|f| {
                Box::new(std::io::BufReader::with_capacity(ANALYZE_READ_BUFFER, f))
                    as Box<dyn std::io::BufRead>
            })
            .map_err(|e| format!("cannot read {file}: {e}"))?
    };
    // Sniff the columnar magic so either format works, even on a pipe.
    let is_binary = std::io::BufRead::fill_buf(&mut reader)
        .map_err(|e| format!("cannot read {file}: {e}"))?
        .starts_with(&botscope::weblog::colfmt::MAGIC);

    if phase_report {
        return analyze_phase_report(reader, is_binary, use_table);
    }

    // Stream the input into the interned table so multi-GB logs never
    // need a full in-memory copy of their text or their strings.
    let table = if is_binary {
        botscope::weblog::colfmt::read_table(reader).map_err(|e| e.to_string())?
    } else {
        codec::decode_table_read(reader).map_err(|e| e.to_string())?
    };
    let tallies = tally_bots(&table);
    let spoof = tallies.spoof_report(DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS);
    write_output("-", |w| {
        writeln!(w, "{} records", table.len())?;
        writeln!(
            w,
            "{} known bots ({} records), {} anonymous records\n",
            tallies.bots.len(),
            tallies.known_records,
            tallies.anonymous_records
        )?;
        writeln!(w, "{:<28} {:>8} {:>14}", "bot", "records", "pace>=30s")?;
        for (bot, tally) in &tallies.bots {
            let counts = tally.crawl_delay();
            writeln!(
                w,
                "{:<28} {:>8} {:>14}",
                bot.canonical,
                tally.records,
                counts.ratio().map(|r| format!("{r:.3}")).unwrap_or_else(|| "-".into())
            )?;
        }
        if spoof.findings.is_empty() {
            writeln!(w, "\nno spoofing signals (≥90% single-ASN dominance heuristic)")?;
        } else {
            writeln!(w, "\npossible spoofing:")?;
            for f in &spoof.findings {
                writeln!(
                    w,
                    "  {}: {} requests outside {} ({:.1}% dominant)",
                    f.bot,
                    f.spoofed_requests,
                    f.main_asn,
                    f.main_share * 100.0
                )?;
            }
        }
        Ok(())
    })
}

/// `analyze --phase-report`: reconstruct the paper's 8-week schedule
/// and print its experiment tables from the single-pass analyzer,
/// either streaming the log (the default, bounded memory, time-sorted
/// rows only) or over the materialized table (`--table`, rows in any
/// order). Both paths print the exact same bytes for a sorted log.
fn analyze_phase_report(
    reader: Box<dyn std::io::BufRead>,
    is_binary: bool,
    use_table: bool,
) -> Result<(), String> {
    use botscope::core::analyze::Experiment;
    use botscope::weblog::Timestamp;

    let start = Timestamp::from_date(2025, 1, 15);
    let schedule = botscope::simnet::PhaseSchedule::paper_schedule(
        start,
        botscope::simnet::site::EXPERIMENT_SITE,
    );
    let exp = if use_table {
        let table = if is_binary {
            botscope::weblog::colfmt::read_table(reader).map_err(|e| e.to_string())?
        } else {
            codec::decode_table_read(reader).map_err(|e| e.to_string())?
        };
        Experiment::analyze_table(&table, &schedule)
    } else if is_binary {
        let mut stream =
            botscope::weblog::colfmt::BinReader::new(reader).map_err(|e| e.to_string())?;
        Experiment::analyze_stream(&mut stream, &schedule).map_err(|e| e.to_string())?
    } else {
        let mut stream =
            botscope::weblog::stream::CsvRowStream::new(reader).map_err(|e| e.to_string())?;
        Experiment::analyze_stream(&mut stream, &schedule).map_err(|e| e.to_string())?
    };
    write_output("-", |w| w.write_all(phase_report_text(&exp).as_bytes()))
}

/// The deterministic phase-study report: a pure function of the
/// analysis result, so streamed and materialized runs byte-compare.
fn phase_report_text(exp: &botscope::core::analyze::Experiment) -> String {
    use botscope::core::report;
    let mut r = String::new();
    for section in [
        report::table4(exp),
        report::table5(exp),
        report::table6(exp),
        report::table7(exp),
        report::table9(exp),
        report::table10(exp),
        report::figure9(exp, false),
        report::figure9(exp, true),
    ] {
        r.push_str(&section);
        if !section.ends_with('\n') {
            r.push('\n');
        }
        r.push('\n');
    }
    r
}

/// Run `f` against a buffered writer for `path` (`-` = stdout), then
/// flush and surface every error — including the final flush, which a
/// bare `BufWriter` drop would swallow. The single funnel for all data
/// output that is not written by a sink.
fn write_output<F>(path: &str, f: F) -> Result<(), String>
where
    F: FnOnce(&mut dyn std::io::Write) -> std::io::Result<()>,
{
    let mut w = writer_for(path)?;
    f(&mut w).and_then(|()| w.flush()).map_err(|e| write_error(e, "cannot write"))
}

/// An I/O error of a data writer, worded `cannot write <target>: <cause>`.
#[derive(Debug)]
struct TargetError(String);

impl std::fmt::Display for TargetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TargetError {}

/// The one-line message for an I/O error: a [`TargetError`] names its
/// target itself; any other error is prefixed with `context`.
fn write_error(e: std::io::Error, context: &str) -> String {
    if e.get_ref().is_some_and(|inner| inner.is::<TargetError>()) {
        e.to_string()
    } else {
        format!("{context}: {e}")
    }
}

/// The file end of every data writer, under its `BufWriter`: its I/O
/// errors name the target ([`TargetError`]), and under `--manifest` it
/// fingerprints the bytes it passes, recording `(target, bytes, sha256)`
/// when dropped (after the buffer's last flush: the owning sink decides
/// when writing ends, so Drop is the only reliable hook).
struct OutputWriter {
    target: String,
    inner: Box<dyn std::io::Write>,
    digest: Option<botscope::obs::digest::DigestWriter<std::io::Sink>>,
}

impl OutputWriter {
    fn tag(&self, e: std::io::Error) -> std::io::Error {
        std::io::Error::new(e.kind(), TargetError(format!("cannot write {}: {e}", self.target)))
    }
}

impl std::io::Write for OutputWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf).map_err(|e| self.tag(e))?;
        if let Some(digest) = &mut self.digest {
            digest.write_all(&buf[..n])?;
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush().map_err(|e| self.tag(e))
    }
}

impl Drop for OutputWriter {
    fn drop(&mut self) {
        if let Some(digest) = &self.digest {
            botscope::obs::global().record_output(
                &self.target,
                digest.bytes(),
                digest.hex_digest(),
            );
        }
    }
}

/// A boxed buffered writer for `path` (`-` = stdout), over an
/// [`OutputWriter`]. Sinks that own their writer flush it in their
/// `finish`.
fn writer_for(path: &str) -> Result<Box<dyn std::io::Write>, String> {
    let (target, inner): (&str, Box<dyn std::io::Write>) = if path == "-" {
        ("stdout", Box::new(std::io::stdout()))
    } else {
        let file = std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?;
        (path, Box::new(file))
    };
    let digest =
        manifest_active().then(|| botscope::obs::digest::DigestWriter::new(std::io::sink()));
    Ok(Box::new(std::io::BufWriter::new(OutputWriter {
        target: target.to_string(),
        inner,
        digest,
    })))
}

/// Write `table` as CSV to `path` (`-` = stdout).
fn write_csv(path: &str, table: &botscope::weblog::LogTable) -> Result<(), String> {
    write_output(path, |mut w| codec::write_table(&mut w, table))
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

/// Run the monitor, streaming its fetch log through row sinks: the
/// CSV/JSONL encoders and the §5.1 accumulator ride one merge, and the
/// merged table never exists (`--stream` is accepted and changes
/// nothing).
///
/// Output contract: run *stats* are diagnostics and always go to
/// stderr; the table-derived *reports* (monitored Table 7, re-check
/// coverage) are artifacts and go to stdout through the
/// [`write_output`] funnel — unless a data flag already claimed stdout,
/// in which case they fall back to stderr.
fn cmd_monitor(p: &Parsed) -> Result<(), String> {
    use botscope::weblog::sink::{CsvSink, JsonlSink, RowSink};

    let cfg = monitor_config(p)?;
    let (out_path, jsonl_path, changes_path) =
        (p.value("--out"), p.value("--jsonl"), p.value("--changes"));
    let mut csv = match out_path {
        Some(path) => Some(
            CsvSink::new(writer_for(path)?).map_err(|e| write_error(e, "cannot write header"))?,
        ),
        None => None,
    };
    let mut jsonl = jsonl_path.map(|path| writer_for(path).map(JsonlSink::new)).transpose()?;
    // The accumulator needs each site's deployment windows before the
    // first row: the run's own site models give them.
    let monitor_run = botscope::monitor::MonitorRun::new(&cfg);
    let site_windows = monitor_run.site_windows();
    let swapped = any_site_swapped(&site_windows);
    let mut recheck = RecheckAccumulator::new(site_windows, cfg.horizon_end());
    let mut sinks: Vec<&mut dyn RowSink> = Vec::new();
    if let Some(sink) = csv.as_mut() {
        sinks.push(sink);
    }
    if let Some(sink) = jsonl.as_mut() {
        sinks.push(sink);
    }
    sinks.push(&mut recheck);
    let summary = monitor_run
        .stream(botscope::simnet::worker_threads(), &mut sinks)
        .map_err(|e| write_error(e, "monitor streaming failed"))?;
    let (matrix, agg) = (recheck.phase_rows(), by_category(&recheck.profiles()));
    if let Some(path) = changes_path {
        write_changes(path, &summary.changes)?;
    }
    eprint!("{}", monitor_summary(&cfg, &summary.stats, &summary.bots, &summary.changes));
    let data_on_stdout = [out_path, jsonl_path, changes_path].contains(&Some("-"));
    emit_monitor_report_tables(swapped, &matrix, &agg, data_on_stdout)
}

/// Write detected policy changes as CSV (`-` = stdout).
fn write_changes(path: &str, changes: &[botscope::monitor::ChangeDigest]) -> Result<(), String> {
    let mut body = String::from("site,at,from,to,observers,tightened,loosened,delay_changes\n");
    for c in changes {
        use std::fmt::Write as _;
        let _ = writeln!(
            body,
            "{},{},{},{},{},{},{},{}",
            c.site,
            botscope::weblog::Timestamp::from_unix(c.at).to_iso8601(),
            c.from.label(),
            c.to.label(),
            c.observers,
            c.tightened,
            c.loosened,
            c.delay_changes
        );
    }
    write_output(path, |w| w.write_all(body.as_bytes()))
}

/// The monitor's run statistics.
fn monitor_summary(
    cfg: &MonitorConfig,
    s: &botscope::monitor::MonitorStats,
    bots: &[String],
    changes: &[botscope::monitor::ChangeDigest],
) -> String {
    use std::fmt::Write as _;
    let mut r = String::new();
    let ttl = match cfg.ttl {
        TtlPolicy::Spectrum => "spectrum".to_string(),
        TtlPolicy::FixedHours(h) => format!("{h}h"),
    };
    let _ = writeln!(
        r,
        "monitored {} sites x {} bots over {} days (seed {}, scenario {}, ttl {})",
        cfg.sites,
        bots.len(),
        cfg.days,
        cfg.seed,
        cfg.scenario.label(),
        ttl
    );
    let _ = writeln!(r, "bots: {}", bots.join(", "));
    let _ = writeln!(
        r,
        "{} agents, {} fetches: {} ok ({} revalidated, {} B saved by 304s), {} 4xx, {} 5xx, {} network",
        s.agents,
        s.fetches,
        s.success,
        s.revalidated,
        s.revalidated_bytes_saved,
        s.client_errors,
        s.server_errors,
        s.network_errors
    );
    let mean_latency = s.latency_ms_sum.checked_div(s.fetches).unwrap_or(0);
    let _ = writeln!(
        r,
        "redirects: {} hops followed, {} chains capped at 5 hops; {} backoff retries; latency mean {} ms max {} ms",
        s.redirects_followed, s.redirects_capped, s.backoff_retries, mean_latency, s.latency_ms_max
    );
    let _ = writeln!(
        r,
        "policy changes: {} observations, {} distinct transitions",
        s.policy_changes_observed,
        changes.len()
    );
    for c in changes.iter().take(8) {
        let _ = writeln!(
            r,
            "  {} @{}: {} -> {} ({} observers, {} tightened, {} loosened, {} delay changes)",
            c.site,
            botscope::weblog::Timestamp::from_unix(c.at).to_iso8601(),
            c.from.label(),
            c.to.label(),
            c.observers,
            c.tightened,
            c.loosened,
            c.delay_changes
        );
    }
    if changes.len() > 8 {
        let _ = writeln!(r, "  ... and {} more", changes.len() - 8);
    }
    r
}

/// Whether any site deploys more than one policy version over the run.
fn any_site_swapped(site_windows: &botscope::core::recheck::SiteVersionWindows) -> bool {
    site_windows.values().any(|w| w.len() > 1)
}

/// Render the monitor's table-derived report artifacts — the monitored
/// Table 7 (only when `swapped`: some site deployed a policy swap) and the §5.1
/// re-check coverage table — and emit them on stdout through the
/// [`write_output`] funnel (stderr when stdout already carries data).
/// Both monitor run paths funnel through here, so their stdout bytes are
/// identical by construction.
fn emit_monitor_report_tables(
    swapped: bool,
    matrix: &[botscope::core::recheck::PhaseCheckRow],
    agg: &botscope::core::recheck::RecheckByCategory,
    data_on_stdout: bool,
) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut report = String::new();

    // Table 7 digest windows from monitored logs: did each bot fetch
    // robots.txt on some site *while* each policy version was live?
    if swapped {
        let _ = writeln!(report, "{}", botscope::core::report::table7_from_monitor(matrix));
    }

    // Figure 10 from *monitored* logs: share of checking bots per
    // category that re-checked within every window.
    if !agg.checking_bots.is_empty() {
        let _ =
            writeln!(report, "re-check coverage from monitored logs (share of bots per window):");
        let _ = writeln!(
            report,
            "  {:<24} {:>5} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "category", "bots", "12h", "24h", "48h", "72h", "168h"
        );
        for (cat, n) in &agg.checking_bots {
            let mut line = format!("  {:<24} {:>5}", cat.to_string(), n);
            for h in [12u64, 24, 48, 72, 168] {
                let p = agg.proportions.get(&(*cat, h)).copied().unwrap_or(0.0);
                let _ = write!(line, " {p:>6.2}");
            }
            let _ = writeln!(report, "{line}");
        }
    }

    if report.is_empty() {
        return Ok(());
    }
    if data_on_stdout {
        eprint!("{report}");
        Ok(())
    } else {
        write_output("-", |w| w.write_all(report.as_bytes()))
    }
}

/// `simulate --coupled`: belief-driven generation plus attribution
/// scoring against served ground truth.
fn cmd_simulate_coupled(p: &Parsed) -> Result<(), String> {
    use botscope::core::analyze::Experiment;
    use botscope::core::attribution::PolicyBasis;
    use botscope::monitor::{CoupledConfig, RefreshModel};

    let mut cfg = CoupledConfig::default();
    cfg.sim.scale = p.num("--scale", 0.05)?;
    cfg.sim.sites = p.num("--sites", cfg.sim.sites)?;
    cfg.sim.seed = p.num("--seed", cfg.sim.seed)?;
    cfg.scenario = p.get("--scenario", cfg.scenario, ScenarioKind::parse, SCENARIOS)?;
    cfg.refresh = p.get("--refresh", cfg.refresh, RefreshModel::parse, "fleet|instant")?;
    let basis = p.get(
        "--basis",
        PolicyBasis::Served,
        |v| match v {
            "believed" => Some(PolicyBasis::Believed),
            "served" => Some(PolicyBasis::Served),
            _ => None,
        },
        "believed|served",
    )?;
    let out_path = p.value("--out");
    if !(cfg.sim.scale > 0.0 && cfg.sim.scale.is_finite()) {
        return Err(format!("scale must be a positive number, got {}", cfg.sim.scale));
    }
    if cfg.sim.sites == 0 || cfg.sim.sites > 64 {
        return Err("--sites must be between 1 and 64".into());
    }

    let out = botscope::monitor::run_coupled(&cfg);
    let obs = botscope::obs::global();
    let corpus = botscope::simnet::server::PolicyCorpus::new();
    let threads = botscope::simnet::worker_threads();
    // The CSV encode runs beside attribution and analysis; its error
    // still wins over the report, which prints only after the join.
    let (counts, exp) = std::thread::scope(|s| {
        let writer = out_path.map(|path| {
            s.spawn(|| {
                let _phase = obs.phase("coupled_csv_encode");
                write_csv(path, &out.sim.table)
            })
        });
        let attribution = {
            let _phase = obs.phase("coupled_attribution");
            botscope::core::attribution::attribute_rows(
                &out.sim.table,
                &out.beliefs,
                &out.served,
                &corpus,
                threads,
            )
        };
        // Tables 5/6/10 under the selected basis: served is the plain
        // analysis; believed drops the excused (stale-cache / fetch-
        // artifact) rows before scoring.
        let exp = {
            let _phase = obs.phase("coupled_basis_analysis");
            match basis {
                PolicyBasis::Served => Experiment::analyze_table(&out.sim.table, &out.schedule),
                PolicyBasis::Believed => Experiment::analyze_table_excluding(
                    &out.sim.table,
                    &out.schedule,
                    &attribution.excused,
                ),
            }
        };
        if let Some(writer) = writer {
            writer.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        }
        Ok::<_, String>((attribution.counts, exp))
    })?;

    use std::fmt::Write as _;
    let mut r = String::new();
    let _ = writeln!(
        r,
        "coupled run: {} records over {} sites (seed {}, scenario {}, refresh {})",
        out.sim.table.len(),
        cfg.sim.sites,
        cfg.sim.seed,
        cfg.scenario.label(),
        cfg.refresh.label()
    );
    let _ = writeln!(
        r,
        "beliefs: {} bots x {} sites, {} belief transitions",
        out.beliefs.bots.len(),
        out.beliefs.n_sites(),
        out.beliefs.total_transitions()
    );
    if let Some(s) = &out.monitor_stats {
        let _ = writeln!(
            r,
            "belief agents: {} fetches, {} ok ({} revalidated, {} B saved), {} 4xx, {} 5xx, {} network",
            s.fetches,
            s.success,
            s.revalidated,
            s.revalidated_bytes_saved,
            s.client_errors,
            s.server_errors,
            s.network_errors
        );
    }
    let violating: usize = counts.values().filter(|c| c.violations_served() > 0).count();
    let _ = writeln!(
        r,
        "attribution: {} bots scored, {} with served-policy violations",
        counts.len(),
        violating
    );
    let _ = writeln!(r, "{}", botscope::core::report::attribution_report(&counts));

    match basis {
        PolicyBasis::Served => {
            let _ = writeln!(r, "compliance tables (served basis):");
        }
        PolicyBasis::Believed => {
            let excused: u64 = counts.values().map(|c| c.excused()).sum();
            let _ =
                writeln!(r, "compliance tables (believed basis, {excused} excused rows dropped):");
        }
    }
    let _ = writeln!(r, "{}", botscope::core::report::table5(&exp));
    let _ = writeln!(r, "{}", botscope::core::report::table6(&exp));
    let _ = writeln!(r, "{}", botscope::core::report::table10(&exp));

    if out_path == Some("-") {
        eprint!("{r}");
        Ok(())
    } else {
        write_output("-", |w| w.write_all(r.as_bytes()))
    }
}

/// On-disk log format selector for `simulate`.
#[derive(Clone, Copy, PartialEq)]
enum LogFormat {
    Csv,
    Bin,
}

impl LogFormat {
    fn parse(s: &str) -> Option<LogFormat> {
        match s {
            "csv" => Some(LogFormat::Csv),
            "bin" => Some(LogFormat::Bin),
            _ => None,
        }
    }
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
    cfg.assert_valid();

    let phase_study = p.switch("--phase-study");
    if p.switch("--stream") {
        return simulate_streaming(&cfg, phase_study, format, out_path);
    }

    let table = if phase_study {
        scenario::phase_study_table(&cfg).sim.table
    } else {
        scenario::full_study_table(&cfg).table
    };
    match format {
        LogFormat::Csv => write_csv(out_path, &table)?,
        LogFormat::Bin => {
            write_output(out_path, |mut w| botscope::weblog::colfmt::write_table(&mut w, &table))?
        }
    }
    if out_path != "-" {
        eprintln!("{} records -> {out_path}", table.len());
    }
    Ok(())
}

/// `simulate --stream`: generation workers spill canonically sorted
/// runs to disk and the k-way merge streams rows straight into the
/// output sink, so peak memory is bounded by the string dictionaries
/// plus one run per worker — never the whole table.
fn simulate_streaming(
    cfg: &SimConfig,
    phase_study: bool,
    format: LogFormat,
    out_path: &str,
) -> Result<(), String> {
    use botscope::simnet::{worker_threads, StreamOptions};
    use botscope::weblog::colfmt::BinSink;
    use botscope::weblog::sink::{CsvSink, RowSink};

    let writer = writer_for(out_path)?;
    let threads = worker_threads();
    let opts = StreamOptions::default();
    let run =
        |sinks: &mut [&mut dyn RowSink]| -> Result<botscope::simnet::SimStreamOutput, String> {
            let result = if phase_study {
                scenario::phase_study_stream(cfg, threads, &opts, sinks).map(|out| out.sim)
            } else {
                scenario::full_study_stream(cfg, threads, &opts, sinks)
            };
            result.map_err(|e| write_error(e, "streaming simulate failed"))
        };
    // `merge_runs` calls `finish` on every sink, which flushes the
    // buffered writer; errors propagate through the result.
    let out = match format {
        LogFormat::Csv => {
            let mut sink =
                CsvSink::new(writer).map_err(|e| write_error(e, "cannot write header"))?;
            run(&mut [&mut sink as &mut dyn RowSink])?
        }
        LogFormat::Bin => {
            let mut sink =
                BinSink::new(writer).map_err(|e| write_error(e, "cannot write header"))?;
            run(&mut [&mut sink as &mut dyn RowSink])?
        }
    };
    if out_path != "-" {
        eprintln!("{} records -> {out_path} (streamed)", out.rows);
    }
    Ok(())
}
