//! `botbench` — the compiled half of the botscope CLI benchmark.
//!
//! `run.py` drives the release `botscope` binary end to end; this binary
//! supplies the two things the CLI cannot:
//!
//! ```text
//! botbench queries --seed S --count N --sites M --out FILE
//!     seeded admission queries (`agent,site,path`) for the estate workload
//! botbench probe
//!     time a fixed std-only kernel and print its seconds: the host-speed
//!     reference `run.py` normalizes end-to-end times by
//! botbench trace <workload> [--key value]...
//!     replay one workload through the library's public functions, time
//!     every layer call, and print one JSON line: the layer metrics, the
//!     traced wall time, the time covered by timed calls, and the SHA-256
//!     of every artifact the CLI emits for the same inputs
//! ```
//!
//! The replay reproduces the CLI's artifacts byte for byte, so `run.py`
//! checks them against the same per-seed references as the CLI runs:
//! the traced numbers describe the program the end-to-end numbers time.
//! Digesting is excluded from the traced wall time.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::io::BufReader;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use botscope::core::analyze::{BeliefContext, Experiment};
use botscope::core::attribution::{attribute_table_with_threads, AttributionCounts, PolicyBasis};
use botscope::core::metrics::{crawl_delay_counts_rows, CRAWL_DELAY_SECS};
use botscope::core::pipeline::{standardize_table, StandardizedTable};
use botscope::core::recheck::{
    by_category, phase_check_matrix, profiles_from_table, PhaseCheckRow, RecheckByCategory,
    SiteVersionWindows,
};
use botscope::core::report;
use botscope::core::spoofdetect::{detect_rows, SpoofReport};
use botscope::monitor::{CoupledConfig, CoupledOutput, MonitorConfig};
use botscope::obs::digest::sha256_hex;
use botscope::robots::PolicyEstate;
use botscope::simnet::fleet::build_fleet;
use botscope::simnet::server::PolicyCorpus;
use botscope::simnet::site::EXPERIMENT_SITE;
use botscope::simnet::{PhaseSchedule, PolicyVersion, SimConfig, StreamOptions};
use botscope::weblog::colfmt::{self, BinSink};
use botscope::weblog::sink::RowSink;
use botscope::weblog::stream::{CsvRowStream, TableRowStream};
use botscope::weblog::{codec, LogTable, RowStream, Timestamp};

/// The worker count every end-to-end run uses (`BOTSCOPE_THREADS=2`);
/// the single-worker replays are the `.t1` half of the worker sweep.
const THREADS: usize = 2;

/// The hot admission estate: the paper's 36 sites.
const HOT_SITES: usize = 36;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("queries") => Flags::parse(&args[1..]).and_then(|f| cmd_queries(&f)),
        Some("probe") => {
            cmd_probe();
            Ok(())
        }
        Some("trace") => match args.get(1) {
            Some(workload) => Flags::parse(&args[2..]).and_then(|f| cmd_trace(workload, &f)),
            None => Err("usage: botbench trace <workload> [--key value]...".into()),
        },
        _ => Err("usage: botbench queries|probe|trace ... (see src/main.rs)".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("botbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` pairs.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        for pair in args.chunks(2) {
            match pair {
                [key, value] if key.starts_with("--") => {
                    map.insert(key[2..].to_string(), value.clone());
                }
                _ => return Err(format!("want --key value pairs, got {pair:?}")),
            }
        }
        Ok(Flags(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.0.get(key).ok_or_else(|| format!("missing --{key}"))?;
        raw.parse().map_err(|_| format!("bad --{key} {raw:?}"))
    }
}

// ---------------------------------------------------------------------
// Seeded admission queries.
// ---------------------------------------------------------------------

/// SplitMix64: a fixed, dependency-free generator, so the query bytes for
/// a seed never change with a library upgrade.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Queries over `sites` synthetic site names: agents from the simulated
/// fleet plus one agent no policy names, and paths built from the
/// policy corpus's own rule paths (so every version yields both ALLOW
/// and DENY verdicts).
fn generate_queries(seed: u64, count: usize, sites: usize) -> String {
    let mut agents: Vec<String> = build_fleet()
        .iter()
        .map(|bot| bot.spec.canonical.to_string())
        .filter(|name| !name.contains(','))
        .collect();
    agents.push("UnlistedCrawler".to_string());

    let corpus = PolicyCorpus::new();
    let mut rule_paths = BTreeSet::new();
    for version in PolicyVersion::ALL {
        for group in &corpus.doc(version).groups {
            for rule in &group.rules {
                rule_paths.insert(rule.pattern.as_str().trim_end_matches(['*', '$']).to_string());
            }
        }
    }
    let rule_paths: Vec<String> = rule_paths.into_iter().collect();

    let mut rng = SplitMix(seed);
    let mut out = String::with_capacity(count * 48 + 16);
    out.push_str("agent,site,path\n");
    for _ in 0..count {
        let agent = &agents[rng.below(agents.len())];
        let site = rng.below(sites);
        let base = &rule_paths[rng.below(rule_paths.len())];
        // Half the paths extend the rule path, which keeps prefix rules
        // matching while exercising the automaton past the rule's end.
        let _ = write!(out, "{agent},site-{site:05}.example.org,{base}");
        if rng.below(2) == 1 {
            let sep = if base.ends_with('/') { "" } else { "/" };
            let _ = write!(out, "{sep}item-{}", rng.below(1000));
        }
        out.push('\n');
    }
    out
}

fn cmd_queries(flags: &Flags) -> Result<(), String> {
    let out: PathBuf = flags.get("out")?;
    let count: usize = flags.get("count")?;
    let sites: usize = flags.get("sites")?;
    if count == 0 || sites == 0 {
        return Err("--count and --sites must be at least 1".into());
    }
    let text = generate_queries(flags.get("seed")?, count, sites);
    std::fs::write(&out, text).map_err(|e| format!("cannot write {}: {e}", out.display()))
}

// ---------------------------------------------------------------------
// The host-speed probe.
// ---------------------------------------------------------------------

/// Time a fixed, std-only kernel shaped like the CLI's hot paths — a
/// dependent walk over a 32 MB table (cache misses), hash-map counting
/// and CSV-style formatting — and print its seconds. Nothing here calls
/// the library, so the probe's cost changes only with the host's speed;
/// `run.py` divides it out of every end-to-end time.
fn cmd_probe() {
    const SLOTS: u64 = 8 << 20;
    let mut rng = SplitMix(7);
    // A full-period LCG over a power of two: every slot is visited once
    // per cycle, in an order the prefetcher cannot follow.
    let table: Vec<u32> = (0..SLOTS)
        .map(|i| {
            (i.wrapping_mul(0x27bb_2ee6_87b0_b0fd).wrapping_add(0xb504_f32d) & (SLOTS - 1)) as u32
        })
        .collect();

    let started = Instant::now();
    let mut slot = 0u32;
    for _ in 0..500_000 {
        slot = table[slot as usize];
    }
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for i in 0..600_000u64 {
        *counts.entry(rng.next() % 400_000).or_insert(0) += i;
    }
    let mut csv = String::with_capacity(24 << 20);
    for i in 0..250_000u64 {
        let v = rng.next();
        let _ = writeln!(
            csv,
            "{i},{},site{}.example,/path/{v:x},{}",
            v % 1000,
            v % 5000,
            v as f64 / 3.0
        );
    }
    std::hint::black_box((slot, counts.len(), csv.len()));
    println!("{}", started.elapsed().as_secs_f64());
}

// ---------------------------------------------------------------------
// The traced replay.
// ---------------------------------------------------------------------

/// Layer timings, counts and artifact digests of one traced replay.
struct Trace {
    started: Instant,
    /// Time spent digesting artifacts: excluded from the traced wall.
    excluded_ms: f64,
    /// Sum of every timed layer call.
    timed_ms: f64,
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// Artifact name → SHA-256 hex (or a short literal, like admit's
    /// `allowed/denied` verdict counts).
    artifacts: BTreeMap<String, String>,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            started: Instant::now(),
            excluded_ms: 0.0,
            timed_ms: 0.0,
            metrics: BTreeMap::new(),
            artifacts: BTreeMap::new(),
        }
    }

    /// Time one layer call; repeated names accumulate.
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        self.add_ms(name, t.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Record a layer time measured elsewhere (an `obs` phase).
    fn add_ms(&mut self, name: &str, ms: f64) {
        self.timed_ms += ms;
        self.metrics.entry(name.to_string()).or_insert((0.0, "ms")).0 += ms;
    }

    /// Time a loop of `n` operations, reporting nanoseconds per operation.
    fn time_per_op<T>(&mut self, name: &str, n: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.timed_ms += ms;
        self.metrics.insert(name.to_string(), (ms * 1e6 / n.max(1) as f64, "ns"));
        out
    }

    fn count(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    fn digest(&mut self, name: &str, bytes: &[u8]) {
        let t = Instant::now();
        self.artifacts.insert(name.to_string(), sha256_hex(bytes));
        self.excluded_ms += t.elapsed().as_secs_f64() * 1e3;
    }

    fn to_json(&self) -> String {
        let wall_ms = self.started.elapsed().as_secs_f64() * 1e3 - self.excluded_ms;
        let mut j =
            format!("{{\"wall_ms\":{wall_ms},\"timed_ms\":{},\"metrics\":{{", self.timed_ms);
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(j, "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        j.push_str("},\"artifacts\":{");
        for (i, (name, value)) in self.artifacts.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(j, "{sep}\"{name}\":\"{value}\"");
        }
        j.push_str("}}");
        j
    }
}

/// Wall milliseconds of the most recent completed `obs` phase `name`.
fn last_phase(name: &str) -> Result<f64, String> {
    botscope::obs::global()
        .snapshot_phases()
        .iter()
        .rev()
        .find(|(phase, _)| phase == name)
        .map(|&(_, ms)| ms)
        .ok_or_else(|| format!("the program recorded no {name} phase"))
}

fn cmd_trace(workload: &str, flags: &Flags) -> Result<(), String> {
    // Phase spans are recorded only while the registry is enabled; no
    // trace sink is attached, so nothing else is written.
    botscope::obs::global().set_enabled(true);
    let mut t = Trace::new();
    match workload {
        "coupled-csv" => trace_coupled(flags, &mut t)?,
        "stream-bin" => trace_stream(flags, &mut t)?,
        "ingest-csv" => trace_ingest(flags, &mut t)?,
        "estate" => trace_estate(flags, &mut t)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    println!("{}", t.to_json());
    Ok(())
}

/// `simulate --coupled --basis believed --out -`: belief daemon,
/// generation, CSV encode, attribution (worker sweep), believed-basis
/// analysis and the report the CLI prints on stderr.
fn trace_coupled(flags: &Flags, t: &mut Trace) -> Result<(), String> {
    let mut cfg = CoupledConfig::default();
    cfg.sim.scale = flags.get("scale")?;
    cfg.sim.sites = flags.get("sites")?;
    cfg.sim.seed = flags.get("seed")?;

    let out = botscope::monitor::run_coupled_with_threads(&cfg, THREADS);
    t.add_ms("monitor.belief_ms", last_phase("coupled_belief_stage")?);
    t.add_ms("simnet.generate_ms", last_phase("coupled_generate_stage")?);
    let table = &out.sim.table;

    let mut csv = Vec::with_capacity(table.len() * 256);
    t.time("weblog.csv_encode_ms", || codec::write_table(&mut csv, table))
        .map_err(|e| format!("csv encode: {e}"))?;
    t.count("weblog.csv_bytes", csv.len() as f64, "B");
    t.digest("csv", &csv);
    drop(csv);

    let corpus = PolicyCorpus::new();
    let serial = t.time("core.attribution_ms.t1", || {
        attribute_table_with_threads(table, &out.beliefs, &out.served, &corpus, 1)
    });
    let counts = t.time("core.attribution_ms.t2", || {
        attribute_table_with_threads(table, &out.beliefs, &out.served, &corpus, THREADS)
    });
    if serial != counts {
        return Err("attribution differs between 1 and 2 workers".into());
    }
    let ctx = BeliefContext { beliefs: &out.beliefs, served: &out.served, corpus: &corpus };
    let exp = t.time("core.analyze_basis_ms", || {
        Experiment::analyze_table_with_basis(
            table,
            &out.schedule,
            &ctx,
            PolicyBasis::Believed,
            THREADS,
        )
    });
    let excused: u64 = counts.values().map(AttributionCounts::excused).sum();
    let text = t.time("core.report_ms", || coupled_report(&cfg, &out, &counts, &exp, excused));
    t.digest("report", text.as_bytes());

    t.count("simnet.rows", table.len() as f64, "count");
    t.count("monitor.belief_transitions", out.beliefs.total_transitions() as f64, "count");
    t.count("core.excused_rows", excused as f64, "count");
    Ok(())
}

/// The report `simulate --coupled --basis believed` prints (on stderr
/// when the CSV goes to stdout).
fn coupled_report(
    cfg: &CoupledConfig,
    out: &CoupledOutput,
    counts: &BTreeMap<String, AttributionCounts>,
    exp: &Experiment,
    excused: u64,
) -> String {
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
    let violating = counts.values().filter(|c| c.violations_served() > 0).count();
    let _ = writeln!(
        r,
        "attribution: {} bots scored, {} with served-policy violations",
        counts.len(),
        violating
    );
    let _ = writeln!(r, "{}", report::attribution_report(counts));
    let _ = writeln!(r, "compliance tables (believed basis, {excused} excused rows dropped):");
    let _ = writeln!(r, "{}", report::table5(exp));
    let _ = writeln!(r, "{}", report::table6(exp));
    let _ = writeln!(r, "{}", report::table10(exp));
    r
}

/// The schedule `analyze --phase-report` reconstructs.
fn paper_schedule() -> PhaseSchedule {
    PhaseSchedule::paper_schedule(Timestamp::from_date(2025, 1, 15), EXPERIMENT_SITE)
}

/// The `analyze --phase-report` text: every experiment table in order.
fn phase_report_text(exp: &Experiment) -> String {
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

/// `simulate --phase-study --stream --format bin` at 1 and 2 workers,
/// then `analyze --phase-report` split into BSCL decode and analysis.
fn trace_stream(flags: &Flags, t: &mut Trace) -> Result<(), String> {
    let cfg = SimConfig {
        days: 7,
        scale: flags.get("scale")?,
        seed: flags.get("seed")?,
        ..SimConfig::default()
    };
    cfg.assert_valid();
    let work: PathBuf = flags.get("work")?;
    let runs_counter = botscope::obs::global().counter("simnet_spill_runs_total");

    let mut outputs = Vec::new();
    for threads in [1, THREADS] {
        let opts = StreamOptions {
            spill_dir: Some(work.join(format!("spill-t{threads}"))),
            ..StreamOptions::default()
        };
        let runs_before = runs_counter.get();
        let mut sink = BinSink::new(Vec::with_capacity(32 << 20)).map_err(|e| e.to_string())?;
        botscope::simnet::scenario::phase_study_stream(
            &cfg,
            threads,
            &opts,
            &mut [&mut sink as &mut dyn RowSink],
        )
        .map_err(|e| format!("streaming simulate: {e}"))?;
        t.add_ms(&format!("simnet.generate_ms.t{threads}"), last_phase("simnet_generate")?);
        t.add_ms(&format!("weblog.spill_merge_ms.t{threads}"), last_phase("simnet_spill_merge")?);
        t.count("weblog.spill_runs", (runs_counter.get() - runs_before) as f64, "count");
        outputs.push(sink.into_inner());
    }
    let bin = outputs.pop().expect("two sweep outputs");
    if outputs[0] != bin {
        return Err("streamed bytes differ between 1 and 2 workers".into());
    }
    t.count("weblog.bin_bytes", bin.len() as f64, "B");
    t.digest("bin", &bin);

    let table = t
        .time("weblog.bin_decode_ms", || colfmt::read_table(bin.as_slice()))
        .map_err(|e| format!("bin decode: {e}"))?;
    let schedule = paper_schedule();
    let exp = t
        .time("core.analyze_stream_bin_ms", || {
            Experiment::analyze_stream(&mut TableRowStream::new(&table), &schedule)
        })
        .map_err(|e| e.to_string())?;
    let text = t.time("core.report_ms", || phase_report_text(&exp));
    t.digest("report", text.as_bytes());
    Ok(())
}

fn open(path: &PathBuf) -> Result<BufReader<std::fs::File>, String> {
    std::fs::File::open(path)
        .map(BufReader::new)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// `analyze --phase-report`, `analyze --phase-report --table` and plain
/// `analyze` over one CSV, split into decode, standardization, spoof
/// detection, both analysis engines (table engine at 1 and 2 workers)
/// and report rendering.
fn trace_ingest(flags: &Flags, t: &mut Trace) -> Result<(), String> {
    let input: PathBuf = flags.get("input")?;
    let table = t.time("weblog.csv_decode_ms", || {
        codec::decode_table_read(open(&input)?).map_err(|e| e.to_string())
    })?;
    t.count("weblog.rows_decoded", table.len() as f64, "count");
    let streamed = t.time("weblog.csv_stream_decode_ms", || -> Result<usize, String> {
        let mut stream = CsvRowStream::new(open(&input)?).map_err(|e| e.to_string())?;
        let mut rows = 0;
        while let Some(row) = stream.next_row() {
            row.map_err(|e| e.to_string())?;
            rows += 1;
        }
        Ok(rows)
    })?;
    if streamed != table.len() {
        return Err(format!("stream decoded {streamed} rows, table {}", table.len()));
    }

    let logs = t.time("core.standardize_ms", || standardize_table(&table));
    let spoof = t.time("core.spoof_ms", || detect_rows(&table, &logs.per_bot_rows()));
    let plain = t.time("core.report_ms", || plain_report(&table, &logs, &spoof));
    t.digest("plain", plain.as_bytes());
    drop(logs);

    let schedule = paper_schedule();
    let exp = t
        .time("core.analyze_stream_csv_ms", || {
            Experiment::analyze_stream(&mut TableRowStream::new(&table), &schedule)
        })
        .map_err(|e| e.to_string())?;
    let streamed_text = t.time("core.report_ms", || phase_report_text(&exp));
    t.digest("phase_report", streamed_text.as_bytes());
    for threads in [1, THREADS] {
        let exp = t.time(&format!("core.analyze_table_ms.t{threads}"), || {
            Experiment::analyze_table_with_threads(&table, &schedule, threads)
        });
        let text = t.time("core.report_ms", || phase_report_text(&exp));
        if text != streamed_text {
            return Err(format!(
                "table engine at {threads} worker(s) disagrees with the stream engine"
            ));
        }
    }
    Ok(())
}

/// The plain `analyze` report: record counts, per-bot pacing, spoofing.
fn plain_report(table: &LogTable, logs: &StandardizedTable<'_>, spoof: &SpoofReport) -> String {
    let mut r = String::new();
    let _ = writeln!(r, "{} records", table.len());
    let _ = writeln!(
        r,
        "{} known bots ({} records), {} anonymous records\n",
        logs.bots.len(),
        logs.known_bot_records(),
        logs.anonymous.len()
    );
    let _ = writeln!(r, "{:<28} {:>8} {:>14}", "bot", "records", "pace>=30s");
    for view in logs.bots.values() {
        let counts = crawl_delay_counts_rows(&view.rows, CRAWL_DELAY_SECS);
        let _ = writeln!(
            r,
            "{:<28} {:>8} {:>14}",
            view.name,
            view.rows.len(),
            counts.ratio().map_or_else(|| "-".into(), |ratio| format!("{ratio:.3}"))
        );
    }
    if spoof.findings.is_empty() {
        let _ = writeln!(r, "\nno spoofing signals (≥90% single-ASN dominance heuristic)");
    } else {
        let _ = writeln!(r, "\npossible spoofing:");
        for f in &spoof.findings {
            let _ = writeln!(
                r,
                "  {}: {} requests outside {} ({:.1}% dominant)",
                f.bot,
                f.spoofed_requests,
                f.main_asn,
                f.main_share * 100.0
            );
        }
    }
    r
}

/// `monitor` then `admit --quiet`: the daemon, the §5.1 re-check
/// reports, and compiled admission split into compiles and checks, on
/// the real estate (cold: thousands of automata) and folded onto a
/// small estate (hot).
fn trace_estate(flags: &Flags, t: &mut Trace) -> Result<(), String> {
    let cfg = MonitorConfig {
        sites: flags.get("sites")?,
        days: flags.get("days")?,
        seed: flags.get("seed")?,
        ..MonitorConfig::default()
    };
    let out = t.time("monitor.daemon_ms", || botscope::monitor::run_with_threads(&cfg, THREADS));
    let s = &out.stats;
    t.count("monitor.fetches", s.fetches as f64, "count");
    t.count("monitor.revalidated_ratio", s.revalidated as f64 / s.fetches.max(1) as f64, "ratio");
    let (matrix, agg) = t.time("core.recheck_ms", || {
        let matrix = phase_check_matrix(&out.table, &out.site_windows);
        let agg = by_category(&profiles_from_table(&out.table, out.horizon_end));
        (matrix, agg)
    });
    let text = t.time("core.report_ms", || monitor_report(&out.site_windows, &matrix, &agg));
    t.digest("monitor", text.as_bytes());
    drop(out);

    let queries_path: PathBuf = flags.get("queries")?;
    let text = t
        .time("admit.load_ms", || std::fs::read_to_string(&queries_path))
        .map_err(|e| format!("cannot read {}: {e}", queries_path.display()))?;
    let (queries, mut estate) = t.time("admit.load_ms", || -> Result<_, String> {
        let queries = parse_queries(&text)?;
        let mut estate = PolicyEstate::new();
        for &(_, site, _) in &queries {
            if estate.doc(site).is_none() {
                estate.insert(site, admit_site_version(site).robots_txt());
            }
        }
        Ok((queries, estate))
    })?;

    // Compile every site in first-use order (what admit's lazy compiles
    // pay inside its loop), then time the checks alone.
    let mut first_use: Vec<&str> = Vec::new();
    let mut index: HashMap<&str, usize> = HashMap::new();
    for &(_, site, _) in &queries {
        index.entry(site).or_insert_with(|| {
            first_use.push(site);
            first_use.len() - 1
        });
    }
    t.time("robotstxt.compile_ms", || {
        for site in &first_use {
            estate.compiled(site);
        }
    });
    t.count("robotstxt.compiles", estate.compiles() as f64, "count");
    let allowed = t.time_per_op("robotstxt.check_ns", queries.len(), || {
        let mut allowed = 0u64;
        for &(agent, site, path) in &queries {
            allowed += u64::from(estate.check(site, agent, path).unwrap_or(false));
        }
        allowed
    });
    t.artifacts.insert("admit".into(), format!("{allowed}/{}", queries.len() as u64 - allowed));

    // Hot: the same queries folded onto the first `HOT_SITES` sites.
    let hot_names = &first_use[..HOT_SITES.min(first_use.len())];
    let mut hot = PolicyEstate::new();
    for site in hot_names {
        hot.insert(*site, admit_site_version(site).robots_txt());
        hot.compiled(site);
    }
    let folded: Vec<(&str, &str, &str)> = queries
        .iter()
        .map(|&(agent, site, path)| (agent, hot_names[index[site] % hot_names.len()], path))
        .collect();
    t.time_per_op("robotstxt.check_ns.hot", folded.len(), || {
        let mut allowed = 0u64;
        for &(agent, site, path) in &folded {
            allowed += u64::from(hot.check(site, agent, path).unwrap_or(false));
        }
        allowed
    });
    Ok(())
}

/// `agent,site,path` rows exactly as `admit` reads them.
fn parse_queries(text: &str) -> Result<Vec<(&str, &str, &str)>, String> {
    let mut queries = Vec::new();
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
            _ => return Err(format!("line {}: want `agent,site,path`", lineno + 1)),
        }
    }
    Ok(queries)
}

/// The corpus version `admit` serves for `site`: FNV-1a over the name.
fn admit_site_version(site: &str) -> PolicyVersion {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    PolicyVersion::ALL[(h % 4) as usize]
}

/// The report `monitor` prints on stdout: monitored Table 7 (when some
/// site swapped policies) and the re-check coverage table.
fn monitor_report(
    site_windows: &SiteVersionWindows,
    matrix: &[PhaseCheckRow],
    agg: &RecheckByCategory,
) -> String {
    let mut r = String::new();
    if site_windows.values().any(|w| w.len() > 1) {
        let _ = writeln!(r, "{}", report::table7_from_monitor(matrix));
    }
    if !agg.checking_bots.is_empty() {
        let _ = writeln!(r, "re-check coverage from monitored logs (share of bots per window):");
        let _ = writeln!(
            r,
            "  {:<24} {:>5} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "category", "bots", "12h", "24h", "48h", "72h", "168h"
        );
        for (cat, n) in &agg.checking_bots {
            let mut line = format!("  {:<24} {:>5}", cat.to_string(), n);
            for h in [12u64, 24, 48, 72, 168] {
                let p = agg.proportions.get(&(*cat, h)).copied().unwrap_or(0.0);
                let _ = write!(line, " {p:>6.2}");
            }
            let _ = writeln!(r, "{line}");
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_seeded_and_cover_both_verdicts() {
        let a = generate_queries(7, 2_000, 50);
        assert_eq!(a, generate_queries(7, 2_000, 50));
        assert_ne!(a, generate_queries(8, 2_000, 50));
        let queries = parse_queries(&a).expect("generated queries parse");
        assert_eq!(queries.len(), 2_000);
        assert!(queries.iter().any(|q| q.0 == "UnlistedCrawler"));
        let mut estate = PolicyEstate::new();
        let mut verdicts = BTreeSet::new();
        for &(agent, site, path) in &queries {
            if estate.doc(site).is_none() {
                estate.insert(site, admit_site_version(site).robots_txt());
            }
            verdicts.insert(estate.check(site, agent, path).expect("site registered"));
        }
        assert_eq!(verdicts.len(), 2, "both ALLOW and DENY occur");
    }
}
