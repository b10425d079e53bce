//! The discrete-event generation engine.
//!
//! Each fleet bot is an independent process: a Poisson stream of sessions,
//! each session a paced run of page fetches against one site, shaped by
//! the robots.txt policy live on that site at that moment and by the
//! bot's planted compliance profile. Every bot runs on its own RNG
//! derived from (seed, bot index) — as do the anonymous-traffic and
//! spoofing generators — so each stream is a pure function of the
//! configuration, independent even of execution order.
//!
//! That independence is what the parallel path exploits: each stream is
//! a **generation unit** that emits interned rows into its own
//! [`LogTable`] shard; shards are distributed over the [`run_indexed`]
//! worker pool, concatenated in unit order, and stable-sorted by
//! timestamp. The result is byte-identical for a fixed seed no matter
//! how many workers run ([`worker_threads`] reads `BOTSCOPE_THREADS`,
//! defaulting to the machine's available parallelism).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use botscope_asn::ip_for;
use botscope_weblog::colfmt;
use botscope_weblog::intern::{StringInterner, Sym};
use botscope_weblog::iphash::IpHasher;
use botscope_weblog::sink::RowSink;
use botscope_weblog::table::{LogTable, RecordRow};
use botscope_weblog::time::Timestamp;
use botscope_weblog::{merge_runs, MergeRun};

use crate::behavior::{BotBehavior, RobotsCheckPolicy};
use crate::belief::{LensTable, PolicyOracle, ScheduleOracle};
use crate::config::SimConfig;
use crate::fleet::{build_fleet, SimBot};
use crate::phases::PhaseSchedule;
use crate::server::PolicyCorpus;
use crate::site::{Page, PageKind, Site, DIRECTORY_SITE, EXPERIMENT_SITE};

/// Ground truth planted by the generator, for validation by tests and the
/// reproduction binaries.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Planted behaviour per canonical bot name.
    pub behaviors: BTreeMap<String, BotBehavior>,
    /// Canonical names of the SEO-exempt agents present in the fleet.
    pub exempt: Vec<String>,
    /// Number of spoofed requests planted, per spoofed bot name.
    pub spoofed_requests: BTreeMap<String, u64>,
}

/// The generator's output: the interned table.
#[derive(Debug, Clone, Default)]
pub struct SimTableOutput {
    /// All access rows, time-sorted, with their interner.
    pub table: LogTable,
    /// What was planted.
    pub truth: GroundTruth,
}

/// Exponential sample with the given mean.
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -mean * (1.0 - u).ln()
}

/// Derive a child seed for an independent RNG stream; avoids correlated
/// streams between generation units. This is the workspace's
/// seed-derivation discipline: every subsystem that runs many
/// independent seeded streams (the generator's per-bot units, the
/// monitor daemon's per-agent and per-site streams) derives them from
/// one master seed through this mix.
pub fn child_seed(seed: u64, stream: u64) -> u64 {
    // splitmix-style mix.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generation worker count: `BOTSCOPE_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism.
pub fn worker_threads() -> usize {
    worker_threads_from(
        std::env::var("BOTSCOPE_THREADS").ok().as_deref(),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    )
}

/// The pure core of [`worker_threads`]: `env` is the raw
/// `BOTSCOPE_THREADS` value (if set), `hardware` the machine's
/// available parallelism. An explicit positive setting always wins —
/// output is byte-identical at any worker count, so oversubscription is
/// safe to *ask* for — but the default never exceeds the hardware:
/// fanning out 8 workers on a 1-core container measurably loses to
/// running serial.
pub fn worker_threads_from(env: Option<&str>, hardware: usize) -> usize {
    env.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| hardware.max(1))
}

/// Run `f(0..n)` across `threads` scoped workers and return the results
/// in index order — the workspace's one fan-out pool (generation units,
/// monitor chunks, distinct-agent standardization, per-bot analysis and
/// attribution). Workers claim one index at a time, so very uneven items
/// (heavy-tailed per-bot row counts) still balance; callers with many
/// tiny items pre-chunk them. `f` must be a pure function of its index
/// for the output to be worker-count invariant: the pool only changes
/// execution order. Serial (no spawns) when `threads` is 1 or there is at
/// most one item.
pub fn run_indexed<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    assert!(threads >= 1, "at least one worker required");
    if threads == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                results.lock().expect("no poisoned workers").push((i, out));
            });
        }
    });
    let mut results = results.into_inner().expect("workers joined");
    // Completion order is scheduling noise; index order is the contract.
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, out)| out).collect()
}

/// Precomputed page pools per site, shared read-only across workers so
/// the per-fetch pick never rebuilds a filtered vector.
struct SitePools<'a> {
    site: &'a Site,
    landing: Vec<&'a Page>,
    content: Vec<&'a Page>,
    directory: Vec<&'a Page>,
    page_data: Vec<&'a Page>,
    restricted: Vec<&'a Page>,
    non_pagedata: Vec<&'a Page>,
    crawlable: Vec<&'a Page>,
}

impl<'a> SitePools<'a> {
    fn build(site: &'a Site) -> SitePools<'a> {
        let of = |kind: PageKind| -> Vec<&'a Page> {
            site.pages.iter().filter(|p| p.kind == kind).collect()
        };
        SitePools {
            site,
            landing: of(PageKind::Landing),
            content: of(PageKind::Content),
            directory: of(PageKind::Directory),
            page_data: of(PageKind::PageData),
            restricted: of(PageKind::Restricted),
            non_pagedata: site.pages.iter().filter(|p| p.kind != PageKind::PageData).collect(),
            crawlable: site.pages.iter().filter(|p| p.kind != PageKind::Restricted).collect(),
        }
    }

    fn of_kind(&self, kind: PageKind) -> &[&'a Page] {
        match kind {
            PageKind::Landing => &self.landing,
            PageKind::Content => &self.content,
            PageKind::Directory => &self.directory,
            PageKind::PageData => &self.page_data,
            PageKind::Restricted => &self.restricted,
        }
    }
}

/// The shared, read-only world every generation unit sees. Policy is
/// deliberately absent: fleet bots consult their [`PolicyOracle`], and
/// the anon/spoof units never read robots.txt at all.
pub(crate) struct World<'a> {
    pub(crate) cfg: &'a SimConfig,
    pub(crate) hasher: &'a IpHasher,
    estate: &'a [Site],
    pools: Vec<SitePools<'a>>,
    /// The policy corpus every session's believed policy is projected
    /// through (its compiled automata).
    corpus: PolicyCorpus,
    /// Session-target weights per site (experiment site is the heavy one).
    site_weights: Vec<f64>,
    site_weight_total: f64,
}

impl<'a> World<'a> {
    fn new(cfg: &'a SimConfig, estate: &'a [Site], hasher: &'a IpHasher) -> World<'a> {
        // Experiment site is the high-traffic one ("chosen because of its
        // observed high bot traffic", §4.1): weight 30, others 1.
        let site_weights: Vec<f64> =
            estate.iter().map(|s| if s.index == EXPERIMENT_SITE { 30.0 } else { 1.0 }).collect();
        let site_weight_total = site_weights.iter().sum();
        World {
            cfg,
            hasher,
            estate,
            pools: estate.iter().map(SitePools::build).collect(),
            corpus: PolicyCorpus::new(),
            site_weights,
            site_weight_total,
        }
    }

    pub(crate) fn n_sites(&self) -> usize {
        self.estate.len()
    }

    /// Test-only constructor so the anon/spoof unit tests can drive
    /// their generator in isolation.
    #[cfg(test)]
    pub(crate) fn new_for_tests(
        cfg: &'a SimConfig,
        estate: &'a [Site],
        hasher: &'a IpHasher,
    ) -> World<'a> {
        World::new(cfg, estate, hasher)
    }
}

/// A generation unit's output shard.
struct Shard {
    table: LogTable,
    /// Spoofed request counts (only the spoof unit fills this).
    planted: BTreeMap<String, u64>,
}

/// Disk-spill state of a streaming [`ShardWriter`]: where sorted runs
/// go, and the first write error (surfaced at [`ShardWriter::finish_spill`]
/// because the emit path is infallible by design).
struct SpillState {
    dir: PathBuf,
    unit: usize,
    rows_per_run: usize,
    paths: Vec<PathBuf>,
    err: Option<io::Error>,
}

/// Per-unit emit context: the shard table plus the symbols that are
/// fixed for the unit (interned once, not once per row).
pub(crate) struct ShardWriter {
    pub(crate) table: LogTable,
    robots_path: Sym,
    site_syms: Vec<Sym>,
    spill: Option<SpillState>,
}

impl ShardWriter {
    pub(crate) fn new(world: &World<'_>) -> ShardWriter {
        let mut table = LogTable::new();
        let robots_path = table.intern("/robots.txt");
        let site_syms = world.estate.iter().map(|s| table.intern(&s.name)).collect();
        ShardWriter { table, robots_path, site_syms, spill: None }
    }

    /// A writer that spills every `rows_per_run` rows to a canonically
    /// sorted binary run file under `dir`, keeping memory bounded by one
    /// run plus the unit's dictionary.
    fn new_spilling(
        world: &World<'_>,
        dir: PathBuf,
        unit: usize,
        rows_per_run: usize,
    ) -> ShardWriter {
        assert!(rows_per_run >= 1, "rows_per_run must be positive");
        let mut writer = ShardWriter::new(world);
        writer.spill = Some(SpillState { dir, unit, rows_per_run, paths: Vec::new(), err: None });
        writer
    }

    /// Sort the buffered rows canonically and write them as one binary
    /// run file. The interner survives intact: the generators hold
    /// [`Sym`]s (unit UA/ASN, site names, referer templates) across the
    /// whole unit, so only the rows may drain.
    fn flush_run(&mut self) {
        let spill = match self.spill.as_mut() {
            Some(spill) if spill.err.is_none() && !self.table.is_empty() => spill,
            _ => return,
        };
        let mut run = std::mem::take(&mut self.table);
        run.sort_canonical();
        let path = spill.dir.join(format!("unit{:04}-run{:05}.bin", spill.unit, spill.paths.len()));
        let result = File::create(&path).and_then(|file| {
            let mut w = BufWriter::new(file);
            colfmt::write_table(&mut w, &run)?;
            w.flush()
        });
        match result {
            Ok(()) => spill.paths.push(path),
            Err(e) => spill.err = Some(e),
        }
        let (interner, mut rows) = run.into_parts();
        rows.clear();
        self.table = LogTable::from_parts(interner, rows);
    }

    /// Flush the final run and hand back the unit's full dictionary (an
    /// append-only superset of every run's) plus the run paths in
    /// emission order.
    fn finish_spill(mut self) -> io::Result<(Arc<StringInterner>, Vec<PathBuf>)> {
        self.flush_run();
        let spill = self.spill.take().expect("finish_spill requires a spilling writer");
        if let Some(err) = spill.err {
            return Err(err);
        }
        let (interner, _) = self.table.into_parts();
        Ok((Arc::new(interner), spill.paths))
    }

    pub(crate) fn site_sym(&self, index: usize) -> Sym {
        self.site_syms[index]
    }

    /// Emit one row. `path` is interned (deduplicated) per shard.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn emit(
        &mut self,
        ua: Sym,
        asn: Sym,
        site: Sym,
        ip_hash: u64,
        path: &str,
        bytes: u64,
        status: u16,
        referer: Option<Sym>,
        at: Timestamp,
    ) {
        let uri_path =
            if path == "/robots.txt" { self.robots_path } else { self.table.intern(path) };
        self.table.push_row(RecordRow {
            useragent: ua,
            asn,
            sitename: site,
            uri_path,
            referer,
            timestamp: at,
            ip_hash,
            bytes,
            status,
        });
        if let Some(spill) = &self.spill {
            if self.table.len() >= spill.rows_per_run {
                self.flush_run();
            }
        }
    }
}

/// Run the generator into a [`LogTable`], sharding generation units over
/// [`worker_threads`] workers.
pub fn simulate_table(cfg: &SimConfig, schedule: &PhaseSchedule) -> SimTableOutput {
    simulate_table_with_threads(cfg, schedule, worker_threads())
}

/// [`simulate_table`] with an explicit worker count. Output is
/// byte-identical for a fixed seed regardless of `threads`.
pub fn simulate_table_with_threads(
    cfg: &SimConfig,
    schedule: &PhaseSchedule,
    threads: usize,
) -> SimTableOutput {
    simulate_table_oracle(cfg, &ScheduleOracle { schedule }, threads)
}

/// [`simulate_table_with_threads`] with an explicit [`PolicyOracle`]:
/// every fleet bot consults `oracle` for the policy it *believes* is
/// live instead of reading the schedule directly. With
/// [`ScheduleOracle`] this is byte-identical to the schedule-driven
/// path; with a monitored [`crate::belief::BeliefAtlas`] it is the
/// coupled mode — obedient bots halt through a believed 5xx
/// disallow-all window, keep crawling on a stale allow-all cache, and
/// never-checking bots (belief stuck at `Unfetched`) ignore everything.
///
/// The anonymous-traffic and spoofing units never consult the oracle:
/// browsers don't read robots.txt, and spoofers ignore it by
/// definition.
pub fn simulate_table_oracle<O: PolicyOracle>(
    cfg: &SimConfig,
    oracle: &O,
    threads: usize,
) -> SimTableOutput {
    cfg.assert_valid();
    assert!(threads >= 1, "at least one worker required");
    let obs = botscope_obs::global();
    let gen_span = obs.phase("simnet_generate");
    let estate = Site::estate(cfg.sites);
    let fleet = build_fleet();
    let hasher = IpHasher::from_seed(cfg.seed);
    let world = World::new(cfg, &estate, &hasher);

    // Units: one per fleet bot, then anonymous traffic, then spoofing.
    let n_units = fleet.len() + 2;
    let run_unit = |unit: usize| -> Shard {
        if unit < fleet.len() {
            let bot = &fleet[unit];
            let mut rng = StdRng::seed_from_u64(child_seed(cfg.seed, unit as u64));
            let mut writer = ShardWriter::new(&world);
            simulate_bot(&world, oracle, unit, bot, &mut rng, &mut writer);
            Shard { table: writer.table, planted: BTreeMap::new() }
        } else if unit == fleet.len() {
            let mut writer = ShardWriter::new(&world);
            if cfg.anon_traffic {
                crate::anon::generate(&world, &mut writer);
            }
            Shard { table: writer.table, planted: BTreeMap::new() }
        } else {
            let mut writer = ShardWriter::new(&world);
            let planted = if cfg.spoofing {
                crate::spoof::generate(&world, &fleet, &mut writer)
            } else {
                BTreeMap::new()
            };
            Shard { table: writer.table, planted }
        }
    };

    // Shards come back in unit order, so the stable sort below sees the
    // exact serial emission sequence.
    let shards: Vec<Shard> = run_indexed(n_units, threads, run_unit);

    drop(gen_span);
    obs.counter("simnet_units_total").add(n_units as u64);

    let total_rows: usize = shards.iter().map(|s| s.table.len()).sum();
    obs.counter("simnet_rows_total").add(total_rows as u64);
    let merge_span = obs.phase("simnet_absorb_sort");
    let mut table = LogTable::with_capacity(total_rows, 1024);
    let mut truth = GroundTruth::default();
    for shard in &shards {
        table.absorb(&shard.table);
        for (bot, count) in &shard.planted {
            *truth.spoofed_requests.entry(bot.clone()).or_default() += count;
        }
    }
    table.sort_canonical();
    drop(merge_span);

    for bot in &fleet {
        truth.behaviors.insert(bot.spec.canonical.to_string(), bot.behavior.clone());
        if bot.exempt {
            truth.exempt.push(bot.spec.canonical.to_string());
        }
    }
    SimTableOutput { table, truth }
}

/// Tuning for the disk-spilling streaming generator.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Rows each worker buffers before spilling a sorted run to disk.
    /// The default (2^19 rows ≈ 24 MB of row storage per in-flight
    /// unit) keeps per-worker memory flat at any simulation scale.
    pub rows_per_run: usize,
    /// Directory for spill files. `None` creates — and afterwards
    /// removes — a unique directory under the system temp dir. Spill
    /// files are always deleted after the merge; with an explicit
    /// directory, cleanup of files from a unit that *failed* mid-write
    /// is best-effort.
    pub spill_dir: Option<PathBuf>,
}

impl Default for StreamOptions {
    fn default() -> StreamOptions {
        StreamOptions { rows_per_run: 1 << 19, spill_dir: None }
    }
}

/// The streaming generator's output: what was planted plus how many
/// rows went through the sinks. The rows themselves never materialize —
/// they live on disk as sorted runs until the merge streams them out.
#[derive(Debug, Clone, Default)]
pub struct SimStreamOutput {
    /// What was planted.
    pub truth: GroundTruth,
    /// Rows delivered to every sink, in canonical order.
    pub rows: u64,
}

/// Run the generator straight into row sinks with bounded memory:
/// workers spill canonically sorted binary runs to disk, and one serial
/// k-way merge streams the global canonical order into `sinks` without ever
/// materializing the table. Output bytes are identical to writing
/// [`simulate_table`]'s result, at any worker count.
pub fn simulate_stream(
    cfg: &SimConfig,
    schedule: &PhaseSchedule,
    sinks: &mut [&mut dyn RowSink],
) -> io::Result<SimStreamOutput> {
    simulate_stream_with_threads(cfg, schedule, worker_threads(), &StreamOptions::default(), sinks)
}

/// [`simulate_stream`] with explicit worker count and spill tuning.
pub fn simulate_stream_with_threads(
    cfg: &SimConfig,
    schedule: &PhaseSchedule,
    threads: usize,
    opts: &StreamOptions,
    sinks: &mut [&mut dyn RowSink],
) -> io::Result<SimStreamOutput> {
    simulate_stream_oracle(cfg, &ScheduleOracle { schedule }, threads, opts, sinks)
}

/// Per-unit result of a streaming worker: the unit's final dictionary
/// (valid for all of its runs) and its run files in emission order.
struct UnitRuns {
    interner: Arc<StringInterner>,
    paths: Vec<PathBuf>,
    planted: BTreeMap<String, u64>,
}

/// [`simulate_stream_with_threads`] with an explicit [`PolicyOracle`]
/// (the streaming dual of [`simulate_table_oracle`]).
pub fn simulate_stream_oracle<O: PolicyOracle>(
    cfg: &SimConfig,
    oracle: &O,
    threads: usize,
    opts: &StreamOptions,
    sinks: &mut [&mut dyn RowSink],
) -> io::Result<SimStreamOutput> {
    cfg.assert_valid();
    assert!(threads >= 1, "at least one worker required");
    assert!(opts.rows_per_run >= 1, "rows_per_run must be positive");
    let obs = botscope_obs::global();
    let gen_span = obs.phase("simnet_generate");
    let estate = Site::estate(cfg.sites);
    let fleet = build_fleet();
    let hasher = IpHasher::from_seed(cfg.seed);
    let world = World::new(cfg, &estate, &hasher);

    // Spill directory: the caller's, or a unique one we own and remove.
    // The counter (not time or randomness) disambiguates concurrent
    // streams within one process.
    static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);
    let (spill_dir, own_dir) = match &opts.spill_dir {
        Some(dir) => (dir.clone(), false),
        None => {
            let n = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("botscope-spill-{}-{n}", std::process::id()));
            (dir, true)
        }
    };
    std::fs::create_dir_all(&spill_dir)?;

    let n_units = fleet.len() + 2;
    let run_unit = |unit: usize| -> io::Result<UnitRuns> {
        let mut writer =
            ShardWriter::new_spilling(&world, spill_dir.clone(), unit, opts.rows_per_run);
        let mut planted = BTreeMap::new();
        if unit < fleet.len() {
            let bot = &fleet[unit];
            let mut rng = StdRng::seed_from_u64(child_seed(cfg.seed, unit as u64));
            simulate_bot(&world, oracle, unit, bot, &mut rng, &mut writer);
        } else if unit == fleet.len() {
            if cfg.anon_traffic {
                crate::anon::generate(&world, &mut writer);
            }
        } else if cfg.spoofing {
            planted = crate::spoof::generate(&world, &fleet, &mut writer);
        }
        let (interner, paths) = writer.finish_spill()?;
        Ok(UnitRuns { interner, paths, planted })
    };

    let units: Vec<io::Result<UnitRuns>> = run_indexed(n_units, threads, run_unit);

    // Runs enter the merge in (unit, run) order: a unit's runs are
    // consecutive emission-position blocks, so this global order makes
    // the merge byte-identical to concatenate-in-unit-order + stable
    // sort — i.e. to the materialized path.
    drop(gen_span);
    obs.counter("simnet_units_total").add(n_units as u64);
    let merge_span = obs.phase("simnet_spill_merge");
    let mut truth = GroundTruth::default();
    let mut spilled: Vec<PathBuf> = Vec::new();
    let merged: io::Result<u64> = (|| {
        let mut runs: Vec<MergeRun> = Vec::new();
        for result in units {
            let unit_runs = result?;
            spilled.extend(unit_runs.paths.iter().cloned());
            for (bot, count) in &unit_runs.planted {
                *truth.spoofed_requests.entry(bot.clone()).or_default() += count;
            }
            for path in &unit_runs.paths {
                let reader = BufReader::with_capacity(64 << 10, File::open(path)?);
                // Raw mode: spill files preserve the unit interner's ids
                // (`write_table`), so readers need no per-file dictionary
                // copy — merge memory stays one dictionary per unit, not
                // one per run.
                let bin = colfmt::BinReader::new_raw(reader)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                runs.push(MergeRun::from_sorted_stream(unit_runs.interner.clone(), Box::new(bin)));
            }
        }
        // One serial merge: a per-row cross-thread hand-off costs more
        // than the heap work it would spread, so `threads` drives
        // generation only.
        merge_runs(runs, sinks)
    })();
    drop(merge_span);
    obs.counter("simnet_spill_runs_total").add(spilled.len() as u64);
    if own_dir {
        let _ = std::fs::remove_dir_all(&spill_dir);
    } else {
        for path in &spilled {
            let _ = std::fs::remove_file(path);
        }
    }
    let rows = merged?;
    obs.counter("simnet_rows_total").add(rows);

    for bot in &fleet {
        truth.behaviors.insert(bot.spec.canonical.to_string(), bot.behavior.clone());
        if bot.exempt {
            truth.exempt.push(bot.spec.canonical.to_string());
        }
    }
    Ok(SimStreamOutput { truth, rows })
}

/// Simulate one bot over the whole horizon. `unit` is the bot's fleet
/// index — the identity the [`PolicyOracle`] keys beliefs by.
fn simulate_bot<O: PolicyOracle>(
    world: &World<'_>,
    oracle: &O,
    unit: usize,
    bot: &SimBot,
    rng: &mut StdRng,
    out: &mut ShardWriter,
) {
    let cfg = world.cfg;
    let bb = &bot.behavior;
    let horizon_secs = cfg.days as f64 * 86_400.0;
    let daily_sessions = (bb.daily_hits * cfg.scale / bb.pages_per_session).max(1e-9);
    let mean_gap_secs = 86_400.0 / daily_sessions;

    let ua = out.table.intern(&bot.ua_string);
    let asn = out.table.intern(bot.spec.home_asn);
    let ip_hash_of = |ip_index: u32| -> u64 {
        let ip = ip_for(bot.spec.home_asn, ip_index).unwrap_or_else(|| {
            panic!("unknown home ASN {} for {}", bot.spec.home_asn, bot.spec.canonical)
        });
        world.hasher.hash_ipv4(ip)
    };

    // Diligent pollers fetch robots.txt on a timer, independent of
    // sessions. Polling cadence does NOT scale with traffic volume —
    // checking the rules is a fixed cost. The poll stream targets one
    // ordinary site: the §5.1 re-check analysis pools robots.txt fetches
    // across the estate, while the §4 compliance analysis reads only the
    // experiment site, whose record mix must stay proportional to page
    // traffic at every simulation scale.
    if let RobotsCheckPolicy::Poll(hours) = bb.robots_check {
        let interval = hours as f64 * 3600.0;
        let site = out.site_sym(world.n_sites() - 1);
        let ip_hash = ip_hash_of(rng.gen_range(0..bb.ip_pool));
        let mut t = rng.gen_range(0.0..interval.min(horizon_secs));
        while t < horizon_secs {
            let now = cfg.start.plus_secs(t as u64);
            out.emit(ua, asn, site, ip_hash, "/robots.txt", 430, 200, None, now);
            // Small jitter so poll streams don't alias with window edges.
            t += interval * rng.gen_range(0.90..0.99);
        }
    }

    // Lazy-cache bookkeeping: one cache per bot (bots reuse one fetched
    // policy across their crawl of the estate).
    let mut last_check: Option<u64> = None;

    // Probe the corpus once per bot: sessions resolve their believed
    // policy against this table instead of re-running matcher probes.
    let lenses = LensTable::for_bot(&world.corpus, bot.spec.canonical, bot.exempt);

    let mut t = exp_sample(rng, mean_gap_secs);
    while t < horizon_secs {
        let now = cfg.start.plus_secs(t as u64);
        session(
            world,
            oracle,
            unit,
            bot,
            ua,
            asn,
            &ip_hash_of,
            rng,
            now,
            &lenses,
            &mut last_check,
            out,
        );
        t += exp_sample(rng, mean_gap_secs);
    }
}

/// Pick the session's target site (by estate index).
fn pick_site(world: &World<'_>, rng: &mut StdRng, directory_affinity: f64) -> usize {
    if world.n_sites() > DIRECTORY_SITE && rng.gen_bool(directory_affinity.clamp(0.0, 1.0)) {
        return DIRECTORY_SITE;
    }
    let mut pick = rng.gen_range(0.0..world.site_weight_total);
    for (index, w) in world.site_weights.iter().enumerate() {
        if pick < *w {
            return index;
        }
        pick -= w;
    }
    world.n_sites() - 1
}

/// Pick a page for a normal (baseline-policy) access.
fn pick_natural_page<'a>(
    pools: &SitePools<'a>,
    rng: &mut StdRng,
    natural_pagedata: f64,
) -> &'a Page {
    if rng.gen_bool(natural_pagedata.clamp(0.0, 1.0)) {
        let pd = &pools.page_data;
        if !pd.is_empty() {
            return pd[rng.gen_range(0..pd.len())];
        }
    }
    // Mostly content/directory, occasionally landing, rarely restricted
    // (bots do stumble into /secure/* — the base file's disallows are the
    // everyday compliance signal).
    let roll: f64 = rng.gen_range(0.0..1.0);
    let kind = if roll < 0.10 {
        PageKind::Landing
    } else if roll < 0.60 {
        PageKind::Content
    } else if roll < 0.97 {
        PageKind::Directory
    } else {
        PageKind::Restricted
    };
    let pool = pools.of_kind(kind);
    if pool.is_empty() {
        return &pools.site.pages[rng.gen_range(0..pools.site.pages.len())];
    }
    pool[rng.gen_range(0..pool.len())]
}

/// One crawling session.
#[allow(clippy::too_many_arguments)]
fn session<O: PolicyOracle>(
    world: &World<'_>,
    oracle: &O,
    unit: usize,
    bot: &SimBot,
    ua: Sym,
    asn: Sym,
    ip_hash_of: &dyn Fn(u32) -> u64,
    rng: &mut StdRng,
    start: Timestamp,
    lenses: &LensTable,
    last_check: &mut Option<u64>,
    out: &mut ShardWriter,
) {
    let bb = &bot.behavior;
    let site_index = pick_site(world, rng, bb.directory_affinity);
    let pools = &world.pools[site_index];
    let site = out.site_sym(site_index);
    let ip_hash = ip_hash_of(rng.gen_range(0..bb.ip_pool));

    let mut now = start;

    // Lazy-cache robots.txt fetch: refresh at the first crawl opportunity
    // after the TTL lapses.
    if let RobotsCheckPolicy::EveryHours(h) = bb.robots_check {
        let due = match *last_check {
            None => true,
            Some(at) => now.unix().saturating_sub(at) >= h * 3600,
        };
        if due {
            out.emit(ua, asn, site, ip_hash, "/robots.txt", 430, 200, None, now);
            *last_check = Some(now.unix());
            now = now.plus_secs(1 + exp_sample(rng, 2.0) as u64);
        }
    }

    // The policy the bot *believes* is live (the schedule itself in the
    // baseline, a monitored belief timeline in coupled mode), projected
    // onto the engine's behavioural axes via the policy matcher: the bot
    // reacts to what the believed file *says*, not to which enum variant
    // carried it.
    let believed = oracle.believed(unit, site_index, now);
    let lens = lenses.lens(believed);
    let pages = 1 + exp_sample(rng, (bb.pages_per_session - 1.0).max(0.0)) as u64;

    for i in 0..pages {
        // Pacing between page fetches (the crawl-delay signal).
        if i > 0 {
            let comply_pace = if lens.delayed {
                rng.gen_bool(bb.compliance.crawl_delay)
            } else {
                rng.gen_bool(bb.compliance.natural_slow)
            };
            let delta = if comply_pace {
                30.0 + exp_sample(rng, 25.0)
            } else {
                1.0 + exp_sample(rng, bb.fast_pacing_secs)
            };
            now = now.plus_secs(delta.max(1.0) as u64);
        }

        // Target selection under the believed policy. `disallow_all`
        // covers both a served disallow-all file (for bots it does not
        // exempt) and the RFC 9309 §2.3.1.4 unreachable state — in the
        // latter there is no served file to grant the SEO agents their
        // exemption, so even exempt bots face the gamble.
        let page: &Page = if lens.disallow_all {
            if rng.gen_bool(bb.compliance.disallow) {
                // The bot obeys: instead of the page it re-consults the
                // policy file — the only permitted target. This is what
                // the paper's fully-compliant bots look like in the
                // logs (e.g. ChatGPT-User's all-robots.txt traffic
                // under disallow-all, Table 6).
                out.emit(ua, asn, site, ip_hash, "/robots.txt", 430, 200, None, now);
                continue;
            }
            pick_natural_page(pools, rng, bb.compliance.natural_pagedata)
        } else if lens.endpoint_only {
            if rng.gen_bool(bb.compliance.endpoint) {
                let pd = &pools.page_data;
                if pd.is_empty() {
                    continue;
                }
                pd[rng.gen_range(0..pd.len())]
            } else {
                // A non-compliant fetch under v2 goes where the bot was
                // going anyway — which is *not* the page-data endpoint
                // (that family is a compliance signal now, and the
                // paper observes several bots shifting away from it:
                // the negative endpoint z-scores of Table 10).
                let pool = &pools.non_pagedata;
                if pool.is_empty() {
                    &pools.site.pages[0]
                } else {
                    pool[rng.gen_range(0..pool.len())]
                }
            }
        } else {
            pick_natural_page(pools, rng, bb.compliance.natural_pagedata)
        };

        let jitter: f64 = rng.gen_range(0.5..1.5);
        let bytes = ((page.bytes as f64) * bb.bytes_factor * jitter).max(200.0) as u64;
        let status = if page.path == "/404" || page.path == "/dev-404-page" { 404 } else { 200 };
        out.emit(ua, asn, site, ip_hash, &page.path, bytes, status, None, now);
    }
}

/// Crawlable-page pool of a site, for the anon/spoof generators.
pub(crate) fn crawlable_pool<'w>(world: &'w World<'_>, site_index: usize) -> &'w [&'w Page] {
    &world.pools[site_index].crawlable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::{PhaseSchedule, PolicyVersion};

    fn small_cfg() -> SimConfig {
        SimConfig::test_small()
    }

    fn base_schedule(cfg: &SimConfig) -> PhaseSchedule {
        PhaseSchedule::always_base(EXPERIMENT_SITE, cfg.start, cfg.end())
    }

    /// How many rows of `table` satisfy `pred(row, useragent)`.
    fn count_rows(table: &LogTable, pred: impl Fn(&RecordRow, &str) -> bool) -> usize {
        table.rows().iter().filter(|r| pred(r, table.resolve(r.useragent))).count()
    }

    #[test]
    fn deterministic_output() {
        let cfg = small_cfg();
        let schedule = base_schedule(&cfg);
        let a = simulate_table(&cfg, &schedule);
        let b = simulate_table(&cfg, &schedule);
        assert_eq!(a.table.to_records(), b.table.to_records());
        assert!(!a.table.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = small_cfg();
        let schedule = base_schedule(&cfg);
        let a = simulate_table(&cfg, &schedule);
        let b = simulate_table(&SimConfig { seed: 1234, ..cfg.clone() }, &schedule);
        assert_ne!(a.table.to_records(), b.table.to_records());
    }

    #[test]
    fn worker_counts_agree() {
        let cfg = small_cfg();
        let schedule = base_schedule(&cfg);
        let serial = simulate_table_with_threads(&cfg, &schedule, 1);
        for threads in [2, 8] {
            let parallel = simulate_table_with_threads(&cfg, &schedule, threads);
            assert_eq!(
                serial.table.rows(),
                parallel.table.rows(),
                "rows differ at {threads} workers"
            );
            assert_eq!(serial.table.to_records(), parallel.table.to_records());
        }
    }

    #[test]
    fn interned_table_undercuts_owned_records() {
        let cfg = small_cfg();
        let table = simulate_table(&cfg, &base_schedule(&cfg)).table;
        // The same rows as owned records: each struct plus its strings.
        let records_heap: usize = table
            .iter_records()
            .map(|r| {
                std::mem::size_of_val(&r)
                    + r.useragent.capacity()
                    + r.asn.capacity()
                    + r.sitename.capacity()
                    + r.uri_path.capacity()
                    + r.referer.as_ref().map_or(0, String::capacity)
            })
            .sum();
        assert!(
            table.heap_bytes() < records_heap,
            "table {}B should undercut records {records_heap}B",
            table.heap_bytes(),
        );
    }

    #[test]
    fn records_sorted_and_in_window() {
        let cfg = small_cfg();
        let schedule = base_schedule(&cfg);
        let rows = simulate_table(&cfg, &schedule).table.into_parts().1;
        assert!(rows.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        // Sessions may start just before the horizon and run slightly past
        // it; allow one hour of slack.
        let hard_end = cfg.end().plus_secs(3600 * 2);
        assert!(rows.iter().all(|r| r.timestamp >= cfg.start && r.timestamp < hard_end));
    }

    #[test]
    fn heavy_bots_dominate() {
        let cfg = SimConfig { days: 4, ..small_cfg() };
        let schedule = base_schedule(&cfg);
        let table = simulate_table(&cfg, &schedule).table;
        let count = |needle: &str| count_rows(&table, |_, ua| ua.contains(needle));
        assert!(count("YisouSpider") > count("GPTBot"), "Table 3 ordering");
        assert!(count("Applebot") > count("ClaudeBot"));
    }

    #[test]
    fn robots_checks_present_for_checking_bots() {
        let cfg = SimConfig { days: 4, scale: 0.05, ..small_cfg() };
        let schedule = base_schedule(&cfg);
        let table = simulate_table(&cfg, &schedule).table;
        let robots_by_gpt =
            count_rows(&table, |r, ua| ua.contains("GPTBot") && table.is_robots_fetch(r));
        assert!(robots_by_gpt > 0, "GPTBot checks robots.txt every 24h");
        // Never-checkers never fetch it.
        let robots_by_axios =
            count_rows(&table, |r, ua| ua.starts_with("axios") && table.is_robots_fetch(r));
        assert_eq!(robots_by_axios, 0);
    }

    /// Experiment-site page fetches (robots.txt excluded) by agents
    /// containing `needle`, with v3 (disallow-all) live all horizon.
    fn pages_under_disallow_all(needle: &str) -> usize {
        let cfg = SimConfig {
            days: 6,
            scale: 0.3,
            sites: 3,
            spoofing: false,
            anon_traffic: false,
            ..small_cfg()
        };
        let schedule = PhaseSchedule {
            phases: vec![crate::phases::Phase {
                version: PolicyVersion::V3DisallowAll,
                start: cfg.start,
                end: cfg.end().plus_secs(86_400 * 2),
            }],
            experiment_site: EXPERIMENT_SITE,
        };
        let table = simulate_table(&cfg, &schedule).table;
        count_rows(&table, |r, ua| {
            ua.contains(needle)
                && table.resolve(r.sitename) == "site-00.example.edu"
                && !table.is_robots_fetch(r)
        })
    }

    #[test]
    fn disallow_all_suppresses_obedient_bots() {
        // Whole horizon under v3: ChatGPT-User (disallow compliance 1.0)
        // must fetch nothing but robots.txt; HeadlessChrome keeps crawling.
        assert_eq!(
            pages_under_disallow_all("ChatGPT-User"),
            0,
            "fully obedient bot fetched pages under disallow-all"
        );
        assert!(
            pages_under_disallow_all("HeadlessChrome") > 0,
            "headless browser should ignore disallow-all"
        );
    }

    #[test]
    fn exempt_bots_keep_crawling_under_v3() {
        assert!(
            pages_under_disallow_all("Googlebot/2.1") > 0,
            "exempt Googlebot must continue crawling"
        );
    }

    #[test]
    fn ground_truth_populated() {
        let cfg = small_cfg();
        let out = simulate_table(&cfg, &base_schedule(&cfg));
        assert!(out.truth.behaviors.len() >= 120);
        assert!(out.truth.exempt.iter().any(|n| n == "Googlebot"));
        assert!(!out.truth.spoofed_requests.is_empty());
    }

    #[test]
    fn asn_matches_home_network() {
        let cfg = small_cfg();
        let table =
            simulate_table(&SimConfig { spoofing: false, ..cfg.clone() }, &base_schedule(&cfg))
                .table;
        for r in table.rows().iter().filter(|r| table.resolve(r.useragent).contains("ClaudeBot")) {
            assert_eq!(table.resolve(r.asn), "AMAZON-02");
        }
    }

    #[test]
    fn scale_scales_volume() {
        let cfg1 = SimConfig { scale: 0.02, anon_traffic: false, spoofing: false, ..small_cfg() };
        let cfg2 = SimConfig { scale: 0.08, ..cfg1.clone() };
        let schedule = base_schedule(&cfg1);
        let n1 = simulate_table(&cfg1, &schedule).table.len() as f64;
        let n2 = simulate_table(&cfg2, &schedule).table.len() as f64;
        let ratio = n2 / n1;
        assert!(ratio > 2.0 && ratio < 8.0, "4x scale gave ratio {ratio}");
    }

    #[test]
    fn worker_threads_env_parsing() {
        // Only asserts the default is sane; the env override is covered
        // by the explicit-thread-count API used everywhere in tests.
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn worker_threads_default_never_exceeds_hardware() {
        // The BENCH regression this pins: defaulting to 8 workers on a
        // 1-core container was slower than running serial.
        assert_eq!(worker_threads_from(None, 1), 1);
        assert_eq!(worker_threads_from(None, 4), 4);
        assert_eq!(worker_threads_from(None, 0), 1); // defensive floor
    }

    #[test]
    fn worker_threads_explicit_setting_wins() {
        // An explicit positive BOTSCOPE_THREADS wins even beyond the
        // hardware (byte-identity makes oversubscription safe).
        assert_eq!(worker_threads_from(Some("8"), 1), 8);
        assert_eq!(worker_threads_from(Some(" 2 "), 16), 2);
        // Zero, junk, and empty fall back to the hardware default.
        assert_eq!(worker_threads_from(Some("0"), 3), 3);
        assert_eq!(worker_threads_from(Some("lots"), 3), 3);
        assert_eq!(worker_threads_from(Some(""), 3), 3);
        assert_eq!(worker_threads_from(Some("-1"), 3), 3);
    }

    #[test]
    fn run_indexed_returns_index_order_at_any_worker_count() {
        // Uneven work: every seventh item spins far longer than the rest,
        // so completion order differs from index order under a pool.
        let work = |i: usize| -> (usize, u64) {
            let spins = if i.is_multiple_of(7) { 20_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(k));
            }
            (i, acc)
        };
        for n in [0, 1, 2, 257] {
            let serial: Vec<(usize, u64)> = (0..n).map(work).collect();
            for threads in [1, 2, 8] {
                let pooled = run_indexed(n, threads, work);
                assert_eq!(pooled, serial, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn streamed_simulate_matches_materialized() {
        use botscope_weblog::sink::TableSink;

        let cfg = small_cfg();
        let schedule = base_schedule(&cfg);
        let reference = simulate_table_with_threads(&cfg, &schedule, 1);
        // Tiny runs force every unit to spill multiple times.
        let opts = StreamOptions { rows_per_run: 64, spill_dir: None };
        for threads in [1, 2, 8] {
            let mut sink = TableSink::new();
            let out = simulate_stream_with_threads(
                &cfg,
                &schedule,
                threads,
                &opts,
                &mut [&mut sink as &mut dyn RowSink],
            )
            .expect("streaming simulate");
            assert_eq!(out.rows as usize, reference.table.len(), "{threads} workers");
            assert_eq!(sink.table.to_records(), reference.table.to_records(), "{threads} workers");
            assert_eq!(out.truth.spoofed_requests, reference.truth.spoofed_requests);
            assert_eq!(out.truth.behaviors, reference.truth.behaviors);
            assert_eq!(out.truth.exempt, reference.truth.exempt);
        }
    }

    #[test]
    fn streamed_simulate_cleans_up_spill_files() {
        let cfg = SimConfig { days: 1, ..small_cfg() };
        let schedule = base_schedule(&cfg);
        let dir = std::env::temp_dir().join(format!("botscope-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = StreamOptions { rows_per_run: 128, spill_dir: Some(dir.clone()) };
        let mut sink = botscope_weblog::sink::CountingSink::default();
        simulate_stream_with_threads(
            &cfg,
            &schedule,
            1,
            &opts,
            &mut [&mut sink as &mut dyn RowSink],
        )
        .expect("streaming simulate");
        assert!(sink.rows > 0);
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(leftovers.is_empty(), "spill files not cleaned: {leftovers:?}");
        std::fs::remove_dir(&dir).unwrap();
    }
}
