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
//! a **generation unit**, and one loop runs the units over the
//! [`run_indexed`] worker pool, each emitting interned rows into its own
//! writer. The two entry points differ only in that writer and in the
//! assembly. [`simulate_table_oracle`] keeps each unit's rows as a
//! [`LogTable`] shard, absorbs the shards in unit order (each freed once
//! its rows are copied) and orders the result with
//! [`LogTable::sort_canonical`]: in place, it deals the rows into time
//! buckets of a few thousand, then orders each bucket while it sits in
//! cache, sorting one key per row and moving each row once.
//! [`simulate_stream_with_threads`] has
//! each unit spill canonically sorted binary runs into one shared,
//! already-unlinked spill file and k-way merges them ([`merge_runs`])
//! into row sinks; from 2 workers on, the merge runs on one helper
//! thread while the sinks encode on the calling one. Both deliver the
//! same rows in the same order, byte-identical for a fixed seed no
//! matter how many workers run ([`worker_threads`] reads
//! `BOTSCOPE_THREADS`, defaulting to the machine's available
//! parallelism). A unit interns each page path the first time it
//! emits the page and indexes it after that.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use botscope_asn::ip_for;
use botscope_study::{run_indexed, worker_threads, PhaseSchedule, PolicyCorpus, EXPERIMENT_SITE};
use botscope_weblog::colfmt;
use botscope_weblog::intern::{StringInterner, Sym};
use botscope_weblog::iphash::IpHasher;
use botscope_weblog::sink::{RowSink, TargetError};
use botscope_weblog::table::{LogTable, RecordRow};
use botscope_weblog::time::Timestamp;
use botscope_weblog::{merge_runs, MergeRun};

use crate::behavior::{BotBehavior, RobotsCheckPolicy};
use crate::belief::{LensTable, PolicyOracle, ScheduleOracle};
use crate::config::SimConfig;
use crate::fleet::{build_fleet, SimBot};
use crate::site::{Page, PageKind, Site, DIRECTORY_SITE};

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

/// The one spill file of a streamed run, shared by every unit's writer
/// and every merge reader. It is unlinked as soon as it is created, so
/// the kernel frees it when the last `Arc` drops: a run that succeeds,
/// fails, panics or is killed leaves nothing behind. Each run reserves
/// its exact byte range with one `fetch_add` and is written and read
/// back with positional I/O, so threads share no file offset and take
/// no lock. Where a run lands depends on thread timing; nothing else
/// does.
struct SpillFile {
    file: File,
    /// Where the file was created, for error messages.
    path: PathBuf,
    /// Bytes reserved so far.
    end: AtomicU64,
}

impl SpillFile {
    /// Create a uniquely named file in `dir` and unlink it at once. The
    /// pid plus a process-wide counter (not time or randomness) keep
    /// concurrent streams apart.
    fn create(dir: &Path) -> io::Result<Arc<SpillFile>> {
        static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("botscope-spill-{}-{n}", std::process::id()));
        let named = |e: io::Error, verb: &str| {
            TargetError::wrap(&e, format_args!("{verb} spill file {}", path.display()))
        };
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| named(e, "create"))?;
        std::fs::remove_file(&path).map_err(|e| named(e, "unlink"))?;
        Ok(Arc::new(SpillFile { file, path, end: AtomicU64::new(0) }))
    }

    /// Write `run` as BSCL ([`colfmt::write_table`]) into a freshly
    /// reserved range and return that range.
    fn write_run(self: &Arc<SpillFile>, run: &LogTable) -> io::Result<SpillRange> {
        let len = colfmt::table_bytes(run);
        // Relaxed: the counter only hands out disjoint ranges; the merge
        // reads them after `generate` has joined every writer.
        let start = self.end.fetch_add(len, Ordering::Relaxed);
        let mut range = SpillRange { spill: Arc::clone(self), pos: start, end: start + len };
        colfmt::write_table(&mut range, run).map_err(|e| {
            TargetError::wrap(&e, format_args!("write spill file {}", self.path.display()))
        })?;
        if range.pos != range.end {
            return Err(io::Error::other(format!(
                "spill run wrote {} bytes into a range of {len}",
                range.pos - start
            )));
        }
        Ok(SpillRange { pos: start, ..range })
    }
}

/// A byte range of the [`SpillFile`] with a cursor: written by the run
/// that reserved it, then read back by one merge run. Neither direction
/// can cross `end`, so a run never touches its neighbours' bytes.
struct SpillRange {
    spill: Arc<SpillFile>,
    pos: u64,
    end: u64,
}

impl SpillRange {
    fn left(&self, want: usize) -> usize {
        want.min(usize::try_from(self.end - self.pos).unwrap_or(usize::MAX))
    }
}

impl Write for SpillRange {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left(buf.len()) < buf.len() {
            return Err(io::Error::other("spill run overflows its reserved range"));
        }
        let n = self.spill.file.write_at(buf, self.pos)?;
        self.pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for SpillRange {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let want = self.left(buf.len());
        let n = self.spill.file.read_at(&mut buf[..want], self.pos).map_err(|e| {
            TargetError::wrap(&e, format_args!("read spill file {}", self.spill.path.display()))
        })?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// Disk-spill state of a streaming [`ShardWriter`]: the shared spill
/// file, the ranges of this unit's runs in emission order, and the
/// first write error (surfaced at [`ShardWriter::finish_spill`]
/// because the emit path is infallible by design).
struct SpillState {
    file: Arc<SpillFile>,
    rows_per_run: usize,
    runs: Vec<SpillRange>,
    err: Option<io::Error>,
}

/// Per-unit emit context: the shard table plus the symbols that are
/// fixed for the unit (interned once, not once per row).
pub(crate) struct ShardWriter {
    pub(crate) table: LogTable,
    robots_path: Sym,
    site_syms: Vec<Sym>,
    /// Per site, per page, the page's path symbol once this unit has
    /// emitted the page.
    page_syms: Vec<Vec<Option<Sym>>>,
    spill: Option<SpillState>,
}

impl ShardWriter {
    pub(crate) fn new(world: &World<'_>) -> ShardWriter {
        let mut table = LogTable::new();
        let robots_path = table.intern("/robots.txt");
        let site_syms = world.estate.iter().map(|s| table.intern(&s.name)).collect();
        let page_syms = world.estate.iter().map(|s| vec![None; s.pages.len()]).collect();
        ShardWriter { table, robots_path, site_syms, page_syms, spill: None }
    }

    /// A writer that spills every `rows_per_run` rows as a canonically
    /// sorted binary run into `file`, keeping memory bounded by one run
    /// plus the unit's dictionary.
    fn new_spilling(world: &World<'_>, file: Arc<SpillFile>, rows_per_run: usize) -> ShardWriter {
        assert!(rows_per_run >= 1, "rows_per_run must be positive");
        let mut writer = ShardWriter::new(world);
        writer.spill = Some(SpillState { file, rows_per_run, runs: Vec::new(), err: None });
        writer
    }

    /// Sort the buffered rows canonically and write them as one binary
    /// run into the spill file. The interner survives intact: the
    /// generators hold [`Sym`]s (unit UA/ASN, site names, referer
    /// templates) across the whole unit, so only the rows may drain.
    fn flush_run(&mut self) {
        let spill = match self.spill.as_mut() {
            Some(spill) if spill.err.is_none() && !self.table.is_empty() => spill,
            _ => return,
        };
        let mut run = std::mem::take(&mut self.table);
        run.sort_canonical();
        match spill.file.write_run(&run) {
            Ok(range) => spill.runs.push(range),
            Err(e) => spill.err = Some(e),
        }
        let (interner, mut rows) = run.into_parts();
        rows.clear();
        self.table = LogTable::from_parts(interner, rows);
    }

    /// Flush the final run and hand back the unit's full dictionary (an
    /// append-only superset of every run's) plus the run ranges in
    /// emission order.
    fn finish_spill(mut self) -> io::Result<(Arc<StringInterner>, Vec<SpillRange>)> {
        self.flush_run();
        let spill = self.spill.take().expect("finish_spill requires a spilling writer");
        if let Some(err) = spill.err {
            return Err(err);
        }
        let (interner, _) = self.table.into_parts();
        Ok((Arc::new(interner), spill.runs))
    }

    pub(crate) fn site_sym(&self, index: usize) -> Sym {
        self.site_syms[index]
    }

    /// The symbol of `/robots.txt`.
    pub(crate) fn robots_path(&self) -> Sym {
        self.robots_path
    }

    /// The path symbol of `page` of site `site_index`. The path is
    /// interned the first time the unit asks, so the dictionary keeps
    /// first-emit order, and every later row costs an index, not a hash.
    pub(crate) fn page_path(&mut self, site_index: usize, page: &Page) -> Sym {
        let slot = &mut self.page_syms[site_index][page.index];
        *slot.get_or_insert_with(|| self.table.intern(&page.path))
    }

    /// Emit one row.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn emit(
        &mut self,
        ua: Sym,
        asn: Sym,
        site: Sym,
        ip_hash: u64,
        uri_path: Sym,
        bytes: u64,
        status: u16,
        referer: Option<Sym>,
        at: Timestamp,
    ) {
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

/// The one generation loop behind both entry points: build the shared
/// [`World`], run every unit — one per fleet bot, then anonymous
/// traffic, then spoofing — over the [`run_indexed`] pool into the
/// writer `open` gives it, and hand each finished writer to `close`.
/// Returns `close`'s results in unit order (the serial emission
/// sequence) and the planted ground truth.
fn generate<O: PolicyOracle, U: Send>(
    cfg: &SimConfig,
    oracle: &O,
    threads: usize,
    open: impl Fn(&World<'_>, usize) -> ShardWriter + Sync,
    close: impl Fn(ShardWriter) -> U + Sync,
) -> (Vec<U>, GroundTruth) {
    cfg.assert_valid();
    assert!(threads >= 1, "at least one worker required");
    let obs = botscope_obs::global();
    let gen_span = obs.phase("simnet_generate");
    let estate = Site::estate(cfg.sites);
    let fleet = build_fleet();
    let hasher = IpHasher::from_seed(cfg.seed);
    let world = World::new(cfg, &estate, &hasher);

    let n_units = fleet.len() + 2;
    let units = run_indexed(n_units, threads, |unit| {
        let mut writer = open(&world, unit);
        let mut planted = BTreeMap::new();
        if unit < fleet.len() {
            let mut rng = StdRng::seed_from_u64(child_seed(cfg.seed, unit as u64));
            simulate_bot(&world, oracle, unit, &fleet[unit], &mut rng, &mut writer);
        } else if unit == fleet.len() {
            if cfg.anon_traffic {
                crate::anon::generate(&world, &mut writer);
            }
        } else if cfg.spoofing {
            planted = crate::spoof::generate(&world, &fleet, &mut writer);
        }
        (close(writer), planted)
    });
    drop(gen_span);
    obs.counter("simnet_units_total").add(n_units as u64);

    let mut truth = GroundTruth::default();
    let units = units
        .into_iter()
        .map(|(out, planted)| {
            for (bot, count) in planted {
                *truth.spoofed_requests.entry(bot).or_default() += count;
            }
            out
        })
        .collect();
    for bot in &fleet {
        truth.behaviors.insert(bot.spec.canonical.to_string(), bot.behavior.clone());
        if bot.exempt {
            truth.exempt.push(bot.spec.canonical.to_string());
        }
    }
    (units, truth)
}

/// [`simulate_table_with_threads`] with an explicit [`PolicyOracle`]:
/// every fleet bot consults `oracle` for the policy it *believes* is
/// live instead of reading the schedule directly. With
/// [`ScheduleOracle`] this is byte-identical to the schedule-driven
/// path; with a monitored [`botscope_study::BeliefAtlas`] it is the
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
    let (shards, truth) =
        generate(cfg, oracle, threads, |world, _| ShardWriter::new(world), |w| w.table);
    let obs = botscope_obs::global();
    let total_rows: usize = shards.iter().map(LogTable::len).sum();
    obs.counter("simnet_rows_total").add(total_rows as u64);
    let merge_span = obs.phase("simnet_absorb_sort");
    let mut table = LogTable::with_capacity(total_rows, 1024);
    // Shards come in unit order, so the canonical sort sees the exact
    // serial emission sequence; each is freed as soon as it is
    // absorbed, so the rows are never held twice.
    for shard in shards {
        table.absorb(&shard);
    }
    table.sort_canonical();
    drop(merge_span);
    SimTableOutput { table, truth }
}

/// Tuning for the disk-spilling streaming generator.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Rows each worker buffers before spilling a sorted run to disk.
    /// The default (2^16 rows ≈ 3 MB of row storage per in-flight
    /// unit) keeps per-worker memory flat at any simulation scale.
    pub rows_per_run: usize,
    /// Directory for the spill file, created if missing. `None` uses
    /// the system temp dir (`TMPDIR`). The one spill file of a stream
    /// is unlinked as soon as it is created, so the directory never
    /// lists it, and its space is freed when the stream ends however
    /// it ends.
    pub spill_dir: Option<PathBuf>,
}

impl Default for StreamOptions {
    fn default() -> StreamOptions {
        StreamOptions { rows_per_run: 1 << 16, spill_dir: None }
    }
}

/// The streaming generator's output: what was planted plus how many
/// rows went through the sinks. The rows themselves never materialize —
/// they live as sorted runs in one unlinked spill file until the merge
/// streams them out.
#[derive(Debug, Clone, Default)]
pub struct SimStreamOutput {
    /// What was planted.
    pub truth: GroundTruth,
    /// Rows delivered to every sink, in canonical order.
    pub rows: u64,
}

/// Run the generator straight into row sinks with bounded memory, on
/// `threads` workers: each unit spills canonically sorted binary runs
/// into one spill file, unlinked as soon as it is opened, and one
/// k-way merge reads the runs back by byte range and streams the
/// global canonical order into `sinks` without ever materializing the
/// table. At 2 or more `threads` the merge runs on a helper thread and
/// the sinks on this one ([`merge_runs`]). Output bytes are identical
/// to writing [`simulate_table`]'s result, at any worker count. A spill
/// file that cannot be created or written fails with an error naming it
/// ([`TargetError`]).
pub fn simulate_stream_with_threads(
    cfg: &SimConfig,
    schedule: &PhaseSchedule,
    threads: usize,
    opts: &StreamOptions,
    sinks: &mut [&mut dyn RowSink],
) -> io::Result<SimStreamOutput> {
    // An invalid config panics before anything touches the disk.
    cfg.assert_valid();
    assert!(opts.rows_per_run >= 1, "rows_per_run must be positive");

    let spill = match &opts.spill_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| {
                TargetError::wrap(&e, format_args!("create spill directory {}", dir.display()))
            })?;
            SpillFile::create(dir)?
        }
        None => SpillFile::create(&std::env::temp_dir())?,
    };

    let (units, truth) = generate(
        cfg,
        &ScheduleOracle { schedule },
        threads,
        |world, _| ShardWriter::new_spilling(world, Arc::clone(&spill), opts.rows_per_run),
        ShardWriter::finish_spill,
    );

    // Runs enter the merge in (unit, run) order: a unit's runs are
    // consecutive emission-position blocks, so this global order makes
    // the merge byte-identical to concatenate-in-unit-order + stable
    // sort — i.e. to the materialized path.
    let obs = botscope_obs::global();
    let merge_span = obs.phase("simnet_spill_merge");
    let merged: io::Result<u64> = (|| {
        let mut runs: Vec<MergeRun> = Vec::new();
        for unit in units {
            let (interner, ranges) = unit?;
            for range in ranges {
                // One buffer per run, all open at once: 8 KiB holds 178
                // rows, and the reader decodes them in place.
                let reader = BufReader::with_capacity(8 << 10, range);
                // Raw mode: spilled runs preserve the unit interner's ids
                // (`write_table`), so readers need no per-run dictionary
                // copy — merge memory stays one dictionary per unit, not
                // one per run.
                let bin = colfmt::BinReader::new_raw(reader)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                runs.push(MergeRun::from_sorted_stream(interner.clone(), Box::new(bin)));
            }
        }
        obs.counter("simnet_spill_runs_total").add(runs.len() as u64);
        // From 2 workers on, the run decoding and the heap run on one
        // helper thread, handing rows over in batches, while the sinks
        // encode on this one.
        merge_runs(runs, threads, sinks)
    })();
    drop(merge_span);
    let rows = merged?;
    obs.counter("simnet_rows_total").add(rows);
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
            out.emit(ua, asn, site, ip_hash, out.robots_path(), 430, 200, None, now);
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
            out.emit(ua, asn, site, ip_hash, out.robots_path(), 430, 200, None, now);
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
                out.emit(ua, asn, site, ip_hash, out.robots_path(), 430, 200, None, now);
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
        let path = out.page_path(site_index, page);
        out.emit(ua, asn, site, ip_hash, path, bytes, status, None, now);
    }
}

/// Crawlable-page pool of a site, for the anon/spoof generators.
pub(crate) fn crawlable_pool<'w>(world: &'w World<'_>, site_index: usize) -> &'w [&'w Page] {
    &world.pools[site_index].crawlable
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_study::{Phase, PolicyVersion};

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
            phases: vec![Phase {
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

    /// Counts the rows it gets, lists `dir` when the first one arrives,
    /// and fails at row `fail_at` if set.
    struct DirProbe {
        dir: PathBuf,
        listed: Option<Vec<PathBuf>>,
        rows: u64,
        fail_at: Option<u64>,
    }

    impl RowSink for DirProbe {
        fn write_row(&mut self, _: &RecordRow, _: &StringInterner) -> io::Result<()> {
            if self.listed.is_none() {
                let entries = std::fs::read_dir(&self.dir).unwrap();
                self.listed = Some(entries.map(|e| e.unwrap().path()).collect());
            }
            self.rows += 1;
            if Some(self.rows) == self.fail_at {
                return Err(io::Error::other("sink full"));
            }
            Ok(())
        }
    }

    #[test]
    fn spill_dir_stays_empty_during_the_merge_and_after_a_failed_sink() {
        let cfg = SimConfig { days: 1, ..small_cfg() };
        let schedule = base_schedule(&cfg);
        for threads in [1, 2] {
            for fail_at in [None, Some(100)] {
                let dir = std::env::temp_dir().join(format!(
                    "botscope-spill-probe-{}-{threads}-{}",
                    std::process::id(),
                    fail_at.is_some()
                ));
                let opts = StreamOptions { rows_per_run: 128, spill_dir: Some(dir.clone()) };
                let mut probe = DirProbe { dir: dir.clone(), listed: None, rows: 0, fail_at };
                let out = simulate_stream_with_threads(
                    &cfg,
                    &schedule,
                    threads,
                    &opts,
                    &mut [&mut probe as &mut dyn RowSink],
                );
                let case = format!("{threads} workers, fail at {fail_at:?}");
                match fail_at {
                    None => assert_eq!(out.expect(&case).rows, probe.rows, "{case}"),
                    Some(at) => {
                        assert_eq!(out.unwrap_err().to_string(), "sink full", "{case}");
                        assert_eq!(probe.rows, at, "{case}");
                    }
                }
                assert_eq!(probe.listed, Some(Vec::new()), "{case}: spill file listed mid-merge");
                let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
                assert!(leftovers.is_empty(), "{case}: {leftovers:?}");
                std::fs::remove_dir(&dir).unwrap();
            }
        }
    }

    #[test]
    fn spill_ranges_keep_to_their_reservation() {
        let spill = SpillFile::create(&std::env::temp_dir()).unwrap();
        let table = LogTable::from_records(&[botscope_weblog::AccessRecord {
            useragent: "bot".into(),
            timestamp: Timestamp::from_unix(1),
            ip_hash: 1,
            asn: "AS1".into(),
            sitename: "site".into(),
            uri_path: "/".into(),
            status: 200,
            bytes: 1,
            referer: None,
        }]);
        let first = spill.write_run(&table).unwrap();
        let second = spill.write_run(&table).unwrap();
        assert_eq!((first.pos, first.end), (0, colfmt::table_bytes(&table)));
        assert_eq!((second.pos, second.end), (first.end, 2 * first.end));
        // Each range reads back exactly its own run.
        for range in [first, second] {
            let back = colfmt::read_table(BufReader::new(range)).unwrap();
            assert_eq!(back.to_records(), table.to_records());
        }
        // A write past the reserved end fails instead of clobbering the
        // next run.
        let mut tight = SpillRange { spill: Arc::clone(&spill), pos: 0, end: 4 };
        assert!(tight.write_all(b"12345").is_err());
        assert!(tight.write_all(b"1234").is_ok());
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
