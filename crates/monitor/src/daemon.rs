//! The monitoring daemon: an event-driven fetch scheduler over a
//! virtual clock.
//!
//! One *fetch agent* runs per (bot, site). It holds only freshness
//! state — its last fetch time against a TTL sampled from the paper's
//! observed 12 h–never re-check spectrum (§5.1, Figure 10) — and the
//! policy version it last adopted. It fetches the site's robots.txt
//! through the [`VirtualTransport`], believes each outcome per RFC 9309
//! ([`BelievedPolicy`]), backs off exponentially on `ServerError`/
//! `NetworkError`, and detects served-policy swaps (the transitions
//! [`crate::transport::ServerModel`] scripts), which are digested
//! through `robotstxt::diff` into [`ChangeDigest`]s.
//!
//! **Scheduling.** Each agent's due times sit in a binary-heap event
//! queue keyed `(time, agent)`. The queue is sharded: agents are split
//! into fixed-size chunks (the chunk grid is independent of the worker
//! count), chunks are processed by the `run_indexed` worker pool, and
//! each chunk records either its [`FetchEventLog`] (sorted, then k-way
//! merged with the other chunks' logs into row sinks — the one ordering
//! path, see [`MonitorRun::stream`]) or its agents' belief timelines (moved
//! into a [`BeliefAtlas`]). Because every agent stream derives from
//! `child_seed(seed, agent)` and the transport is a pure function of
//! `(site, time, agent)`, output is byte-identical for a fixed seed at
//! any worker count.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use botscope_asn::ip_for;
use botscope_robotstxt::analysis::{classify_change, ChangeClass};
use botscope_robotstxt::diff::{diff, summarize, PolicyChange};
use botscope_robotstxt::fetch::FetchOutcome;
use botscope_simnet::child_seed;
use botscope_simnet::fleet::{build_fleet, SimBot};
use botscope_study::{
    run_indexed, worker_threads, BeliefAtlas, BeliefTimeline, BelievedPolicy, PolicyVersion,
};
use botscope_weblog::fetchlog::FetchEventLog;
use botscope_weblog::intern::Sym;
use botscope_weblog::iphash::IpHasher;
use botscope_weblog::sink::{RowSink, TableSink};
use botscope_weblog::table::LogTable;
use botscope_weblog::time::Timestamp;
use botscope_weblog::{merge_runs, MergeRun};

use crate::scenario::{build_estate, ScenarioKind};
use crate::transport::{Validators, VirtualTransport};

/// TTL sentinel: fetch once, never re-fetch.
pub const NEVER: u64 = u64::MAX;

/// Distinguishes per-agent streams from per-site scenario streams.
const AGENT_STREAM: u64 = 0xA6E7_0000_0000_0000;

/// Agents per scheduler chunk: a pure function of the agent count (it
/// must NOT depend on the worker count) so shard boundaries — and
/// therefore the merged output — are identical at any
/// `BOTSCOPE_THREADS`. Small estates still split into several chunks so
/// the parallel merge path is always exercised.
fn chunk_agents(n_agents: usize) -> usize {
    (n_agents / 64).clamp(16, 4096)
}

/// First retry delay after a failed fetch; doubles per consecutive
/// failure up to `300 << 7` = 38 400 s, additionally capped by the
/// agent's TTL and by 12 h.
const BACKOFF_BASE_SECS: u64 = 300;

/// How each agent's re-check TTL is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TtlPolicy {
    /// Sample from the paper's observed spectrum: 12 h/24 h/48 h/72 h/
    /// 168 h/never with weights 5/20/15/20/20/20 %.
    Spectrum,
    /// Every agent uses this many hours.
    FixedHours(u64),
}

impl TtlPolicy {
    /// Parse a CLI token: `spectrum` or an hour count.
    pub fn parse(s: &str) -> Option<TtlPolicy> {
        if s == "spectrum" {
            return Some(TtlPolicy::Spectrum);
        }
        s.parse::<u64>().ok().filter(|&h| h >= 1).map(TtlPolicy::FixedHours)
    }
}

/// (hours, percent weight); `None` hours = never re-fetch.
const TTL_SPECTRUM: [(Option<u64>, u32); 6] =
    [(Some(12), 5), (Some(24), 20), (Some(48), 15), (Some(72), 20), (Some(168), 20), (None, 20)];

fn sample_ttl_secs(policy: TtlPolicy, rng: &mut StdRng) -> u64 {
    match policy {
        TtlPolicy::FixedHours(h) => h.max(1) * 3600,
        TtlPolicy::Spectrum => {
            let roll = rng.gen_range(0u32..100);
            let mut acc = 0;
            for (hours, weight) in TTL_SPECTRUM {
                acc += weight;
                if roll < acc {
                    return hours.map_or(NEVER, |h| h * 3600);
                }
            }
            unreachable!("spectrum weights sum to 100")
        }
    }
}

/// Monitoring-run parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Master seed; every stream derives from it.
    pub seed: u64,
    /// Estate size (sites to monitor).
    pub sites: usize,
    /// Horizon in simulated days.
    pub days: u64,
    /// First instant.
    pub start: Timestamp,
    /// Number of fleet bots to run agents for (top of the registry by
    /// calibrated daily volume).
    pub bots: usize,
    /// TTL sampling policy.
    pub ttl: TtlPolicy,
    /// Server-side weather.
    pub scenario: ScenarioKind,
    /// Every Nth site deploys the four-phase swap schedule (0 = none).
    pub swap_every: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            seed: 9309,
            sites: 36,
            days: 46,
            start: Timestamp::from_date(2025, 2, 12),
            bots: 6,
            ttl: TtlPolicy::Spectrum,
            scenario: ScenarioKind::Mixed,
            swap_every: 4,
        }
    }
}

impl MonitorConfig {
    /// End of the horizon (exclusive), unix seconds.
    pub fn horizon_end(&self) -> u64 {
        self.start.unix() + self.days * 86_400
    }

    /// Validate invariants; panics on caller logic errors.
    pub fn assert_valid(&self) {
        assert!(self.sites > 0, "no sites to monitor");
        assert!(self.days > 0, "zero-day horizon");
        assert!(self.bots > 0, "no bots to monitor with");
    }
}

/// Aggregate counters of a monitoring run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Fetch agents scheduled.
    pub agents: u64,
    /// Fetch attempts performed (rows emitted).
    pub fetches: u64,
    /// 2xx outcomes.
    pub success: u64,
    /// Subset of `success` that only re-validated an unchanged body —
    /// a conditional request answered `304 Not Modified`, whether the
    /// body sits at the origin or behind a redirect chain.
    pub revalidated: u64,
    /// Body bytes the estate never transferred because conditional
    /// requests were answered `304 Not Modified`.
    pub revalidated_bytes_saved: u64,
    /// Resolved 4xx outcomes (includes redirect-capped chains).
    pub client_errors: u64,
    /// Resolved 5xx outcomes.
    pub server_errors: u64,
    /// Transport-level failures.
    pub network_errors: u64,
    /// Redirect hops followed across all fetches.
    pub redirects_followed: u64,
    /// Chains abandoned at the RFC 9309 five-hop budget.
    pub redirects_capped: u64,
    /// Fetches scheduled by the failure backoff (rather than the TTL).
    pub backoff_retries: u64,
    /// Policy transitions observed by agents (pre-deduplication).
    pub policy_changes_observed: u64,
    /// Summed seeded latency, milliseconds.
    pub latency_ms_sum: u64,
    /// Worst seeded latency, milliseconds.
    pub latency_ms_max: u32,
}

impl MonitorStats {
    fn merge(&mut self, other: &MonitorStats) {
        self.agents += other.agents;
        self.fetches += other.fetches;
        self.success += other.success;
        self.revalidated += other.revalidated;
        self.revalidated_bytes_saved += other.revalidated_bytes_saved;
        self.client_errors += other.client_errors;
        self.server_errors += other.server_errors;
        self.network_errors += other.network_errors;
        self.redirects_followed += other.redirects_followed;
        self.redirects_capped += other.redirects_capped;
        self.backoff_retries += other.backoff_retries;
        self.policy_changes_observed += other.policy_changes_observed;
        self.latency_ms_sum += other.latency_ms_sum;
        self.latency_ms_max = self.latency_ms_max.max(other.latency_ms_max);
    }
}

/// One deduplicated served-policy transition, digested via
/// `robotstxt::diff` over the monitored bots.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeDigest {
    /// Site that swapped its file.
    pub site: String,
    /// Unix second of the first fetch that observed the new file.
    pub at: u64,
    /// Previous version.
    pub from: PolicyVersion,
    /// New version.
    pub to: PolicyVersion,
    /// How many agents observed this transition.
    pub observers: u64,
    /// Probes that flipped allow → deny.
    pub tightened: usize,
    /// Probes that flipped deny → allow.
    pub loosened: usize,
    /// Agents whose crawl delay changed.
    pub delay_changes: usize,
    /// Semantic classification of the transition: cosmetic edits are
    /// decision-equivalent for every agent and path, behavioral ones are
    /// not (proven by `robotstxt::analysis::classify_change`).
    pub class: ChangeClass,
}

/// The daemon's output.
#[derive(Debug, Clone)]
pub struct MonitorOutput {
    /// Every fetch event, canonically sorted, with its interner.
    pub table: LogTable,
    /// Deduplicated policy transitions in (time, site) order.
    pub changes: Vec<ChangeDigest>,
    /// Aggregate counters.
    pub stats: MonitorStats,
    /// End of the monitored horizon (unix seconds) — the recheck
    /// analyses anchor their windows on it.
    pub horizon_end: u64,
    /// Canonical names of the monitored bots.
    pub bots: Vec<String>,
    /// Per-site policy deployment windows (site name → time-ascending
    /// `(version, from, to)` spans clipped to the horizon) — what
    /// Table 7's "checked robots.txt while vN was live" columns are
    /// judged against.
    pub site_windows: BTreeMap<String, Vec<(PolicyVersion, u64, u64)>>,
}

/// The monitored sub-fleet: the `n` highest-volume calibrated bots
/// (deterministic: volume descending, name ascending).
pub fn monitor_fleet(n: usize) -> Vec<SimBot> {
    let mut fleet = build_fleet();
    fleet.sort_by(|a, b| {
        b.behavior
            .daily_hits
            .total_cmp(&a.behavior.daily_hits)
            .then_with(|| a.spec.canonical.cmp(b.spec.canonical))
    });
    fleet.truncate(n.max(1));
    fleet
}

/// One (bot, site) fetch agent. It stores no parsed policy: beliefs
/// are content-addressed as [`BelievedPolicy::Version`].
struct Agent {
    site: u32,
    ttl_secs: u64,
    rng: StdRng,
    /// Unix second of the last fetch, whatever its outcome.
    fetched_at: Option<u64>,
    consecutive_failures: u32,
    /// Version of the last *successful* body — the change-detection
    /// baseline. Deliberately survives error outcomes, so a swap that
    /// happens behind an outage is still detected on recovery.
    last_version: Option<PolicyVersion>,
    /// Whether the agent currently holds `last_version`'s policy (false
    /// after an error left it on AllowAll/DisallowAll). Guards both
    /// revalidation paths: after an error the agent must neither send
    /// validators nor take the same-body shortcut — a success must
    /// re-adopt the body.
    cache_is_policy: bool,
    /// `ETag`/`Last-Modified` of the held body, replayed as a
    /// conditional request while `cache_is_policy` holds.
    validators: Option<Validators>,
}

impl Agent {
    /// Whether the agent's copy is stale at `now`: never fetched, or
    /// fetched at least one TTL ago (expiry itself is stale).
    fn needs_fetch(&self, now: u64) -> bool {
        self.fetched_at.is_none_or(|at| now.saturating_sub(at) >= self.ttl_secs)
    }
}

/// Key of an observed transition: (site, from, to).
type ChangeKey = (u32, u8, u8);

/// What a daemon run records beside its counters and change digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Record {
    /// Every fetch event, merged in canonical order into row sinks
    /// (`monitor`, `audit --estate`).
    FetchLog,
    /// Every agent's believed-policy timeline, assembled into a
    /// [`BeliefAtlas`] (the coupled belief stage).
    Beliefs,
}

/// One chunk's record, in chunk-local agent order.
pub(crate) enum Recorded {
    /// The chunk's fetch log, plus each agent's fixed columns (user
    /// agent, ASN, site, IP hash) interned into it.
    FetchLog { log: FetchEventLog, columns: Vec<(Sym, Sym, Sym, u64)> },
    /// Each agent's belief transitions.
    Beliefs(Vec<BeliefTimeline>),
}

impl Recorded {
    fn into_log(self) -> FetchEventLog {
        match self {
            Recorded::FetchLog { log, .. } => log,
            Recorded::Beliefs(_) => unreachable!("a belief run records no fetch log"),
        }
    }
}

struct Shard {
    record: Recorded,
    stats: MonitorStats,
    /// transition → (first observation time, observers).
    changes: BTreeMap<ChangeKey, (u64, u64)>,
}

/// How a run assigns each agent's re-check TTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TtlSource {
    /// Sample per agent from the run's [`TtlPolicy`] (the monitoring
    /// daemon's default).
    Config,
    /// Derive each agent's TTL from its bot's own
    /// [`botscope_simnet::behavior::RobotsCheckPolicy`] cadence;
    /// never-checking bots schedule no fetches at all and their belief
    /// stays `Unfetched` (coupled mode).
    FleetCadence,
}

/// A fully specified daemon run. The public entry points and the
/// coupled driver both build one of these; everything downstream —
/// chunk grid, scheduling, merging — is shared.
pub(crate) struct DaemonRun<'a> {
    pub(crate) cfg: &'a MonitorConfig,
    pub(crate) fleet: &'a [SimBot],
    pub(crate) transport: &'a VirtualTransport,
    pub(crate) ttl: TtlSource,
    pub(crate) record: Record,
}

/// Run the daemon with [`worker_threads`] workers.
pub fn run(cfg: &MonitorConfig) -> MonitorOutput {
    run_with_threads(cfg, worker_threads())
}

/// [`run`] with an explicit worker count: [`MonitorRun::stream`]'s
/// merged stream collected into a [`LogTable`]. Output is
/// byte-identical for a fixed seed regardless of `threads`.
pub fn run_with_threads(cfg: &MonitorConfig, threads: usize) -> MonitorOutput {
    let run = MonitorRun::new(cfg);
    let mut sink = TableSink::new();
    let summary =
        run.stream(threads, &mut [&mut sink]).expect("collecting rows into a table cannot fail");
    MonitorOutput {
        table: sink.table,
        changes: summary.changes,
        stats: summary.stats,
        horizon_end: summary.horizon_end,
        bots: summary.bots,
        site_windows: run.site_windows(),
    }
}

/// The fetch-log run `cfg` scripts — its monitored fleet over its
/// estate, TTLs sampled from its policy — with the estate built once.
/// A caller whose sinks need each site's deployment windows before the
/// first row (the §5.1 re-check accumulator) reads
/// [`MonitorRun::site_windows`] off the same site models the
/// transport serves, then streams the run.
pub struct MonitorRun<'a> {
    cfg: &'a MonitorConfig,
    fleet: Vec<SimBot>,
    transport: VirtualTransport,
}

impl<'a> MonitorRun<'a> {
    /// Build `cfg`'s fleet and estate. Panics on an invalid config.
    pub fn new(cfg: &'a MonitorConfig) -> MonitorRun<'a> {
        cfg.assert_valid();
        MonitorRun {
            cfg,
            fleet: monitor_fleet(cfg.bots),
            transport: VirtualTransport::new(build_estate(cfg)),
        }
    }

    /// Each site's deployment windows, clipped to the horizon.
    pub fn site_windows(&self) -> BTreeMap<String, Vec<(PolicyVersion, u64, u64)>> {
        let horizon_end = self.cfg.horizon_end();
        (0..self.transport.len())
            .map(|site| self.transport.model(site))
            .map(|model| (model.name.clone(), model.policy.version_windows(horizon_end)))
            .collect()
    }

    /// Run the daemon, streaming every fetch event to `sinks` in the
    /// canonical output order: the one way a fetch log is ordered. The
    /// merged table and its encoded copy never exist, so peak memory is
    /// the chunk logs plus what the sinks keep.
    pub fn stream(
        &self,
        threads: usize,
        sinks: &mut [&mut dyn RowSink],
    ) -> std::io::Result<MonitorSummary> {
        let run = DaemonRun {
            cfg: self.cfg,
            fleet: &self.fleet,
            transport: &self.transport,
            ttl: TtlSource::Config,
            record: Record::FetchLog,
        };
        let (stats, changes, records) = run_daemon(&run, threads);
        merge_log(records, threads, sinks)?;
        Ok(MonitorSummary {
            stats,
            changes,
            horizon_end: self.cfg.horizon_end(),
            bots: fleet_names(&self.fleet),
        })
    }
}

/// Run the chunked scheduler to completion: each chunk's record in
/// chunk-grid order, plus the merged counters and deduplicated
/// transitions (exported to telemetry).
pub(crate) fn run_daemon(
    run: &DaemonRun<'_>,
    threads: usize,
) -> (MonitorStats, Vec<ChangeDigest>, Vec<Recorded>) {
    let obs = botscope_obs::global();
    let mut span = obs.span("monitor_run");
    span.event_range(run.cfg.start.unix(), run.cfg.horizon_end());
    let hasher = IpHasher::from_seed(run.cfg.seed);
    let n_agents = run.cfg.sites * run.fleet.len();
    let chunk_size = chunk_agents(n_agents);
    let shards = {
        let _phase = obs.phase("monitor_agents");
        run_indexed(n_agents.div_ceil(chunk_size), threads, |chunk| {
            let lo = chunk * chunk_size;
            run_agents(run, &hasher, lo, (lo + chunk_size).min(n_agents))
        })
    };
    let mut stats = MonitorStats::default();
    let mut merged_changes: BTreeMap<ChangeKey, (u64, u64)> = BTreeMap::new();
    let mut records = Vec::with_capacity(shards.len());
    for shard in shards {
        stats.merge(&shard.stats);
        for (key, (at, observers)) in shard.changes {
            let entry = merged_changes.entry(key).or_insert((at, 0));
            entry.0 = entry.0.min(at);
            entry.1 += observers;
        }
        records.push(shard.record);
    }
    let changes = digest_changes(run.transport, run.fleet, merged_changes);
    export_telemetry(run.cfg, &stats, &changes);
    (stats, changes, records)
}

/// Move a belief run's per-chunk timelines into a bot-major
/// [`BeliefAtlas`].
pub(crate) fn belief_atlas(run: &DaemonRun<'_>, records: Vec<Recorded>) -> BeliefAtlas {
    let n_bots = run.fleet.len();
    let mut atlas = BeliefAtlas::new(fleet_names(run.fleet), run.cfg.sites);
    let chunk_size = chunk_agents(run.cfg.sites * n_bots);
    for (chunk, record) in records.into_iter().enumerate() {
        let Recorded::Beliefs(timelines) = record else {
            unreachable!("a belief run records beliefs")
        };
        for (local, timeline) in timelines.into_iter().enumerate() {
            let global = chunk * chunk_size + local;
            // Agents are site-major; the atlas is bot-major.
            *atlas.timeline_mut(global % n_bots, global / n_bots) = timeline;
        }
    }
    atlas
}

/// Flush a finished run's aggregate counters into the global telemetry
/// registry. Counters are additive, so repeated runs in one process
/// (test harnesses, the coupled driver) accumulate; the per-scenario
/// change-digest counter keys on the scenario label so mixed workloads
/// stay distinguishable in one exposition.
fn export_telemetry(cfg: &MonitorConfig, stats: &MonitorStats, changes: &[ChangeDigest]) {
    let obs = botscope_obs::global();
    obs.counter("monitor_agents_total").add(stats.agents);
    obs.counter("monitor_fetches_total").add(stats.fetches);
    obs.counter("monitor_fetch_outcomes_total{class=\"2xx\"}").add(stats.success);
    obs.counter("monitor_fetch_outcomes_total{class=\"4xx\"}").add(stats.client_errors);
    obs.counter("monitor_fetch_outcomes_total{class=\"5xx\"}").add(stats.server_errors);
    obs.counter("monitor_fetch_outcomes_total{class=\"network\"}").add(stats.network_errors);
    obs.counter("monitor_cache_revalidations_total").add(stats.revalidated);
    obs.counter("monitor_revalidated_bytes_saved_total").add(stats.revalidated_bytes_saved);
    obs.counter("monitor_redirects_followed_total").add(stats.redirects_followed);
    obs.counter("monitor_redirects_capped_total").add(stats.redirects_capped);
    obs.counter("monitor_backoff_retries_total").add(stats.backoff_retries);
    // Every fetch is scheduled by exactly one of: the agent's first
    // probe, its TTL expiring, or the failure backoff.
    let ttl_expiries = stats.fetches.saturating_sub(stats.agents + stats.backoff_retries);
    obs.counter("monitor_ttl_expiry_fetches_total").add(ttl_expiries);
    obs.counter("monitor_policy_changes_observed_total").add(stats.policy_changes_observed);
    let scenario = cfg.scenario.label();
    obs.counter(&format!("monitor_change_digests_total{{scenario=\"{scenario}\"}}"))
        .add(changes.len() as u64);
    let behavioral = changes.iter().filter(|c| c.class == ChangeClass::Behavioral).count();
    obs.counter(&format!("monitor_behavioral_digests_total{{scenario=\"{scenario}\"}}"))
        .add(behavioral as u64);
}

/// A streamed run's summary: everything [`MonitorOutput`] carries
/// except the table, which went to the sinks row by row (one row per
/// fetch, so `stats.fetches` counts them), and the deployment windows,
/// which [`MonitorRun::site_windows`] gives before the run.
#[derive(Debug, Clone)]
pub struct MonitorSummary {
    /// Aggregate counters.
    pub stats: MonitorStats,
    /// Deduplicated policy transitions in (time, site) order.
    pub changes: Vec<ChangeDigest>,
    /// End of the monitored horizon (unix seconds).
    pub horizon_end: u64,
    /// Canonical names of the monitored bots.
    pub bots: Vec<String>,
}

/// Merge the chunks' fetch logs into `sinks`. Each chunk's log becomes
/// one canonically sorted run (`MergeRun::from_table` sorts stably, so
/// full ties keep push order), and the k-way merge breaks ties on the
/// run index, i.e. the fixed chunk grid: the order is that of a stable
/// canonical sort of the chunk logs concatenated in chunk order, at any
/// worker count. From 2 `threads` on, the merge runs on a helper
/// thread beside the sinks.
fn merge_log(
    records: Vec<Recorded>,
    threads: usize,
    sinks: &mut [&mut dyn RowSink],
) -> std::io::Result<u64> {
    let _phase = botscope_obs::global().phase("monitor_log_assembly");
    let runs = records
        .into_iter()
        .map(|record| MergeRun::from_table(record.into_log().into_table()))
        .collect();
    merge_runs(runs, threads, sinks)
}

/// Canonical names of the monitored bots.
fn fleet_names(fleet: &[SimBot]) -> Vec<String> {
    fleet.iter().map(|b| b.spec.canonical.to_string()).collect()
}

/// Paths probed when digesting a policy transition: one representative
/// of each family the experimental files regulate.
const PROBE_PATHS: [&str; 6] = [
    "/",
    "/news/item-001",
    "/people/person-0001",
    "/page-data/item-001/page-data.json",
    "/secure/admin-0",
    "/404",
];

/// Deduplicate observed transitions and summarize each through
/// `robotstxt::diff` (the 4×4 version matrix is memoized — a 100k-site
/// estate has at most 12 distinct transitions).
fn digest_changes(
    transport: &VirtualTransport,
    fleet: &[SimBot],
    merged: BTreeMap<ChangeKey, (u64, u64)>,
) -> Vec<ChangeDigest> {
    let mut agents: Vec<&str> = fleet.iter().map(|b| b.spec.canonical).collect();
    agents.push("anybot");
    let mut matrix: BTreeMap<(u8, u8), (usize, usize, usize, ChangeClass)> = BTreeMap::new();
    let mut changes: Vec<ChangeDigest> = merged
        .into_iter()
        .map(|((site, from, to), (at, observers))| {
            let (tightened, loosened, delay_changes, class) =
                *matrix.entry((from, to)).or_insert_with(|| {
                    let (from, to) =
                        (PolicyVersion::ALL[from as usize], PolicyVersion::ALL[to as usize]);
                    let corpus = transport.corpus();
                    let probe =
                        diff(corpus.compiled(from), corpus.compiled(to), &agents, &PROBE_PATHS);
                    let (tightened, loosened) = summarize(&probe);
                    let delays = probe
                        .iter()
                        .filter(|c| matches!(c, PolicyChange::CrawlDelayChanged { .. }))
                        .count();
                    (tightened, loosened, delays, classify_change(corpus.doc(from), corpus.doc(to)))
                });
            ChangeDigest {
                site: transport.model(site as usize).name.clone(),
                at,
                from: PolicyVersion::ALL[from as usize],
                to: PolicyVersion::ALL[to as usize],
                observers,
                tightened,
                loosened,
                delay_changes,
                class,
            }
        })
        .collect();
    changes.sort_by(|a, b| (a.at, &a.site, a.from, a.to).cmp(&(b.at, &b.site, b.from, b.to)));
    changes
}

/// Run agents `[lo, hi)` to completion, returning their shard.
fn run_agents(run: &DaemonRun<'_>, hasher: &IpHasher, lo: usize, hi: usize) -> Shard {
    let DaemonRun { cfg, fleet, transport, .. } = *run;
    let n_bots = fleet.len();
    let horizon = cfg.horizon_end();
    let mut record = match run.record {
        Record::FetchLog => {
            Recorded::FetchLog { log: FetchEventLog::new(), columns: Vec::with_capacity(hi - lo) }
        }
        Record::Beliefs => Recorded::Beliefs(Vec::with_capacity(hi - lo)),
    };

    let mut agents: Vec<Agent> = Vec::with_capacity(hi - lo);
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(hi - lo);
    for global in lo..hi {
        let site = global / n_bots;
        let bot = &fleet[global % n_bots];
        let mut rng = StdRng::seed_from_u64(child_seed(cfg.seed, AGENT_STREAM ^ global as u64));
        // `None` = this bot never fetches robots.txt at all: no events
        // are scheduled and its belief stays `Unfetched` forever.
        let ttl_secs = match run.ttl {
            TtlSource::Config => Some(sample_ttl_secs(cfg.ttl, &mut rng)),
            TtlSource::FleetCadence => bot.behavior.robots_check.ttl_secs(),
        };
        // First fetch lands inside one TTL window (a day for the
        // never-refetch cohort) so the estate doesn't fetch in lockstep.
        let first_window = ttl_secs.unwrap_or(NEVER).clamp(1, 86_400);
        let first = cfg.start.unix() + rng.gen_range(0..first_window);
        let ip = ip_for(bot.spec.home_asn, rng.gen_range(0..bot.behavior.ip_pool))
            .unwrap_or_else(|| panic!("unknown home ASN {}", bot.spec.home_asn));
        match &mut record {
            Recorded::FetchLog { log, columns } => columns.push((
                log.intern(&bot.ua_string),
                log.intern(bot.spec.home_asn),
                log.intern(&transport.model(site).name),
                hasher.hash_ipv4(ip),
            )),
            Recorded::Beliefs(timelines) => {
                timelines.push(BeliefTimeline::always(BelievedPolicy::Unfetched));
            }
        }
        let local = agents.len() as u32;
        agents.push(Agent {
            site: site as u32,
            ttl_secs: ttl_secs.unwrap_or(NEVER),
            rng,
            fetched_at: None,
            consecutive_failures: 0,
            last_version: None,
            cache_is_policy: false,
            validators: None,
        });
        if ttl_secs.is_some() && first < horizon {
            queue.push(Reverse((first, local)));
        }
    }

    let mut stats = MonitorStats { agents: (hi - lo) as u64, ..MonitorStats::default() };
    let mut changes: BTreeMap<ChangeKey, (u64, u64)> = BTreeMap::new();

    while let Some(Reverse((now, local))) = queue.pop() {
        debug_assert!(now < horizon, "events past the horizon are never queued");
        let agent = &mut agents[local as usize];
        let global = lo + local as usize;
        // Replay the held body's validators while the agent holds a real
        // policy; after an error outcome the agent needs a full body
        // back, so no conditional request is sent.
        let conditional = if agent.cache_is_policy { agent.validators } else { None };
        let fetch =
            transport.fetch_conditional(agent.site as usize, now, global as u64, conditional);

        if let Recorded::FetchLog { log, columns } = &mut record {
            let (ua, asn, site, ip_hash) = columns[local as usize];
            log.push(
                ua,
                asn,
                site,
                ip_hash,
                fetch.resolved.status,
                fetch.bytes,
                Timestamp::from_unix(now),
            );
        }
        let mut believe = |policy: BelievedPolicy| {
            if let Recorded::Beliefs(timelines) = &mut record {
                timelines[local as usize].record(now, policy);
            }
        };
        stats.fetches += 1;
        stats.redirects_followed += fetch.resolved.hops as u64;
        stats.redirects_capped += fetch.resolved.capped as u64;
        stats.latency_ms_sum += fetch.latency_ms as u64;
        stats.latency_ms_max = stats.latency_ms_max.max(fetch.latency_ms);

        // Every outcome restarts the freshness clock.
        agent.fetched_at = Some(now);
        // The next fetch can never start before the exchange finished.
        let settled = now + 1 + (fetch.latency_ms / 1000) as u64;
        let version = fetch.version;
        let outcome = fetch.resolved.outcome;

        let next = match outcome {
            FetchOutcome::NotModified => {
                // The server honoured the conditional request: the held
                // policy is still current. Refresh, count the transfer
                // that never happened, and carry on — belief is
                // unchanged by construction.
                stats.success += 1;
                stats.revalidated += 1;
                stats.revalidated_bytes_saved += fetch.saved_bytes;
                agent.consecutive_failures = 0;
                debug_assert!(agent.cache_is_policy, "a 304 implies a held policy");
                ttl_next(agent, settled)
            }
            FetchOutcome::Success(_) => {
                stats.success += 1;
                agent.consecutive_failures = 0;
                let version = version.expect("success always carries a version");
                believe(BelievedPolicy::Version(version));
                if agent.last_version == Some(version) && agent.cache_is_policy {
                    // Unchanged body AND the agent still holds its
                    // policy, but the transfer couldn't be elided — the
                    // agent held no validators to present (conditional
                    // requests answer 304 even behind redirect chains,
                    // so this is a defensive fallback).
                    stats.revalidated += 1;
                } else if let Some(previous) = agent.last_version {
                    // A transition this agent actually observed.
                    // Recovering the *same* body after an error is not
                    // one — that path only re-adopts the body.
                    if previous != version {
                        stats.policy_changes_observed += 1;
                        let key = (agent.site, previous.index() as u8, version.index() as u8);
                        let entry = changes.entry(key).or_insert((now, 0));
                        entry.0 = entry.0.min(now);
                        entry.1 += 1;
                    }
                }
                agent.last_version = Some(version);
                agent.cache_is_policy = true;
                agent.validators = fetch.validators;
                ttl_next(agent, settled)
            }
            FetchOutcome::ClientError(_) => {
                stats.client_errors += 1;
                agent.consecutive_failures = 0;
                // Unavailable ⇒ allow all, and the cadence stays TTL-driven.
                agent.cache_is_policy = false;
                believe(BelievedPolicy::AllowAll);
                ttl_next(agent, settled)
            }
            FetchOutcome::ServerError(_) | FetchOutcome::NetworkError => {
                if matches!(outcome, FetchOutcome::ServerError(_)) {
                    stats.server_errors += 1;
                } else {
                    stats.network_errors += 1;
                }
                // Unreachable ⇒ complete disallow until a fetch succeeds,
                // retried under exponential backoff.
                agent.cache_is_policy = false;
                believe(BelievedPolicy::DisallowAll);
                agent.consecutive_failures += 1;
                stats.backoff_retries += 1;
                let shift = (agent.consecutive_failures - 1).min(7);
                let delay = (BACKOFF_BASE_SECS << shift).min(agent.ttl_secs).min(43_200);
                Some(settled + delay + agent.rng.gen_range(0..31))
            }
        };

        if let Some(at) = next {
            if at < horizon {
                debug_assert!(
                    agent.needs_fetch(at) || agent.consecutive_failures > 0,
                    "TTL-scheduled fetches land at or after expiry"
                );
                queue.push(Reverse((at, local)));
            }
        }
    }

    Shard { record, stats, changes }
}

/// The TTL-driven next due time (never for the fetch-once cohort).
fn ttl_next(agent: &mut Agent, settled: u64) -> Option<u64> {
    if agent.ttl_secs == NEVER {
        return None;
    }
    // Schedule exactly at expiry plus a small de-aliasing jitter;
    // `Agent::needs_fetch` is true at the boundary.
    Some(settled - 1 + agent.ttl_secs + agent.rng.gen_range(0..61))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MonitorConfig {
        MonitorConfig { sites: 12, days: 8, bots: 4, ..MonitorConfig::default() }
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let cfg = small_cfg();
        let serial = run_with_threads(&cfg, 1);
        for threads in [2, 8] {
            let parallel = run_with_threads(&cfg, threads);
            assert_eq!(serial.table.rows(), parallel.table.rows(), "{threads} workers");
            assert_eq!(serial.table.to_records(), parallel.table.to_records());
            assert_eq!(serial.stats, parallel.stats);
            assert_eq!(serial.changes, parallel.changes);
        }
    }

    #[test]
    fn deterministic_across_runs_and_seeds_differ() {
        let cfg = small_cfg();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.table.to_records(), b.table.to_records());
        let c = run(&MonitorConfig { seed: 1234, ..cfg });
        assert_ne!(a.table.to_records(), c.table.to_records());
    }

    #[test]
    fn every_row_is_a_robots_fetch_inside_the_horizon() {
        let cfg = small_cfg();
        let out = run(&cfg);
        assert!(!out.table.is_empty());
        let start = cfg.start.unix();
        for record in out.table.iter_records() {
            assert!(record.is_robots_fetch());
            assert!(record.timestamp.unix() >= start);
            assert!(record.timestamp.unix() < out.horizon_end);
        }
        // Rows are canonically time-sorted.
        let rows = out.table.rows();
        assert!(rows.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn monitored_fleet_is_the_high_volume_prefix() {
        let four = monitor_fleet(4);
        assert_eq!(four.len(), 4);
        let all = monitor_fleet(usize::MAX);
        for pair in all.windows(2) {
            assert!(
                pair[0].behavior.daily_hits >= pair[1].behavior.daily_hits,
                "fleet must be volume-sorted"
            );
        }
        // The paper's headline heavy hitter leads.
        assert_eq!(four[0].spec.canonical, "YisouSpider");
    }

    #[test]
    fn swap_sites_produce_change_digests() {
        // All sites swap; long horizon so several transitions land.
        let cfg = MonitorConfig {
            sites: 8,
            days: 46,
            bots: 3,
            swap_every: 1,
            scenario: ScenarioKind::Stable,
            ..MonitorConfig::default()
        };
        let out = run(&cfg);
        assert!(!out.changes.is_empty(), "stable estate with swaps must observe them");
        assert!(out.stats.policy_changes_observed as usize >= out.changes.len());
        for change in &out.changes {
            assert_ne!(change.from, change.to);
            assert!(change.observers >= 1);
            assert!(change.at >= cfg.start.unix() && change.at < out.horizon_end);
            // The paper's gradient only tightens; the restore loosens.
            if change.to == PolicyVersion::Base {
                assert_eq!(change.tightened, 0, "{change:?}");
            } else if change.from == PolicyVersion::Base {
                assert_eq!(change.loosened, 0, "{change:?}");
            }
        }
        // Digests are time-ordered.
        assert!(out.changes.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn stable_estate_sees_no_errors() {
        let cfg = MonitorConfig { scenario: ScenarioKind::Stable, swap_every: 0, ..small_cfg() };
        let out = run(&cfg);
        assert_eq!(out.stats.server_errors, 0);
        assert_eq!(out.stats.network_errors, 0);
        assert_eq!(out.stats.redirects_followed, 0);
        assert_eq!(out.stats.fetches, out.stats.success);
        assert!(out.changes.is_empty());
        // Most successes after the first fetch are revalidations.
        assert!(out.stats.revalidated > 0);
    }

    #[test]
    fn outage_weather_triggers_backoff_and_disallow() {
        let cfg = MonitorConfig {
            sites: 40,
            days: 20,
            bots: 3,
            scenario: ScenarioKind::Outages,
            swap_every: 0,
            ttl: TtlPolicy::FixedHours(24),
            ..MonitorConfig::default()
        };
        let out = run(&cfg);
        assert!(out.stats.server_errors + out.stats.network_errors > 0);
        assert!(out.stats.backoff_retries > 0);
        // Retries densify fetches well beyond one per agent per two days.
        assert!(out.stats.fetches > out.stats.agents * cfg.days / 2);
    }

    #[test]
    fn redirect_weather_exercises_the_hop_budget() {
        let cfg = MonitorConfig {
            sites: 60,
            days: 6,
            bots: 2,
            scenario: ScenarioKind::Redirects,
            swap_every: 0,
            ttl: TtlPolicy::FixedHours(12),
            ..MonitorConfig::default()
        };
        let out = run(&cfg);
        assert!(out.stats.redirects_followed > 0);
        assert!(out.stats.redirects_capped > 0, "some scripted chains exceed five hops");
        // Capped chains resolve to "unavailable", logged with their 3xx.
        assert!(out.table.iter_records().any(|r| r.status == 301));
        // Within-budget chains revalidate at the final hop: unchanged
        // bodies behind 3xx come back 304 with the transfer elided, so
        // bytes-saved accounting covers CDN-fronted sites too.
        assert!(out.stats.revalidated > 0, "{:?}", out.stats);
        assert!(out.stats.revalidated_bytes_saved > 0, "{:?}", out.stats);
        let saw_304 = out.table.iter_records().any(|r| r.status == 304 && r.bytes == 0);
        assert!(saw_304, "304s behind chains reach the log");
    }

    #[test]
    fn fixed_ttl_cadence_matches_expectation() {
        let cfg = MonitorConfig {
            sites: 10,
            days: 10,
            bots: 2,
            ttl: TtlPolicy::FixedHours(24),
            scenario: ScenarioKind::Stable,
            swap_every: 0,
            ..MonitorConfig::default()
        };
        let out = run(&cfg);
        // Each agent fetches once per day, ± the start offset.
        let per_agent = out.stats.fetches as f64 / out.stats.agents as f64;
        assert!((8.0..=11.0).contains(&per_agent), "daily cadence, got {per_agent}");
    }

    #[test]
    fn recovery_after_error_reparses_instead_of_revalidating() {
        use crate::transport::{ConditionWindow, ServeMode, ServerModel, VirtualTransport};
        use botscope_study::Timeline;

        let cfg = MonitorConfig {
            sites: 1,
            days: 3,
            bots: 1,
            ttl: TtlPolicy::FixedHours(6),
            scenario: ScenarioKind::Stable,
            swap_every: 0,
            ..MonitorConfig::default()
        };
        let start = cfg.start.unix();
        // Healthy except one scripted 5xx window on day two, longer than
        // the agent's TTL so at least one fetch lands inside it.
        let mut model = ServerModel::healthy(
            "site-00.example.edu".into(),
            Timeline::always(PolicyVersion::Base),
            1,
        );
        model.windows = vec![ConditionWindow {
            start: start + 86_400,
            end: start + 86_400 + 8 * 3600,
            mode: ServeMode::ServerError(503),
        }];
        let transport = VirtualTransport::new(vec![model]);
        let fleet = monitor_fleet(1);
        let hasher = botscope_weblog::iphash::IpHasher::from_seed(cfg.seed);

        let run = DaemonRun {
            cfg: &cfg,
            fleet: &fleet,
            transport: &transport,
            ttl: TtlSource::Config,
            record: Record::Beliefs,
        };
        let shard = run_agents(&run, &hasher, 0, 1);
        let s = &shard.stats;
        assert!(s.server_errors > 0, "the scripted 5xx window must be hit: {s:?}");
        // Every success is a revalidation EXCEPT the very first fetch
        // and the first success after the error episode: the cache held
        // DisallowAll through the outage, so recovery must re-parse the
        // body rather than refresh the error-time policy.
        assert_eq!(s.revalidated, s.success - 2, "{s:?}");
        // Recovering to the same body is not a policy change.
        assert!(shard.changes.is_empty());
        // Belief trace: Unfetched → Base → disallow-all through the
        // outage → Base again on recovery. The recovery re-parse is a
        // belief transition even though it is not a policy change.
        let Recorded::Beliefs(timelines) = &shard.record else { panic!("a belief run") };
        let beliefs = &timelines[0];
        use BelievedPolicy as B;
        let kinds: Vec<B> = beliefs.segments().iter().map(|&(_, p)| p).collect();
        assert_eq!(
            kinds,
            vec![
                B::Unfetched,
                B::Version(PolicyVersion::Base),
                B::DisallowAll,
                B::Version(PolicyVersion::Base)
            ],
            "{beliefs:?}"
        );
        assert_eq!(beliefs.at(start), B::Unfetched);
        assert_eq!(beliefs.at(start + 86_400 + 4 * 3600), B::DisallowAll, "mid-outage");
    }

    #[test]
    fn conditional_requests_save_bytes_on_stable_estates() {
        let cfg = MonitorConfig { scenario: ScenarioKind::Stable, swap_every: 0, ..small_cfg() };
        let out = run(&cfg);
        let s = &out.stats;
        assert!(s.revalidated > 0);
        // Every revalidation on a healthy static estate is a real 304
        // that saved exactly one Base body.
        let base_len = botscope_study::PolicyCorpus::new().text(PolicyVersion::Base).len() as u64;
        assert_eq!(s.revalidated_bytes_saved, s.revalidated * base_len, "{s:?}");
        // The 304s are visible in the fetch log.
        assert!(out.table.iter_records().any(|r| r.status == 304 && r.bytes == 0));
    }

    #[test]
    fn belief_atlas_exported_per_agent() {
        let cfg = MonitorConfig {
            sites: 8,
            days: 20,
            bots: 3,
            swap_every: 2,
            scenario: ScenarioKind::Stable,
            ttl: TtlPolicy::FixedHours(12),
            ..MonitorConfig::default()
        };
        let (fleet, transport) =
            (monitor_fleet(cfg.bots), VirtualTransport::new(build_estate(&cfg)));
        let run = DaemonRun {
            cfg: &cfg,
            fleet: &fleet,
            transport: &transport,
            ttl: TtlSource::Config,
            record: Record::Beliefs,
        };
        let atlas = belief_atlas(&run, run_daemon(&run, 2).2);
        let bots: Vec<String> = fleet.iter().map(|b| b.spec.canonical.to_string()).collect();
        assert_eq!(atlas.bots, bots);
        assert_eq!(atlas.n_sites(), cfg.sites);
        // Before the horizon every agent is Unfetched; after its first
        // fetch a stable non-swap site is believed Base forever.
        let static_site = 1; // swap_every=2 ⇒ odd sites are static
        for bot in 0..atlas.bots.len() {
            let tl = atlas.timeline(bot, static_site);
            assert_eq!(tl.at(cfg.start.unix()), BelievedPolicy::Unfetched);
            assert_eq!(tl.at(cfg.horizon_end()), BelievedPolicy::Version(PolicyVersion::Base));
            assert_eq!(tl.transitions(), 1, "static site: one belief transition, got {tl:?}");
        }
        // Swap sites accumulate version transitions that the 12h TTL
        // cannot miss.
        let swapped: usize =
            (0..atlas.bots.len()).map(|bot| atlas.timeline(bot, 0).transitions()).sum();
        assert!(swapped > atlas.bots.len(), "swap site must show belief churn: {swapped}");
        // The atlas is identical at any worker count.
        assert_eq!(atlas, belief_atlas(&run, run_daemon(&run, 8).2));
    }

    #[test]
    fn what_a_run_records_does_not_change_what_it_computes() {
        // The coupled belief stage's shape: every bot at its own
        // cadence (never-checkers included), under mixed weather with
        // swaps, so errors, backoff and change digests all occur.
        let cfg = MonitorConfig {
            sites: 16,
            days: 30,
            swap_every: 2,
            scenario: ScenarioKind::Mixed,
            ..MonitorConfig::default()
        };
        let (fleet, transport) = (build_fleet(), VirtualTransport::new(build_estate(&cfg)));
        let run = |record| DaemonRun {
            cfg: &cfg,
            fleet: &fleet,
            transport: &transport,
            ttl: TtlSource::FleetCadence,
            record,
        };
        let (log_stats, log_changes, logs) = run_daemon(&run(Record::FetchLog), 1);
        let rows: usize = logs.into_iter().map(|r| r.into_log().len()).sum();
        assert_eq!(rows as u64, log_stats.fetches);
        assert!(log_stats.server_errors + log_stats.network_errors > 0, "{log_stats:?}");
        assert!(!log_changes.is_empty(), "swap sites must be observed");

        let beliefs = run(Record::Beliefs);
        let atlases = [1, 2, 8].map(|threads| {
            let (stats, changes, records) = run_daemon(&beliefs, threads);
            assert_eq!(stats, log_stats, "{threads} workers");
            assert_eq!(changes, log_changes, "{threads} workers");
            belief_atlas(&beliefs, records)
        });
        assert!(atlases[0].total_transitions() > 0);
        assert!(atlases.windows(2).all(|w| w[0] == w[1]), "the atlas depends on the worker count");
    }

    #[test]
    fn site_windows_expose_deployments() {
        let cfg = MonitorConfig {
            swap_every: 4,
            scenario: ScenarioKind::Stable,
            days: 46,
            ..small_cfg()
        };
        let out = run(&cfg);
        assert_eq!(out.site_windows.len(), cfg.sites);
        for (site, windows) in &out.site_windows {
            let i: usize = site[5..7].parse().unwrap();
            if i.is_multiple_of(4) {
                // The rolling schedule starts within the first week, so
                // at least Base → v1 → v2 fit inside 46 days.
                assert!(windows.len() >= 3, "{site} deploys the experiment: {windows:?}");
            } else {
                assert_eq!(windows.len(), 1, "{site} is static");
                assert_eq!(windows[0].0, PolicyVersion::Base);
            }
            // Windows tile the horizon in order.
            assert_eq!(windows[0].1, 0);
            assert_eq!(windows.last().unwrap().2, out.horizon_end);
            for pair in windows.windows(2) {
                assert_eq!(pair[0].2, pair[1].1, "contiguous: {windows:?}");
            }
        }
    }

    /// The reference order: every chunk's log concatenated in chunk
    /// order, then stably sorted by the canonical key.
    fn concatenate_and_sort(records: Vec<Recorded>) -> LogTable {
        let mut table = LogTable::new();
        for record in records {
            table.absorb(record.into_log().table());
        }
        table.sort_canonical();
        table
    }

    /// A fixed 12 h TTL over a dense estate puts many fetches on one
    /// second, and small IP pools make some of them full canonical ties
    /// (same instant, agent and IP hash; only the site differs).
    fn tie_heavy() -> MonitorConfig {
        MonitorConfig {
            sites: 300,
            days: 6,
            bots: 3,
            ttl: TtlPolicy::FixedHours(12),
            ..MonitorConfig::default()
        }
    }

    /// A fetch-log run of `cfg` over its own fleet and estate.
    fn fetch_log_run<T>(cfg: &MonitorConfig, body: impl FnOnce(&DaemonRun<'_>) -> T) -> T {
        let (fleet, transport) =
            (monitor_fleet(cfg.bots), VirtualTransport::new(build_estate(cfg)));
        body(&DaemonRun {
            cfg,
            fleet: &fleet,
            transport: &transport,
            ttl: TtlSource::Config,
            record: Record::FetchLog,
        })
    }

    #[test]
    fn chunk_logs_come_out_in_time_order() {
        // Each chunk's agents run off a (time, agent) heap, so its log is
        // already time-ordered and `sort_canonical` only orders ties.
        let cfg = tie_heavy();
        for threads in [1, 2] {
            let records = fetch_log_run(&cfg, |run| run_daemon(run, threads).2);
            assert!(records.len() > 1, "the estate must span several chunks");
            for (chunk, record) in records.into_iter().enumerate() {
                let log = record.into_log();
                let rows = log.table().rows();
                assert!(!rows.is_empty());
                assert!(
                    rows.is_sorted_by_key(|r| r.timestamp),
                    "chunk {chunk} at {threads} workers is out of time order"
                );
            }
        }
    }

    #[test]
    fn merged_log_matches_concatenate_and_sort() {
        use botscope_weblog::codec::encode_table;
        use botscope_weblog::sink::CsvSink;

        let cfg = tie_heavy();
        let oracle = fetch_log_run(&cfg, |run| concatenate_and_sort(run_daemon(run, 1).2));
        let rows = oracle.rows();
        let key = |i: usize| {
            let r = &rows[i];
            (r.timestamp, oracle.resolve(r.useragent), r.ip_hash, oracle.resolve(r.uri_path))
        };
        let same_instant = (1..rows.len()).filter(|&i| rows[i - 1].timestamp == rows[i].timestamp);
        assert!(same_instant.clone().count() > 10, "the config must produce same-instant rows");
        assert!(same_instant.filter(|&i| key(i - 1) == key(i)).count() > 0, "and full ties");

        let expected = encode_table(&oracle);
        let monitor_run = MonitorRun::new(&cfg);
        let windows = monitor_run.site_windows();
        for threads in [1, 2, 8] {
            let collected = run_with_threads(&cfg, threads);
            assert_eq!(encode_table(&collected.table), expected, "table at {threads} workers");
            assert_eq!(collected.site_windows, windows);
            let mut csv = CsvSink::new(Vec::new()).unwrap();
            let summary = monitor_run.stream(threads, &mut [&mut csv]).unwrap();
            assert_eq!(
                String::from_utf8(csv.into_inner()).unwrap(),
                expected,
                "streamed CSV at {threads} workers"
            );
            assert_eq!(summary.stats, collected.stats);
            assert_eq!(summary.stats.fetches, oracle.len() as u64);
            assert_eq!(summary.changes, collected.changes);
        }
    }

    #[test]
    fn ttl_policy_parsing() {
        assert_eq!(TtlPolicy::parse("spectrum"), Some(TtlPolicy::Spectrum));
        assert_eq!(TtlPolicy::parse("24"), Some(TtlPolicy::FixedHours(24)));
        assert_eq!(TtlPolicy::parse("0"), None);
        assert_eq!(TtlPolicy::parse("sometimes"), None);
    }

    #[test]
    fn spectrum_includes_never_checkers() {
        let cfg = MonitorConfig {
            sites: 64,
            days: 30,
            bots: 4,
            scenario: ScenarioKind::Stable,
            swap_every: 0,
            ..MonitorConfig::default()
        };
        let out = run(&cfg);
        // Never-TTL agents fetch exactly once; with 256 agents and a 20 %
        // never share, total fetches must sit far below the daily-cadence
        // bound but above one-per-agent.
        assert!(out.stats.fetches > out.stats.agents);
        assert!(out.table.rows().iter().any(|row| out.table.is_robots_fetch(row)));
    }
}
