//! Single-pass streaming analysis: the §4 pipeline over a time-sorted
//! row stream with bounded state.
//!
//! [`StreamAnalyzer`] is the one §4 engine. It consumes interned rows —
//! a [`botscope_weblog::stream::RowStream`] over a CSV file, a binary
//! [`botscope_weblog::colfmt`] file, or a generator's k-way merge, or a
//! materialized table fed by [`Experiment::analyze_table`] — and
//! produces the [`Experiment`] behind every §4 table and figure. Peak
//! memory is the dictionary plus the per-bot working set (per-ASN
//! phase buckets and τ-delta accumulators), never the row set: a
//! scale-100 estate streams through in a few hundred megabytes where
//! materializing would take gigabytes.
//!
//! Order contract: rows must arrive with timestamps that never
//! decrease. [`Experiment::analyze_stream`] rejects a stream that goes
//! back in time; [`Experiment::analyze_table`] sorts an unsorted table
//! by timestamp first. Nothing finer than the timestamp is needed,
//! because rows sharing a timestamp give the same result in any order:
//!
//! * **standardization** — one verdict per distinct user-agent symbol
//!   from the crate's one `AgentBots` table: the verdict is a pure
//!   function of the header, and bots are reported in canonical-name
//!   order whatever order their first rows arrived in;
//! * **spoof detection** — per-ASN totals over experiment-site rows are
//!   order-free counts, and `spoofdetect::dominance` breaks ties by
//!   `(count, Reverse(name))`, never by arrival order;
//! * **phase bucketing** — each row tests its timestamp against the
//!   base window and the three directive windows independently;
//! * **crawl delay** — within a τ group (ASN fixed per accumulator, so
//!   the key is (IP hash, raw UA)) the running delta count needs
//!   time-sorted rows; equal timestamps give a delta of 0 either way.
//!   The count is `metrics::TauAcc`, the crate's one crawl-delay rule,
//!   which the per-bot fold `pipeline::tally_bots` shares;
//! * **sessions** — per-entity deltas are counted as rows arrive, which
//!   equals sort-then-count on time-sorted rows; a 0 delta never
//!   starts a session.

use std::collections::BTreeMap;

use botscope_stats::ztest::two_proportion_z_test;
use botscope_useragent::BotSpec;
use botscope_weblog::codec::DecodeError;
use botscope_weblog::hash::FxHashMap;
use botscope_weblog::intern::{StringInterner, Sym};
use botscope_weblog::session::SESSION_GAP_SECS;
use botscope_weblog::stream::RowStream;
use botscope_weblog::table::RecordRow;

use botscope_study::{is_exempt_agent, site_name, PhaseSchedule, PolicyVersion};

use crate::analyze::{BotDirectiveResult, Directive, Experiment, PhaseTraffic, MIN_ACCESSES};
use crate::metrics::{DirectiveCounts, PathClasses, TauAcc, CRAWL_DELAY_SECS};
use crate::pipeline::AgentBots;
use crate::spoofdetect::{
    self, SpoofFinding, SpoofReport, DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS,
};

/// Per-symbol flag of the experiment site's name, kept beside the
/// [`PathClasses::classify`] path flags in `StreamAnalyzer::flags`.
const FLAG_SITE: u8 = 8;
const _: () =
    assert!(FLAG_SITE & (PathClasses::ROBOTS | PathClasses::PAGE_DATA | PathClasses::TRAP) == 0);

/// One phase-window bucket of one (bot, ASN) pair: everything the three
/// directive metrics need, accumulated row by row.
#[derive(Debug, Clone, Default)]
struct BucketAcc {
    rows: u64,
    robots: u64,
    endpoint: u64,
    tau: FxHashMap<(u64, Sym), TauAcc>,
}

impl BucketAcc {
    fn push(&mut self, row: &RecordRow, robots: bool, page_data: bool) {
        self.rows += 1;
        if robots {
            self.robots += 1;
        }
        if robots || page_data {
            self.endpoint += 1;
        }
        self.tau
            .entry((row.ip_hash, row.useragent))
            .or_default()
            .push(row.timestamp.unix(), CRAWL_DELAY_SECS);
    }

    /// Finalized order-free stats: τ maps collapse to counts here, so
    /// stats from different ASNs can be summed without ever merging τ
    /// groups across ASN boundaries.
    fn finish(&self) -> BucketStats {
        let cd = self.tau.values().map(TauAcc::finish).sum();
        BucketStats { rows: self.rows, robots: self.robots, endpoint: self.endpoint, cd }
    }
}

/// A finalized bucket: additive across ASNs.
#[derive(Debug, Clone, Copy, Default)]
struct BucketStats {
    rows: u64,
    robots: u64,
    endpoint: u64,
    cd: DirectiveCounts,
}

impl BucketStats {
    fn merge(&mut self, other: &BucketStats) {
        self.rows += other.rows;
        self.robots += other.robots;
        self.endpoint += other.endpoint;
        self.cd.merge(other.cd);
    }

    /// The directive's success/trial pair out of this bucket.
    fn counts(&self, directive: Directive) -> DirectiveCounts {
        match directive {
            Directive::CrawlDelay => self.cd,
            Directive::Endpoint => DirectiveCounts { successes: self.endpoint, trials: self.rows },
            Directive::Disallow => DirectiveCounts { successes: self.robots, trials: self.rows },
        }
    }
}

/// One ASN's accumulation for one bot: experiment-site total plus the
/// four phase buckets (base + one per directive).
#[derive(Debug, Clone, Default)]
struct AsnAcc {
    total: u64,
    buckets: [BucketAcc; 4],
}

/// Everything one canonical bot accumulates over the stream.
#[derive(Clone)]
struct BotAcc {
    /// Per-ASN site-row accumulators. Entries exist only for ASNs seen
    /// on *experiment-site* rows, mirroring the table path's detector
    /// input.
    per_asn: FxHashMap<Sym, AsnAcc>,
    /// Estate-wide robots.txt fetch seen within each directive window
    /// (the Table 7 "checked robots.txt" signal).
    robots_window: [bool; 3],
    /// Experiment-site presence per `schedule.phases` entry (Table 4).
    presence: Vec<bool>,
}

/// Session counting for one phase window: entity → last timestamp, plus
/// the running session count. The map is dropped as soon as the stream
/// moves past the window's end, so at most one phase map is live at a
/// time under the paper's sequential schedule.
struct PhaseSessions {
    start: u64,
    end: u64,
    last_seen: Option<FxHashMap<(Sym, u64, Sym), u64>>,
    sessions: usize,
}

impl PhaseSessions {
    fn push(&mut self, row: &RecordRow, t: u64) {
        if t >= self.end {
            self.last_seen = None;
            return;
        }
        if t < self.start {
            return;
        }
        let map = self.last_seen.get_or_insert_with(FxHashMap::default);
        match map.insert((row.useragent, row.ip_hash, row.asn), t) {
            None => self.sessions += 1,
            Some(last) => {
                if t.saturating_sub(last) >= SESSION_GAP_SECS {
                    self.sessions += 1;
                }
            }
        }
    }
}

/// The deployment windows, as in the table path: base plus one window
/// per directive in [`Directive::ALL`] order.
struct Windows {
    base: (u64, u64),
    directives: [(u64, u64); 3],
}

/// Push-based single-pass analysis engine. Feed time-sorted rows via
/// [`StreamAnalyzer::push_row`], then call [`StreamAnalyzer::finish`].
pub struct StreamAnalyzer {
    schedule: PhaseSchedule,
    site_name: String,
    windows: Windows,
    /// Per-symbol flags (path classes and [`FLAG_SITE`]), grown lazily
    /// with the stream's interner and indexed by `Sym::index`.
    flags: Vec<u8>,
    agents: AgentBots<BotAcc>,
    phase_sessions: Vec<PhaseSessions>,
    last_t: u64,
    /// Plain (non-atomic) telemetry tallies, flushed to the global
    /// registry once at [`StreamAnalyzer::finish`] so the per-row path
    /// carries zero instrumentation cost: rows seen, then rows landing
    /// in the base window and each directive window.
    obs_rows: u64,
    obs_window_rows: [u64; 4],
}

impl StreamAnalyzer {
    /// An analyzer for `schedule`. Panics if the schedule is missing
    /// any of the four policy versions.
    pub fn new(schedule: &PhaseSchedule) -> StreamAnalyzer {
        StreamAnalyzer::with_agents(schedule, AgentBots::new(()))
    }

    /// An analyzer for `schedule` that starts from `agents`' user-agent
    /// verdicts, so no agent the caller standardized is standardized
    /// again. A bot that no pushed row names adds nothing to the result.
    pub(crate) fn with_agents(schedule: &PhaseSchedule, agents: AgentBots) -> StreamAnalyzer {
        let window_of = |version: PolicyVersion| -> (u64, u64) {
            let (lo, hi) = schedule.window_of(version).expect("version scheduled");
            (lo.unix(), hi.unix())
        };
        let windows = Windows {
            base: window_of(PolicyVersion::Base),
            directives: Directive::ALL.map(|d| window_of(d.version())),
        };
        let phase_sessions = schedule
            .phases
            .iter()
            .map(|p| PhaseSessions {
                start: p.start.unix(),
                end: p.end.unix(),
                last_seen: None,
                sessions: 0,
            })
            .collect();
        StreamAnalyzer {
            schedule: schedule.clone(),
            site_name: site_name(schedule.experiment_site),
            windows,
            flags: Vec::new(),
            agents: agents.with_state(BotAcc {
                per_asn: FxHashMap::default(),
                robots_window: [false; 3],
                presence: vec![false; schedule.phases.len()],
            }),
            phase_sessions,
            last_t: 0,
            obs_rows: 0,
            obs_window_rows: [0; 4],
        }
    }

    /// Classify any symbols interned since the last row. The interner
    /// only appends, so earlier indices never change.
    fn grow(&mut self, interner: &StringInterner) {
        if self.flags.len() == interner.len() {
            return;
        }
        let site_name = self.site_name.as_str();
        self.flags.extend(
            interner.iter_from(self.flags.len()).map(|(_, s)| {
                PathClasses::classify(s) | if s == site_name { FLAG_SITE } else { 0 }
            }),
        );
    }

    /// Consume one row. Timestamps must never decrease (the module's
    /// order contract), the order every workspace producer emits.
    pub fn push_row(&mut self, row: &RecordRow, interner: &StringInterner) {
        self.grow(interner);
        let t = row.timestamp.unix();
        debug_assert!(t >= self.last_t, "stream must be time-sorted");
        self.last_t = t;
        self.obs_rows += 1;

        let is_site = self.flags[row.sitename.index()] & FLAG_SITE != 0;

        // Table 4 sessions run over every experiment-site row, known bot
        // or not; expiry runs on every row so dead maps free promptly.
        for phase in &mut self.phase_sessions {
            if is_site {
                phase.push(row, t);
            } else if t >= phase.end {
                phase.last_seen = None;
            }
        }

        let Some(bot) = self.agents.bot_mut(row.useragent, interner) else {
            return;
        };

        // Estate-wide robots.txt fetches drive the Table 7 signal even
        // when they land on a sister site.
        let robots = self.flags[row.uri_path.index()] & PathClasses::ROBOTS != 0;
        if robots {
            for (d, &(lo, hi)) in self.windows.directives.iter().enumerate() {
                if t >= lo && t < hi {
                    bot.robots_window[d] = true;
                }
            }
        }
        if !is_site {
            return;
        }

        for (i, p) in self.schedule.phases.iter().enumerate() {
            if t >= p.start.unix() && t < p.end.unix() {
                bot.presence[i] = true;
            }
        }

        let page_data = self.flags[row.uri_path.index()] & PathClasses::PAGE_DATA != 0;
        let acc = bot.per_asn.entry(row.asn).or_default();
        acc.total += 1;
        let (lo, hi) = self.windows.base;
        if t >= lo && t < hi {
            acc.buckets[0].push(row, robots, page_data);
            self.obs_window_rows[0] += 1;
        }
        for (d, &(lo, hi)) in self.windows.directives.iter().enumerate() {
            if t >= lo && t < hi {
                acc.buckets[d + 1].push(row, robots, page_data);
                self.obs_window_rows[d + 1] += 1;
            }
        }
    }

    /// Finalize into the [`Experiment`]. `interner` must be the stream's final interner (a superset of
    /// every symbol pushed).
    pub fn finish(self, interner: &StringInterner) -> Experiment {
        let obs = botscope_obs::global();
        obs.counter("stream_rows_total").add(self.obs_rows);
        for (i, window) in ["base", "crawl_delay", "endpoint", "disallow"].into_iter().enumerate() {
            obs.counter(&format!("stream_window_rows_total{{window=\"{window}\"}}"))
                .add(self.obs_window_rows[i]);
        }
        let mut per_directive: BTreeMap<Directive, Vec<BotDirectiveResult>> =
            Directive::ALL.into_iter().map(|d| (d, Vec::new())).collect();
        let mut spoofed_per_directive = per_directive.clone();
        let mut spoof_volume: BTreeMap<Directive, (u64, u64)> =
            Directive::ALL.into_iter().map(|d| (d, (0, 0))).collect();
        let mut findings: Vec<SpoofFinding> = Vec::new();
        let mut presence_counts = vec![0usize; self.schedule.phases.len()];

        // Canonical-name order, whatever order the bots first appeared in.
        for (spec, bot) in self.agents.by_name() {
            for (i, &p) in bot.presence.iter().enumerate() {
                if p {
                    presence_counts[i] += 1;
                }
            }

            let finding = spoofdetect::dominance(
                spec.canonical,
                bot.per_asn.iter().map(|(&asn, acc)| (asn, acc.total)),
                interner,
                DOMINANCE_THRESHOLD,
                MIN_DETECT_REQUESTS,
            );
            let finding_main = finding.as_ref().map(|&(main, _)| main);
            findings.extend(finding.map(|(_, f)| f));

            // Legit = the dominant ASN's buckets when flagged, otherwise
            // everything; spoofed = the minority remainder when flagged.
            let mut legit = [BucketStats::default(); 4];
            let mut spoofed = [BucketStats::default(); 4];
            for (&sym, acc) in &bot.per_asn {
                let target = if finding_main.is_some_and(|main| sym != main) {
                    &mut spoofed
                } else {
                    &mut legit
                };
                for (j, bucket) in acc.buckets.iter().enumerate() {
                    target[j].merge(&bucket.finish());
                }
            }

            let exempt = is_exempt_agent(spec.canonical);
            for (idx, directive) in Directive::ALL.into_iter().enumerate() {
                let (legit_base, legit_phase) = (&legit[0], &legit[idx + 1]);
                let volume = spoof_volume.get_mut(&directive).expect("all directives present");
                volume.0 += legit_phase.rows;
                if !exempt
                    && legit_base.rows >= MIN_ACCESSES as u64
                    && legit_phase.rows >= MIN_ACCESSES as u64
                {
                    let checked = bot.robots_window[idx] || legit_phase.robots > 0;
                    per_directive
                        .get_mut(&directive)
                        .expect("all directives present")
                        .push(make_row(spec, directive, legit_base, legit_phase, checked));
                }

                let (sp_base, sp_phase) = (&spoofed[0], &spoofed[idx + 1]);
                volume.1 += sp_phase.rows;
                if sp_base.rows > 0 && sp_phase.rows > 0 {
                    let checked = sp_phase.robots > 0;
                    spoofed_per_directive
                        .get_mut(&directive)
                        .expect("all directives present")
                        .push(make_row(spec, directive, sp_base, sp_phase, checked));
                }
            }
        }

        let phase_traffic = self
            .schedule
            .phases
            .iter()
            .zip(&self.phase_sessions)
            .zip(&presence_counts)
            .map(|((p, sessions), &bots)| PhaseTraffic {
                version: p.version,
                unique_site_visits: sessions.sessions,
                unique_bot_visitors: bots,
            })
            .collect();

        Experiment {
            per_directive,
            spoofed_per_directive,
            phase_traffic,
            spoof_report: SpoofReport { findings },
            spoof_volume,
            schedule: self.schedule,
        }
    }
}

/// One bot × directive result out of finalized buckets.
fn make_row(
    spec: &'static BotSpec,
    directive: Directive,
    base: &BucketStats,
    phase: &BucketStats,
    checked_robots: bool,
) -> BotDirectiveResult {
    let baseline = base.counts(directive);
    let experiment = phase.counts(directive);
    let ztest = two_proportion_z_test(
        experiment.successes,
        experiment.trials,
        baseline.successes,
        baseline.trials,
    );
    BotDirectiveResult {
        bot: spec.canonical.to_string(),
        category: spec.category,
        promise: spec.respects_robots,
        sponsor: spec.sponsor,
        baseline,
        experiment,
        ztest,
        checked_robots,
        accesses: phase.rows,
    }
}

impl Experiment {
    /// Analyze a time-sorted row stream in a single pass with bounded
    /// state; the rows themselves are never held. Fails with a
    /// [`DecodeError`] at the first row earlier than the row before it,
    /// since the order contract cannot be repaired without holding the
    /// rows ([`Experiment::analyze_table`] sorts a materialized table).
    pub fn analyze_stream<S: RowStream + ?Sized>(
        stream: &mut S,
        schedule: &PhaseSchedule,
    ) -> Result<Experiment, DecodeError> {
        let mut analyzer = StreamAnalyzer::new(schedule);
        let mut last = None;
        let mut index = 0usize;
        while let Some(row) = stream.next_row() {
            let row = row?;
            index += 1;
            if last > Some(row.timestamp) {
                return Err(DecodeError {
                    line: 0,
                    message: format!(
                        "row {index} is earlier than the row before it; streamed analysis \
                         needs time-sorted rows (use --table to analyze an unsorted log)"
                    ),
                });
            }
            last = Some(row.timestamp);
            analyzer.push_row(&row, stream.interner());
        }
        Ok(analyzer.finish(stream.interner()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_simnet::scenario::phase_study_table;
    use botscope_simnet::SimConfig;
    use botscope_weblog::stream::TableRowStream;
    use botscope_weblog::table::LogTable;

    #[test]
    fn symbol_verdicts_grow_like_a_one_shot_classification() {
        let cfg = SimConfig { scale: 0.02, sites: 3, ..SimConfig::default() };
        let out = phase_study_table(&cfg);
        let full = out.sim.table.interner();
        let mut one_shot = StreamAnalyzer::new(&out.schedule);
        one_shot.grow(full);
        assert!(
            one_shot.flags.iter().any(|&f| f & FLAG_SITE != 0),
            "the experiment site is interned"
        );
        let mut paths = PathClasses::default();
        paths.grow(full);
        for (sym, _) in full.iter() {
            let f = one_shot.flags[sym.index()];
            assert_eq!(f & PathClasses::ROBOTS != 0, paths.is_robots(sym));
            assert_eq!(f & PathClasses::PAGE_DATA != 0, paths.is_page_data(sym));
        }
        for page in [1, 64] {
            let mut interner = StringInterner::new();
            let mut grown = StreamAnalyzer::new(&out.schedule);
            let strings: Vec<&str> = full.iter().map(|(_, s)| s).collect();
            for chunk in strings.chunks(page) {
                for s in chunk {
                    interner.intern(s);
                }
                grown.grow(&interner);
            }
            assert_eq!(grown.flags, one_shot.flags, "flags grown {page} at a time");
        }
    }

    #[test]
    fn empty_stream_is_clean() {
        let cfg = SimConfig { scale: 0.02, sites: 3, ..SimConfig::default() };
        let out = phase_study_table(&cfg);
        let empty = LogTable::new();
        let mut stream = TableRowStream::new(&empty);
        let exp = Experiment::analyze_stream(&mut stream, &out.schedule).expect("empty ok");
        assert!(exp.spoof_report.findings.is_empty());
        for d in Directive::ALL {
            assert!(exp.per_directive[&d].is_empty());
            assert_eq!(exp.spoof_volume[&d], (0, 0));
        }
        assert_eq!(exp.phase_traffic.len(), out.schedule.phases.len());
        assert!(exp.phase_traffic.iter().all(|p| p.unique_site_visits == 0));
    }

    #[test]
    fn stream_going_back_in_time_is_rejected_at_that_row() {
        let cfg = SimConfig { scale: 0.02, sites: 3, ..SimConfig::default() };
        let out = phase_study_table(&cfg);
        let table = &out.sim.table;
        // Swap the first two rows with distinct timestamps: row `i + 2`
        // (1-based) is then the first to go back in time.
        let i = table
            .rows()
            .windows(2)
            .position(|w| w[0].timestamp < w[1].timestamp)
            .expect("more than one timestamp");
        let mut rows = table.rows().to_vec();
        rows.swap(i, i + 1);
        let swapped = LogTable::from_parts(table.interner().clone(), rows);
        let err = Experiment::analyze_stream(&mut TableRowStream::new(&swapped), &out.schedule)
            .expect_err("unsorted stream");
        assert!(err.message.starts_with(&format!("row {} ", i + 2)), "{err}");
        assert!(err.message.contains("--table"), "{err}");
    }
}
