//! `monitor`: the robots.txt monitoring daemon and its §5.1 report.

use std::fmt::Write as _;
use std::io::Write;

use botscope_core::recheck::{by_category, PhaseCheckRow, RecheckAccumulator, RecheckByCategory};
use botscope_core::report;
use botscope_monitor::daemon::{MonitorConfig, TtlPolicy};
use botscope_monitor::{ChangeDigest, MonitorRun, MonitorStats};
use botscope_weblog::sink::{CsvSink, JsonlSink, RowSink};
use botscope_weblog::Timestamp;

use super::Error;

/// Where `monitor` writes its data (`--out`, `--jsonl`, `--changes`);
/// each is optional.
#[derive(Default)]
pub struct MonitorOutputs<'a> {
    /// The fetch-event log as CSV.
    pub csv: Option<&'a mut dyn Write>,
    /// The fetch-event log as JSONL.
    pub jsonl: Option<&'a mut dyn Write>,
    /// The detected policy changes as CSV.
    pub changes: Option<&'a mut dyn Write>,
}

/// What `monitor` reports besides its data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorReport {
    /// Run statistics and the first change digests (diagnostics).
    pub summary: String,
    /// The monitored Table 7 (when some site swapped policies) and the
    /// §5.1 re-check coverage; empty when there is nothing to show.
    pub tables: String,
}

/// `botscope monitor`: run one cache-backed fetch agent per (bot, site)
/// over the scripted estate on `threads` event-queue shards, streaming
/// the merged fetch log row by row into the CSV/JSONL writers and the
/// §5.1 re-check accumulator; the merged table never exists.
pub fn monitor(
    cfg: &MonitorConfig,
    threads: usize,
    out: MonitorOutputs<'_>,
) -> Result<MonitorReport, Error> {
    let mut csv = match out.csv {
        Some(w) => Some(CsvSink::new(w).map_err(Error::write("cannot write header"))?),
        None => None,
    };
    let mut jsonl = out.jsonl.map(JsonlSink::new);
    // The accumulator needs each site's deployment windows before the
    // first row: the run's own site models give them.
    let run = MonitorRun::new(cfg);
    let site_windows = run.site_windows();
    let swapped = site_windows.values().any(|w| w.len() > 1);
    let mut recheck = RecheckAccumulator::new(site_windows, cfg.horizon_end());
    let mut sinks: Vec<&mut dyn RowSink> = Vec::new();
    if let Some(sink) = csv.as_mut() {
        sinks.push(sink);
    }
    if let Some(sink) = jsonl.as_mut() {
        sinks.push(sink);
    }
    sinks.push(&mut recheck);
    let summary =
        run.stream(threads, &mut sinks).map_err(Error::write("monitor streaming failed"))?;
    if let Some(w) = out.changes {
        w.write_all(changes_csv(&summary.changes).as_bytes())
            .and_then(|()| w.flush())
            .map_err(Error::write("cannot write"))?;
    }
    Ok(MonitorReport {
        summary: summary_text(cfg, &summary.stats, &summary.bots, &summary.changes),
        tables: report_tables(swapped, &recheck.phase_rows(), &by_category(&recheck.profiles())),
    })
}

/// The detected policy changes as CSV.
fn changes_csv(changes: &[ChangeDigest]) -> String {
    let mut body = String::from("site,at,from,to,observers,tightened,loosened,delay_changes\n");
    for c in changes {
        let _ = writeln!(
            body,
            "{},{},{},{},{},{},{},{}",
            c.site,
            Timestamp::from_unix(c.at).to_iso8601(),
            c.from.label(),
            c.to.label(),
            c.observers,
            c.tightened,
            c.loosened,
            c.delay_changes
        );
    }
    body
}

/// The monitor's run statistics.
fn summary_text(
    cfg: &MonitorConfig,
    s: &MonitorStats,
    bots: &[String],
    changes: &[ChangeDigest],
) -> String {
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
            Timestamp::from_unix(c.at).to_iso8601(),
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

/// The monitor's table-derived report: the monitored Table 7 (only
/// when `swapped`: some site deployed a policy swap) and the §5.1
/// re-check coverage table.
fn report_tables(swapped: bool, matrix: &[PhaseCheckRow], agg: &RecheckByCategory) -> String {
    let mut r = String::new();
    // Table 7 digest windows from monitored logs: did each bot fetch
    // robots.txt on some site *while* each policy version was live?
    if swapped {
        let _ = writeln!(r, "{}", report::table7_from_monitor(matrix));
    }
    // Figure 10 from *monitored* logs: share of checking bots per
    // category that re-checked within every window.
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
