//! `simulate` and `simulate --coupled`.

use std::fmt::Write as _;
use std::io::Write;

use botscope_core::analyze::BeliefContext;
use botscope_core::attribution::{score_table, PolicyBasis};
use botscope_core::report;
use botscope_monitor::{run_coupled_with_threads, CoupledConfig};
use botscope_simnet::engine::{simulate_stream_with_threads, simulate_table_with_threads};
use botscope_simnet::scenario::{full_study_plan, phase_study_plan};
use botscope_simnet::{SimConfig, StreamOptions};
use botscope_study::PolicyCorpus;
use botscope_weblog::codec;
use botscope_weblog::colfmt::{self, BinSink};
use botscope_weblog::sink::{CsvSink, RowSink};

use super::Error;

/// Which of the paper's two studies `simulate` generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Study {
    /// Study 1 (§3): the whole estate under the base file for
    /// `cfg.days` days.
    Estate,
    /// Study 2 (§4, `--phase-study`): the 8-week four-phase robots.txt
    /// experiment; `cfg.days` is ignored.
    Phase,
}

/// The on-disk log format `simulate` writes (`--format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// The workspace CSV schema.
    Csv,
    /// The columnar binary format (`BSCL`).
    Bin,
}

impl LogFormat {
    /// `csv` or `bin`.
    pub fn parse(s: &str) -> Option<LogFormat> {
        match s {
            "csv" => Some(LogFormat::Csv),
            "bin" => Some(LogFormat::Bin),
            _ => None,
        }
    }
}

/// `botscope simulate`: generate `study`'s log into `out` and return
/// its row count. The default materializes the table on `threads`
/// generation workers and writes it; `stream` (`--stream`) instead has
/// the workers spill canonically sorted runs to disk and k-way merges
/// them straight into the encoder, so peak memory is bounded by the
/// string dictionaries plus one run per worker. Both write the same
/// CSV bytes; their BSCL dictionaries differ in order.
pub fn simulate(
    cfg: &SimConfig,
    study: Study,
    stream: bool,
    format: LogFormat,
    threads: usize,
    mut out: impl Write,
) -> Result<u64, Error> {
    cfg.assert_valid();
    let (cfg, schedule) = match study {
        Study::Estate => full_study_plan(cfg),
        Study::Phase => phase_study_plan(cfg),
    };
    if !stream {
        let table = simulate_table_with_threads(&cfg, &schedule, threads).table;
        match format {
            LogFormat::Csv => codec::write_table(&mut out, &table),
            LogFormat::Bin => colfmt::write_table(&mut out, &table),
        }
        .and_then(|()| out.flush())
        .map_err(Error::write("cannot write"))?;
        return Ok(table.len() as u64);
    }
    let header = Error::write("cannot write header");
    let mut sink: Box<dyn RowSink + '_> = match format {
        LogFormat::Csv => Box::new(CsvSink::new(out).map_err(header)?),
        LogFormat::Bin => Box::new(BinSink::new(out).map_err(header)?),
    };
    // The merge calls `finish` on the sink, which flushes the writer.
    let opts = StreamOptions::default();
    simulate_stream_with_threads(&cfg, &schedule, threads, &opts, &mut [&mut *sink])
        .map(|sim| sim.rows)
        .map_err(Error::write("streaming simulate failed"))
}

/// `botscope simulate --coupled`: a monitoring daemon derives each
/// bot's believed policy per site, traffic generation acts on those
/// beliefs, and one serial sweep ([`score_table`]) attributes every
/// page access against the policy the site served and scores Tables
/// 5/6/10 under `basis`. Returns the report: belief and attribution
/// summaries, then the tables.
///
/// With a `csv` writer the log's CSV encode runs on its own thread
/// beside the scoring sweep, at any worker count; a write error wins
/// over the report, which is rendered only after the join.
pub fn coupled(
    cfg: &CoupledConfig,
    basis: PolicyBasis,
    threads: usize,
    csv: Option<&mut (dyn Write + Send + '_)>,
) -> Result<String, Error> {
    let out = run_coupled_with_threads(cfg, threads);
    let obs = botscope_obs::global();
    let corpus = PolicyCorpus::new();
    let ctx = BeliefContext { beliefs: &out.beliefs, served: &out.served, corpus: &corpus };
    let table = &out.sim.table;
    let (counts, exp) = std::thread::scope(|s| {
        let writer = csv.map(|mut w| {
            s.spawn(move || {
                let _phase = obs.phase("coupled_csv_encode");
                codec::write_table(&mut w, table)
                    .and_then(|()| w.flush())
                    .map_err(Error::write("cannot write"))
            })
        });
        let scored = {
            let _phase = obs.phase("coupled_score");
            score_table(table, &out.schedule, &ctx, basis)
        };
        if let Some(writer) = writer {
            writer.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        }
        Ok::<_, Error>(scored)
    })?;

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
    let _ = writeln!(r, "{}", report::attribution_report(&counts));
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
    let _ = writeln!(r, "{}", report::table5(&exp));
    let _ = writeln!(r, "{}", report::table6(&exp));
    let _ = writeln!(r, "{}", report::table10(&exp));
    Ok(r)
}
