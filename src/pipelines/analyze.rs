//! `analyze`: the plain per-bot report and the §4 phase report.

use std::fmt::Write as _;
use std::io::BufRead;

use botscope_core::analyze::Experiment;
use botscope_core::pipeline::{tally_bots, BotTallies};
use botscope_core::report;
use botscope_core::spoofdetect::{DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS};
use botscope_study::phase_study_schedule;
use botscope_weblog::codec::{self, DecodeError};
use botscope_weblog::colfmt::{self, BinReader};
use botscope_weblog::stream::{prefetch, CsvRowStream};
use botscope_weblog::{LogTable, RowStream, StringInterner};

use super::Error;

/// What `analyze` prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzeMode {
    /// Per-bot record counts, crawl-delay pacing and spoofing signals.
    Plain,
    /// `--phase-report`: the 8-week phase study's experiment tables
    /// from the single-pass analyzer, streaming the log in bounded
    /// memory; the rows must be time-sorted.
    PhaseReport,
    /// `--phase-report --table`: the same tables over the materialized
    /// log, whose rows may come in any order.
    PhaseReportTable,
}

/// `botscope analyze`: read a CSV or `BSCL` log (told apart by the
/// binary magic) from `input` and return the report.
///
/// `--phase-report` on a `BSCL` log decodes on a helper thread ahead of
/// the fold when `threads` ≥ 2 ([`prefetch`]); every other mode, and the
/// streamed CSV, whose decoding is itself the slow stage, run on the
/// calling thread. The report is the same at any `threads`. The phases
/// `analyze_decode` (where decoding runs apart from the fold: on the
/// helper, or before the fold of a materialized log), `analyze_fold` and
/// `analyze_render` go to the run manifest.
pub fn analyze<R: BufRead + Send>(
    mut input: R,
    mode: AnalyzeMode,
    threads: usize,
) -> Result<String, Error> {
    let obs = botscope_obs::global();
    let binary = input.fill_buf().map_err(Error::Read)?.starts_with(&colfmt::MAGIC);
    let schedule = phase_study_schedule();
    let fold = |rows: &mut dyn RowStream| {
        let _phase = obs.phase("analyze_fold");
        Experiment::analyze_stream(rows, &schedule)
    };
    let exp = match mode {
        AnalyzeMode::PhaseReport if binary => {
            prefetch(DecodePhase::new(BinReader::new(input)?), threads, fold)?
        }
        AnalyzeMode::PhaseReport => fold(&mut CsvRowStream::new(input)?)?,
        AnalyzeMode::Plain | AnalyzeMode::PhaseReportTable => {
            // Decode straight into the interned table, so a multi-GB log
            // never needs a full in-memory copy of its text or its strings.
            let table = {
                let _phase = obs.phase("analyze_decode");
                if binary {
                    colfmt::read_table(input)?
                } else {
                    codec::decode_table_read(input)?
                }
            };
            let _phase = obs.phase("analyze_fold");
            if mode == AnalyzeMode::Plain {
                let tallies = tally_bots(&table);
                drop(_phase);
                let _phase = obs.phase("analyze_render");
                return Ok(plain_report(&table, &tallies));
            }
            Experiment::analyze_table(&table, &schedule)
        }
    };
    let _phase = obs.phase("analyze_render");
    Ok(phase_report_text(&exp))
}

/// A row stream that records the wall time of its drain, first row to
/// end, as the `analyze_decode` phase, but only when a thread other than
/// the one that made it drains it: the time of a decode thread.
struct DecodePhase<S> {
    rows: S,
    /// The maker's thread, until the first row is asked for.
    made_on: Option<std::thread::ThreadId>,
    span: Option<botscope_obs::PhaseSpan<'static>>,
}

impl<S> DecodePhase<S> {
    fn new(rows: S) -> DecodePhase<S> {
        DecodePhase { rows, made_on: Some(std::thread::current().id()), span: None }
    }
}

impl<S: RowStream> RowStream for DecodePhase<S> {
    fn next_row(&mut self) -> Option<Result<botscope_weblog::RecordRow, DecodeError>> {
        if let Some(made_on) = self.made_on.take() {
            if std::thread::current().id() != made_on {
                self.span = Some(botscope_obs::global().phase("analyze_decode"));
            }
        }
        let row = self.rows.next_row();
        if !matches!(row, Some(Ok(_))) {
            self.span = None;
        }
        row
    }

    fn interner(&self) -> &StringInterner {
        self.rows.interner()
    }
}

/// The phase-study report (Tables 4/5/6/7/9/10, Figure 9 both ways): a
/// pure function of the analysis, so streamed and materialized runs
/// print the same bytes.
pub fn phase_report_text(exp: &Experiment) -> String {
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

/// Plain `analyze`: record counts, each known bot's share of accesses
/// paced ≥ 30 s, and the §5.2 spoofing findings.
fn plain_report(table: &LogTable, tallies: &BotTallies) -> String {
    let spoof = tallies.spoof_report(DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS);
    let mut r = String::new();
    let _ = writeln!(r, "{} records", table.len());
    let _ = writeln!(
        r,
        "{} known bots ({} records), {} anonymous records\n",
        tallies.bots.len(),
        tallies.known_records,
        tallies.anonymous_records
    );
    let _ = writeln!(r, "{:<28} {:>8} {:>14}", "bot", "records", "pace>=30s");
    for (bot, tally) in &tallies.bots {
        let counts = tally.crawl_delay();
        let _ = writeln!(
            r,
            "{:<28} {:>8} {:>14}",
            bot.canonical,
            tally.records,
            counts.ratio().map(|r| format!("{r:.3}")).unwrap_or_else(|| "-".into())
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
