//! `analyze`: the plain per-bot report and the §4 phase report.

use std::fmt::Write as _;
use std::io::BufRead;

use botscope_core::analyze::Experiment;
use botscope_core::pipeline::tally_bots;
use botscope_core::report;
use botscope_core::spoofdetect::{DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS};
use botscope_study::phase_study_schedule;
use botscope_weblog::colfmt::{self, BinReader};
use botscope_weblog::stream::CsvRowStream;
use botscope_weblog::{codec, LogTable, RowStream};

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
pub fn analyze<R: BufRead>(mut input: R, mode: AnalyzeMode) -> Result<String, Error> {
    let binary = input.fill_buf().map_err(Error::Read)?.starts_with(&colfmt::MAGIC);
    let exp = if mode == AnalyzeMode::PhaseReport {
        let mut rows: Box<dyn RowStream + '_> = if binary {
            Box::new(BinReader::new(input)?)
        } else {
            Box::new(CsvRowStream::new(input)?)
        };
        Experiment::analyze_stream(&mut *rows, &phase_study_schedule())?
    } else {
        // Decode straight into the interned table, so a multi-GB log
        // never needs a full in-memory copy of its text or its strings.
        let table =
            if binary { colfmt::read_table(input)? } else { codec::decode_table_read(input)? };
        if mode == AnalyzeMode::Plain {
            return Ok(plain_report(&table));
        }
        Experiment::analyze_table(&table, &phase_study_schedule())
    };
    Ok(phase_report_text(&exp))
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
fn plain_report(table: &LogTable) -> String {
    let tallies = tally_bots(table);
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
