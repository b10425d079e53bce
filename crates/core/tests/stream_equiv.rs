//! Streamed analysis must reproduce the analysis of the materialized
//! table exactly — over in-memory rows, over a CSV round-trip, over a
//! binary round-trip, and over the generator's streamed output.

use botscope_core::analyze::Experiment;
use botscope_simnet::engine::{simulate_stream_with_threads, StreamOptions};
use botscope_simnet::scenario::phase_study_table;
use botscope_simnet::SimConfig;
use botscope_weblog::codec;
use botscope_weblog::colfmt::{BinReader, BinSink};
use botscope_weblog::sink::RowSink;
use botscope_weblog::stream::{CsvRowStream, TableRowStream};

fn assert_experiments_equal(a: &Experiment, b: &Experiment, label: &str) {
    assert_eq!(a.schedule, b.schedule, "{label}: schedule");
    assert_eq!(a.phase_traffic, b.phase_traffic, "{label}: phase_traffic");
    assert_eq!(a.spoof_report, b.spoof_report, "{label}: spoof_report");
    assert_eq!(a.spoof_volume, b.spoof_volume, "{label}: spoof_volume");
    assert_eq!(a.per_directive, b.per_directive, "{label}: per_directive");
    assert_eq!(a.spoofed_per_directive, b.spoofed_per_directive, "{label}: spoofed_per_directive");
}

#[test]
fn stream_analysis_matches_table_analysis() {
    let cfg = SimConfig { scale: 0.15, sites: 4, ..SimConfig::default() };
    let out = phase_study_table(&cfg);

    let mut table_stream = TableRowStream::new(&out.sim.table);
    let streamed =
        Experiment::analyze_stream(&mut table_stream, &out.schedule).expect("clean stream");
    assert!(
        streamed.per_directive.values().any(|rows| !rows.is_empty()),
        "scale 0.15 should produce per-bot rows"
    );
    let tabled = Experiment::analyze_table(&out.sim.table, &out.schedule);
    assert_experiments_equal(&streamed, &tabled, "table stream");
}

#[test]
fn stream_analysis_survives_csv_and_binary_round_trips() {
    let cfg = SimConfig { scale: 0.08, sites: 3, ..SimConfig::default() };
    let out = phase_study_table(&cfg);
    let reference = Experiment::analyze_table(&out.sim.table, &out.schedule);

    let csv = codec::encode_table(&out.sim.table);
    let mut csv_stream = CsvRowStream::new(csv.as_bytes()).expect("valid header");
    let from_csv =
        Experiment::analyze_stream(&mut csv_stream, &out.schedule).expect("clean CSV stream");
    assert_experiments_equal(&from_csv, &reference, "CSV round trip");

    let mut bin = Vec::new();
    botscope_weblog::colfmt::write_table(&mut bin, &out.sim.table).expect("encode binary");
    let mut bin_stream = BinReader::new(&bin[..]).expect("valid binary header");
    let from_bin =
        Experiment::analyze_stream(&mut bin_stream, &out.schedule).expect("clean binary stream");
    assert_experiments_equal(&from_bin, &reference, "binary round trip");
}

#[test]
fn generator_stream_to_binary_to_analysis_matches_in_memory_pipeline() {
    // The full bounded-memory pipeline on a small config: streamed
    // generation → binary bytes → streaming analysis, against
    // materialized generation → table analysis.
    let cfg = SimConfig { scale: 0.08, sites: 3, ..SimConfig::default() };
    let out = phase_study_table(&cfg);
    let reference = Experiment::analyze_table(&out.sim.table, &out.schedule);

    // Re-derive the generator's exact config the way phase_study_table
    // does (its bounds override days/start).
    let (lo, hi) = out.schedule.bounds();
    let stream_cfg = SimConfig { start: lo, days: hi.days_since(lo), ..cfg.clone() };
    let opts = StreamOptions { rows_per_run: 50_000, spill_dir: None };
    let mut bin = BinSink::new(Vec::new()).expect("bin sink");
    simulate_stream_with_threads(
        &stream_cfg,
        &out.schedule,
        2,
        &opts,
        &mut [&mut bin as &mut dyn RowSink],
    )
    .expect("streaming simulate");

    let bytes = bin.into_inner();
    let mut stream = BinReader::new(&bytes[..]).expect("valid binary header");
    let streamed =
        Experiment::analyze_stream(&mut stream, &out.schedule).expect("clean binary stream");
    assert_experiments_equal(&streamed, &reference, "generator → binary → analysis");
}
