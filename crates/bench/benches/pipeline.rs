//! Criterion benches for the analysis pipeline stages: standardization
//! (per row, and per distinct agent with a cold token memo),
//! sessionization, the three compliance metrics, spoof detection, and
//! the end-to-end `Experiment::analyze_table` engine (generation
//! excluded), whose throughput line lands in `BENCH_pipeline.json` so
//! analysis speedups are tracked like generation ones.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use botscope_core::metrics::{
    crawl_delay_counts_rows, disallow_counts_rows, endpoint_counts_rows, PathClasses,
};
use botscope_core::pipeline::standardize_table;
use botscope_core::spoofdetect::detect_rows;
use botscope_core::Experiment;
use botscope_simnet::scenario::{full_study_table, phase_study_table};
use botscope_simnet::SimConfig;
use botscope_useragent::Standardizer;

fn bench_pipeline(c: &mut Criterion) {
    let cfg = SimConfig { days: 10, scale: 0.05, ..SimConfig::default() };
    let table = full_study_table(&cfg).table;

    let mut g = c.benchmark_group("pipeline");
    g.throughput(Throughput::Elements(table.len() as u64));

    g.bench_function("standardize", |b| b.iter(|| standardize_table(black_box(&table))));

    g.bench_function("sessionize_5min", |b| b.iter(|| black_box(&table).sessionize(300)));

    let logs = standardize_table(&table);
    let per_bot = logs.per_bot_rows();
    g.bench_function("spoof_detect", |b| b.iter(|| detect_rows(&table, black_box(&per_bot))));

    // Metric throughput over the busiest bot.
    let busiest = per_bot.values().max_by_key(|v| v.len()).expect("non-empty dataset");
    let classes = PathClasses::new(&table);
    g.throughput(Throughput::Elements(busiest.len() as u64));
    g.bench_function("crawl_delay_metric", |b| {
        b.iter(|| crawl_delay_counts_rows(black_box(busiest), 30));
    });
    g.bench_function("endpoint_metric", |b| {
        b.iter(|| endpoint_counts_rows(&classes, black_box(busiest)));
    });
    g.bench_function("disallow_metric", |b| {
        b.iter(|| disallow_counts_rows(&classes, black_box(busiest)));
    });
    g.finish();
}

/// One fresh [`Standardizer`] over every distinct user agent of a
/// scale-0.25 phase study, the shape of the stream engine's work: the
/// row-level `pipeline/standardize` line repeats agents, which hides the
/// fuzzy pass.
fn bench_standardize_distinct(c: &mut Criterion) {
    let cfg = SimConfig { scale: 0.25, ..SimConfig::default() };
    let table = phase_study_table(&cfg).sim.table;
    let mut seen = vec![false; table.interner().len()];
    let mut agents: Vec<&str> = Vec::new();
    for row in table.rows() {
        if !std::mem::replace(&mut seen[row.useragent.index()], true) {
            agents.push(table.resolve(row.useragent));
        }
    }
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(20);
    g.throughput(Throughput::Elements(agents.len() as u64));
    g.bench_function("standardize_distinct_agents", |b| {
        b.iter(|| {
            let mut standardizer = Standardizer::new();
            black_box(&agents).iter().filter(|a| standardizer.standardize(a).is_some()).count()
        });
    });
    g.finish();
}

/// The full §4 analysis engine over a pre-generated phase study — the
/// same workload as `end_to_end/phase_study_generate_and_analyze` minus
/// generation.
fn bench_analysis(c: &mut Criterion) {
    let cfg = SimConfig { scale: 0.05, sites: 8, ..SimConfig::default() };
    let out = phase_study_table(&cfg);
    let mut g = c.benchmark_group("analysis");
    g.sample_size(10);
    g.throughput(Throughput::Elements(out.sim.table.len() as u64));
    g.bench_function("experiment_analyze_table", |b| {
        b.iter(|| Experiment::analyze_table(black_box(&out.sim.table), &out.schedule));
    });
    g.finish();
}

/// The bounded-memory path: streamed generation through the disk-spill
/// k-way merge, binary encode/decode, and the single-pass streaming
/// analyzer — each against the same workload the materialized benches
/// use, so the overhead of never holding the table is visible.
fn bench_streaming(c: &mut Criterion) {
    use botscope_simnet::engine::{simulate_stream_with_threads, StreamOptions};
    use botscope_weblog::colfmt::{BinReader, BinSink};
    use botscope_weblog::sink::RowSink;
    use botscope_weblog::stream::TableRowStream;

    let cfg = SimConfig { scale: 0.05, sites: 8, ..SimConfig::default() };
    let out = phase_study_table(&cfg);
    let rows = out.sim.table.len() as u64;

    let mut g = c.benchmark_group("streaming");
    g.sample_size(10);
    g.throughput(Throughput::Elements(rows));

    // Generation → spill → merge → discarded binary bytes.
    let (lo, hi) = out.schedule.bounds();
    let gen_cfg = SimConfig { start: lo, days: hi.days_since(lo), ..cfg.clone() };
    g.bench_function("simulate_stream_bin", |b| {
        b.iter(|| {
            let mut sink = BinSink::new(std::io::sink()).expect("bin sink");
            simulate_stream_with_threads(
                black_box(&gen_cfg),
                &out.schedule,
                1,
                &StreamOptions::default(),
                &mut [&mut sink as &mut dyn RowSink],
            )
            .expect("streaming simulate")
        });
    });

    // Binary encode and decode of the materialized table.
    let mut bin = Vec::new();
    botscope_weblog::colfmt::write_table(&mut bin, &out.sim.table).expect("encode");
    g.bench_function("binary_encode", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(bin.len());
            botscope_weblog::colfmt::write_table(&mut buf, black_box(&out.sim.table))
                .expect("encode");
            buf
        });
    });
    g.bench_function("binary_decode_stream", |b| {
        b.iter(|| {
            let mut reader = BinReader::new(black_box(&bin[..])).expect("header");
            let mut n = 0u64;
            while let Some(row) = reader.next_row() {
                row.expect("clean row");
                n += 1;
            }
            n
        });
    });

    // Single-pass analysis over the sorted in-memory stream.
    g.bench_function("experiment_analyze_stream", |b| {
        b.iter(|| {
            let mut stream = TableRowStream::new(black_box(&out.sim.table));
            Experiment::analyze_stream(&mut stream, &out.schedule).expect("clean stream")
        });
    });
    g.finish();
}

/// The serial k-way merge behind every streamed path: the phase-study
/// table split into 8 canonically sorted runs, merged into a counting
/// sink.
fn bench_merge(c: &mut Criterion) {
    use botscope_weblog::sink::{CountingSink, RowSink};
    use botscope_weblog::table::LogTable;
    use botscope_weblog::{merge_runs, MergeRun};

    let cfg = SimConfig { scale: 0.05, sites: 8, ..SimConfig::default() };
    let table = phase_study_table(&cfg).sim.table;
    let rows = table.len() as u64;

    // Strided sub-tables of a canonically sorted table stay sorted, so
    // they are valid merge runs with maximally interleaved keys — the
    // merge's worst case.
    const RUNS: usize = 8;
    let mut subs: Vec<LogTable> = (0..RUNS).map(|_| LogTable::new()).collect();
    for (i, record) in table.iter_records().enumerate() {
        subs[i % RUNS].push_record(&record);
    }

    let mut g = c.benchmark_group("merge");
    g.sample_size(10);
    g.throughput(Throughput::Elements(rows));
    let make_runs = || subs.iter().cloned().map(MergeRun::from_table).collect::<Vec<_>>();
    g.bench_function("merge_runs_serial/8_runs", |b| {
        b.iter_batched(
            make_runs,
            |runs| {
                let mut counter = CountingSink::default();
                merge_runs(runs, &mut [&mut counter as &mut dyn RowSink]).expect("merge")
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_pipeline,
    bench_standardize_distinct,
    bench_analysis,
    bench_streaming,
    bench_merge
);
criterion_main!(benches);
