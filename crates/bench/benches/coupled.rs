//! Criterion benches for the coupled pipeline: belief collection →
//! belief-driven generation, plus the attribution scoring stage and the
//! CSV encode behind `simulate --coupled --out` alone.
//!
//! `coupled/score_believed` is the scoring half of
//! `simulate --coupled --basis believed`: one attribution sweep, then
//! the compliance tables without the rows it excused.
//!
//! The headline line is `coupled/scale_1.0_attributed`: the full
//! 8-week, scale-1.0, 36-site coupled study — belief daemon over the
//! whole fleet, generation consulting the atlas, then per-bot
//! violation attribution — on a single core. The ROADMAP acceptance
//! bound for that line (< 1 s steady-state) is enforced by the
//! `coupledbench` bin, not here.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use botscope_core::analyze::Experiment;
use botscope_core::attribution::{attribute_rows, attribute_table_with_threads};
use botscope_monitor::{run_coupled_with_threads, CoupledConfig, RefreshModel, ScenarioKind};
use botscope_simnet::SimConfig;
use botscope_study::PolicyCorpus;
use botscope_weblog::codec;

fn config(scale: f64) -> CoupledConfig {
    CoupledConfig {
        sim: SimConfig { scale, sites: 12, ..SimConfig::default() },
        scenario: ScenarioKind::Mixed,
        refresh: RefreshModel::Fleet,
    }
}

/// The paper-scale run: every estate site, full traffic volume.
fn paper_config() -> CoupledConfig {
    CoupledConfig {
        sim: SimConfig { scale: 1.0, sites: 36, ..SimConfig::default() },
        scenario: ScenarioKind::Mixed,
        refresh: RefreshModel::Fleet,
    }
}

fn bench_coupled(c: &mut Criterion) {
    let mut g = c.benchmark_group("coupled");
    g.sample_size(10);
    for &scale in &[0.05, 0.25] {
        let cfg = config(scale);
        // Throughput denominator: generated rows of one run.
        let rows = run_coupled_with_threads(&cfg, 1).sim.table.len() as u64;
        g.throughput(Throughput::Elements(rows));
        g.bench_with_input(BenchmarkId::new("run_8w_12sites", scale), &cfg, |b, cfg| {
            b.iter(|| run_coupled_with_threads(cfg, 1));
        });
    }
    g.finish();
}

/// Believed-basis scoring of the scale-0.25 coupled table, single-core:
/// the attribution sweep feeds its excusal mask to the analysis.
fn bench_score_believed(c: &mut Criterion) {
    let mut g = c.benchmark_group("coupled");
    g.sample_size(10);
    let corpus = PolicyCorpus::new();
    let out = run_coupled_with_threads(&config(0.25), 1);
    g.throughput(Throughput::Elements(out.sim.table.len() as u64));
    g.bench_function("score_believed", |b| {
        b.iter(|| {
            let attribution = attribute_rows(&out.sim.table, &out.beliefs, &out.served, &corpus, 1);
            let exp = Experiment::analyze_table_excluding(
                &out.sim.table,
                &out.schedule,
                &attribution.excused,
            );
            black_box((attribution.counts.len(), exp.per_directive.len()))
        });
    });
    g.finish();
}

/// The full study with attribution at paper scale, single-core — the
/// line the ROADMAP bound is stated against.
fn bench_paper_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("coupled");
    g.sample_size(10);
    let cfg = paper_config();
    let corpus = PolicyCorpus::new();
    let rows = run_coupled_with_threads(&cfg, 1).sim.table.len() as u64;
    g.throughput(Throughput::Elements(rows));
    g.bench_function("scale_1.0_attributed", |b| {
        b.iter(|| {
            let out = run_coupled_with_threads(&cfg, 1);
            black_box(attribute_table_with_threads(
                &out.sim.table,
                &out.beliefs,
                &out.served,
                &corpus,
                1,
            ))
            .len()
        });
    });
    g.finish();
}

fn bench_attribution(c: &mut Criterion) {
    let mut g = c.benchmark_group("attribution");
    g.sample_size(10);
    let corpus = PolicyCorpus::new();
    let cfg = config(0.25);
    let out = run_coupled_with_threads(&cfg, 1);
    g.throughput(Throughput::Elements(out.sim.table.len() as u64));
    g.bench_function("attribute_8w_12sites_0.25", |b| {
        b.iter(|| {
            black_box(attribute_table_with_threads(
                &out.sim.table,
                &out.beliefs,
                &out.served,
                &corpus,
                1,
            ))
            .len()
        });
    });
    // The attribution stage alone at paper scale (single core): shows
    // the cursor hoist's effect without the generation stages.
    let cfg = paper_config();
    let out = run_coupled_with_threads(&cfg, 1);
    g.throughput(Throughput::Elements(out.sim.table.len() as u64));
    g.bench_function("attribute_8w_36sites_1.0", |b| {
        b.iter(|| {
            black_box(attribute_table_with_threads(
                &out.sim.table,
                &out.beliefs,
                &out.served,
                &corpus,
                1,
            ))
            .len()
        });
    });
    g.finish();
}

/// The CSV encode of a coupled log (scale 0.25, all 36 estate sites)
/// into memory: `codec::write_table`, the `--out` stage of
/// `simulate --coupled`, without the file system. Then the decode of
/// those same bytes: `codec::decode_table_read`, the input stage of
/// `analyze`.
fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    g.sample_size(10);
    let cfg =
        CoupledConfig { sim: SimConfig { scale: 0.25, ..paper_config().sim }, ..paper_config() };
    let table = run_coupled_with_threads(&cfg, 1).sim.table;
    let mut probe = Vec::new();
    codec::write_table(&mut probe, &table).expect("encode into memory");
    let bytes = probe.len();
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("write_table", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(bytes);
            codec::write_table(&mut out, &table).expect("encode into memory");
            black_box(out.len())
        });
    });
    g.bench_function("decode_table_read", |b| {
        b.iter(|| codec::decode_table_read(black_box(&probe[..])).expect("decode own CSV").len());
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_coupled,
    bench_score_believed,
    bench_paper_scale,
    bench_attribution,
    bench_codec
);
criterion_main!(benches);
