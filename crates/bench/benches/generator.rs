//! Criterion benches for the traffic generator: rows/second into a
//! `LogTable` at increasing scale, and the end-to-end experiment
//! analysis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use botscope_core::Experiment;
use botscope_simnet::scenario::{full_study_table, phase_study_table};
use botscope_simnet::SimConfig;

fn bench_generator(c: &mut Criterion) {
    let mut g = c.benchmark_group("generator");
    g.sample_size(10);
    for &scale in &[0.02f64, 0.05, 0.1] {
        let cfg = SimConfig { days: 10, scale, ..SimConfig::default() };
        let n = full_study_table(&cfg).table.len() as u64;
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("full_study_10d", scale), &cfg, |b, cfg| {
            b.iter(|| full_study_table(cfg));
        });
    }
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    let cfg = SimConfig { scale: 0.05, sites: 8, ..SimConfig::default() };
    g.bench_function("phase_study_generate", |b| b.iter(|| phase_study_table(&cfg)));
    g.bench_function("phase_study_generate_and_analyze", |b| {
        b.iter(|| {
            let out = phase_study_table(&cfg);
            Experiment::analyze_table(&out.sim.table, &out.schedule)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_generator, bench_end_to_end);
criterion_main!(benches);
