//! Criterion benches for the batch "may-I-crawl" admission path: raw
//! compiled-automaton checks, the `check_many` bitmask batch, and the
//! site-keyed [`PolicyEstate`] serving layer — per-check throughput is
//! the headline number (`BENCH_admission.json`), with the one-time
//! compile cost alongside so the amortization math stays visible.
//!
//! [`PolicyEstate`]: botscope_robotstxt::PolicyEstate

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use botscope_robotstxt::{CompiledPolicy, PolicyEstate};
use botscope_study::PolicyVersion;

/// A representative admission workload over the paper's v2 policy:
/// allowed page-data endpoints, denied content paths, the implicit
/// robots.txt allowance, and exempt-agent traffic.
fn workload() -> (Vec<String>, Vec<&'static str>) {
    let mut paths = Vec::new();
    for i in 0..256 {
        paths.push(format!("/page-data/item-{i:03}/page-data.json"));
        paths.push(format!("/news/item-{i:03}"));
        paths.push(format!("/people/person-{i:04}"));
        if i % 64 == 0 {
            paths.push("/robots.txt".to_string());
        }
    }
    let agents = vec!["GPTBot", "Googlebot", "ClaudeBot", "unknown-bot"];
    (paths, agents)
}

fn bench_admission(c: &mut Criterion) {
    let (paths, agents) = workload();
    let path_refs: Vec<&str> = paths.iter().map(String::as_str).collect();
    let compiled = CompiledPolicy::compile(&PolicyVersion::V2EndpointOnly.robots_txt());

    let mut g = c.benchmark_group("admission");

    // Single-check loop: one automaton, the full (agent × path) grid.
    let grid = (agents.len() * path_refs.len()) as u64;
    g.throughput(Throughput::Elements(grid));
    g.bench_function("check_grid", |b| {
        b.iter(|| {
            let mut allowed = 0u64;
            for agent in &agents {
                for path in &path_refs {
                    allowed += u64::from(compiled.check(black_box(agent), black_box(path)).allow);
                }
            }
            allowed
        });
    });

    // The batch bitmask path: agent resolved once, paths streamed.
    g.throughput(Throughput::Elements(path_refs.len() as u64));
    g.bench_function("check_many", |b| {
        b.iter(|| compiled.check_many(black_box("GPTBot"), black_box(&path_refs)));
    });

    // The serving layer: site-keyed dispatch over a warm 36-site
    // estate, queries striped across sites like `botscope admit` sees.
    let sites: Vec<String> = (0..36).map(|i| format!("site-{i:02}.example.edu")).collect();
    let mut estate = PolicyEstate::new();
    for (i, site) in sites.iter().enumerate() {
        estate.insert(site, PolicyVersion::ALL[i % 4].robots_txt());
    }
    for site in &sites {
        estate.check(site, "GPTBot", "/robots.txt");
    }
    g.throughput(Throughput::Elements(path_refs.len() as u64));
    g.bench_function("estate_hot_36_sites", |b| {
        b.iter(|| {
            let mut allowed = 0u64;
            for (i, path) in path_refs.iter().enumerate() {
                let site = &sites[i % sites.len()];
                let agent = agents[i % agents.len()];
                allowed +=
                    u64::from(estate.check(black_box(site), agent, black_box(path)).unwrap());
            }
            allowed
        });
    });

    // Cold start: register + lazily compile the whole estate, one check
    // per site — what a monitoring pass's invalidations cost to re-warm.
    g.throughput(Throughput::Elements(sites.len() as u64));
    g.bench_function("estate_cold_compile_36_sites", |b| {
        b.iter_batched(
            || {
                let mut estate = PolicyEstate::new();
                for (i, site) in sites.iter().enumerate() {
                    estate.insert(site, PolicyVersion::ALL[i % 4].robots_txt());
                }
                estate
            },
            |mut estate| {
                let mut allowed = 0u64;
                for site in &sites {
                    allowed += u64::from(estate.check(site, "GPTBot", "/news/item-001").unwrap());
                }
                (allowed, estate)
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_admission);
criterion_main!(benches);
