//! Criterion benches for the RFC 9309 substrate: parse and match
//! throughput on the study's own policy files and on a large synthetic
//! file stressing the 500 KiB path.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use botscope_robotstxt::parser::parse;
use botscope_robotstxt::CompiledPolicy;
use botscope_study::PolicyVersion;

fn paper_files(c: &mut Criterion) {
    let mut g = c.benchmark_group("parse_paper_files");
    for v in PolicyVersion::ALL {
        let text = v.robots_txt().to_string();
        g.throughput(Throughput::Bytes(text.len() as u64));
        g.bench_function(v.label(), |b| b.iter(|| parse(black_box(&text))));
    }
    g.finish();
}

fn large_file(c: &mut Criterion) {
    // ~400 KiB of rules, near the RFC cap.
    let mut text = String::from("User-agent: *\n");
    let mut i = 0;
    while text.len() < 400 * 1024 {
        text.push_str(&format!("Disallow: /private/section-{i}/subsection/*\n"));
        i += 1;
    }
    let mut g = c.benchmark_group("parse_large_file");
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("400KiB", |b| b.iter(|| parse(black_box(&text))));
    g.finish();
}

fn matching(c: &mut Criterion) {
    let doc = PolicyVersion::V2EndpointOnly.robots_txt();
    let paths = [
        "/page-data/item-001/page-data.json",
        "/news/item-042",
        "/people/person-0100",
        "/robots.txt",
    ];
    let agents = ["GPTBot", "Googlebot", "ClaudeBot", "unknown-bot"];
    // A 16-check grid through the compiled automaton.
    let compiled = CompiledPolicy::compile(&doc);
    c.bench_function("is_allowed_v2_compiled", |b| {
        b.iter(|| {
            let mut allowed = 0u32;
            for agent in &agents {
                for path in &paths {
                    if compiled.check(black_box(agent), black_box(path)).allow {
                        allowed += 1;
                    }
                }
            }
            allowed
        });
    });

    // Wildcard-heavy matching.
    let wild_compiled = CompiledPolicy::from_text(
        "User-agent: *\nDisallow: /*/*/deep/*.json$\nDisallow: /a*b*c*d\nAllow: /a*b/ok\n",
    );
    c.bench_function("is_allowed_wildcards_compiled", |b| {
        b.iter(|| wild_compiled.check(black_box("bot"), black_box("/x/y/deep/file.json")).allow);
    });

    // One-time compile cost, for the amortization story: how many
    // checks a compile must serve before the automaton pays for itself.
    c.bench_function("compile_v2", |b| b.iter(|| CompiledPolicy::compile(black_box(&doc))));
}

criterion_group!(benches, paper_files, large_file, matching);
criterion_main!(benches);
