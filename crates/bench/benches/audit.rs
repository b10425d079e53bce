//! Criterion benches for the static analyzer (`BENCH_audit.json`):
//! per-policy analysis cost over the paper's corpus, the semantic-diff
//! transition matrix, an estate-scale liveness sweep, and the
//! admission payoff — recompiles avoided when cosmetic digests are
//! skipped instead of invalidating warm automata.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use botscope_monitor::daemon::ChangeDigest;
use botscope_monitor::{apply_digests, prime_estate};
use botscope_robotstxt::analysis::{
    analyze, classify_change, divergence_hazards, rule_liveness, semantic_diff, ChangeClass,
};
use botscope_robotstxt::{CompiledPolicy, PolicyEstate};
use botscope_study::PolicyVersion;

fn bench_analyzer(c: &mut Criterion) {
    let docs: Vec<_> = PolicyVersion::ALL.iter().map(|v| v.robots_txt()).collect();
    let compiled: Vec<_> = docs.iter().map(CompiledPolicy::compile).collect();

    let mut g = c.benchmark_group("audit");

    // Full analysis (liveness + lints + divergence hazards) per corpus
    // policy, parse-to-findings.
    g.throughput(Throughput::Elements(docs.len() as u64));
    g.bench_function("analyze_corpus", |b| {
        b.iter(|| {
            let mut findings = 0usize;
            for doc in &docs {
                findings += analyze(black_box(doc)).findings.len();
            }
            findings
        });
    });

    // The two automaton passes in isolation, over pre-compiled policies.
    g.throughput(Throughput::Elements(compiled.len() as u64));
    g.bench_function("rule_liveness_corpus", |b| {
        b.iter(|| {
            let mut alive = 0usize;
            for policy in &compiled {
                alive += rule_liveness(black_box(policy)).0.len();
            }
            alive
        });
    });
    g.bench_function("divergence_hazards_corpus", |b| {
        b.iter(|| {
            let mut hazards = 0usize;
            for policy in &compiled {
                hazards += divergence_hazards(black_box(policy)).0.len();
            }
            hazards
        });
    });

    // Semantic diff over all 12 ordered version transitions — the
    // product-automaton walk that prices digest classification.
    g.throughput(Throughput::Elements(12));
    g.bench_function("semantic_diff_matrix", |b| {
        b.iter(|| {
            let mut behavioral = 0usize;
            for left in &compiled {
                for right in &compiled {
                    if std::ptr::eq(left, right) {
                        continue;
                    }
                    let diff = semantic_diff(black_box(left), black_box(right));
                    behavioral += usize::from(!diff.delay_changes.is_empty());
                }
            }
            behavioral
        });
    });
    g.finish();
}

/// Estate-scale sweep: liveness proofs over a 64-site deployment, the
/// unit `botscope audit --estate` runs per monitoring pass.
fn bench_estate_sweep(c: &mut Criterion) {
    let sites = 64usize;
    let compiled: Vec<_> = (0..sites)
        .map(|i| CompiledPolicy::compile(&PolicyVersion::ALL[i % 4].robots_txt()))
        .collect();

    let mut g = c.benchmark_group("audit");
    g.throughput(Throughput::Elements(sites as u64));
    g.bench_function("liveness_sweep_64_sites", |b| {
        b.iter(|| {
            let mut alive = 0usize;
            for policy in &compiled {
                alive += rule_liveness(black_box(policy)).0.len();
            }
            alive
        });
    });
    g.finish();
}

/// The payoff: one monitoring pass's digests folded into a warm
/// estate, with and without cosmetic classification. The cosmetic
/// variant re-checks every site afterwards at zero recompiles.
fn bench_recompiles_avoided(c: &mut Criterion) {
    let sites: Vec<String> = (0..36).map(|i| format!("site-{i:02}.example.edu")).collect();
    let base = PolicyVersion::Base.robots_txt();
    // A pass where half the digests are semantically cosmetic (the
    // served bytes changed; the decisions did not).
    let digest = |site: &str, class: ChangeClass| ChangeDigest {
        site: site.to_string(),
        at: 12,
        from: PolicyVersion::Base,
        to: PolicyVersion::Base,
        observers: 1,
        tightened: 0,
        loosened: 0,
        delay_changes: 0,
        class,
    };
    let digests: Vec<ChangeDigest> = sites
        .iter()
        .enumerate()
        .map(|(i, s)| {
            digest(s, if i % 2 == 0 { ChangeClass::Cosmetic } else { ChangeClass::Behavioral })
        })
        .collect();
    assert_eq!(classify_change(&base, &base), ChangeClass::Cosmetic);

    let warm_estate = || {
        let mut estate = PolicyEstate::new();
        prime_estate(&mut estate, sites.iter().map(|s| (s.as_str(), PolicyVersion::Base)));
        for site in &sites {
            estate.check(site, "GPTBot", "/news/item-001");
        }
        estate
    };

    let mut g = c.benchmark_group("audit");
    g.throughput(Throughput::Elements(sites.len() as u64));
    g.bench_function("apply_digests_rewarm_36_sites", |b| {
        b.iter_batched(
            warm_estate,
            |mut estate| {
                let outcome = apply_digests(&mut estate, black_box(&digests));
                // Re-warm: only behaviorally-invalidated sites recompile.
                let mut allowed = 0u64;
                for site in &sites {
                    allowed += u64::from(estate.check(site, "GPTBot", "/news/item-001").unwrap());
                }
                assert_eq!(outcome.cosmetic_skips, sites.len() / 2);
                assert_eq!(estate.compiles(), (sites.len() + outcome.dropped) as u64);
                (allowed, estate)
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_analyzer, bench_estate_sweep, bench_recompiles_avoided);
criterion_main!(benches);
