//! Paper-scale perf gate for the coupled pipeline.
//!
//! Runs the full 8-week coupled study (belief daemon → belief-driven
//! generation) plus its scoring sweep (per-bot violation attribution
//! and the believed-basis tables), single-core by default, and reports
//! steady-state wall time (one untimed warmup run, then the mean over
//! `reps` timed runs).
//!
//! ```text
//! coupledbench [scale=1.0] [sites=36] [reps=3] [threads=1]
//! ```
//!
//! The ROADMAP acceptance bound — scale 1.0, 36 sites, with
//! scoring, in under 1 s of single-core steady-state compute — is
//! enforced whenever the run is at (or above) that shape: the process
//! exits non-zero if the bound is missed, so CI can gate on it.

use std::time::Instant;

use botscope_bench::positional;
use botscope_core::analyze::BeliefContext;
use botscope_core::attribution::{score_table, PolicyBasis};
use botscope_monitor::{run_coupled_with_threads, CoupledConfig, RefreshModel, ScenarioKind};
use botscope_simnet::SimConfig;
use botscope_study::PolicyCorpus;

/// The ROADMAP bound: paper scale with scoring, single core, < 1 s.
const BOUND_NS: f64 = 1_000_000_000.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: f64 = positional(&args, 0, "scale", 1.0);
    let sites: usize = positional(&args, 1, "sites", 36);
    let reps: u32 = positional(&args, 2, "reps", 3).max(1);
    let threads: usize = positional(&args, 3, "threads", 1).max(1);

    let cfg = CoupledConfig {
        sim: SimConfig { scale, sites, ..SimConfig::default() },
        scenario: ScenarioKind::Mixed,
        refresh: RefreshModel::Fleet,
    };
    let corpus = PolicyCorpus::new();
    eprintln!("coupled study: scale={scale} sites={sites} reps={reps} threads={threads}");

    // Warmup: first run pays allocator growth and page faults; the
    // bound is stated against steady state.
    drop(run_coupled_with_threads(&cfg, threads));

    let mut total_ns = 0f64;
    let mut score_ns = 0f64;
    for rep in 0..reps {
        let t0 = Instant::now();
        let out = run_coupled_with_threads(&cfg, threads);
        let t1 = Instant::now();
        let ctx = BeliefContext { beliefs: &out.beliefs, served: &out.served, corpus: &corpus };
        let (counts, _) = score_table(&out.sim.table, &out.schedule, &ctx, PolicyBasis::Believed);
        let dt_score = t1.elapsed();
        let dt = t0.elapsed();
        total_ns += dt.as_nanos() as f64;
        score_ns += dt_score.as_nanos() as f64;
        println!(
            "rep={rep} rows={} bots_scored={} wall_s={:.3} (score_s={:.3}, {:.0} krows/s)",
            out.sim.table.len(),
            counts.len(),
            dt.as_secs_f64(),
            dt_score.as_secs_f64(),
            out.sim.table.len() as f64 / dt.as_secs_f64() / 1e3,
        );
    }
    let mean_ns = total_ns / reps as f64;
    let mean_score_ns = score_ns / reps as f64;
    println!(
        "mean: {:.3} s coupled+scoring ({:.3} s scoring alone) over {reps} reps",
        mean_ns / 1e9,
        mean_score_ns / 1e9
    );

    // The acceptance bound applies to the paper-scale single-core shape.
    if scale >= 1.0 && sites >= 36 && threads == 1 {
        if mean_ns > BOUND_NS {
            eprintln!(
                "FAIL: paper-scale coupled study with scoring took {:.3} s (bound 1 s)",
                mean_ns / 1e9
            );
            std::process::exit(1);
        }
        println!("PASS: {:.3} s < 1 s paper-scale bound", mean_ns / 1e9);
    }
}
