//! Wall-clock and memory harness for the traffic generator.
//!
//! Times `scenario::full_study_table` at a given horizon/scale and
//! reports row count, throughput, peak RSS, and the heap footprint of
//! the generated table. Used to record the before/after numbers of
//! data-model and parallelism changes in ROADMAP.md.
//!
//! ```text
//! genbench [days=46] [scale=1.0] [reps=1]
//! ```

use std::time::Instant;

use botscope_bench::positional;
use botscope_simnet::scenario::full_study_table;
use botscope_simnet::SimConfig;
use botscope_study::worker_threads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let days: u64 = positional(&args, 0, "days", 46);
    let scale: f64 = positional(&args, 1, "scale", 1.0);
    let reps: u32 = positional(&args, 2, "reps", 1);

    let cfg = SimConfig { days, scale, ..SimConfig::default() };
    eprintln!(
        "generating: days={days} scale={scale} sites={} reps={reps} workers={}",
        cfg.sites,
        worker_threads()
    );

    for rep in 0..reps {
        let t0 = Instant::now();
        let out = full_study_table(&cfg);
        let dt = t0.elapsed();
        let n = out.table.len();
        println!(
            "rep={rep} records={n} wall_s={:.3} krec_per_s={:.0} heap_mb={:.1} peak_rss_mb={:.1}",
            dt.as_secs_f64(),
            n as f64 / dt.as_secs_f64() / 1e3,
            out.table.heap_bytes() as f64 / 1e6,
            botscope_obs::rss::sample_self().map_or(0, |m| m.peak_rss_kb) as f64 / 1e3,
        );
    }
}
