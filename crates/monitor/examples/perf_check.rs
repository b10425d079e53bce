//! Scale check: monitor a large estate and report wall-clock throughput.
//!
//! ```text
//! cargo run --release -p botscope-monitor --example perf_check [sites] [days] [bots] [threads]
//! ```
//!
//! The acceptance bar for this subsystem: 100 000 sites over a 46-day
//! simulated horizon in under 10 s on a single core.

use botscope_monitor::daemon::{run_with_threads, MonitorConfig};

fn main() {
    // An argument that does not parse exits 1 naming it, never runs the
    // default shape.
    let arg = |i: usize, name: &str, default: u64| -> u64 {
        std::env::args().nth(i).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("error: invalid {name} {v:?}");
                std::process::exit(1)
            })
        })
    };
    let cfg = MonitorConfig {
        sites: arg(1, "sites", 100_000) as usize,
        days: arg(2, "days", 46),
        bots: arg(3, "bots", 2) as usize,
        ..MonitorConfig::default()
    };
    let threads = arg(4, "threads", 1) as usize;
    let t = std::time::Instant::now();
    let out = run_with_threads(&cfg, threads);
    let dt = t.elapsed();
    println!(
        "{} sites x {} bots x {} days ({} threads): {} fetch events, {} change digests, {:.2?} ({:.0} events/s)",
        cfg.sites,
        cfg.bots,
        cfg.days,
        threads,
        out.stats.fetches,
        out.changes.len(),
        dt,
        out.stats.fetches as f64 / dt.as_secs_f64()
    );
}
