//! Canonical scenarios: the paper's two studies, packaged.
//!
//! * [`full_study_table`] — study 1 (paper §3): the 36-site estate
//!   observed for 46 days under the base robots.txt everywhere. Feeds
//!   Tables 2/3, Figures 2/3/4, the re-check analysis (Figure 10) and the
//!   spoofing analysis (Table 8/9).
//! * [`phase_study_table`] — study 2 (paper §4): the four-version
//!   robots.txt experiment on the high-traffic site, two weeks per
//!   version. Feeds Tables 4/5/6/7/10 and Figures 9/11.
//!
//! The phase study also has a `_stream` form
//! ([`phase_study_stream`]) that delivers the same rows into sinks with
//! bounded memory; study 1 streams through [`full_study_plan`] and
//! [`crate::engine::simulate_stream_with_threads`].

use std::io;

use botscope_study::{phase_study_schedule, PhaseSchedule, EXPERIMENT_SITE};
use botscope_weblog::sink::RowSink;

use crate::config::SimConfig;
use crate::engine::{
    simulate_stream_with_threads, simulate_table, SimStreamOutput, SimTableOutput, StreamOptions,
};

/// Output of the phase study: the interned table plus the schedule that
/// produced it (the analysis slices per-phase windows out of it).
#[derive(Debug, Clone)]
pub struct PhaseStudyTableOutput {
    /// The generator output, interned.
    pub sim: SimTableOutput,
    /// The 4-phase schedule.
    pub schedule: PhaseSchedule,
}

/// Study 1's run: `cfg` as given, under the base file everywhere.
pub fn full_study_plan(cfg: &SimConfig) -> (SimConfig, PhaseSchedule) {
    (cfg.clone(), PhaseSchedule::always_base(EXPERIMENT_SITE, cfg.start, cfg.end()))
}

/// Study 2's run: the paper's [`phase_study_schedule`], with
/// `cfg.start`/`cfg.days` overridden by its window.
pub fn phase_study_plan(cfg: &SimConfig) -> (SimConfig, PhaseSchedule) {
    let schedule = phase_study_schedule();
    let (lo, hi) = schedule.bounds();
    (SimConfig { start: lo, days: hi.days_since(lo), ..cfg.clone() }, schedule)
}

/// Study 1: passive observation of the whole estate under the base file.
pub fn full_study_table(cfg: &SimConfig) -> SimTableOutput {
    let (cfg, schedule) = full_study_plan(cfg);
    simulate_table(&cfg, &schedule)
}

/// Study 2: the controlled robots.txt experiment over
/// [`phase_study_plan`]'s schedule.
pub fn phase_study_table(cfg: &SimConfig) -> PhaseStudyTableOutput {
    let (cfg, schedule) = phase_study_plan(cfg);
    let sim = simulate_table(&cfg, &schedule);
    PhaseStudyTableOutput { sim, schedule }
}

/// Streaming output of the phase study: planted truth, row count, and
/// the schedule that produced the stream.
#[derive(Debug, Clone)]
pub struct PhaseStudyStreamOutput {
    /// The streaming generator output (truth + row count).
    pub sim: SimStreamOutput,
    /// The 4-phase schedule.
    pub schedule: PhaseSchedule,
}

/// [`phase_study_table`] streamed straight into sinks with bounded memory.
pub fn phase_study_stream(
    cfg: &SimConfig,
    threads: usize,
    opts: &StreamOptions,
    sinks: &mut [&mut dyn RowSink],
) -> io::Result<PhaseStudyStreamOutput> {
    let (cfg, schedule) = phase_study_plan(cfg);
    let sim = simulate_stream_with_threads(&cfg, &schedule, threads, opts, sinks)?;
    Ok(PhaseStudyStreamOutput { sim, schedule })
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_study::PolicyVersion;

    #[test]
    fn full_study_runs() {
        let cfg = SimConfig::test_small();
        let table = full_study_table(&cfg).table;
        assert!(!table.is_empty());
        // Both bot and anonymous traffic present.
        assert!(table.rows().iter().any(|r| table.resolve(r.useragent).contains("YisouSpider")));
        assert!(table.rows().iter().any(|r| r.referer.is_some()));
    }

    #[test]
    fn phase_study_covers_eight_weeks() {
        let cfg = SimConfig { days: 0, scale: 0.02, sites: 4, ..SimConfig::default() };
        let out = phase_study_table(&cfg);
        let (lo, hi) = out.schedule.bounds();
        assert_eq!(hi.days_since(lo), 56);
        // Rows exist in every phase window.
        for v in PolicyVersion::ALL {
            let (s, e) = out.schedule.window_of(v).unwrap();
            let in_phase =
                out.sim.table.rows().iter().filter(|r| r.timestamp >= s && r.timestamp < e);
            assert!(in_phase.count() > 0, "no traffic in {v:?}");
        }
    }

    #[test]
    fn phase_study_deterministic() {
        let cfg = SimConfig { scale: 0.02, sites: 4, ..SimConfig::default() };
        let a = phase_study_table(&cfg);
        let b = phase_study_table(&cfg);
        assert_eq!(a.sim.table.to_records(), b.sim.table.to_records());
    }
}
