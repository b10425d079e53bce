//! Shared configuration for the reproduction binaries.
//!
//! `repro_all` and `extensions` use the same two scenario configurations
//! so numbers are comparable across binaries and runs:
//!
//! * [`full_config`] — study 1 (paper §3/§5): 36 sites, 46 days, scale
//!   0.1 (≈ a tenth of the paper's raw volume; all shapes preserved),
//! * [`phase_config`] — study 2 (paper §4): the 8-week four-phase
//!   experiment, scale 0.25 so every Table 6 bot clears the ≥5-accesses
//!   filter in every phase.
//!
//! The seed defaults to 9309 and can be overridden with the
//! `BOTSCOPE_SEED` environment variable; scale with `BOTSCOPE_SCALE`.
//! A malformed override is an error, never the default.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use botscope_core::report::FullStudyReport;
use botscope_core::Experiment;
use botscope_simnet::scenario::{full_study_table, phase_study_table};
use botscope_simnet::SimConfig;

/// The env-var override `name`, or `default` when it is unset. A value
/// that does not parse prints one `error: invalid <name> …` line and
/// exits 1, as [`positional`] does, so a typo never runs the default
/// study.
fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    let Some(value) = std::env::var_os(name) else {
        return default;
    };
    value.to_str().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("error: invalid {name} {value:?}");
        std::process::exit(1)
    })
}

/// Configuration of the 46-day passive study.
pub fn full_config() -> SimConfig {
    SimConfig {
        seed: env_or("BOTSCOPE_SEED", 9309),
        scale: env_or("BOTSCOPE_SCALE", 0.1),
        ..SimConfig::default()
    }
}

/// Configuration of the 8-week phase study.
pub fn phase_config() -> SimConfig {
    SimConfig {
        seed: env_or("BOTSCOPE_SEED", 9309),
        scale: env_or("BOTSCOPE_SCALE", 0.25),
        ..SimConfig::default()
    }
}

/// Generate the passive study and compute its report.
pub fn full_report() -> FullStudyReport {
    FullStudyReport::from_table(&full_study_table(&full_config()).table)
}

/// Generate and analyze the phase study.
pub fn experiment() -> Experiment {
    let out = phase_study_table(&phase_config());
    Experiment::analyze_table(&out.sim.table, &out.schedule)
}

/// The positional argument at `index` of `args` (the program name
/// excluded), or `default` when absent. An argument that does not parse
/// prints one `error: invalid <name> …` line and exits 1, so a typo
/// never runs the default shape.
pub fn positional<T: std::str::FromStr>(
    args: &[String],
    index: usize,
    name: &str,
    default: T,
) -> T {
    match args.get(index) {
        None => default,
        Some(arg) => arg.parse().unwrap_or_else(|_| {
            eprintln!("error: invalid {name} {arg:?}");
            std::process::exit(1)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_valid() {
        full_config().assert_valid();
        phase_config().assert_valid();
    }
}
