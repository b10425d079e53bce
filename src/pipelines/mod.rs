//! Every `botscope` subcommand as a library call: the pipeline a user
//! runs from the command line, with its telemetry phases and its
//! report renderer, callable from code.
//!
//! | Function | Command |
//! |---|---|
//! | [`simulate()`] | `botscope simulate [days] [scale] [out] [seed] [--phase-study] [--stream] [--format F]` |
//! | [`coupled()`] | `botscope simulate --coupled …` |
//! | [`analyze()`] | `botscope analyze [--phase-report [--table]] <log>` |
//! | [`monitor()`] | `botscope monitor …` |
//! | [`admit()`] | `botscope admit [--robots F] [--quiet] <queries>` |
//! | [`audit()`] | `botscope audit [--json] [--severity S] [--deny S] <robots.txt>...` |
//! | [`audit_estate()`] | `botscope audit --estate …` |
//!
//! Each function takes the command's configuration, an explicit worker
//! count where the command fans out (the CLI passes
//! `BOTSCOPE_THREADS`), and the writers its data goes to; it returns
//! the report text the CLI prints. The configuration is taken as
//! given: the CLI rejects degenerate values (zero days, a non-positive
//! scale, …) while it parses them. The output is byte-identical to the
//! CLI's for the same arguments, because the CLI is this code.
//!
//! ```
//! use botscope::pipelines::{self, AnalyzeMode, LogFormat, Study};
//! use botscope::simnet::SimConfig;
//!
//! // `botscope simulate 1 0.02 - 42 | botscope analyze -`, in process.
//! let cfg = SimConfig { days: 1, scale: 0.02, seed: 42, ..SimConfig::default() };
//! let mut log = Vec::new();
//! let rows = pipelines::simulate(&cfg, Study::Estate, false, LogFormat::Csv, 2, &mut log)?;
//! let report = pipelines::analyze(&log[..], AnalyzeMode::Plain, 2)?;
//! assert!(report.starts_with(&format!("{rows} records\n")));
//! # Ok::<(), pipelines::Error>(())
//! ```

use std::fmt;
use std::io;

mod admit;
mod analyze;
mod audit;
mod monitor;
mod simulate;

pub use admit::{admit, parse_queries, site_version, Query};
pub use analyze::{analyze, phase_report_text, AnalyzeMode};
pub use audit::{audit, audit_estate, AuditOptions, AuditReport};
pub use monitor::{monitor, MonitorOutputs, MonitorReport};
pub use simulate::{coupled, simulate, LogFormat, Study};

/// Why a pipeline stopped.
#[derive(Debug)]
pub enum Error {
    /// The input was rejected (a decode error, a malformed query, or
    /// findings at or above `--deny`), worded as one line.
    Invalid(String),
    /// Reading the input failed before any of it was decoded.
    Read(io::Error),
    /// A writer (or a spill file) failed. `source` is the error the
    /// writer returned, unchanged; `context` says what was being
    /// written, for errors that do not already name their target.
    Write {
        /// What was being written, e.g. `cannot write header`.
        context: &'static str,
        /// The writer's own error.
        source: io::Error,
    },
}

impl Error {
    fn write(context: &'static str) -> impl FnOnce(io::Error) -> Error {
        move |source| Error::Write { context, source }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Invalid(message) => f.write_str(message),
            Error::Read(e) => write!(f, "cannot read input: {e}"),
            Error::Write { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<botscope_weblog::codec::DecodeError> for Error {
    fn from(e: botscope_weblog::codec::DecodeError) -> Error {
        Error::Invalid(e.to_string())
    }
}
