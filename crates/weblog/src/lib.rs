//! # botscope-weblog
//!
//! The web-log substrate: the anonymized access-record schema of the IMC
//! '25 study (paper §3.1), plus everything needed to prepare such logs for
//! analysis.
//!
//! * [`time`] — a minimal civil-time implementation (no external crates):
//!   unix-second timestamps with ISO-8601 parsing/formatting, which is the
//!   timestamp format of the study's dataset,
//! * [`iphash`] — keyed SipHash-2-4, implemented in-crate, providing the
//!   study's "one-way cryptographic hash of the web visitor's IP address",
//! * [`record`] — the ten-field access record (useragent, timestamp, IP
//!   hash, ASN, sitename, URI path, status, bytes, referer),
//! * [`intern`] / [`table`] — the interned data model: [`StringInterner`]
//!   maps repeated strings to 4-byte [`Sym`] ids and [`LogTable`] stores
//!   compact 48-byte rows, materializing [`AccessRecord`] views on
//!   demand (the memory-scalable representation at paper volume); the
//!   table also serves the groupings the compliance metrics need
//!   ([`LogTable::by_tau`], [`LogTable::by_useragent`],
//!   [`LogTable::robots_checks_by_useragent`]),
//! * [`codec`] — a CSV reader/writer for record persistence; decoding
//!   streams through [`stream::CsvRowStream`] ([`codec::decode_table_read`]
//!   drains it into a table), so logs too large to hold in memory work,
//! * [`colfmt`] — a compact binary on-disk format (string dictionary
//!   pages + fixed-width symbol rows, versioned header): the same data
//!   model as [`LogTable`], persisted; decodes with bounded memory and
//!   hardened against corrupt input,
//! * [`sink`] — row-streaming output ([`sink::RowSink`]): producers
//!   with a deterministic row order hand interned rows to CSV/JSONL/
//!   binary encoders incrementally instead of materializing a full
//!   table first; the text encoders copy per-symbol cached bytes,
//!   never an [`AccessRecord`],
//! * [`stream`] — the input-side dual ([`stream::RowStream`]): pull-based
//!   interned-row readers over CSV, binary, or in-memory tables,
//! * [`merge`] — the shared k-way merge of canonically sorted runs
//!   ([`merge::merge_runs`]), byte-identical to materialize-then-sort,
//! * [`session`] — 5-minute-gap sessionization (paper §3.2), run
//!   over table rows by [`LogTable::sessionize`],
//! * [`summary`] — dataset overview statistics (paper Table 2).
//!
//! ```
//! use botscope_weblog::record::AccessRecord;
//! use botscope_weblog::session::SESSION_GAP_SECS;
//! use botscope_weblog::time::Timestamp;
//! use botscope_weblog::LogTable;
//!
//! let mk = |t: u64, path: &str| AccessRecord {
//!     useragent: "GPTBot/1.0".into(),
//!     timestamp: Timestamp::from_unix(t),
//!     ip_hash: 0xDEADBEEF,
//!     asn: "MICROSOFT-CORP-MSN-AS-BLOCK".into(),
//!     sitename: "site-00.example.edu".into(),
//!     uri_path: path.into(),
//!     status: 200,
//!     bytes: 1024,
//!     referer: None,
//! };
//! // Three accesses within the gap, one far later: two sessions.
//! let records = [mk(0, "/a"), mk(100, "/b"), mk(200, "/c"), mk(10_000, "/d")];
//! let table = LogTable::from_records(&records);
//! let sessions = table.sessionize(SESSION_GAP_SECS);
//! assert_eq!(sessions.len(), 2);
//! assert_eq!(sessions[0].accesses, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod colfmt;
pub mod fetchlog;
mod fieldfmt;
pub mod intern;
pub mod iphash;
pub mod jsonl;
pub mod merge;
pub mod record;
pub mod session;
pub mod sink;
pub mod stream;
pub mod summary;
pub mod table;
pub mod time;

pub use fetchlog::FetchEventLog;
pub use intern::{StringInterner, Sym};
pub use iphash::IpHasher;
pub use merge::{merge_runs, MergeRun};
pub use record::AccessRecord;
pub use session::{Session, SESSION_GAP_SECS};
pub use stream::RowStream;
pub use summary::DatasetSummary;
pub use table::{LogTable, RecordRow};
pub use time::Timestamp;
