//! Per-run manifest export.
//!
//! A [`RunManifest`] is the flight recorder's summary artifact: what
//! command ran, with which config/seed/threads, which counters it
//! accumulated, what it wrote (sizes + 128-bit content fingerprints,
//! see [`crate::digest::Fingerprint`]), and how it
//! performed (wall time, phase timings, peak RSS, host cores).
//!
//! ## Rendering contract
//!
//! [`RunManifest::render`] emits one top-level field per line, with
//! every *stable* (run-deterministic) field before the `"perf"`
//! object, which is always last. Consumers that want a comparable
//! snapshot — the CI manifest gate, the determinism tests — take the
//! prefix of lines before `  "perf"` (e.g. `sed -n '/^  "perf"/q;p'`)
//! and get bytes that depend only on config, seed, and thread count.
//! `manifest_digest` is the SHA-256 of exactly that stable prefix, so
//! a manifest self-certifies which run family it belongs to.

use crate::digest::Sha256;
use crate::{json_escape, OutputRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Current manifest schema version. Version 2 fingerprints each output
/// (`"fingerprint": "fp128:…"`) where version 1 recorded its SHA-256.
pub const SCHEMA_VERSION: u32 = 2;

/// Volatile (machine/run dependent) performance fields; rendered last.
#[derive(Debug, Clone, Default)]
pub struct PerfSection {
    /// End-to-end wall time in milliseconds.
    pub wall_ms: f64,
    /// Host logical core count.
    pub host_cores: usize,
    /// Resident set size at manifest time (kB, 0 when unsampled).
    pub rss_kb: u64,
    /// Peak resident set size (kB, 0 when unsampled).
    pub peak_rss_kb: u64,
    /// Phase timings `(name, wall_ms)` in completion order.
    pub phases: Vec<(String, f64)>,
}

/// Host logical core count (1 when undetectable), for
/// [`PerfSection::host_cores`].
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A per-run manifest; see the module docs for the rendering contract.
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    /// Tool name (`botscope`).
    pub tool: String,
    /// Crate version of the binary.
    pub version: String,
    /// Subcommand (`simulate`, `monitor`, ...).
    pub command: String,
    /// Remaining CLI arguments, verbatim, telemetry flags stripped.
    pub args: Vec<String>,
    /// RNG seed when the command has one.
    pub seed: Option<u64>,
    /// Worker thread count the run resolved to.
    pub threads: usize,
    /// Key config knobs as strings (scale, days, sites, ...).
    pub config: BTreeMap<String, String>,
    /// Deterministic counter snapshot from the registry.
    pub counters: BTreeMap<String, u64>,
    /// Output artifacts in write order.
    pub outputs: Vec<OutputRecord>,
    /// Volatile performance section.
    pub perf: PerfSection,
}

impl RunManifest {
    /// Render the stable-prefix lines (everything before
    /// `manifest_digest` and `"perf"`), newline-terminated.
    fn render_stable_prefix(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"tool\": \"{}\",", json_escape(&self.tool));
        let _ = writeln!(s, "  \"version\": \"{}\",", json_escape(&self.version));
        let _ = writeln!(s, "  \"command\": \"{}\",", json_escape(&self.command));
        let args: Vec<String> =
            self.args.iter().map(|a| format!("\"{}\"", json_escape(a))).collect();
        let _ = writeln!(s, "  \"args\": [{}],", args.join(", "));
        match self.seed {
            Some(seed) => {
                let _ = writeln!(s, "  \"seed\": {seed},");
            }
            None => {
                let _ = writeln!(s, "  \"seed\": null,");
            }
        }
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let config: Vec<String> = self
            .config
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
            .collect();
        let _ = writeln!(s, "  \"config\": {{{}}},", config.join(", "));
        let counters: Vec<String> =
            self.counters.iter().map(|(k, v)| format!("\"{}\": {v}", json_escape(k))).collect();
        let _ = writeln!(s, "  \"counters\": {{{}}},", counters.join(", "));
        let outputs: Vec<String> = self
            .outputs
            .iter()
            .map(|o| {
                format!(
                    "{{\"target\": \"{}\", \"bytes\": {}, \"fingerprint\": \"{}\"}}",
                    json_escape(&o.target),
                    o.bytes,
                    json_escape(&o.fingerprint)
                )
            })
            .collect();
        let _ = writeln!(s, "  \"outputs\": [{}],", outputs.join(", "));
        s
    }

    /// SHA-256 (lowercase hex) of the stable prefix — identical for
    /// runs that share config, seed, thread count, and output bytes.
    pub fn stable_digest(&self) -> String {
        let mut h = Sha256::new();
        h.update(self.render_stable_prefix().as_bytes());
        h.finalize_hex()
    }

    /// Render the full manifest JSON (trailing newline included).
    pub fn render(&self) -> String {
        let mut s = self.render_stable_prefix();
        let _ = writeln!(s, "  \"manifest_digest\": \"sha256:{}\",", self.stable_digest());
        s.push_str("  \"perf\": {\n");
        let _ = writeln!(s, "    \"wall_ms\": {:.3},", self.perf.wall_ms);
        let _ = writeln!(s, "    \"host_cores\": {},", self.perf.host_cores);
        let _ = writeln!(s, "    \"rss_kb\": {},", self.perf.rss_kb);
        let _ = writeln!(s, "    \"peak_rss_kb\": {},", self.perf.peak_rss_kb);
        let phases: Vec<String> = self
            .perf
            .phases
            .iter()
            .map(|(name, ms)| format!("[\"{}\", {ms:.3}]", json_escape(name)))
            .collect();
        let _ = writeln!(s, "    \"phases\": [{}]", phases.join(", "));
        s.push_str("  }\n}\n");
        s
    }
}

/// Extract the stable prefix (lines before `  "perf"`, excluding the
/// `manifest_digest` line) from a rendered manifest. Mirrors the CI
/// gate's `sed -n '/^  "perf"/q;p'` plus the digest-line filter.
pub fn stable_prefix(rendered: &str) -> String {
    let mut out = String::new();
    for line in rendered.lines() {
        if line.starts_with("  \"perf\"") {
            break;
        }
        if line.starts_with("  \"manifest_digest\"") {
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            tool: "botscope".into(),
            version: "0.1.0".into(),
            command: "simulate".into(),
            args: vec!["--stream".into(), "--scale".into(), "0.1".into()],
            seed: Some(4242),
            threads: 2,
            config: BTreeMap::from([("days".to_string(), "46".to_string())]),
            counters: BTreeMap::from([("rows_total".to_string(), 123u64)]),
            outputs: vec![OutputRecord {
                target: "out.csv".into(),
                bytes: 10,
                fingerprint: "fp128:ab".into(),
            }],
            perf: PerfSection {
                wall_ms: 12.5,
                host_cores: 8,
                rss_kb: 100,
                peak_rss_kb: 120,
                phases: vec![("generate".into(), 10.0)],
            },
        }
    }

    #[test]
    fn render_puts_perf_last_and_one_field_per_line() {
        let text = sample().render();
        let perf_at = text.find("  \"perf\": {").expect("perf section");
        for field in ["schema_version", "seed", "threads", "counters", "outputs"] {
            let at = text.find(&format!("\"{field}\"")).unwrap_or_else(|| panic!("{field}"));
            assert!(at < perf_at, "{field} must precede perf");
        }
        assert!(text.ends_with("  }\n}\n"));
        assert!(text.contains("\n  \"seed\": 4242,\n"));
    }

    #[test]
    fn stable_prefix_is_volatile_free_and_digest_matches() {
        let m = sample();
        let prefix = stable_prefix(&m.render());
        assert!(!prefix.contains("wall_ms"));
        assert!(!prefix.contains("manifest_digest"));
        assert!(prefix.contains("\"seed\": 4242"));
        assert_eq!(crate::digest::sha256_hex(prefix.as_bytes()), m.stable_digest());

        // Volatile perf changes must not move the stable digest.
        let mut hot = m.clone();
        hot.perf.wall_ms = 9999.0;
        hot.perf.peak_rss_kb = 1;
        assert_eq!(hot.stable_digest(), m.stable_digest());

        // Stable changes must.
        let mut other = m;
        other.seed = Some(1);
        assert_ne!(other.stable_digest(), other.clone().tap_seed(4242).stable_digest());
    }

    trait Tap {
        fn tap_seed(self, seed: u64) -> Self;
    }
    impl Tap for RunManifest {
        fn tap_seed(mut self, seed: u64) -> Self {
            self.seed = Some(seed);
            self
        }
    }
}
