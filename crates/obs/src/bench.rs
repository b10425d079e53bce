//! Shared machine-readable bench schema.
//!
//! The vendored criterion shim and the `perf_check`-style examples
//! both emit `BENCH_*.json` trajectories. This module is the single
//! definition of that line format (schema v2): every entry carries
//! `schema_version`, the host's logical core count, and a
//! `manifest_digest` — an FNV-1a 64 mini-manifest over the labels,
//! core count, and the `BOTSCOPE_SEED`/`BOTSCOPE_SCALE`/
//! `BOTSCOPE_THREADS` environment so a results file self-describes
//! which run family produced it.
//!
//! The vendored criterion harness renders its `BOTSCOPE_BENCH_JSON`
//! file through [`render_bench_json`], and the CLI's `admit` uses
//! [`fnv1a64`] to pick a site's corpus policy.

use std::fmt::Write as _;

/// Current BENCH line schema version.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// One benchmark result line.
#[derive(Debug, Clone)]
pub struct BenchLine {
    /// Human label (`crate/bench_name`).
    pub label: String,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Iterations measured.
    pub iters: u64,
    /// Items processed per iteration (rows, checks, ...).
    pub throughput_per_iter: f64,
}

/// Host logical core count (1 when undetectable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// FNV-1a 64-bit over `data`.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The mini-manifest digest for a results file: `fnv64:<16 hex>` over
/// the sorted labels plus host core count plus the botscope run-shape
/// environment. Pure function of its inputs.
pub fn mini_manifest_digest(labels: &[String], host_cores: usize) -> String {
    let mut sorted: Vec<&str> = labels.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    let mut blob = sorted.join("\n");
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "-".to_string());
    let _ = write!(
        blob,
        "\n|cores={host_cores}|seed={}|scale={}|threads={}",
        env("BOTSCOPE_SEED"),
        env("BOTSCOPE_SCALE"),
        env("BOTSCOPE_THREADS")
    );
    format!("fnv64:{:016x}", fnv1a64(blob.as_bytes()))
}

/// Render one schema-v2 line (two-space indent, no trailing newline) —
/// the shared shape for criterion and example emitters.
pub fn render_line(line: &BenchLine, host_cores: usize, manifest_digest: &str) -> String {
    format!(
        "  {{\"schema_version\": {BENCH_SCHEMA_VERSION}, \"label\": \"{}\", \"mean_ns\": {:.1}, \"iters\": {}, \"throughput_per_iter\": {:.1}, \"host_cores\": {host_cores}, \"manifest_digest\": \"{manifest_digest}\"}}",
        crate::json_escape(&line.label),
        line.mean_ns,
        line.iters,
        line.throughput_per_iter,
    )
}

/// Render a full `BENCH_*.json` document from `lines` (JSON array,
/// one entry per line, trailing newline).
pub fn render_bench_json(lines: &[BenchLine]) -> String {
    let cores = host_cores();
    let labels: Vec<String> = lines.iter().map(|l| l.label.clone()).collect();
    let digest = mini_manifest_digest(&labels, cores);
    let body: Vec<String> = lines.iter().map(|l| render_line(l, cores, &digest)).collect();
    format!("[\n{}\n]\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digest_is_label_order_insensitive() {
        let a = mini_manifest_digest(&["x".into(), "y".into()], 4);
        let b = mini_manifest_digest(&["y".into(), "x".into()], 4);
        assert_eq!(a, b);
        let c = mini_manifest_digest(&["y".into(), "x".into()], 8);
        assert_ne!(a, c, "core count is part of the digest");
        assert!(a.starts_with("fnv64:"));
        assert_eq!(a.len(), "fnv64:".len() + 16);
    }

    #[test]
    fn render_shapes_valid_schema_v2() {
        let line = BenchLine {
            label: "obs/counter_disabled".into(),
            mean_ns: 1.234,
            iters: 1_000_000,
            throughput_per_iter: 1.0,
        };
        let doc = render_bench_json(std::slice::from_ref(&line));
        assert!(doc.starts_with("[\n  {\"schema_version\": 2, "), "{doc}");
        assert!(doc.contains("\"label\": \"obs/counter_disabled\""));
        assert!(doc.contains("\"mean_ns\": 1.2, "));
        assert!(doc.contains("\"host_cores\": "));
        assert!(doc.contains("\"manifest_digest\": \"fnv64:"));
        assert!(doc.ends_with("}\n]\n"));
    }
}
