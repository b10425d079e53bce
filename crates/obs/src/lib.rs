//! # botscope-obs
//!
//! Flight-recorder telemetry for the botscope pipeline: atomic
//! counters/gauges and fixed-bucket histograms behind a cheap
//! [`Registry`] handle, lightweight [`Span`]s carrying both monotonic
//! *wall* timings and *event-time* (virtual-clock) ranges, RSS
//! self-sampling from `/proc/self/status`, and three exporters —
//! Prometheus-style text exposition ([`Registry::render_prometheus`]),
//! a JSONL trace sink ([`Registry::set_trace`]), and a per-run
//! [`manifest::RunManifest`] JSON.
//!
//! ## Contract
//!
//! Instrumentation must never perturb output. Every layer that feeds
//! deterministic artifacts (generated logs, monitor tables, reports)
//! records telemetry *about* the run — it never changes scheduling,
//! ordering, or bytes. The disabled path is a near-no-op: counter
//! increments are single relaxed atomic adds, and spans check
//! [`Registry::enabled`] before touching the clock or the trace sink.
//! Instrumented runs are therefore byte-identical to uninstrumented
//! ones at any `BOTSCOPE_THREADS` (CI compares them).
//!
//! Hot loops should not increment shared counters per row; they
//! accumulate locally and [`Counter::add`] the aggregate once — the
//! counters here make the *handles* cheap, not the cache traffic free.
//!
//! ```
//! let reg = botscope_obs::global();
//! let rows = reg.counter("example_rows_total");
//! rows.add(48_000_000);
//! assert!(reg.render_prometheus().contains("example_rows_total 48000000"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod manifest;
pub mod rss;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A monotonically increasing counter. Increments are relaxed atomic
/// adds (~1 ns), safe to leave in place even when telemetry is off.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins (or running-max) instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket upper bounds (ns) for duration histograms: 1 µs to ~17 s in
/// powers of four — 13 buckets plus the implicit `+Inf`.
pub const DURATION_NS_BOUNDS: &[u64] = &[
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
    1 << 32,
    1 << 34,
];

/// A fixed-bucket histogram: cumulative-style export, relaxed-atomic
/// recording. Bounds are upper-inclusive per bucket, Prometheus-style.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: Vec<AtomicU64>,
    /// Overflow bucket (`+Inf`).
    inf: AtomicU64,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Histogram {
        Histogram {
            bounds,
            buckets: (0..bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            inf: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        match self.bounds.iter().position(|&b| v <= b) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.inf.fetch_add(1, Ordering::Relaxed),
        };
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (upper bound, count) pairs, non-cumulative, without
    /// the overflow bucket.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.bounds
            .iter()
            .zip(&self.buckets)
            .map(|(&b, c)| (b, c.load(Ordering::Relaxed)))
            .collect()
    }
}

/// One recorded output artifact (for the run manifest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputRecord {
    /// Where the artifact went (`stdout` or a path).
    pub target: String,
    /// Bytes written.
    pub bytes: u64,
    /// The bytes' [`digest::Fingerprint`], as `fp128:` and hex.
    pub fingerprint: String,
}

#[derive(Default)]
struct Metrics {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// The process-wide telemetry registry. Cheap to hand around by
/// `&'static` reference (see [`global`]); every accessor returns an
/// `Arc` handle callers cache outside their hot loops.
pub struct Registry {
    enabled: AtomicBool,
    epoch: Instant,
    metrics: Mutex<Metrics>,
    phases: Mutex<Vec<(String, f64)>>,
    outputs: Mutex<Vec<OutputRecord>>,
    trace: Mutex<Option<Box<dyn Write + Send>>>,
    trace_seq: AtomicU64,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every instrumented layer reports into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

impl Registry {
    /// A fresh registry (tests; production code uses [`global`]).
    pub fn new() -> Registry {
        Registry {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            metrics: Mutex::new(Metrics::default()),
            phases: Mutex::new(Vec::new()),
            outputs: Mutex::new(Vec::new()),
            trace: Mutex::new(None),
            trace_seq: AtomicU64::new(0),
        }
    }

    /// Whether spans and the trace sink are live. Counters work either
    /// way; this gates everything that costs more than an atomic add.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn span/trace recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Get or create the counter `name`. Call once per run per site,
    /// cache the handle, `add` aggregates.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().expect("metrics lock");
        match m.counters.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                m.counters.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().expect("metrics lock");
        match m.gauges.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::default());
                m.gauges.insert(name.to_string(), Arc::clone(&g));
                g
            }
        }
    }

    /// Get or create the histogram `name` with `bounds` (ignored when
    /// the histogram already exists).
    pub fn histogram(&self, name: &str, bounds: &'static [u64]) -> Arc<Histogram> {
        let mut m = self.metrics.lock().expect("metrics lock");
        match m.histograms.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new(bounds));
                m.histograms.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Counter values by name (the manifest's deterministic section).
    pub fn snapshot_counters(&self) -> BTreeMap<String, u64> {
        let m = self.metrics.lock().expect("metrics lock");
        m.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// Gauge values by name.
    pub fn snapshot_gauges(&self) -> BTreeMap<String, u64> {
        let m = self.metrics.lock().expect("metrics lock");
        m.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    // -- spans ---------------------------------------------------------

    /// Open a span. Inert (no clock read, no allocation beyond the
    /// label) unless the registry is enabled. On drop the span records
    /// its wall duration into `span_<name>_ns` and emits one trace
    /// line; [`Span::event_range`] attaches virtual-clock bounds so
    /// traces stay meaningful for deterministic event-time layers.
    pub fn span(&self, name: &str) -> Span<'_> {
        if !self.enabled() {
            return Span { registry: self, name: String::new(), start: None, event: None };
        }
        Span { registry: self, name: name.to_string(), start: Some(Instant::now()), event: None }
    }

    /// Open a phase span: like [`span`](Registry::span), but the wall
    /// duration additionally lands in the manifest's phase-timing map.
    pub fn phase(&self, name: &str) -> PhaseSpan<'_> {
        PhaseSpan { span: self.span(name), record_phase: self.enabled() }
    }

    /// Record a finished phase timing directly (ms).
    pub fn record_phase(&self, name: &str, wall_ms: f64) {
        self.phases.lock().expect("phases lock").push((name.to_string(), wall_ms));
    }

    /// Completed phase timings `(name, wall_ms)` in completion order.
    pub fn snapshot_phases(&self) -> Vec<(String, f64)> {
        self.phases.lock().expect("phases lock").clone()
    }

    // -- outputs -------------------------------------------------------

    /// Record an output artifact's fingerprint (the CLI's output
    /// writers call this when a manifest is requested).
    pub fn record_output(&self, target: &str, bytes: u64, fingerprint: String) {
        self.outputs.lock().expect("outputs lock").push(OutputRecord {
            target: target.to_string(),
            bytes,
            fingerprint,
        });
    }

    /// Recorded output artifacts, in write order.
    pub fn snapshot_outputs(&self) -> Vec<OutputRecord> {
        self.outputs.lock().expect("outputs lock").clone()
    }

    // -- trace sink ----------------------------------------------------

    /// Attach a JSONL trace sink; each span drop writes one line.
    pub fn set_trace(&self, sink: Box<dyn Write + Send>) {
        *self.trace.lock().expect("trace lock") = Some(sink);
    }

    /// Flush and detach the trace sink, surfacing the final flush error.
    pub fn close_trace(&self) -> std::io::Result<()> {
        if let Some(mut sink) = self.trace.lock().expect("trace lock").take() {
            sink.flush()?;
        }
        Ok(())
    }

    fn trace_event(&self, name: &str, wall_ns: u64, event: Option<(u64, u64)>) {
        let mut guard = self.trace.lock().expect("trace lock");
        let Some(sink) = guard.as_mut() else { return };
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        let ts_ns = self.epoch.elapsed().as_nanos();
        let mut line = format!(
            "{{\"seq\":{seq},\"span\":\"{}\",\"ts_ns\":{ts_ns},\"wall_ns\":{wall_ns}",
            json_escape(name)
        );
        if let Some((lo, hi)) = event {
            let _ = write!(line, ",\"event_lo\":{lo},\"event_hi\":{hi}");
        }
        line.push_str("}\n");
        // Trace IO failures must never take the run down; the CLI's
        // close_trace surfaces persistent sink errors at exit.
        let _ = sink.write_all(line.as_bytes());
    }

    // -- exposition ----------------------------------------------------

    /// Render every metric as Prometheus-style text exposition, sorted
    /// by name. Metric names may embed labels (`foo{bar="baz"}`); the
    /// `# TYPE` header uses the base name.
    pub fn render_prometheus(&self) -> String {
        let m = self.metrics.lock().expect("metrics lock");
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for (name, c) in &m.counters {
            let base = base_name(name);
            if typed.insert(base) {
                let _ = writeln!(out, "# TYPE {base} counter");
            }
            let _ = writeln!(out, "{name} {}", c.get());
        }
        for (name, g) in &m.gauges {
            let base = base_name(name);
            if typed.insert(base) {
                let _ = writeln!(out, "# TYPE {base} gauge");
            }
            let _ = writeln!(out, "{name} {}", g.get());
        }
        for (name, h) in &m.histograms {
            let base = base_name(name);
            if typed.insert(base) {
                let _ = writeln!(out, "# TYPE {base} histogram");
            }
            let mut cumulative = 0u64;
            for (bound, count) in h.buckets() {
                cumulative += count;
                let _ = writeln!(out, "{base}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{base}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{base}_sum {}", h.sum());
            let _ = writeln!(out, "{base}_count {}", h.count());
        }
        out
    }
}

fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A live span; records wall duration (and optional event-time range)
/// on drop. Inert when the registry was disabled at open time.
pub struct Span<'r> {
    registry: &'r Registry,
    name: String,
    start: Option<Instant>,
    event: Option<(u64, u64)>,
}

impl Span<'_> {
    /// Attach a virtual-clock `[lo, hi)` range (unix seconds of the
    /// simulated events the span covered).
    pub fn event_range(&mut self, lo: u64, hi: u64) {
        if self.start.is_some() {
            self.event = Some((lo, hi));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.registry
            .histogram(&format!("span_{}_ns", self.name), DURATION_NS_BOUNDS)
            .record(wall_ns);
        self.registry.trace_event(&self.name, wall_ns, self.event);
    }
}

/// A [`Span`] whose wall time also lands in the manifest phase map.
pub struct PhaseSpan<'r> {
    span: Span<'r>,
    record_phase: bool,
}

impl PhaseSpan<'_> {
    /// Attach a virtual-clock range (see [`Span::event_range`]).
    pub fn event_range(&mut self, lo: u64, hi: u64) {
        self.span.event_range(lo, hi);
    }
}

impl Drop for PhaseSpan<'_> {
    fn drop(&mut self) {
        if self.record_phase {
            if let Some(start) = self.span.start {
                let ms = start.elapsed().as_secs_f64() * 1e3;
                self.span.registry.record_phase(&self.span.name, ms);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("x_total");
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(reg.counter("x_total").get(), 5, "same handle by name");
        let g = reg.gauge("g");
        g.set(7);
        assert_eq!(g.get(), 7);
        assert_eq!(reg.gauge("g").get(), 7, "same handle by name");
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = Registry::new();
        let h = reg.histogram("h_ns", &[10, 100]);
        for v in [1, 10, 11, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5122);
        assert_eq!(h.buckets(), vec![(10, 2), (100, 2)]);
        let text = reg.render_prometheus();
        assert!(text.contains("h_ns_bucket{le=\"10\"} 2"), "{text}");
        assert!(text.contains("h_ns_bucket{le=\"100\"} 4"), "cumulative: {text}");
        assert!(text.contains("h_ns_bucket{le=\"+Inf\"} 5"), "{text}");
        assert!(text.contains("h_ns_count 5"), "{text}");
    }

    #[test]
    fn prometheus_renders_sorted_with_types_and_labels() {
        let reg = Registry::new();
        reg.counter("b_total").add(2);
        reg.counter("a_total{scenario=\"mixed\"}").add(1);
        reg.gauge("z_gauge").set(9);
        let text = reg.render_prometheus();
        let a = text.find("a_total").unwrap();
        let b = text.find("b_total").unwrap();
        assert!(a < b, "sorted: {text}");
        assert!(text.contains("# TYPE a_total counter"), "label stripped from TYPE: {text}");
        assert!(text.contains("a_total{scenario=\"mixed\"} 1"), "{text}");
        assert!(text.contains("# TYPE z_gauge gauge"), "{text}");
    }

    #[test]
    fn disabled_span_is_inert_and_enabled_span_records() {
        let reg = Registry::new();
        {
            let _s = reg.span("idle");
        }
        assert!(reg.render_prometheus().is_empty(), "disabled span must record nothing");

        reg.set_enabled(true);
        let sink: Vec<u8> = Vec::new();
        let shared = Arc::new(Mutex::new(sink));
        struct SharedSink(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        reg.set_trace(Box::new(SharedSink(Arc::clone(&shared))));
        {
            let mut s = reg.span("work");
            s.event_range(100, 200);
        }
        reg.close_trace().unwrap();
        let trace = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        assert!(trace.contains("\"span\":\"work\""), "{trace}");
        assert!(trace.contains("\"event_lo\":100,\"event_hi\":200"), "{trace}");
        assert_eq!(reg.histogram("span_work_ns", DURATION_NS_BOUNDS).count(), 1);
    }

    #[test]
    fn phases_and_outputs_snapshot() {
        let reg = Registry::new();
        reg.set_enabled(true);
        {
            let _p = reg.phase("generate");
        }
        let phases = reg.snapshot_phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, "generate");
        reg.record_output("out.csv", 10, "ab".into());
        assert_eq!(reg.snapshot_outputs().len(), 1);
    }

    #[test]
    fn json_escape_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
