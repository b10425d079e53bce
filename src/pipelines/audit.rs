//! `audit`: static analysis of policy files, and `audit --estate`.

use std::fmt::Write as _;

use botscope_core::recheck::{coalesce_behavioral_windows, RecheckAccumulator};
use botscope_core::report::table7_behavioral;
use botscope_monitor::daemon::MonitorConfig;
use botscope_monitor::{apply_digests, prime_estate, MonitorRun};
use botscope_obs::json_escape;
use botscope_robotstxt::analysis::{analyze, classify_change, Analysis, ChangeClass, Severity};
use botscope_robotstxt::{PolicyEstate, RobotsTxt};
use botscope_study::{PolicyCorpus, PolicyVersion};

use super::Error;

/// The report options of both `audit` modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditOptions {
    /// `--json`: machine-readable findings.
    pub json: bool,
    /// `--severity`: only report findings at or above this.
    pub severity: Severity,
    /// `--deny`: fail when findings at or above this exist.
    pub deny: Option<Severity>,
}

/// An audit's report and its `--deny` verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// The report (text or JSON), printed whatever the verdict.
    pub text: String,
    /// Reported findings at or above the `--deny` threshold.
    pub denied: usize,
    deny: Option<Severity>,
}

impl AuditReport {
    /// `Err` when `--deny` found findings at or above its threshold.
    pub fn verdict(&self) -> Result<(), Error> {
        match self.deny {
            Some(threshold) if self.denied > 0 => Err(Error::Invalid(format!(
                "audit: {} finding(s) at or above {threshold}",
                self.denied
            ))),
            _ => Ok(()),
        }
    }
}

impl AuditOptions {
    /// Analyze `doc`, keep the findings at or above `--severity`, and
    /// count those at or above `--deny` into `denied`.
    fn analyze(&self, doc: &RobotsTxt, denied: &mut usize) -> Analysis {
        let mut analysis = analyze(doc);
        analysis.findings.retain(|f| f.severity >= self.severity);
        if let Some(threshold) = self.deny {
            *denied += analysis.at_or_above(threshold);
        }
        analysis
    }
}

/// Render one finding list as JSON objects (stable field order).
fn findings_json(out: &mut String, analysis: &Analysis) {
    out.push('[');
    for (i, f) in analysis.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"severity\":\"{}\",\"code\":\"{}\"", f.severity, f.code);
        if let Some(agent) = &f.agent {
            let _ = write!(out, ",\"agent\":\"{}\"", json_escape(agent));
        }
        let _ = write!(out, ",\"message\":\"{}\"", json_escape(&f.message));
        if let Some(w) = &f.witness {
            let _ = write!(out, ",\"witness\":\"{}\"", json_escape(w));
        }
        out.push('}');
    }
    out.push(']');
}

/// `botscope audit`: statically analyze each `(name, document)` —
/// syntactic lints plus automaton-walk proofs, each divergence with a
/// witness path.
pub fn audit(files: &[(String, RobotsTxt)], opts: AuditOptions) -> AuditReport {
    let mut denied = 0usize;
    let mut r = String::new();
    let mut json = String::from("{\"files\":[");
    for (fi, (file, doc)) in files.iter().enumerate() {
        let analysis = opts.analyze(doc, &mut denied);
        if opts.json {
            if fi > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"file\":\"{}\",\"complete\":{},\"parse_warnings\":{},\"findings\":",
                json_escape(file),
                analysis.complete,
                doc.warnings.len()
            );
            findings_json(&mut json, &analysis);
            json.push('}');
            continue;
        }
        if files.len() > 1 {
            let _ = writeln!(r, "== {file}");
        }
        for warning in &doc.warnings {
            let _ = writeln!(r, "parse: {warning:?}");
        }
        if analysis.findings.is_empty() && doc.warnings.is_empty() {
            let _ = writeln!(
                r,
                "clean: {} group(s), {} rule(s), no findings",
                doc.groups.len(),
                doc.rule_count()
            );
        }
        for f in &analysis.findings {
            let _ = writeln!(r, "{f}");
        }
    }
    if opts.json {
        let _ = writeln!(r, "{json}],\"denied\":{denied}}}");
    }
    AuditReport { text: r, denied, deny: opts.deny }
}

/// `botscope audit --estate`: analyze the paper's policy corpus, prove
/// every version transition cosmetic or behavioral, run the monitor on
/// `threads` shards (streaming its fetch log into the behavioral-only
/// Table 7), classify its change digests, and replay them against a
/// warmed admission estate to report the recompile debt owed.
pub fn audit_estate(cfg: &MonitorConfig, threads: usize, opts: AuditOptions) -> AuditReport {
    // 1. Analyze every corpus policy.
    let corpus = PolicyCorpus::new();
    let started = std::time::Instant::now();
    let mut denied = 0usize;
    let analyses: Vec<(PolicyVersion, Analysis)> =
        PolicyVersion::ALL.map(|v| (v, opts.analyze(corpus.doc(v), &mut denied))).into();
    let analyze_ms = started.elapsed().as_secs_f64() * 1e3;

    // 2. Prove every ordered version transition cosmetic or behavioral.
    let mut behavioral_matrix = [[false; 4]; 4];
    let mut behavioral_transitions = 0usize;
    let mut cosmetic_transitions = 0usize;
    for from in PolicyVersion::ALL {
        for to in PolicyVersion::ALL {
            if from == to {
                continue;
            }
            let class = classify_change(corpus.doc(from), corpus.doc(to));
            behavioral_matrix[from.index()][to.index()] = class == ChangeClass::Behavioral;
            match class {
                ChangeClass::Behavioral => behavioral_transitions += 1,
                ChangeClass::Cosmetic => cosmetic_transitions += 1,
            }
        }
    }

    // 3. Run the monitor, streaming its fetch log into the
    // behavioral-only Table 7 (windows coalesced across cosmetic
    // swaps), and classify its digests.
    let run = MonitorRun::new(cfg);
    let site_windows = run.site_windows();
    let raw_spans: usize = site_windows.values().map(Vec::len).sum();
    let coalesced = coalesce_behavioral_windows(&site_windows, |from, to| {
        behavioral_matrix[from.index()][to.index()]
    });
    let coalesced_spans: usize = coalesced.values().map(Vec::len).sum();
    let mut recheck = RecheckAccumulator::new(coalesced, cfg.horizon_end());
    let summary = run
        .stream(threads, &mut [&mut recheck])
        .expect("the re-check accumulator never fails a row");
    let matrix = recheck.phase_rows();
    let changes = &summary.changes;
    let behavioral_digests = changes.iter().filter(|c| c.class == ChangeClass::Behavioral).count();
    let cosmetic_digests = changes.len() - behavioral_digests;

    // 4. Replay the digests against a warmed admission estate.
    let mut estate = PolicyEstate::new();
    let deployment: Vec<(&str, PolicyVersion)> = site_windows
        .iter()
        .filter_map(|(site, spans)| spans.first().map(|&(v, _, _)| (site.as_str(), v)))
        .collect();
    prime_estate(&mut estate, deployment.iter().copied());
    for (site, _) in &deployment {
        estate.check(site, "GPTBot", "/");
    }
    let warmed = estate.compiled_count();
    let outcome = apply_digests(&mut estate, changes);
    let obs = botscope_obs::global();
    obs.counter("robotstxt_compiles_total").add(estate.compiles());
    obs.counter("robotstxt_cache_hits_total").add(estate.cache_hits());
    obs.counter("audit_behavioral_digests_total").add(behavioral_digests as u64);
    obs.counter("audit_cosmetic_digests_total").add(cosmetic_digests as u64);

    let mut r = String::new();
    if opts.json {
        r.push_str("{\"policies\":[");
        for (i, (version, analysis)) in analyses.iter().enumerate() {
            if i > 0 {
                r.push(',');
            }
            let _ = write!(
                r,
                "{{\"version\":\"{}\",\"complete\":{},\"findings\":",
                version.label(),
                analysis.complete
            );
            findings_json(&mut r, analysis);
            r.push('}');
        }
        let _ = write!(
            r,
            "],\"transitions\":{{\"behavioral\":{behavioral_transitions},\"cosmetic\":{cosmetic_transitions}}}"
        );
        let _ = write!(
            r,
            ",\"digests\":{{\"total\":{},\"behavioral\":{behavioral_digests},\"cosmetic\":{cosmetic_digests}}}",
            changes.len()
        );
        let _ = write!(
            r,
            ",\"admission\":{{\"sites\":{},\"warmed\":{warmed},\"dropped\":{},\"cosmetic_skips\":{}}}",
            deployment.len(),
            outcome.dropped,
            outcome.cosmetic_skips
        );
        let _ = writeln!(
            r,
            ",\"windows\":{{\"raw\":{raw_spans},\"coalesced\":{coalesced_spans}}},\"denied\":{denied}}}"
        );
        return AuditReport { text: r, denied, deny: opts.deny };
    }
    let _ = writeln!(
        r,
        "audit --estate: sites={} days={} seed={} scenario={:?} swap-every={}\n",
        cfg.sites, cfg.days, cfg.seed, cfg.scenario, cfg.swap_every
    );
    let _ = writeln!(r, "== corpus policies ({analyze_ms:.2} ms analyzer time)");
    for (version, analysis) in &analyses {
        if analysis.findings.is_empty() {
            let _ = writeln!(r, "{}: clean", version.label());
        } else {
            let _ = writeln!(r, "{}: {} finding(s)", version.label(), analysis.findings.len());
            for f in &analysis.findings {
                let _ = writeln!(r, "  {f}");
            }
        }
    }
    let _ = writeln!(
        r,
        "\n== version transitions: {behavioral_transitions} behavioral, {cosmetic_transitions} cosmetic (of 12 ordered pairs)"
    );
    let _ = writeln!(
        r,
        "== monitored digests: {} total, {behavioral_digests} behavioral, {cosmetic_digests} cosmetic",
        changes.len()
    );
    let _ = writeln!(
        r,
        "== admission replay: {} site(s) primed, {warmed} artifact(s) warmed; dropped={} cosmetic_skips={}",
        deployment.len(),
        outcome.dropped,
        outcome.cosmetic_skips
    );
    let _ = writeln!(
        r,
        "== deployment windows: {raw_spans} span(s) -> {coalesced_spans} after cosmetic coalescing\n"
    );
    r.push_str(&table7_behavioral(&matrix));
    AuditReport { text: r, denied, deny: opts.deny }
}
