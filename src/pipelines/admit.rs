//! `admit`: batch "may I crawl?" checks against compiled policies.

use std::io::Write;
use std::time::Instant;

use botscope_robotstxt::{PolicyEstate, RobotsTxt};
use botscope_study::PolicyVersion;

use super::Error;

/// One admission query: may `agent` fetch `path` on `site`?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query<'a> {
    /// The requesting user agent.
    pub agent: &'a str,
    /// The site's name.
    pub site: &'a str,
    /// The requested path (may hold commas).
    pub path: &'a str,
}

/// Parse a query file: one `agent,site,path` row per line, an optional
/// `agent,site,path` header on the first line, blank lines skipped and
/// each line trimmed. Only the first two commas split, so a path keeps
/// its commas. Fails with `line N: …` on the first row with fewer than
/// three fields or an empty agent or site, and with `no queries …`
/// when no row is left.
pub fn parse_queries(text: &str) -> Result<Vec<Query<'_>>, Error> {
    let mut queries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || (lineno == 0 && line == "agent,site,path") {
            continue;
        }
        let mut fields = line.splitn(3, ',');
        match (fields.next(), fields.next(), fields.next()) {
            (Some(agent), Some(site), Some(path)) if !agent.is_empty() && !site.is_empty() => {
                queries.push(Query { agent, site, path });
            }
            _ => {
                return Err(Error::Invalid(format!(
                    "line {}: want `agent,site,path`, got {line:?}",
                    lineno + 1
                )))
            }
        }
    }
    if queries.is_empty() {
        return Err(Error::Invalid("no queries (want `agent,site,path` rows)".into()));
    }
    Ok(queries)
}

/// The paper-corpus policy version a site serves when `admit` has no
/// `--robots` file: FNV-1a over the site name picks one of the four, so
/// every run sees the same estate.
pub fn site_version(site: &str) -> PolicyVersion {
    PolicyVersion::ALL[(fnv1a64(site.as_bytes()) % 4) as usize]
}

/// FNV-1a 64-bit over `data`.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `botscope admit`: answer every query from compiled policy automata
/// cached per site, compiled lazily on a site's first check. Every
/// site serves `robots` if given, else its [`site_version`]. Writes one
/// `ALLOW`/`DENY` line per query to `verdicts` (none under `--quiet`)
/// and returns the throughput and compile-cost summary.
pub fn admit(
    queries: &[Query<'_>],
    robots: Option<&RobotsTxt>,
    verdicts: Option<&mut dyn Write>,
) -> Result<String, Error> {
    // Register every queried site; compilation stays lazy so the first
    // check against each site pays its compile inside the timed loop —
    // that cost is what the summary reports.
    let mut estate = PolicyEstate::new();
    for q in queries {
        if estate.doc(q.site).is_none() {
            let doc = robots.cloned().unwrap_or_else(|| site_version(q.site).robots_txt());
            estate.insert(q.site, doc);
        }
    }
    let sites = estate.len();

    let obs = botscope_obs::global();
    let check_span = obs.span("admit_check");
    let started = Instant::now();
    let mut allows = Vec::with_capacity(queries.len());
    let mut allowed = 0u64;
    for q in queries {
        // Sites were all primed above, so the estate always answers.
        let allow = estate.check(q.site, q.agent, q.path).unwrap_or(false);
        allowed += u64::from(allow);
        allows.push(allow);
    }
    let elapsed = started.elapsed();
    drop(check_span);
    obs.counter("admit_queries_total").add(queries.len() as u64);
    obs.counter("admit_allowed_total").add(allowed);
    obs.counter("robotstxt_compiles_total").add(estate.compiles());
    obs.counter("robotstxt_cache_hits_total").add(estate.cache_hits());
    obs.gauge("robotstxt_compile_debt").set(estate.compile_debt() as u64);

    if let Some(w) = verdicts {
        queries
            .iter()
            .zip(&allows)
            .try_for_each(|(q, &allow)| {
                let verdict = if allow { "ALLOW" } else { "DENY " };
                writeln!(w, "{verdict} {} {} {}", q.agent, q.site, q.path)
            })
            .and_then(|()| w.flush())
            .map_err(Error::write("cannot write"))?;
    }

    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 { queries.len() as f64 / secs } else { f64::INFINITY };
    Ok(format!(
        "{} queries over {} site(s): {} allowed, {} denied; {} policy compile(s); {:.3} ms ({:.0} checks/s)\n",
        queries.len(),
        sites,
        allowed,
        queries.len() as u64 - allowed,
        estate.compiles(),
        secs * 1e3,
        rate
    ))
}

#[cfg(test)]
mod tests {
    use super::fnv1a64;

    #[test]
    fn fnv_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
