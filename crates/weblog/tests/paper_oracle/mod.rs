//! Sessionization (paper §3.2) and the Table 2 dataset summary, restated
//! from the paper's definitions over plain tuples: a slow,
//! deliberately naive reference for `LogTable::sessionize` and
//! `DatasetSummary`. It shares no code with the crate: entities are
//! found by linear search, distinct values by `Vec::contains`.
//!
//! * An entity is one (ASN, IP hash, user agent) triple. Its accesses,
//!   in time order (equal instants keep log order), form one session
//!   until the gap to the previous access is at least the limit; that
//!   access starts the next session.
//! * A session's URLs are its distinct (site, path) pairs, each counted
//!   once, in first-seen order.
//! * Table 2 counts distinct IP hashes, user agents, ASNs and (site,
//!   path) URLs over the raw accesses, sums their bytes, and counts
//!   sessions as "total page visits".

/// One access: (ASN, IP hash, user agent, unix seconds, site, path,
/// bytes).
pub type Access = (String, u64, String, u64, String, String, u64);

/// One session: (user agent, IP hash, ASN, start, end, accesses, bytes,
/// URLs in first-seen order).
pub type Session = (String, u64, String, u64, u64, u64, u64, Vec<(String, String)>);

/// The Table 2 counts: (unique IPs, unique user agents, unique ASNs,
/// total bytes, sessions, unique URLs, raw accesses).
pub type Summary = (usize, usize, usize, u64, usize, usize, usize);

/// Every session of `log` under inactivity limit `gap`, sorted by
/// (start, user agent, IP hash, ASN).
pub fn sessions(log: &[Access], gap: u64) -> Vec<Session> {
    let mut entities: Vec<(&str, u64, &str)> = Vec::new();
    for (asn, ip, ua, ..) in log {
        let entity = (asn.as_str(), *ip, ua.as_str());
        if !entities.contains(&entity) {
            entities.push(entity);
        }
    }
    let mut out: Vec<Session> = Vec::new();
    for (asn, ip, ua) in entities {
        let mut mine: Vec<&Access> =
            log.iter().filter(|a| a.0 == asn && a.1 == ip && a.2 == ua).collect();
        mine.sort_by_key(|a| a.3);
        let mut current: Option<Session> = None;
        for (_, _, _, t, site, path, bytes) in mine {
            let url = (site.clone(), path.clone());
            match current.as_mut() {
                Some(s) if *t - s.4 < gap => {
                    s.4 = *t;
                    s.5 += 1;
                    s.6 += bytes;
                    if !s.7.contains(&url) {
                        s.7.push(url);
                    }
                }
                _ => {
                    out.extend(current.take());
                    current =
                        Some((ua.to_string(), ip, asn.to_string(), *t, *t, 1, *bytes, vec![url]));
                }
            }
        }
        out.extend(current);
    }
    out.sort_by(|a, b| (a.3, &a.0, a.1, &a.2).cmp(&(b.3, &b.0, b.1, &b.2)));
    out
}

/// The Table 2 counts of `log`, sessions under limit `gap`.
pub fn summary(log: &[Access], gap: u64) -> Summary {
    fn distinct<T: PartialEq>(values: impl Iterator<Item = T>) -> usize {
        let mut seen = Vec::new();
        for v in values {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen.len()
    }
    (
        distinct(log.iter().map(|a| a.1)),
        distinct(log.iter().map(|a| &a.2)),
        distinct(log.iter().map(|a| &a.0)),
        log.iter().map(|a| a.6).sum(),
        sessions(log, gap).len(),
        distinct(log.iter().map(|a| (&a.4, &a.5))),
        log.len(),
    )
}
