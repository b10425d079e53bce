//! The access-record schema.
//!
//! One row per page access, with exactly the ten fields the study's
//! dataset carries (paper §3.1): useragent, timestamp, IP hash, ASN,
//! sitename, URI path, status code, bytes, referer.

use crate::time::Timestamp;

/// One anonymized web access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// Self-reported `User-Agent` header.
    pub useragent: String,
    /// Time of the request (UTC seconds).
    pub timestamp: Timestamp,
    /// One-way keyed hash of the visitor IP (see [`crate::iphash`]).
    pub ip_hash: u64,
    /// Autonomous-system name of the visitor's network (ARIN-style).
    pub asn: String,
    /// The base website accessed (e.g. `site-03.example.edu`).
    pub sitename: String,
    /// Requested resource path; with `sitename` forms the full URL.
    pub uri_path: String,
    /// HTTP status returned.
    pub status: u16,
    /// Bytes transmitted by the server.
    pub bytes: u64,
    /// Referring URL, if any.
    pub referer: Option<String>,
}

impl AccessRecord {
    /// Whether this access fetched the robots.txt file itself.
    pub fn is_robots_fetch(&self) -> bool {
        self.uri_path == "/robots.txt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AccessRecord {
        AccessRecord {
            useragent: "GPTBot/1.0".into(),
            timestamp: Timestamp::from_unix(1_739_318_400),
            ip_hash: 42,
            asn: "MICROSOFT-CORP-MSN-AS-BLOCK".into(),
            sitename: "site-00.example.edu".into(),
            uri_path: "/page-data/index.json".into(),
            status: 200,
            bytes: 2048,
            referer: None,
        }
    }

    #[test]
    fn robots_fetch_detection() {
        let mut r = sample();
        assert!(!r.is_robots_fetch());
        r.uri_path = "/robots.txt".into();
        assert!(r.is_robots_fetch());
        r.uri_path = "/robots.txt.bak".into();
        assert!(!r.is_robots_fetch());
    }
}
