//! Minimal civil-time implementation.
//!
//! The study's logs carry ISO-8601 timestamps (paper §3.1). We implement
//! exactly what the pipeline needs — unix seconds ↔ proleptic-Gregorian
//! civil date conversion (Howard Hinnant's `days_from_civil` algorithm,
//! which is exact over the whole u64 range we use) and `%Y-%m-%dT%H:%M:%SZ`
//! parsing/formatting — rather than pulling a calendar crate.

use std::fmt;

use crate::fieldfmt::push_decimal;

/// A UTC timestamp in whole seconds since the unix epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

/// A broken-down civil date-time (UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Civil {
    /// Year (e.g. 2025).
    pub year: i64,
    /// Month 1–12.
    pub month: u8,
    /// Day of month 1–31.
    pub day: u8,
    /// Hour 0–23.
    pub hour: u8,
    /// Minute 0–59.
    pub minute: u8,
    /// Second 0–59.
    pub second: u8,
}

/// Error parsing an ISO-8601 timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTimeError {
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ParseTimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid timestamp: {}", self.message)
    }
}

impl std::error::Error for ParseTimeError {}

/// Days from 1970-01-01 to `year-month-day` (Hinnant's algorithm).
fn days_from_civil(year: i64, month: u8, day: u8) -> i64 {
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (i64::from(month) + 9) % 12; // Mar=0 … Feb=11
    let doy = (153 * mp + 2) / 5 + i64::from(day) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl Timestamp {
    /// From unix seconds.
    pub const fn from_unix(secs: u64) -> Self {
        Timestamp(secs)
    }

    /// As unix seconds.
    pub const fn unix(self) -> u64 {
        self.0
    }

    /// Construct from a civil date-time.
    ///
    /// # Panics
    /// Panics if the civil fields are out of range or the instant is
    /// before the epoch (the study's data is all 2025).
    pub fn from_civil(c: Civil) -> Self {
        assert!((1..=12).contains(&c.month), "month {}", c.month);
        assert!((1..=31).contains(&c.day), "day {}", c.day);
        assert!(c.hour < 24 && c.minute < 60 && c.second < 60, "time fields out of range");
        let days = days_from_civil(c.year, c.month, c.day);
        assert!(days >= 0, "timestamp before unix epoch");
        Timestamp(
            days as u64 * 86_400
                + u64::from(c.hour) * 3600
                + u64::from(c.minute) * 60
                + u64::from(c.second),
        )
    }

    /// Shorthand: midnight UTC on a civil date.
    pub fn from_date(year: i64, month: u8, day: u8) -> Self {
        Self::from_civil(Civil { year, month, day, hour: 0, minute: 0, second: 0 })
    }

    /// Break down into civil fields.
    pub fn civil(self) -> Civil {
        let days = (self.0 / 86_400) as i64;
        let rem = self.0 % 86_400;
        let (year, month, day) = civil_from_days(days);
        Civil {
            year,
            month,
            day,
            hour: (rem / 3600) as u8,
            minute: ((rem % 3600) / 60) as u8,
            second: (rem % 60) as u8,
        }
    }

    /// Format as `YYYY-MM-DDTHH:MM:SSZ` (through [`Iso8601Writer`]).
    pub fn to_iso8601(self) -> String {
        let mut out = Vec::with_capacity(20);
        Iso8601Writer::new().push(&mut out, self);
        String::from_utf8(out).expect("ISO-8601 output is ASCII")
    }

    /// Parse `YYYY-MM-DDTHH:MM:SSZ` (also accepts a space separator and a
    /// missing trailing `Z`).
    pub fn parse_iso8601(s: &str) -> Result<Self, ParseTimeError> {
        let err = |m: &str| ParseTimeError { message: format!("{m}: {s:?}") };
        let s = s.trim().strip_suffix('Z').unwrap_or_else(|| s.trim());
        if s.len() != 19 {
            return Err(err("expected YYYY-MM-DDTHH:MM:SS[Z]"));
        }
        let bytes = s.as_bytes();
        let sep = bytes[10];
        if sep != b'T' && sep != b' ' {
            return Err(err("expected 'T' or ' ' separator"));
        }
        if bytes[4] != b'-' || bytes[7] != b'-' || bytes[13] != b':' || bytes[16] != b':' {
            return Err(err("bad field separators"));
        }
        let num = |range: std::ops::Range<usize>| -> Result<i64, ParseTimeError> {
            s[range.clone()]
                .parse::<i64>()
                .map_err(|_| err(&format!("non-numeric field at {range:?}")))
        };
        let year = num(0..4)?;
        let month = num(5..7)?;
        let day = num(8..10)?;
        let hour = num(11..13)?;
        let minute = num(14..16)?;
        let second = num(17..19)?;
        if year < 1970 || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return Err(err("date field out of range"));
        }
        if !(0..24).contains(&hour) || !(0..60).contains(&minute) || !(0..60).contains(&second) {
            return Err(err("time field out of range"));
        }
        // Reject day numbers invalid for the month (roundtrip check).
        let ts = Timestamp::from_civil(Civil {
            year,
            month: month as u8,
            day: day as u8,
            hour: hour as u8,
            minute: minute as u8,
            second: second as u8,
        });
        let c = ts.civil();
        if i64::from(c.day) != day || i64::from(c.month) != month {
            return Err(err("no such calendar day"));
        }
        Ok(ts)
    }

    /// The timestamp truncated to midnight UTC.
    pub fn day_start(self) -> Timestamp {
        Timestamp(self.0 - self.0 % 86_400)
    }

    /// Days elapsed since `earlier` (saturating).
    pub fn days_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0) / 86_400
    }

    /// Seconds elapsed since `earlier` (saturating).
    pub fn secs_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// This timestamp plus `secs` seconds.
    pub fn plus_secs(self, secs: u64) -> Timestamp {
        Timestamp(self.0 + secs)
    }
}

/// [`Timestamp::parse_iso8601`] for a stream of timestamps that share
/// their day: the last fully checked `YYYY-MM-DD` (calendar round trip
/// included) is cached with its midnight, so a later timestamp of that
/// day parses only its `HH:MM:SS`. Anything else, and every error, goes
/// through `parse_iso8601`, so the accepted language and the error text
/// are the same.
#[derive(Debug, Clone, Default)]
pub(crate) struct DayCache {
    day: Option<([u8; 10], u64)>,
}

impl DayCache {
    /// Parse `s` as [`Timestamp::parse_iso8601`] does.
    pub(crate) fn parse(&mut self, s: &str) -> Result<Timestamp, ParseTimeError> {
        let b = s.as_bytes();
        let plain = (b.len() == 19 || b.len() == 20 && b[19] == b'Z')
            && matches!(b[10], b'T' | b' ')
            && b[13] == b':'
            && b[16] == b':';
        if !plain {
            return Timestamp::parse_iso8601(s);
        }
        if let Some((day, midnight)) = self.day {
            if b[..10] == day {
                let two = |at: usize| match (b[at], b[at + 1]) {
                    (hi @ b'0'..=b'9', lo @ b'0'..=b'9') => {
                        Some(u64::from((hi - b'0') * 10 + lo - b'0'))
                    }
                    _ => None,
                };
                if let (Some(h @ 0..=23), Some(m @ 0..=59), Some(sec @ 0..=59)) =
                    (two(11), two(14), two(17))
                {
                    return Ok(Timestamp(midnight + h * 3600 + m * 60 + sec));
                }
            }
        }
        let ts = Timestamp::parse_iso8601(s)?;
        self.day = Some((b[..10].try_into().expect("10-byte date"), ts.day_start().0));
        Ok(ts)
    }
}

/// The one ISO-8601 timestamp formatter: writes `YYYY-MM-DDTHH:MM:SSZ`
/// straight into a byte buffer (years past 9999 print in full, as
/// `{:04}` would).
///
/// The `YYYY-MM-DDT` prefix is cached for the last day written, so a
/// chronological stream of rows pays the civil-date conversion once per
/// day and formats only the fixed-width time of day per row. Any order
/// of timestamps is correct; out-of-order days just refill the cache.
#[derive(Debug, Clone, Default)]
pub struct Iso8601Writer {
    /// Day number (unix seconds / 86 400) plus `YYYY-MM-DDT` for it.
    prefix: Option<(u64, Vec<u8>)>,
}

impl Iso8601Writer {
    /// A writer with an empty prefix cache.
    pub fn new() -> Iso8601Writer {
        Iso8601Writer::default()
    }

    /// Append `t` as `YYYY-MM-DDTHH:MM:SSZ` to `out`.
    pub fn push(&mut self, out: &mut Vec<u8>, t: Timestamp) {
        let day = t.0 / 86_400;
        match &self.prefix {
            Some((cached, prefix)) if *cached == day => out.extend_from_slice(prefix),
            _ => {
                let (year, month, day_of_month) = civil_from_days(day as i64);
                let mut prefix = Vec::with_capacity(20);
                // Civil years of u64 timestamps are >= 1970: the cast is exact.
                push_decimal(&mut prefix, year as u64, 4);
                prefix.push(b'-');
                push_decimal(&mut prefix, u64::from(month), 2);
                prefix.push(b'-');
                push_decimal(&mut prefix, u64::from(day_of_month), 2);
                prefix.push(b'T');
                out.extend_from_slice(&prefix);
                self.prefix = Some((day, prefix));
            }
        }
        let rem = t.0 % 86_400;
        let two = |v: u64| [b'0' + (v / 10) as u8, b'0' + (v % 10) as u8];
        let [h1, h0] = two(rem / 3600);
        let [m1, m0] = two(rem % 3600 / 60);
        let [s1, s0] = two(rem % 60);
        out.extend_from_slice(&[h1, h0, b':', m1, m0, b':', s1, s0, b'Z']);
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_iso8601())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_cache_agrees_with_parse_iso8601() {
        // Days valid and not, signed fields, separators, suffixes and
        // out-of-range clocks, in an order that revisits cached days.
        let days =
            ["2025-02-12", "2025-02-13", "2025-02-30", "2024-02-29", "+025-02-12", "1969-12-31"];
        let seps = ["T", " ", "X"];
        let clocks = [
            "00:00:00", "23:59:59", "08:30:15", "24:00:00", "23:60:00", "00:00:60", "+5:00:00",
            "-0:00:00", "ab:cd:ef", "1:2:3",
        ];
        let suffixes = ["Z", "", "ZZ", " "];
        let mut inputs = Vec::new();
        for day in days {
            for sep in seps {
                for clock in clocks {
                    for suffix in suffixes {
                        inputs.push(format!("{day}{sep}{clock}{suffix}"));
                    }
                }
            }
        }
        inputs.extend(
            [" 2025-02-12T08:30:15Z", "2025-02-12T08:30:15Z ", "", "2025-02-12"].map(String::from),
        );
        let mut cache = DayCache::default();
        for pass in 0..3 {
            for (i, s) in inputs.iter().enumerate() {
                // Visit in a different order each pass, so cached days
                // meet clocks and suffixes they were not cached from.
                let s = if pass == 1 { &inputs[inputs.len() - 1 - i] } else { s };
                let s = if pass == 2 { &inputs[(i * 7919) % inputs.len()] } else { s };
                assert_eq!(cache.parse(s), Timestamp::parse_iso8601(s), "{s:?}");
            }
        }
    }

    #[test]
    fn epoch() {
        let t = Timestamp::from_unix(0);
        assert_eq!(t.to_iso8601(), "1970-01-01T00:00:00Z");
    }

    #[test]
    fn study_period_dates() {
        // Paper: data from February 12 to March 29, 2025.
        let start = Timestamp::from_date(2025, 2, 12);
        assert_eq!(start.to_iso8601(), "2025-02-12T00:00:00Z");
        let end = Timestamp::from_date(2025, 3, 29);
        assert_eq!(end.days_since(start), 45);
        assert_eq!(start.unix(), 1_739_318_400);
    }

    #[test]
    fn roundtrip_random_instants() {
        // Deterministic sweep across years incl. leap boundaries.
        for &secs in &[
            0u64,
            86_399,
            86_400,
            951_782_399,   // 2000-02-28T23:59:59
            951_782_400,   // 2000-02-29 (leap century)
            1_709_164_800, // 2024-02-29 (leap)
            1_739_318_400,
            4_102_444_800, // 2100-01-01 (not leap)
        ] {
            let t = Timestamp::from_unix(secs);
            let parsed = Timestamp::parse_iso8601(&t.to_iso8601()).unwrap();
            assert_eq!(parsed, t, "roundtrip {secs}");
        }
    }

    #[test]
    fn leap_year_handling() {
        assert_eq!(Timestamp::from_unix(951_782_400).to_iso8601(), "2000-02-29T00:00:00Z");
        assert_eq!(Timestamp::from_unix(1_709_164_800).to_iso8601(), "2024-02-29T00:00:00Z");
        // 2100 is not a leap year.
        assert!(Timestamp::parse_iso8601("2100-02-29T00:00:00Z").is_err());
        // 2025 is not a leap year either.
        assert!(Timestamp::parse_iso8601("2025-02-29T12:00:00Z").is_err());
    }

    #[test]
    fn parse_variants() {
        assert!(Timestamp::parse_iso8601("2025-02-12T08:30:15Z").is_ok());
        assert!(Timestamp::parse_iso8601("2025-02-12 08:30:15").is_ok());
        assert!(Timestamp::parse_iso8601("  2025-02-12T08:30:15Z  ").is_ok());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "2025-02-12",
            "2025-13-01T00:00:00Z",
            "2025-00-01T00:00:00Z",
            "2025-02-32T00:00:00Z",
            "2025-02-12T24:00:00Z",
            "2025-02-12T00:60:00Z",
            "2025-02-12X00:00:00Z",
            "2025/02/12T00:00:00Z",
            "yyyy-mm-ddThh:mm:ssZ",
            "1969-12-31T23:59:59Z",
            "0000-01-01T00:00:00Z",
            "-999-01-01T00:00:00Z",
        ] {
            assert!(Timestamp::parse_iso8601(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn day_arithmetic() {
        let t = Timestamp::parse_iso8601("2025-02-12T13:45:00Z").unwrap();
        assert_eq!(t.day_start().to_iso8601(), "2025-02-12T00:00:00Z");
        assert_eq!(t.plus_secs(3600).to_iso8601(), "2025-02-12T14:45:00Z");
        assert_eq!(t.secs_since(t.day_start()), 13 * 3600 + 45 * 60);
        // Saturating subtraction.
        assert_eq!(t.day_start().secs_since(t), 0);
    }

    #[test]
    fn civil_fields() {
        let c = Timestamp::parse_iso8601("2025-03-29T23:59:59Z").unwrap().civil();
        assert_eq!((c.year, c.month, c.day), (2025, 3, 29));
        assert_eq!((c.hour, c.minute, c.second), (23, 59, 59));
    }

    #[test]
    fn ordering_matches_seconds() {
        let a = Timestamp::from_unix(100);
        let b = Timestamp::from_unix(200);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    #[should_panic(expected = "month")]
    fn from_civil_validates() {
        let _ = Timestamp::from_civil(Civil {
            year: 2025,
            month: 13,
            day: 1,
            hour: 0,
            minute: 0,
            second: 0,
        });
    }

    #[test]
    fn display_is_iso() {
        let t = Timestamp::from_date(2025, 2, 12);
        assert_eq!(format!("{t}"), "2025-02-12T00:00:00Z");
    }
}
