//! Time-window coverage analysis (paper §5.1, Figure 10).
//!
//! To measure how often a bot re-checks `robots.txt`, the paper segments a
//! bot's access log "into variable length time windows (12hrs, 24hrs, 48hrs,
//! 72hrs, 168hrs) starting from when the bot first accessed any of these
//! robots.txt files", then reports the bot as complying with a window length
//! if **every** window of that length contains at least one robots.txt
//! access. [`window_coverage`] implements that exact rule.

/// Result of segmenting one bot's robots.txt accesses into fixed windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowCoverage {
    /// Window length in seconds.
    pub window_secs: u64,
    /// Total number of windows between the first access and `horizon_end`.
    pub total_windows: u64,
    /// Number of windows containing at least one access.
    pub covered_windows: u64,
}

impl WindowCoverage {
    /// Whether every window contained at least one access — the paper's
    /// per-bot "complies with this re-check cadence" predicate.
    pub fn fully_covered(&self) -> bool {
        self.total_windows > 0 && self.covered_windows == self.total_windows
    }

    /// Fraction of windows covered (0 when there are no windows).
    pub fn fraction(&self) -> f64 {
        if self.total_windows == 0 {
            0.0
        } else {
            self.covered_windows as f64 / self.total_windows as f64
        }
    }
}

/// Segment `access_times` (seconds; need not be sorted) into consecutive
/// windows of `window_secs`, anchored at the *first* access, extending to
/// `horizon_end`, and count how many windows contain an access.
///
/// Only **complete** windows are evaluated: a trailing partial window (one
/// that would extend past `horizon_end`) is dropped, so a bot is never
/// penalised for a window it did not get the full length of. Returns `None`
/// when there are no accesses at all, or when `window_secs` is zero.
/// Accesses at or after `horizon_end` are ignored; if fewer than
/// `window_secs` seconds elapse between the first access and the horizon
/// there are no complete windows and `total_windows == 0` (which
/// [`WindowCoverage::fully_covered`] reports as not covered).
///
/// ```
/// use botscope_stats::window::window_coverage;
/// // Accesses at t=0 and t=30h; horizon 48h; 24h windows:
/// // window [0,24h) has the t=0 access, window [24h,48h) has t=30h.
/// let h = 3600;
/// let cov = window_coverage(&[0, 30 * h], 24 * h, 48 * h).unwrap();
/// assert!(cov.fully_covered());
/// // 12h windows: windows [12h,24h) and [36h,48h) are empty.
/// let cov = window_coverage(&[0, 30 * h], 12 * h, 48 * h).unwrap();
/// assert!(!cov.fully_covered());
/// assert_eq!(cov.covered_windows, 2);
/// assert_eq!(cov.total_windows, 4);
/// ```
pub fn window_coverage(
    access_times: &[u64],
    window_secs: u64,
    horizon_end: u64,
) -> Option<WindowCoverage> {
    if access_times.is_empty() || window_secs == 0 {
        return None;
    }
    let first = *access_times.iter().min().expect("non-empty");
    if first >= horizon_end {
        return Some(WindowCoverage { window_secs, total_windows: 0, covered_windows: 0 });
    }
    let span = horizon_end - first;
    // Complete windows only: floor division.
    let total_windows = span / window_secs;
    if total_windows == 0 {
        return Some(WindowCoverage { window_secs, total_windows: 0, covered_windows: 0 });
    }
    let mut covered = vec![false; total_windows as usize];
    for &t in access_times {
        if t < first || t >= horizon_end {
            continue;
        }
        let idx = (t - first) / window_secs;
        if idx < total_windows {
            covered[idx as usize] = true;
        }
    }
    let covered_windows = covered.iter().filter(|&&c| c).count() as u64;
    Some(WindowCoverage { window_secs, total_windows, covered_windows })
}

/// The window lengths analysed in the paper, in hours: 12, 24, 48, 72, 168.
pub const PAPER_WINDOWS_HOURS: [u64; 5] = [12, 24, 48, 72, 168];

#[cfg(test)]
mod tests {
    use super::*;

    const H: u64 = 3600;

    #[test]
    fn empty_input_is_none() {
        assert!(window_coverage(&[], H, 100 * H).is_none());
    }

    #[test]
    fn zero_window_is_none() {
        assert!(window_coverage(&[5], 0, 100).is_none());
    }

    #[test]
    fn single_access_near_horizon_has_no_complete_window() {
        // First access at 10h, horizon 20h → only 10h remain, which is less
        // than one 24h window, so there is nothing to evaluate.
        let cov = window_coverage(&[10 * H], 24 * H, 20 * H).unwrap();
        assert_eq!(cov.total_windows, 0);
        assert!(!cov.fully_covered());
    }

    #[test]
    fn single_access_with_room_covers_first_window_only() {
        let cov = window_coverage(&[0], 24 * H, 72 * H).unwrap();
        assert_eq!(cov.total_windows, 3);
        assert_eq!(cov.covered_windows, 1);
        assert!(!cov.fully_covered());
    }

    #[test]
    fn access_after_horizon_ignored() {
        let cov = window_coverage(&[0, 500 * H], 24 * H, 48 * H).unwrap();
        assert_eq!(cov.total_windows, 2);
        assert_eq!(cov.covered_windows, 1);
        assert!(!cov.fully_covered());
    }

    #[test]
    fn first_access_past_horizon_gives_no_windows() {
        let cov = window_coverage(&[100 * H], 24 * H, 50 * H).unwrap();
        assert_eq!(cov.total_windows, 0);
        assert!(!cov.fully_covered());
        assert_eq!(cov.fraction(), 0.0);
    }

    #[test]
    fn dense_accesses_cover_everything() {
        let times: Vec<u64> = (0..240).map(|i| i * H).collect(); // hourly for 10 days
        for &w in &PAPER_WINDOWS_HOURS {
            let cov = window_coverage(&times, w * H, 240 * H).unwrap();
            assert!(cov.fully_covered(), "window {w}h should be covered");
        }
    }

    #[test]
    fn sparse_accesses_cover_only_long_windows() {
        // One access every 36 hours for 15 days (accesses at 0, 36h, …,
        // 324h; horizon 360h).
        let times: Vec<u64> = (0..10).map(|i| i * 36 * H).collect();
        let horizon = 15 * 24 * H;
        // 12h windows: most are empty.
        let c12 = window_coverage(&times, 12 * H, horizon).unwrap();
        assert!(!c12.fully_covered());
        // 24h windows: indices 0,1,3,4,6,7,9,10,12,13 hit — 2,5,8,11,14 miss.
        let c24 = window_coverage(&times, 24 * H, horizon).unwrap();
        assert!(!c24.fully_covered());
        assert_eq!(c24.total_windows, 15);
        assert_eq!(c24.covered_windows, 10);
        // 48h windows: 7 complete windows, every index 0..=6 hit.
        let c48 = window_coverage(&times, 48 * H, horizon).unwrap();
        assert!(c48.fully_covered(), "{c48:?}");
        // 168h windows: 2 complete windows, both hit.
        let c168 = window_coverage(&times, 168 * H, horizon).unwrap();
        assert!(c168.fully_covered(), "{c168:?}");
    }

    #[test]
    fn coverage_monotone_in_window_length() {
        // A bot covered at 12h must be covered at all longer windows when
        // window lengths are multiples; the paper's five lengths satisfy the
        // 12 | 24 | 48 and 24 | 72 divisibility chains we rely on here.
        let times: Vec<u64> = (0..100).map(|i| i * 11 * H).collect();
        let horizon = 100 * 11 * H;
        let fracs: Vec<f64> = [12, 24, 48]
            .iter()
            .map(|&w| window_coverage(&times, w * H, horizon).unwrap().fraction())
            .collect();
        assert!(fracs[0] <= fracs[1] + 1e-12);
        assert!(fracs[1] <= fracs[2] + 1e-12);
    }

    #[test]
    fn unsorted_input_handled() {
        let cov = window_coverage(&[30 * H, 0, 10 * H], 24 * H, 48 * H).unwrap();
        assert_eq!(cov.total_windows, 2);
        assert!(cov.fully_covered());
    }
}
