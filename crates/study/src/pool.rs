//! The workspace's one fan-out pool, and how many workers it runs.
//!
//! Every parallel stage — the generator's units, the monitor's chunks,
//! attribution's row chunks — runs over [`run_indexed`], whose output
//! is in index order whatever the worker count; [`worker_threads`]
//! reads that count from `BOTSCOPE_THREADS`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count: `BOTSCOPE_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism.
pub fn worker_threads() -> usize {
    worker_threads_from(
        std::env::var("BOTSCOPE_THREADS").ok().as_deref(),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    )
}

/// The pure core of [`worker_threads`]: `env` is the raw
/// `BOTSCOPE_THREADS` value (if set), `hardware` the machine's
/// available parallelism. An explicit positive setting always wins —
/// output is byte-identical at any worker count, so oversubscription is
/// safe to *ask* for — but the default never exceeds the hardware:
/// fanning out 8 workers on a 1-core container measurably loses to
/// running serial.
pub fn worker_threads_from(env: Option<&str>, hardware: usize) -> usize {
    env.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| hardware.max(1))
}

/// Run `f(0..n)` across `threads` scoped workers and return the results
/// in index order — the workspace's one fan-out pool (generation units,
/// monitor chunks, distinct-agent standardization, per-bot analysis and
/// attribution). Workers claim one index at a time, so very uneven items
/// (heavy-tailed per-bot row counts) still balance; callers with many
/// tiny items pre-chunk them. `f` must be a pure function of its index
/// for the output to be worker-count invariant: the pool only changes
/// execution order. Serial (no spawns) when `threads` is 1 or there is at
/// most one item.
pub fn run_indexed<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    assert!(threads >= 1, "at least one worker required");
    if threads == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                results.lock().expect("no poisoned workers").push((i, out));
            });
        }
    });
    let mut results = results.into_inner().expect("workers joined");
    // Completion order is scheduling noise; index order is the contract.
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_threads_env_parsing() {
        // Only asserts the default is sane; the env override is covered
        // by the explicit-thread-count API used everywhere in tests.
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn worker_threads_default_never_exceeds_hardware() {
        // The BENCH regression this pins: defaulting to 8 workers on a
        // 1-core container was slower than running serial.
        assert_eq!(worker_threads_from(None, 1), 1);
        assert_eq!(worker_threads_from(None, 4), 4);
        assert_eq!(worker_threads_from(None, 0), 1); // defensive floor
    }

    #[test]
    fn worker_threads_explicit_setting_wins() {
        // An explicit positive BOTSCOPE_THREADS wins even beyond the
        // hardware (byte-identity makes oversubscription safe).
        assert_eq!(worker_threads_from(Some("8"), 1), 8);
        assert_eq!(worker_threads_from(Some(" 2 "), 16), 2);
        // Zero, junk, and empty fall back to the hardware default.
        assert_eq!(worker_threads_from(Some("0"), 3), 3);
        assert_eq!(worker_threads_from(Some("lots"), 3), 3);
        assert_eq!(worker_threads_from(Some(""), 3), 3);
        assert_eq!(worker_threads_from(Some("-1"), 3), 3);
    }

    #[test]
    fn run_indexed_returns_index_order_at_any_worker_count() {
        // Uneven work: every seventh item spins far longer than the rest,
        // so completion order differs from index order under a pool.
        let work = |i: usize| -> (usize, u64) {
            let spins = if i.is_multiple_of(7) { 20_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(k));
            }
            (i, acc)
        };
        for n in [0, 1, 2, 257] {
            let serial: Vec<(usize, u64)> = (0..n).map(work).collect();
            for threads in [1, 2, 8] {
                let pooled = run_indexed(n, threads, work);
                assert_eq!(pooled, serial, "n={n} threads={threads}");
            }
        }
    }
}
