//! What the driver measures with, outside the program under test: a
//! counting allocator, process CPU time, order statistics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts `alloc`/`alloc_zeroed`/`realloc` of every thread while the
/// flag is up (same shape as `tests/alloc_budget.rs`). The flag stays
/// down for every end-to-end run, where the cost is one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` is passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Raises or lowers the counting flag.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations counted so far; callers take differences.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// User + system CPU seconds of the whole process (every thread, the
/// in-process replicas included), from `/proc/self/stat` fields 14 and
/// 15 at the kernel's fixed 100 ticks per second.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime in /proc/self/stat")
    };
    (tick() + tick()) / 100.0
}

/// Share of the machine's CPU time the hypervisor gave to someone else
/// since `earlier` (a previous [`machine_ticks`] reading): the noisy
/// neighbour, as far as a guest can see it.
pub fn steal_share(earlier: (u64, u64)) -> f64 {
    let (steal, total) = machine_ticks();
    (steal - earlier.0) as f64 / (total - earlier.1).max(1) as f64
}

/// `(steal, all)` ticks of every CPU since boot, from `/proc/stat`.
pub fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .expect("/proc/stat has a cpu line")
        .split_ascii_whitespace()
        .skip(1)
        .map(|f| f.parse().expect("tick count"))
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    (ticks[7], ticks[..8].iter().sum())
}

/// First quartile, median and third quartile of `values`, the way
/// Python's `statistics.quantiles(values, n=4)` cuts them (position
/// `(n + 1) · k / 4`, interpolated, clamped to the range): the spread
/// the benchmark's driver computes is `(q3 − q1) ÷ median`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    [1, 2, 3].map(|k| {
        let position = (v.len() + 1) as f64 * f64::from(k) / 4.0 - 1.0;
        let below = (position.floor().max(0.0) as usize).min(v.len() - 1);
        let above = (below + 1).min(v.len() - 1);
        let weight = (position - below as f64).clamp(0.0, 1.0);
        v[below] + (v[above] - v[below]) * weight
    })
}

/// The `permille/1000` quantile of `sorted` by nearest rank.
pub fn quantile(sorted: &[u32], permille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() * permille).div_ceil(1000).max(1);
    f64::from(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0, 1.0, 2.0, 3.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        let sorted: Vec<u32> = (1..=1000).collect();
        assert_eq!(quantile(&sorted, 500), 500.0);
        assert_eq!(quantile(&sorted, 990), 990.0);
        assert_eq!(quantile(&[], 990), 0.0);
    }

    #[test]
    fn cpu_time_advances_under_load() {
        let before = cpu_seconds();
        let started = std::time::Instant::now();
        let mut x = 1u64;
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds() - before >= 0.02, "no CPU time charged");
    }
}
