//! The three metric primitives: counters, gauges, and log2 histograms.
//!
//! All three are plain `std::sync::atomic` word counters — safe to
//! share across the pipeline's encode pool and sender lanes with no
//! locks on the record path, and cheap enough to leave enabled in
//! production builds.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i > 0`
/// holds values in `[2^(i-1), 2^i)`, and the last bucket absorbs
/// everything from `2^62` up.
pub const BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depth, dirty
/// blocks, resync frames pending).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if it is higher (high-water marks).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2 histogram of `u64` samples (typically
/// nanoseconds).
///
/// Recording is one `fetch_add` per sample plus three bookkeeping
/// atomics — no locks, no allocation — so it is safe on the hottest
/// paths. Percentiles are estimated as the upper edge of the bucket
/// holding the requested rank, which bounds the estimation error by
/// one bucket width (a factor of two in value).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a value: 0 for 0, else `floor(log2(v)) + 1`, capped
/// at the last bucket.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower edge of bucket `i`.
pub(crate) fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper edge of bucket `i`.
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Folds `other`'s samples into `self` (per-thread partials merge
    /// into one distribution; max and sum merge exactly, percentiles as
    /// well since buckets align).
    pub fn merge(&self, other: &Histogram) {
        for i in 0..BUCKETS {
            let n = other.buckets[i].load(Ordering::Relaxed);
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Estimated `permille/1000` quantile: the upper edge of the bucket
    /// containing that rank, clamped to the observed maximum. Integer
    /// math throughout — deterministic across runs and platforms.
    ///
    /// Edges: an empty histogram is 0 at every quantile, and
    /// `permille == 0` is the *lower* edge of the first non-empty
    /// bucket (a minimum-side estimate), so quantiles are monotone in
    /// `permille` and `p0` never exceeds any recorded sample.
    pub fn quantile_permille(&self, permille: u64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        if permille == 0 {
            for i in 0..BUCKETS {
                if self.bucket(i) > 0 {
                    return bucket_lower(i);
                }
            }
            return 0;
        }
        // Rank of the requested quantile, 1-based, rounded up.
        let rank = ((count.saturating_mul(permille)).div_ceil(1000)).max(1);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.bucket(i);
            if seen >= rank {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Estimated median.
    pub fn p50(&self) -> u64 {
        self.quantile_permille(500)
    }

    /// Estimated 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile_permille(900)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile_permille(990)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Bucket 0 = {0}; bucket i = [2^(i-1), 2^i - 1].
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for i in 1..BUCKETS - 1 {
            let lo = bucket_lower(i);
            let hi = bucket_upper(i);
            assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper edge of bucket {i}");
            assert_eq!(bucket_index(hi + 1), i + 1, "first value past bucket {i}");
            assert_eq!(hi, lo * 2 - 1);
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn recording_lands_in_the_right_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.bucket(0), 1); // 0
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 2); // 2, 3
        assert_eq!(h.bucket(3), 2); // 4, 7
        assert_eq!(h.bucket(4), 1); // 8
        assert_eq!(h.bucket(10), 1); // 512..1023
        assert_eq!(h.bucket(11), 1); // 1024..2047
        assert_eq!(h.count(), 9);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.sum(), 1 + 2 + 3 + 4 + 7 + 8 + 1023 + 1024);
    }

    #[test]
    fn percentile_error_is_bounded_by_one_bucket_width() {
        // A spread of samples across several buckets: the estimate must
        // land inside (or at the edge of) the bucket holding the true
        // rank, i.e. within one bucket width of the true value.
        let h = Histogram::new();
        let mut samples: Vec<u64> = (1..=1000u64).map(|i| i * 13 % 4096).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for permille in [500u64, 900, 990] {
            let rank = ((1000 * permille).div_ceil(1000)).max(1) as usize;
            let truth = samples[rank - 1];
            let est = h.quantile_permille(permille);
            let bucket = bucket_index(truth);
            let width = bucket_upper(bucket) - bucket_lower(bucket) + 1;
            assert!(
                est >= truth && est - truth < width,
                "p{permille}: estimate {est} vs truth {truth} (bucket width {width})"
            );
        }
    }

    #[test]
    fn quantiles_clamp_to_observed_max() {
        let h = Histogram::new();
        h.record(5); // bucket [4, 7], upper edge 7
        assert_eq!(h.p99(), 5, "clamped to max, not the bucket edge");
        assert_eq!(h.p50(), 5);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn concurrent_recording_then_merge_matches_single_threaded() {
        use std::sync::Arc;
        let combined = Histogram::new();
        let partials: Vec<Arc<Histogram>> = (0..4).map(|_| Arc::new(Histogram::new())).collect();
        let handles: Vec<_> = partials
            .iter()
            .enumerate()
            .map(|(t, part)| {
                let part = Arc::clone(part);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        part.record(t as u64 * 1000 + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        for part in &partials {
            combined.merge(part);
        }
        let reference = Histogram::new();
        for t in 0..4u64 {
            for i in 0..1000 {
                reference.record(t * 1000 + i);
            }
        }
        assert_eq!(combined.count(), reference.count());
        assert_eq!(combined.sum(), reference.sum());
        assert_eq!(combined.max(), reference.max());
        for i in 0..BUCKETS {
            assert_eq!(combined.bucket(i), reference.bucket(i), "bucket {i}");
        }
        assert_eq!(combined.p50(), reference.p50());
        assert_eq!(combined.p99(), reference.p99());
    }

    #[test]
    fn permille_zero_is_a_minimum_side_estimate() {
        let h = Histogram::new();
        assert_eq!(h.quantile_permille(0), 0, "empty histogram");
        h.record(100); // bucket [64, 127]
        h.record(5000);
        assert_eq!(h.quantile_permille(0), 64, "lower edge, not upper");
        assert!(h.quantile_permille(0) <= 100);
        assert!(h.quantile_permille(0) <= h.quantile_permille(500));
    }

    proptest::proptest! {
        /// Quantiles are monotone in `permille`, `p1000` reaches the
        /// observed max exactly, and `p0` never exceeds any sample.
        #[test]
        fn quantiles_are_monotone_in_permille(
            samples in proptest::collection::vec(0u64..1u64 << 40, 1..200),
            raw_cuts in proptest::collection::vec(0u64..=1000, 2..8),
        ) {
            let h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            let mut cuts = raw_cuts;
            cuts.sort_unstable();
            for pair in cuts.windows(2) {
                proptest::prop_assert!(
                    h.quantile_permille(pair[0]) <= h.quantile_permille(pair[1]),
                    "q({}) > q({})", pair[0], pair[1]
                );
            }
            let min = *samples.iter().min().unwrap();
            proptest::prop_assert!(h.quantile_permille(0) <= min);
            proptest::prop_assert_eq!(h.quantile_permille(1000), h.max());
        }
    }

    #[test]
    fn gauge_set_max_keeps_the_high_water_mark() {
        let g = Gauge::new();
        g.set_max(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set(1);
        assert_eq!(g.get(), 1);
    }
}
