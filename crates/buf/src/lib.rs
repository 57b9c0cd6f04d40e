//! Slab/arena buffer pool for the replication hot path.
//!
//! The PRINS write path handles three buffer shapes over and over: the
//! captured block images (`old`, `new`), the encoded wire payload, and
//! the sealed frame a sender lane puts on the wire. Allocating each of
//! them per write puts the allocator on the critical path and spreads
//! the working set across the heap; this crate replaces those
//! allocations with recycled slabs:
//!
//! * [`BufPool`] — fixed **size classes**, one lock-protected freelist
//!   per class. `get(min_cap)` hands out the smallest class that fits;
//!   requests larger than every class fall back to a plain heap buffer
//!   (counted as a miss) so nothing ever fails.
//! * [`PooledBuf`] — an owned, growable buffer (`Vec<u8>` underneath)
//!   that returns to its freelist on drop. `vec_mut()` exposes the
//!   inner `Vec` so existing serializers (`encode_varint`,
//!   `extend_from_slice`, …) work unchanged.
//! * [`PooledBytes`] — the frozen, ref-counted form: cheap `Clone` for
//!   fan-out to many sender lanes, with the underlying slab returning to
//!   the pool when the last reference drops.
//!
//! Statistics (hits, misses, in-use, high-water mark) are plain
//! atomics, cheap enough to keep on in production and deterministic
//! under the single-threaded sim (they feed the `pool_*` gauges in
//! `prins-obs` snapshots).
//!
//! Ownership rules (see DESIGN §10): a buffer has exactly one writer
//! until it is frozen; frozen bytes are immutable and shared. Checked
//! out buffers always start empty (length 0, class capacity retained);
//! the pool never memsets recycled memory — stale bytes sit beyond the
//! length and are unreachable until overwritten.

#![warn(unreachable_pub)]

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Snapshot of a pool's counters (all monotonically updated atomics;
/// `in_use` is the only one that can decrease).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `get` calls served from a freelist.
    pub hits: u64,
    /// `get` calls that had to allocate (empty freelist or oversized).
    pub misses: u64,
    /// Buffers currently checked out (or frozen and still referenced).
    pub in_use: u64,
    /// Highest `in_use` ever observed.
    pub in_use_hwm: u64,
    /// `get` calls larger than every size class (always heap-allocated,
    /// never recycled; a subset of `misses`).
    pub(crate) oversized: u64,
}

impl PoolStats {
    /// Miss rate in parts per million (0 when nothing was requested) —
    /// integer-valued so it exports directly as a gauge.
    pub fn miss_ppm(&self) -> u64 {
        (self.misses * 1_000_000)
            .checked_div(self.hits + self.misses)
            .unwrap_or(0)
    }
}

struct PoolInner {
    /// Ascending capacities, one freelist per class.
    classes: Vec<usize>,
    freelists: Vec<Mutex<Vec<Vec<u8>>>>,
    /// Recycled buffers each class retains; beyond this, drops free
    /// instead of recycling so a burst cannot pin memory forever.
    retain: Vec<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    in_use: AtomicU64,
    in_use_hwm: AtomicU64,
    oversized: AtomicU64,
}

impl PoolInner {
    fn check_out(&self) {
        let now = self.in_use.fetch_add(1, Ordering::Relaxed) + 1;
        self.in_use_hwm.fetch_max(now, Ordering::Relaxed);
    }

    fn check_in(&self, class: Option<usize>, vec: Vec<u8>) {
        self.in_use.fetch_sub(1, Ordering::Relaxed);
        if let Some(class) = class {
            let mut list = self.freelists[class].lock();
            if list.len() < self.retain[class] {
                list.push(vec);
            }
        }
    }
}

/// A fixed-size-class slab pool. Cheap to clone (`Arc` underneath); one
/// pool serves every stage of an engine's write path.
#[derive(Clone)]
pub struct BufPool {
    inner: Arc<PoolInner>,
}

impl BufPool {
    /// Creates a pool from `(capacity, retained)` size classes: sorted
    /// ascending, zero-sized classes dropped, and a capacity listed
    /// twice kept once with the larger retention. Each class retains
    /// up to its count of recycled buffers (at least one).
    fn retaining(classes: &[(usize, usize)]) -> Self {
        let mut classes: Vec<(usize, usize)> =
            classes.iter().copied().filter(|&(c, _)| c > 0).collect();
        classes.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        classes.dedup_by_key(|&mut (c, _)| c);
        let freelists = classes.iter().map(|_| Mutex::new(Vec::new())).collect();
        Self {
            inner: Arc::new(PoolInner {
                classes: classes.iter().map(|&(c, _)| c).collect(),
                freelists,
                retain: classes.iter().map(|&(_, n)| n.max(1)).collect(),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                in_use: AtomicU64::new(0),
                in_use_hwm: AtomicU64::new(0),
                oversized: AtomicU64::new(0),
            }),
        }
    }

    /// A pool sized for a block-replication engine: block-image
    /// buffers, encoded-payload buffers (block + envelope slack), and
    /// wire-frame buffers holding up to `batch` payloads.
    /// Each class retains 64 recycled buffers.
    pub fn for_block_size(block_size: usize, batch: usize) -> Self {
        Self::for_block_size_retaining(block_size, batch, [64; 3])
    }

    /// [`for_block_size`](Self::for_block_size) with each class's
    /// retention given — block images, payloads, wire frames — so an
    /// engine can keep what its bounded stages hold at once.
    pub fn for_block_size_retaining(block_size: usize, batch: usize, retain: [usize; 3]) -> Self {
        let payload = block_size + 64;
        let wire = (payload + 16) * batch.max(1) + 32;
        Self::retaining(&[
            (block_size, retain[0]),
            (payload, retain[1]),
            (wire, retain[2]),
        ])
    }

    /// Checks out a buffer with capacity at least `min_cap` from the
    /// smallest fitting size class. Requests beyond the largest class
    /// are served from the heap (counted as oversized misses) and are
    /// not recycled on drop.
    pub fn get(&self, min_cap: usize) -> PooledBuf {
        let inner = &self.inner;
        match inner.classes.iter().position(|&c| c >= min_cap) {
            Some(class) => {
                let recycled = inner.freelists[class].lock().pop();
                let vec = match recycled {
                    Some(mut vec) => {
                        inner.hits.fetch_add(1, Ordering::Relaxed);
                        // Checked-out buffers always start empty; the
                        // clear keeps capacity and costs no memset.
                        vec.clear();
                        vec
                    }
                    None => {
                        inner.misses.fetch_add(1, Ordering::Relaxed);
                        Vec::with_capacity(inner.classes[class])
                    }
                };
                inner.check_out();
                PooledBuf {
                    vec,
                    pool: Arc::clone(inner),
                    class: Some(class),
                }
            }
            None => {
                inner.misses.fetch_add(1, Ordering::Relaxed);
                inner.oversized.fetch_add(1, Ordering::Relaxed);
                inner.check_out();
                PooledBuf {
                    vec: Vec::with_capacity(min_cap),
                    pool: Arc::clone(inner),
                    class: None,
                }
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        let inner = &self.inner;
        PoolStats {
            hits: inner.hits.load(Ordering::Relaxed),
            misses: inner.misses.load(Ordering::Relaxed),
            in_use: inner.in_use.load(Ordering::Relaxed),
            in_use_hwm: inner.in_use_hwm.load(Ordering::Relaxed),
            oversized: inner.oversized.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufPool")
            .field("classes", &self.inner.classes)
            .field("stats", &self.stats())
            .finish()
    }
}

/// An exclusively-owned pool buffer, checked out empty. Deref's to
/// `[u8]` for reading; [`vec_mut`](Self::vec_mut) grants full `Vec`
/// access for building content. Returns to its freelist on drop.
pub struct PooledBuf {
    vec: Vec<u8>,
    pool: Arc<PoolInner>,
    /// `None` for oversized buffers, which are freed rather than
    /// recycled.
    class: Option<usize>,
}

impl PooledBuf {
    /// The inner `Vec`, for serializers that push/extend. Growing past
    /// the class capacity is allowed (it reallocates like any `Vec`);
    /// the grown buffer still recycles into its original class.
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.vec
    }

    /// Mutable view of the current contents.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.vec
    }

    /// Clears and fills to exactly `len` bytes copied from `src`.
    pub fn copy_from(&mut self, src: &[u8]) {
        self.vec.clear();
        self.vec.extend_from_slice(src);
    }

    /// Resizes to `len`, zero-filling any grown tail.
    pub fn resize_zeroed(&mut self, len: usize) {
        self.vec.resize(len, 0);
    }

    /// Freezes into immutable, cheaply clonable bytes. The single `Arc`
    /// allocation here is the one unavoidable per-payload allocation on
    /// the pooled path; the slab itself still recycles when the last
    /// [`PooledBytes`] drops.
    pub fn freeze(self) -> PooledBytes {
        PooledBytes {
            buf: Arc::new(self),
        }
    }
}

impl Deref for PooledBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let vec = std::mem::take(&mut self.vec);
        self.pool.check_in(self.class, vec);
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.vec.len())
            .field("cap", &self.vec.capacity())
            .field("class", &self.class)
            .finish()
    }
}

/// Immutable, ref-counted view of a frozen [`PooledBuf`]. Clones share
/// the same slab; the slab returns to the pool when the last clone
/// drops.
#[derive(Clone)]
pub struct PooledBytes {
    buf: Arc<PooledBuf>,
}

impl Deref for PooledBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for PooledBytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for PooledBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBytes")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn get_picks_smallest_fitting_class() {
        let pool = BufPool::retaining(&[(64, 8), (4096, 8), (256, 8)]);
        assert_eq!(pool.inner.classes, [64, 256, 4096]);
        assert!(pool.get(1).vec.capacity() >= 64);
        assert!(pool.get(64).vec.capacity() >= 64);
        assert!(pool.get(65).vec.capacity() >= 256);
        assert!(pool.get(4096).vec.capacity() >= 4096);
    }

    #[test]
    fn drop_recycles_and_second_get_hits() {
        let pool = BufPool::retaining(&[(128, 8)]);
        {
            let mut b = pool.get(100);
            b.vec_mut().extend_from_slice(b"hello");
        }
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.in_use), (0, 1, 0));
        let b = pool.get(100);
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.in_use), (1, 1, 1));
        // Recycled buffers come back empty with their capacity kept.
        assert!(b.is_empty());
        assert!(b.vec.capacity() >= 128);
        assert_eq!(stats.in_use_hwm, 1);
    }

    #[test]
    fn oversized_requests_fall_back_to_heap_and_are_not_recycled() {
        let pool = BufPool::retaining(&[(64, 8)]);
        {
            let b = pool.get(1000);
            assert!(b.vec.capacity() >= 1000);
        }
        let stats = pool.stats();
        assert_eq!(stats.oversized, 1);
        assert_eq!(stats.misses, 1);
        // The next in-class get still misses: nothing was recycled.
        drop(pool.get(10));
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn freelist_is_bounded() {
        let pool = BufPool::retaining(&[(32, 2)]);
        let bufs: Vec<_> = (0..5).map(|_| pool.get(32)).collect();
        assert_eq!(pool.stats().in_use, 5);
        drop(bufs);
        assert_eq!(pool.stats().in_use, 0);
        // Only two buffers were retained.
        let _a = pool.get(32);
        let _b = pool.get(32);
        let _c = pool.get(32);
        let stats = pool.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 5 + 1);
    }

    #[test]
    fn each_class_retains_its_own_count() {
        // A capacity listed twice keeps the larger retention.
        let pool = BufPool::retaining(&[(32, 1), (64, 3), (32, 2), (0, 9)]);
        assert_eq!(pool.inner.classes, [32, 64]);
        assert_eq!(pool.inner.retain, [2, 3]);
        let small: Vec<_> = (0..4).map(|_| pool.get(32)).collect();
        let large: Vec<_> = (0..4).map(|_| pool.get(64)).collect();
        drop((small, large));
        assert_eq!(pool.inner.freelists[0].lock().len(), 2);
        assert_eq!(pool.inner.freelists[1].lock().len(), 3);

        let engine = BufPool::for_block_size_retaining(4096, 8, [5, 6, 7]);
        assert_eq!(engine.inner.classes, [4096, 4160, (4160 + 16) * 8 + 32]);
        assert_eq!(engine.inner.retain, [5, 6, 7]);
        assert_eq!(BufPool::for_block_size(4096, 8).inner.retain, [64; 3]);
    }

    #[test]
    fn freeze_shares_one_slab_across_clones() {
        let pool = BufPool::retaining(&[(64, 8)]);
        let mut b = pool.get(64);
        b.copy_from(b"0123456789");
        let frozen = b.freeze();
        assert_eq!(pool.stats().in_use, 1, "frozen buffer is still in use");
        let clone = frozen.clone();
        assert_eq!(&*clone, b"0123456789");
        drop(frozen);
        assert_eq!(pool.stats().in_use, 1, "clone still holds the slab");
        drop(clone);
        let stats = pool.stats();
        assert_eq!(stats.in_use, 0);
        // And the slab actually recycled (checked out empty again).
        let again = pool.get(64);
        assert!(again.is_empty());
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn hwm_tracks_peak_concurrent_buffers() {
        let pool = BufPool::retaining(&[(16, 16)]);
        let a = pool.get(16);
        let b = pool.get(16);
        let c = pool.get(16);
        drop((a, b, c));
        drop(pool.get(16));
        assert_eq!(pool.stats().in_use_hwm, 3);
    }

    #[test]
    fn miss_ppm_is_exact() {
        assert_eq!(PoolStats::default().miss_ppm(), 0);
        let s = PoolStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(s.miss_ppm(), 250_000);
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<BufPool>();
        check::<PooledBuf>();
        check::<PooledBytes>();
    }

    #[test]
    fn concurrent_checkout_is_consistent() {
        let pool = BufPool::retaining(&[(256, 32)]);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..200usize {
                        let mut b = pool.get(200);
                        b.copy_from(&[(t * 50 + i % 50) as u8; 7]);
                        let frozen = b.freeze();
                        assert_eq!(frozen.len(), 7);
                        let copy = frozen.clone();
                        assert_eq!(&*copy, &*frozen);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.in_use, 0);
        assert_eq!(stats.hits + stats.misses, 800);
        assert!(stats.in_use_hwm <= 4);
    }

    proptest! {
        /// Round-tripping buffers through the pool never corrupts
        /// unrelated checkouts.
        #[test]
        fn prop_interleaved_checkouts_do_not_alias(
            ops in proptest::collection::vec((any::<u8>(), 1usize..128), 1..64),
        ) {
            let pool = BufPool::retaining(&[(128, 4)]);
            let mut live: Vec<(PooledBuf, u8, usize)> = Vec::new();
            for (fill, len) in ops {
                if live.len() >= 3 {
                    let (buf, fill, len) = live.remove(0);
                    let want = vec![fill; len];
                    prop_assert_eq!(&buf[..], want.as_slice());
                    drop(buf);
                }
                let mut b = pool.get(len);
                b.vec_mut().clear();
                b.vec_mut().resize(len, fill);
                live.push((b, fill, len));
            }
            for (buf, fill, len) in live {
                let want = vec![fill; len];
                prop_assert_eq!(&buf[..], want.as_slice());
            }
            prop_assert_eq!(pool.stats().in_use, 0);
        }
    }
}
