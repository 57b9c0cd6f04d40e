//! Buffer pool with CLOCK eviction and dirty write-back.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use prins_block::{BlockDevice, Lba};

use crate::page::PageId;
use crate::table::StoreError;

struct Frame {
    page_id: PageId,
    data: Vec<u8>,
    dirty: bool,
    referenced: bool,
    pinned: u32,
}

struct Inner {
    device: Arc<dyn BlockDevice>,
    capacity: usize,
    frames: Mutex<PoolState>,
    next_page: AtomicU32,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

struct PoolState {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    clock_hand: usize,
}

/// A shared, fixed-capacity page cache over a [`BlockDevice`].
///
/// Pages are fetched on demand, cached, and written back when evicted by
/// the CLOCK algorithm or at [`flush_all`](Self::flush_all). This stands
/// in for the DBMS buffer pools of the paper's Oracle/Postgres/MySQL
/// installations: the *device* only sees a write when a dirty page is
/// evicted or flushed, which batches row changes into realistic block
/// deltas.
///
/// Handles are cheap to clone (shared state), so several tables and
/// indexes can allocate from one pool.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<Inner>,
}

impl BufferPool {
    /// Creates a pool of `capacity` page frames over `device`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(device: Arc<dyn BlockDevice>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        Self {
            inner: Arc::new(Inner {
                device,
                capacity,
                frames: Mutex::new(PoolState {
                    frames: Vec::new(),
                    map: HashMap::new(),
                    clock_hand: 0,
                }),
                next_page: AtomicU32::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            }),
        }
    }

    /// Page size in bytes (= the device block size).
    pub(crate) fn page_size(&self) -> usize {
        self.inner.device.geometry().block_size().bytes()
    }

    /// Total pages the backing device can hold.
    pub(crate) fn device_pages(&self) -> u64 {
        self.inner.device.geometry().num_blocks()
    }

    /// `(hits, misses, evictions)` counters.
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        (
            self.inner.hits.load(Ordering::Relaxed),
            self.inner.misses.load(Ordering::Relaxed),
            self.inner.evictions.load(Ordering::Relaxed),
        )
    }

    /// Hands out the next unused page id.
    ///
    /// # Errors
    ///
    /// [`StoreError::DeviceFull`] when the device has no more pages.
    pub(crate) fn allocate_page(&self) -> Result<PageId, StoreError> {
        let pid = self.inner.next_page.fetch_add(1, Ordering::SeqCst);
        if (pid as u64) >= self.device_pages() {
            return Err(StoreError::DeviceFull {
                pages: self.device_pages(),
            });
        }
        Ok(pid)
    }

    fn load_frame(&self, state: &mut PoolState, page_id: PageId) -> Result<usize, StoreError> {
        if let Some(&idx) = state.map.get(&page_id) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            state.frames[idx].referenced = true;
            return Ok(idx);
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let mut data = vec![0u8; self.page_size()];
        self.inner
            .device
            .read_block(Lba(page_id as u64), &mut data)?;

        if state.frames.len() < self.inner.capacity {
            let idx = state.frames.len();
            state.frames.push(Frame {
                page_id,
                data,
                dirty: false,
                referenced: true,
                pinned: 0,
            });
            state.map.insert(page_id, idx);
            return Ok(idx);
        }

        // CLOCK eviction.
        let n = state.frames.len();
        let mut spins = 0usize;
        let victim = loop {
            let idx = state.clock_hand;
            state.clock_hand = (state.clock_hand + 1) % n;
            let frame = &mut state.frames[idx];
            if frame.pinned > 0 {
                spins += 1;
            } else if frame.referenced {
                frame.referenced = false;
                spins += 1;
            } else {
                break idx;
            }
            if spins > 2 * n + 1 {
                return Err(StoreError::PoolExhausted {
                    capacity: self.inner.capacity,
                });
            }
        };
        let frame = &mut state.frames[victim];
        if frame.dirty {
            self.inner
                .device
                .write_block(Lba(frame.page_id as u64), &frame.data)?;
            self.inner.evictions.fetch_add(1, Ordering::Relaxed);
        }
        state.map.remove(&frame.page_id);
        frame.page_id = page_id;
        frame.data = data;
        frame.dirty = false;
        frame.referenced = true;
        state.map.insert(page_id, victim);
        Ok(victim)
    }

    /// Runs `f` over the page's bytes read-only.
    ///
    /// # Errors
    ///
    /// Device read failures and pool exhaustion.
    pub(crate) fn with_page<R>(
        &self,
        page_id: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, StoreError> {
        let mut state = self.inner.frames.lock();
        let idx = self.load_frame(&mut state, page_id)?;
        Ok(f(&state.frames[idx].data))
    }

    /// Runs `f` over the page's bytes mutably; the page is marked dirty.
    ///
    /// # Errors
    ///
    /// Device read failures and pool exhaustion.
    pub(crate) fn with_page_mut<R>(
        &self,
        page_id: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, StoreError> {
        let mut state = self.inner.frames.lock();
        let idx = self.load_frame(&mut state, page_id)?;
        let frame = &mut state.frames[idx];
        frame.dirty = true;
        Ok(f(&mut frame.data))
    }

    /// Writes every dirty page back to the device.
    ///
    /// # Errors
    ///
    /// Device write failures (remaining dirty pages stay dirty).
    pub fn flush_all(&self) -> Result<(), StoreError> {
        let mut state = self.inner.frames.lock();
        for frame in &mut state.frames {
            if frame.dirty {
                self.inner
                    .device
                    .write_block(Lba(frame.page_id as u64), &frame.data)?;
                frame.dirty = false;
            }
        }
        self.inner.device.flush()?;
        Ok(())
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses, evictions) = self.stats();
        f.debug_struct("BufferPool")
            .field("capacity", &self.inner.capacity)
            .field("hits", &hits)
            .field("misses", &misses)
            .field("evictions", &evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::{BlockSize, InstrumentedDevice, MemDevice};

    fn pool(frames: usize, blocks: u64) -> BufferPool {
        BufferPool::new(Arc::new(MemDevice::new(BlockSize::kb4(), blocks)), frames)
    }

    #[test]
    fn writes_survive_eviction_pressure() {
        let p = pool(4, 64);
        for _ in 0..32 {
            p.allocate_page().unwrap();
        }
        for pid in 0..32u32 {
            p.with_page_mut(pid, |bytes| bytes[0] = pid as u8).unwrap();
        }
        for pid in 0..32u32 {
            assert_eq!(p.with_page(pid, |bytes| bytes[0]).unwrap(), pid as u8);
        }
        let (_, _, evictions) = p.stats();
        assert!(evictions > 0, "4-frame pool over 32 pages must evict");
    }

    #[test]
    fn flush_all_persists_to_device() {
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let p = BufferPool::new(Arc::clone(&device) as Arc<dyn BlockDevice>, 8);
        let pid = p.allocate_page().unwrap();
        p.with_page_mut(pid, |bytes| bytes[7] = 9).unwrap();
        // Not yet on the device (no eviction, no flush).
        assert_eq!(device.read_block_vec(Lba(pid as u64)).unwrap()[7], 0);
        p.flush_all().unwrap();
        assert_eq!(device.read_block_vec(Lba(pid as u64)).unwrap()[7], 9);
    }

    #[test]
    fn pool_batches_device_writes() {
        let device = Arc::new(InstrumentedDevice::new(MemDevice::new(BlockSize::kb4(), 8)));
        let writes = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let sink = Arc::clone(&writes);
        device.set_observer(Box::new(move |_, _, _| {
            sink.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }));
        let p = BufferPool::new(Arc::clone(&device) as Arc<dyn BlockDevice>, 8);
        let pid = p.allocate_page().unwrap();
        for i in 0..100 {
            p.with_page_mut(pid, |bytes| bytes[i] = i as u8).unwrap();
        }
        p.flush_all().unwrap();
        // 100 page mutations → 1 device write.
        assert_eq!(writes.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn allocate_past_device_capacity_fails() {
        let p = pool(2, 2);
        p.allocate_page().unwrap();
        p.allocate_page().unwrap();
        assert!(matches!(
            p.allocate_page(),
            Err(StoreError::DeviceFull { .. })
        ));
    }

    #[test]
    fn clones_share_state() {
        let a = pool(2, 8);
        let b = a.clone();
        let pid = a.allocate_page().unwrap();
        a.with_page_mut(pid, |bytes| bytes[0] = 5).unwrap();
        assert_eq!(b.with_page(pid, |bytes| bytes[0]).unwrap(), 5);
        // Allocation counter is shared too.
        assert_ne!(b.allocate_page().unwrap(), pid);
    }

    #[test]
    fn hit_miss_accounting() {
        let p = pool(2, 8);
        let pid = p.allocate_page().unwrap();
        p.with_page(pid, |_| ()).unwrap(); // miss
        p.with_page(pid, |_| ()).unwrap(); // hit
        let (hits, misses, _) = p.stats();
        assert_eq!((hits, misses), (1, 1));
    }
}
