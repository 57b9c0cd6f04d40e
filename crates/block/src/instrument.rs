//! Instrumented device wrapper: I/O counters and online write
//! observation.
//!
//! The paper's traffic figures are functions of the *write stream* an
//! application produces: for every block write we need the address, the
//! old contents and the new contents (the PRINS parity is exactly
//! `old ⊕ new`). [`InstrumentedDevice`] hands that stream to an observer
//! callback inline, which keeps memory flat during long benchmark runs.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{BlockDevice, Geometry, Lba, Result};

/// Counters accumulated by an [`InstrumentedDevice`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of completed block reads.
    pub reads: u64,
    /// Number of completed block writes.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Writes that left the block bit-identical (the application rewrote
    /// the same contents). PRINS sends almost nothing for these.
    pub unchanged_writes: u64,
}

/// Callback invoked for every write with `(seq, lba, old, new)`.
pub type WriteObserver = Box<dyn FnMut(u64, Lba, &[u8], &[u8]) + Send>;

/// A [`BlockDevice`] wrapper that counts I/O and captures the write
/// stream.
///
/// Reads pass straight through (plus a counter bump). Writes first read
/// the old image from the inner device, then perform the write, then
/// deliver `(old, new)` to the observer. The read-before-write is
/// precisely the read a RAID-4/5 small write performs anyway, so the
/// captured image is handed down with
/// [`write_block_over`](BlockDevice::write_block_over) — PRINS inherits
/// the old image "for free", which is the crux of the paper. The
/// capture is not counted in [`IoStats::reads`], which counts reads
/// asked of this device.
///
/// # Example
///
/// ```
/// use prins_block::{BlockDevice, BlockSize, InstrumentedDevice, Lba, MemDevice};
/// use std::sync::{Arc, Mutex};
///
/// # fn main() -> Result<(), prins_block::BlockError> {
/// let dev = InstrumentedDevice::new(MemDevice::new(BlockSize::kb4(), 8));
/// let seen = Arc::new(Mutex::new(Vec::new()));
/// let sink = Arc::clone(&seen);
/// dev.set_observer(Box::new(move |_seq, lba, old, new| {
///     sink.lock().unwrap().push((lba, old[0], new[0]));
/// }));
/// dev.write_block(Lba(1), &vec![3u8; 4096])?;
/// assert_eq!(*seen.lock().unwrap(), [(Lba(1), 0, 3)]);
/// # Ok(())
/// # }
/// ```
pub struct InstrumentedDevice<D> {
    inner: D,
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    unchanged_writes: AtomicU64,
    observer: Mutex<Option<WriteObserver>>,
}

impl<D: BlockDevice> InstrumentedDevice<D> {
    /// Wraps `inner` with fresh counters and no observer.
    pub fn new(inner: D) -> Self {
        Self {
            inner,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            unchanged_writes: AtomicU64::new(0),
            observer: Mutex::new(None),
        }
    }

    /// Current counter values.
    pub fn stats(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            unchanged_writes: self.unchanged_writes.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero (the observer is left untouched).
    pub fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.unchanged_writes.store(0, Ordering::Relaxed);
    }

    /// Installs (or replaces) the online write observer.
    ///
    /// The observer runs inline on the writing thread, after the write has
    /// been applied to the inner device.
    pub fn set_observer(&self, observer: WriteObserver) {
        *self.observer.lock() = Some(observer);
    }

    /// Removes the observer, returning it if one was installed.
    pub fn clear_observer(&self) -> Option<WriteObserver> {
        self.observer.lock().take()
    }

    /// Gives access to the wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps the instrumentation, returning the inner device.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: BlockDevice> BlockDevice for InstrumentedDevice<D> {
    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn read_block(&self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        self.inner.read_block(lba, buf)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn write_block(&self, lba: Lba, buf: &[u8]) -> Result<()> {
        // Read the before-image first (the RAID small-write read).
        let mut old = self.geometry().block_size().zeroed();
        self.inner.read_block(lba, &mut old)?;
        self.inner.write_block_over(lba, &old, buf)?;

        let seq = self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        if old == buf {
            self.unchanged_writes.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(obs) = self.observer.lock().as_mut() {
            obs(seq, lba, &old, buf);
        }
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }
}

impl<D: BlockDevice> std::fmt::Debug for InstrumentedDevice<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstrumentedDevice")
            .field("geometry", &self.geometry())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockSize, MemDevice};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn dev() -> InstrumentedDevice<MemDevice> {
        InstrumentedDevice::new(MemDevice::new(BlockSize::kb4(), 8))
    }

    #[test]
    fn counters_track_reads_and_writes() {
        let d = dev();
        d.write_block(Lba(0), &vec![1u8; 4096]).unwrap();
        d.write_block(Lba(1), &vec![2u8; 4096]).unwrap();
        let _ = d.read_block_vec(Lba(0)).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 2 * 4096);
        assert_eq!(s.bytes_read, 4096);
        d.reset_stats();
        assert_eq!(d.stats(), IoStats::default());
    }

    #[test]
    fn unchanged_write_detection() {
        let d = dev();
        let buf = vec![7u8; 4096];
        d.write_block(Lba(3), &buf).unwrap();
        d.write_block(Lba(3), &buf).unwrap();
        assert_eq!(d.stats().unchanged_writes, 1);
    }

    #[test]
    fn observer_sees_every_write_inline() {
        let d = dev();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        d.set_observer(Box::new(move |seq, _lba, old, new| {
            assert_eq!(old.len(), new.len());
            // Sequence numbers count writes from 0; each write's old
            // image is the previous write's new one (all to LBA 2).
            assert_eq!(new[0], seq as u8 + 1);
            assert_eq!(old[0], seq as u8);
            c2.fetch_add(1, Ordering::Relaxed);
        }));
        for i in 0..5u8 {
            d.write_block(Lba(2), &vec![i + 1; 4096]).unwrap();
        }
        assert_eq!(count.load(Ordering::Relaxed), 5);
        assert!(d.clear_observer().is_some());
        assert!(d.clear_observer().is_none());
    }

    #[test]
    fn writes_pass_through_to_inner_device() {
        let d = dev();
        d.write_block(Lba(5), &vec![0x42u8; 4096]).unwrap();
        assert_eq!(
            d.inner().read_block_vec(Lba(5)).unwrap(),
            vec![0x42u8; 4096]
        );
        let inner = d.into_inner();
        assert_eq!(inner.read_block_vec(Lba(5)).unwrap(), vec![0x42u8; 4096]);
    }
}
