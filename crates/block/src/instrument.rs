//! Instrumented device wrapper: online write observation.
//!
//! The paper's traffic figures are functions of the *write stream* an
//! application produces: for every block write we need the address, the
//! old contents and the new contents (the PRINS parity is exactly
//! `old ⊕ new`). [`InstrumentedDevice`] hands that stream to an observer
//! callback inline, which keeps memory flat during long benchmark runs.

use parking_lot::Mutex;

use crate::{BlockDevice, Geometry, Lba, Result};

/// Callback invoked for every write with `(lba, old, new)`.
pub type WriteObserver = Box<dyn FnMut(Lba, &[u8], &[u8]) + Send>;

/// A [`BlockDevice`] wrapper that captures the write stream.
///
/// Reads pass straight through. Writes first read the old image from
/// the inner device, then perform the write, then deliver `(old, new)`
/// to the observer. The read-before-write is precisely the read a
/// RAID-4/5 small write performs anyway, so the captured image is
/// handed down with [`write_block_over`](BlockDevice::write_block_over)
/// — PRINS inherits the old image "for free", which is the crux of the
/// paper.
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
/// dev.set_observer(Box::new(move |lba, old, new| {
///     sink.lock().unwrap().push((lba, old[0], new[0]));
/// }));
/// dev.write_block(Lba(1), &vec![3u8; 4096])?;
/// assert_eq!(*seen.lock().unwrap(), [(Lba(1), 0, 3)]);
/// # Ok(())
/// # }
/// ```
pub struct InstrumentedDevice<D> {
    inner: D,
    observer: Mutex<Option<WriteObserver>>,
}

impl<D: BlockDevice> InstrumentedDevice<D> {
    /// Wraps `inner` with no observer.
    pub fn new(inner: D) -> Self {
        Self {
            inner,
            observer: Mutex::new(None),
        }
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
}

impl<D: BlockDevice> BlockDevice for InstrumentedDevice<D> {
    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn read_block(&self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        self.inner.read_block(lba, buf)
    }

    fn write_block(&self, lba: Lba, buf: &[u8]) -> Result<()> {
        // Read the before-image first (the RAID small-write read).
        let mut old = self.geometry().block_size().zeroed();
        self.inner.read_block(lba, &mut old)?;
        self.inner.write_block_over(lba, &old, buf)?;
        if let Some(observer) = self.observer.lock().as_mut() {
            observer(lba, &old, buf);
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
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockSize, MemDevice};
    use std::sync::Arc;

    fn dev() -> InstrumentedDevice<MemDevice> {
        InstrumentedDevice::new(MemDevice::new(BlockSize::kb4(), 8))
    }

    #[test]
    fn observer_sees_every_write_inline() {
        let d = dev();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        d.set_observer(Box::new(move |lba, old, new| {
            assert_eq!(old.len(), new.len());
            sink.lock().push((lba, old[0], new[0]));
        }));
        for i in 0..5u8 {
            d.write_block(Lba(2), &vec![i + 1; 4096]).unwrap();
        }
        // One call per write, in write order: each write's old image is
        // the previous write's new one (all to LBA 2).
        let expected: Vec<_> = (0..5u8).map(|i| (Lba(2), i, i + 1)).collect();
        assert_eq!(*seen.lock(), expected);
        assert!(d.clear_observer().is_some());
        assert!(d.clear_observer().is_none());
    }

    #[test]
    fn writes_pass_through_to_inner_device() {
        let d = dev();
        d.write_block(Lba(5), &vec![0x42u8; 4096]).unwrap();
        assert_eq!(d.inner.read_block_vec(Lba(5)).unwrap(), vec![0x42u8; 4096]);
    }
}
