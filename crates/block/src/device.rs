//! The [`BlockDevice`] trait.

use crate::{Geometry, Lba, Result};

/// An LBA-addressed, fixed-block-size storage device.
///
/// This is the interface between every layer of the reproduction: the
/// RAID array exposes it upward, the iSCSI target serves it over the
/// network, the PRINS engine wraps it, and the page store / filesystem
/// consume it.
///
/// Methods take `&self`; implementations use interior mutability so a
/// device can be shared behind an [`std::sync::Arc`] between the
/// application thread and the replication thread (the paper's
/// PRINS-engine runs as a separate thread next to the iSCSI target
/// thread).
///
/// The trait is object-safe: dynamic dispatch (`Arc<dyn BlockDevice>`) is
/// the common composition style throughout the workspace.
///
/// # Example
///
/// ```
/// use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), prins_block::BlockError> {
/// let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(BlockSize::kb4(), 64));
/// dev.write_block(Lba(0), &vec![1u8; 4096])?;
/// assert_eq!(dev.read_block_vec(Lba(0))?[0], 1);
/// # Ok(())
/// # }
/// ```
pub trait BlockDevice: Send + Sync {
    /// The device's block size and capacity.
    fn geometry(&self) -> Geometry;

    /// Reads the block at `lba` into `buf`.
    ///
    /// # Errors
    ///
    /// * [`BlockError::OutOfRange`](crate::BlockError::OutOfRange) if `lba`
    ///   is past the end of the device.
    /// * [`BlockError::BufferSize`](crate::BlockError::BufferSize) if
    ///   `buf.len()` differs from the block size.
    /// * [`BlockError::Io`](crate::BlockError::Io) /
    ///   [`BlockError::DeviceFailed`](crate::BlockError::DeviceFailed) on
    ///   (possibly injected) hardware failure.
    ///
    /// On error the contents of `buf` are unspecified.
    fn read_block(&self, lba: Lba, buf: &mut [u8]) -> Result<()>;

    /// Writes `buf` as the new contents of the block at `lba`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`read_block`](Self::read_block).
    fn write_block(&self, lba: Lba, buf: &[u8]) -> Result<()>;

    /// [`write_block`](Self::write_block) for a caller that already
    /// holds `old`, the block's current contents: a device whose write
    /// needs the old image (a RAID-4/5 small write, a parity log) takes
    /// it from here instead of reading the block again. The default
    /// ignores `old`.
    ///
    /// `old` must be what the block holds when the write lands — a
    /// stale image silently corrupts whatever the device derives from
    /// it (parity, log entries). Callers serialize writes per block to
    /// guarantee that.
    ///
    /// # Errors
    ///
    /// Same conditions as [`write_block`](Self::write_block).
    fn write_block_over(&self, lba: Lba, old: &[u8], new: &[u8]) -> Result<()> {
        let _ = old;
        self.write_block(lba, new)
    }

    /// Forces buffered state to stable storage.
    ///
    /// In-memory devices treat this as a no-op; file-backed devices call
    /// down to the OS.
    ///
    /// # Errors
    ///
    /// Propagates underlying I/O failures.
    fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// Reads the block at `lba` into a freshly allocated buffer.
    ///
    /// Convenience wrapper over [`read_block`](Self::read_block); prefer
    /// the buffer-reuse form on hot paths.
    ///
    /// # Errors
    ///
    /// Same conditions as [`read_block`](Self::read_block).
    fn read_block_vec(&self, lba: Lba) -> Result<Vec<u8>> {
        let mut buf = self.geometry().block_size().zeroed();
        self.read_block(lba, &mut buf)?;
        Ok(buf)
    }
}

impl<D: BlockDevice + ?Sized> BlockDevice for &D {
    fn geometry(&self) -> Geometry {
        (**self).geometry()
    }

    fn read_block(&self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        (**self).read_block(lba, buf)
    }

    fn write_block(&self, lba: Lba, buf: &[u8]) -> Result<()> {
        (**self).write_block(lba, buf)
    }

    fn write_block_over(&self, lba: Lba, old: &[u8], new: &[u8]) -> Result<()> {
        (**self).write_block_over(lba, old, new)
    }

    fn flush(&self) -> Result<()> {
        (**self).flush()
    }
}

impl<D: BlockDevice + ?Sized> BlockDevice for std::sync::Arc<D> {
    fn geometry(&self) -> Geometry {
        (**self).geometry()
    }

    fn read_block(&self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        (**self).read_block(lba, buf)
    }

    fn write_block(&self, lba: Lba, buf: &[u8]) -> Result<()> {
        (**self).write_block(lba, buf)
    }

    fn write_block_over(&self, lba: Lba, old: &[u8], new: &[u8]) -> Result<()> {
        (**self).write_block_over(lba, old, new)
    }

    fn flush(&self) -> Result<()> {
        (**self).flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockSize, MemDevice};
    use std::sync::Arc;

    #[test]
    fn trait_is_object_safe_and_arc_forwards() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(BlockSize::kb4(), 4));
        assert_eq!(dev.geometry().num_blocks(), 4);
        dev.write_block(Lba(2), &vec![9u8; 4096]).unwrap();
        assert_eq!(dev.read_block_vec(Lba(2)).unwrap()[4095], 9);
        dev.flush().unwrap();
    }

    #[test]
    fn arc_of_concrete_device_is_a_device() {
        fn takes_device<D: BlockDevice>(d: &D) -> u64 {
            d.geometry().num_blocks()
        }
        let dev = Arc::new(MemDevice::new(BlockSize::kb4(), 7));
        assert_eq!(takes_device(&dev), 7);
    }
}
