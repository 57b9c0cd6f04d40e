//! Dense in-memory block device.

use parking_lot::RwLock;

use crate::{BlockDevice, BlockSize, Geometry, Lba, Result};

/// A block device backed by one contiguous in-memory allocation.
///
/// This is the default substrate for tests and benchmarks: the PRINS
/// traffic results depend on block *contents*, not on storage latency, so
/// RAM-backed blocks reproduce the paper's measurements faithfully while
/// keeping experiments fast.
///
/// Concurrent readers proceed in parallel; writers take the exclusive
/// lock. Lock granularity is the whole device, which is adequate because
/// every workload in this reproduction is driven single-threaded per
/// device.
///
/// # Example
///
/// ```
/// use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
///
/// # fn main() -> Result<(), prins_block::BlockError> {
/// let dev = MemDevice::new(BlockSize::kb8(), 32);
/// assert_eq!(dev.geometry().num_blocks(), 32);
/// // Fresh devices read back as zeros.
/// assert!(dev.read_block_vec(Lba(31))?.iter().all(|&b| b == 0));
/// # Ok(())
/// # }
/// ```
pub struct MemDevice {
    geometry: Geometry,
    data: RwLock<Vec<u8>>,
}

impl MemDevice {
    /// Creates a zero-filled device of `num_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if the total capacity overflows `usize` (only possible on a
    /// 32-bit host with absurd parameters).
    pub fn new(block_size: BlockSize, num_blocks: u64) -> Self {
        let geometry = Geometry::new(block_size, num_blocks);
        let capacity =
            usize::try_from(geometry.capacity_bytes()).expect("MemDevice capacity exceeds usize");
        Self {
            geometry,
            data: RwLock::new(vec![0u8; capacity]),
        }
    }

    /// Creates a device initialized from `contents`, padding the final
    /// block with zeros.
    ///
    /// # Example
    ///
    /// ```
    /// use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
    ///
    /// # fn main() -> Result<(), prins_block::BlockError> {
    /// let dev = MemDevice::from_contents(BlockSize::new(512)?, b"hello");
    /// assert_eq!(dev.geometry().num_blocks(), 1);
    /// assert_eq!(&dev.read_block_vec(Lba(0))?[..5], b"hello");
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_contents(block_size: BlockSize, contents: &[u8]) -> Self {
        let bs = block_size.bytes();
        let num_blocks = contents.len().div_ceil(bs).max(1) as u64;
        let dev = Self::new(block_size, num_blocks);
        dev.data.write()[..contents.len()].copy_from_slice(contents);
        dev
    }

    /// Takes a full snapshot of the device contents.
    ///
    /// Used by consistency checks that compare a primary and a replica
    /// byte-for-byte.
    pub fn snapshot(&self) -> Vec<u8> {
        self.data.read().clone()
    }

    /// Returns whether this device and `other` hold identical bytes.
    pub fn contents_eq(&self, other: &MemDevice) -> bool {
        *self.data.read() == *other.data.read()
    }
}

impl BlockDevice for MemDevice {
    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn read_block(&self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        self.geometry.check_lba(lba)?;
        self.geometry.check_buf(buf)?;
        let off = lba.byte_offset(self.geometry.block_size()) as usize;
        let data = self.data.read();
        buf.copy_from_slice(&data[off..off + buf.len()]);
        Ok(())
    }

    fn write_block(&self, lba: Lba, buf: &[u8]) -> Result<()> {
        self.geometry.check_lba(lba)?;
        self.geometry.check_buf(buf)?;
        let off = lba.byte_offset(self.geometry.block_size()) as usize;
        let mut data = self.data.write();
        data[off..off + buf.len()].copy_from_slice(buf);
        Ok(())
    }
}

impl std::fmt::Debug for MemDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemDevice")
            .field("geometry", &self.geometry)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockError;

    #[test]
    fn round_trip_all_blocks() {
        let dev = MemDevice::new(BlockSize::new(512).unwrap(), 8);
        for i in 0..8u64 {
            let block = vec![i as u8; 512];
            dev.write_block(Lba(i), &block).unwrap();
        }
        for i in 0..8u64 {
            assert_eq!(dev.read_block_vec(Lba(i)).unwrap(), vec![i as u8; 512]);
        }
    }

    #[test]
    fn rejects_bad_lba_and_buffer() {
        let dev = MemDevice::new(BlockSize::kb4(), 2);
        let mut buf = vec![0u8; 4096];
        assert!(matches!(
            dev.read_block(Lba(2), &mut buf),
            Err(BlockError::OutOfRange { .. })
        ));
        assert!(matches!(
            dev.write_block(Lba(0), &[0u8; 10]),
            Err(BlockError::BufferSize { .. })
        ));
    }

    #[test]
    fn from_contents_pads_last_block() {
        let dev = MemDevice::from_contents(BlockSize::new(512).unwrap(), &[7u8; 700]);
        assert_eq!(dev.geometry().num_blocks(), 2);
        let b1 = dev.read_block_vec(Lba(1)).unwrap();
        assert_eq!(&b1[..188], &[7u8; 188][..]);
        assert!(b1[188..].iter().all(|&b| b == 0));
    }

    #[test]
    fn snapshot_and_contents_eq() {
        let a = MemDevice::new(BlockSize::kb4(), 2);
        let b = MemDevice::new(BlockSize::kb4(), 2);
        assert!(a.contents_eq(&b));
        a.write_block(Lba(1), &vec![1u8; 4096]).unwrap();
        assert!(!a.contents_eq(&b));
        assert_eq!(a.snapshot().len(), 2 * 4096);
    }

    #[test]
    fn concurrent_readers_and_writers_do_not_deadlock() {
        use std::sync::Arc;
        let dev = Arc::new(MemDevice::new(BlockSize::kb4(), 16));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let dev = Arc::clone(&dev);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let lba = Lba((t * 4 + i % 4) % 16);
                    dev.write_block(lba, &vec![t as u8; 4096]).unwrap();
                    let _ = dev.read_block_vec(lba).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
