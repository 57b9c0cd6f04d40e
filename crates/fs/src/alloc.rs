//! Bitmap allocators for blocks and inodes.
//!
//! Bitmaps live on the device (like ext2's block groups), so every
//! allocation produces the small metadata write a real filesystem makes
//! — one changed byte in a bitmap block.

use prins_block::{BlockDevice, Lba};

use crate::layout::Layout;
use crate::FsError;

/// Allocates and frees bits in an on-device bitmap region.
pub(crate) struct Bitmap {
    start: u64,
    blocks: u64,
    bits: u64,
}

impl Bitmap {
    pub(crate) fn blocks_of(layout: &Layout) -> Self {
        Self {
            start: layout.block_bitmap_start,
            blocks: layout.block_bitmap_blocks,
            bits: layout.data_blocks(),
        }
    }

    pub(crate) fn inodes_of(layout: &Layout) -> Self {
        Self {
            start: layout.inode_bitmap_start,
            blocks: layout.inode_bitmap_blocks,
            bits: layout.inode_count as u64,
        }
    }

    /// Finds a clear bit, sets it, and returns its index.
    pub(crate) fn allocate<D: BlockDevice + ?Sized>(&self, dev: &D) -> Result<u64, FsError> {
        let bs = dev.geometry().block_size().bytes();
        let mut buf = vec![0u8; bs];
        for blk in 0..self.blocks {
            dev.read_block(Lba(self.start + blk), &mut buf)?;
            for (byte_idx, byte) in buf.iter_mut().enumerate() {
                if *byte == 0xff {
                    continue;
                }
                let bit = byte.trailing_ones() as u64;
                let index = blk * bs as u64 * 8 + byte_idx as u64 * 8 + bit;
                if index >= self.bits {
                    return Err(FsError::NoSpace);
                }
                *byte |= 1 << bit;
                dev.write_block(Lba(self.start + blk), &buf)?;
                return Ok(index);
            }
        }
        Err(FsError::NoSpace)
    }

    /// Clears a previously allocated bit.
    pub(crate) fn free<D: BlockDevice + ?Sized>(&self, dev: &D, index: u64) -> Result<(), FsError> {
        if index >= self.bits {
            return Err(FsError::Corrupt {
                detail: format!("freeing bit {index} beyond bitmap of {} bits", self.bits),
            });
        }
        let bs = dev.geometry().block_size().bytes() as u64;
        let blk = index / (bs * 8);
        let byte = ((index / 8) % bs) as usize;
        let bit = (index % 8) as u8;
        let mut buf = vec![0u8; bs as usize];
        dev.read_block(Lba(self.start + blk), &mut buf)?;
        if buf[byte] & (1 << bit) == 0 {
            return Err(FsError::Corrupt {
                detail: format!("double free of bit {index}"),
            });
        }
        buf[byte] &= !(1 << bit);
        dev.write_block(Lba(self.start + blk), &buf)?;
        Ok(())
    }

    /// Snapshots the whole bitmap as a boolean vector (used by fsck).
    pub(crate) fn snapshot<D: BlockDevice + ?Sized>(&self, dev: &D) -> Result<Vec<bool>, FsError> {
        let bs = dev.geometry().block_size().bytes();
        let mut buf = vec![0u8; bs];
        let mut bits = Vec::with_capacity(self.bits as usize);
        for blk in 0..self.blocks {
            dev.read_block(Lba(self.start + blk), &mut buf)?;
            for byte in &buf {
                for bit in 0..8 {
                    if bits.len() as u64 == self.bits {
                        return Ok(bits);
                    }
                    bits.push(byte & (1 << bit) != 0);
                }
            }
        }
        Ok(bits)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use prins_block::{BlockSize, Geometry, MemDevice};

    /// Set bits in `bm`: the allocation count tests compare against.
    pub(crate) fn used(bm: &Bitmap, dev: &dyn BlockDevice) -> u64 {
        bm.snapshot(dev).unwrap().into_iter().filter(|&b| b).count() as u64
    }

    fn setup() -> (MemDevice, Bitmap) {
        let dev = MemDevice::new(BlockSize::kb4(), 256);
        let layout = Layout::compute(Geometry::new(BlockSize::kb4(), 256), 64).unwrap();
        (dev, Bitmap::blocks_of(&layout))
    }

    #[test]
    fn allocations_are_distinct_and_freeable() {
        let (dev, bm) = setup();
        let a = bm.allocate(&dev).unwrap();
        let b = bm.allocate(&dev).unwrap();
        let c = bm.allocate(&dev).unwrap();
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(used(&bm, &dev), 3);
        bm.free(&dev, b).unwrap();
        assert_eq!(used(&bm, &dev), 2);
        // Freed bit is reused first.
        assert_eq!(bm.allocate(&dev).unwrap(), 1);
    }

    #[test]
    fn exhaustion_reports_no_space() {
        let dev = MemDevice::new(BlockSize::kb4(), 64);
        let layout = Layout::compute(Geometry::new(BlockSize::kb4(), 64), 16).unwrap();
        let bm = Bitmap::blocks_of(&layout);
        let capacity = layout.data_blocks();
        for _ in 0..capacity {
            bm.allocate(&dev).unwrap();
        }
        assert!(matches!(bm.allocate(&dev), Err(FsError::NoSpace)));
    }

    #[test]
    fn double_free_is_detected() {
        let (dev, bm) = setup();
        let a = bm.allocate(&dev).unwrap();
        bm.free(&dev, a).unwrap();
        assert!(matches!(bm.free(&dev, a), Err(FsError::Corrupt { .. })));
        assert!(bm.free(&dev, 1 << 40).is_err());
    }

    #[test]
    fn inode_bitmap_respects_inode_count() {
        let dev = MemDevice::new(BlockSize::kb4(), 256);
        let layout = Layout::compute(Geometry::new(BlockSize::kb4(), 256), 8).unwrap();
        let bm = Bitmap::inodes_of(&layout);
        for _ in 0..8 {
            bm.allocate(&dev).unwrap();
        }
        assert!(matches!(bm.allocate(&dev), Err(FsError::NoSpace)));
    }
}
