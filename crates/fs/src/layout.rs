//! On-disk layout arithmetic: superblock, bitmaps, inode table.

use prins_block::{BlockSize, Geometry};

use crate::FsError;

/// Inode number (1-based; 0 means "no inode" in directory entries).
pub(crate) type InodeId = u32;

/// Size of one on-disk inode.
pub(crate) const INODE_SIZE: usize = 128;
/// Number of direct block pointers per inode.
pub(crate) const DIRECT_PTRS: usize = 12;
/// Magic number in the superblock ("PFS1").
pub(crate) const MAGIC: u32 = 0x5046_5331;
/// Root directory inode.
pub(crate) const ROOT_INODE: InodeId = 1;

/// Where each on-disk region lives, derived from the device geometry and
/// the requested inode count (ext2-style fixed regions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Layout {
    /// Device block size.
    pub(crate) block_size: BlockSize,
    /// Total device blocks.
    pub(crate) total_blocks: u64,
    /// Number of inodes.
    pub(crate) inode_count: u32,
    /// First block of the block bitmap.
    pub(crate) block_bitmap_start: u64,
    /// Blocks in the block bitmap.
    pub(crate) block_bitmap_blocks: u64,
    /// First block of the inode bitmap.
    pub(crate) inode_bitmap_start: u64,
    /// Blocks in the inode bitmap.
    pub(crate) inode_bitmap_blocks: u64,
    /// First block of the inode table.
    pub(crate) inode_table_start: u64,
    /// Blocks in the inode table.
    pub(crate) inode_table_blocks: u64,
    /// First data block.
    pub(crate) data_start: u64,
}

impl Layout {
    /// Computes the layout for a device and inode budget.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] when the device is too small to hold the
    /// metadata regions plus at least one data block.
    pub(crate) fn compute(geometry: Geometry, inode_count: u32) -> Result<Self, FsError> {
        let bs = geometry.block_size().bytes() as u64;
        let total_blocks = geometry.num_blocks();
        let bits_per_block = bs * 8;
        let block_bitmap_blocks = total_blocks.div_ceil(bits_per_block);
        let inode_bitmap_blocks = (inode_count as u64).div_ceil(bits_per_block);
        let inodes_per_block = bs / INODE_SIZE as u64;
        let inode_table_blocks = (inode_count as u64).div_ceil(inodes_per_block);

        let block_bitmap_start = 1;
        let inode_bitmap_start = block_bitmap_start + block_bitmap_blocks;
        let inode_table_start = inode_bitmap_start + inode_bitmap_blocks;
        let data_start = inode_table_start + inode_table_blocks;
        if data_start + 1 >= total_blocks || inode_count < 2 {
            return Err(FsError::NoSpace);
        }
        Ok(Self {
            block_size: geometry.block_size(),
            total_blocks,
            inode_count,
            block_bitmap_start,
            block_bitmap_blocks,
            inode_bitmap_start,
            inode_bitmap_blocks,
            inode_table_start,
            inode_table_blocks,
            data_start,
        })
    }

    /// Number of data blocks available to files.
    pub(crate) fn data_blocks(&self) -> u64 {
        self.total_blocks - self.data_start
    }

    /// Maximum file size: 12 direct blocks + one indirect block of
    /// 4-byte pointers.
    pub(crate) fn max_file_size(&self) -> u64 {
        let bs = self.block_size.bytes() as u64;
        (DIRECT_PTRS as u64 + bs / 4) * bs
    }

    /// `(block, byte_offset)` of inode `ino` within the inode table.
    pub(crate) fn inode_location(&self, ino: InodeId) -> (u64, usize) {
        let per_block = self.block_size.bytes() / INODE_SIZE;
        let idx = (ino - 1) as u64;
        (
            self.inode_table_start + idx / per_block as u64,
            (idx as usize % per_block) * INODE_SIZE,
        )
    }

    /// Serializes the superblock into a block-sized buffer.
    pub(crate) fn encode_superblock(&self, buf: &mut [u8]) {
        buf.fill(0);
        buf[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        buf[4..8].copy_from_slice(&self.block_size.bytes_u32().to_le_bytes());
        buf[8..16].copy_from_slice(&self.total_blocks.to_le_bytes());
        buf[16..20].copy_from_slice(&self.inode_count.to_le_bytes());
    }

    /// Reconstructs the layout from a superblock read off the device.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupt`] when the magic or geometry disagree.
    pub(crate) fn decode_superblock(geometry: Geometry, buf: &[u8]) -> Result<Self, FsError> {
        if buf.len() < 20 || u32::from_le_bytes(buf[0..4].try_into().unwrap()) != MAGIC {
            return Err(FsError::Corrupt {
                detail: "bad superblock magic".into(),
            });
        }
        let bs = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let total = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        let inode_count = u32::from_le_bytes(buf[16..20].try_into().unwrap());
        if bs != geometry.block_size().bytes_u32() || total != geometry.num_blocks() {
            return Err(FsError::Corrupt {
                detail: format!(
                    "superblock geometry ({bs} B x {total}) disagrees with device ({})",
                    geometry
                ),
            });
        }
        Self::compute(geometry, inode_count)
    }
}

/// An in-memory inode image.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Inode {
    /// 0 = free, 1 = regular file, 2 = directory.
    pub(crate) kind: u16,
    /// Link count.
    pub(crate) links: u16,
    /// File size in bytes.
    pub(crate) size: u64,
    /// Direct block pointers (0 = unallocated; stored +data_start-free).
    pub(crate) direct: [u32; DIRECT_PTRS],
    /// Indirect pointer block (0 = none).
    pub(crate) indirect: u32,
    /// Modification counter (bumped per write, like mtime).
    pub(crate) mtime: u64,
}

impl Inode {
    /// Serializes into `INODE_SIZE` bytes.
    pub(crate) fn encode(&self, buf: &mut [u8]) {
        buf[..INODE_SIZE].fill(0);
        buf[0..2].copy_from_slice(&self.kind.to_le_bytes());
        buf[2..4].copy_from_slice(&self.links.to_le_bytes());
        buf[4..12].copy_from_slice(&self.size.to_le_bytes());
        for (i, ptr) in self.direct.iter().enumerate() {
            buf[12 + i * 4..16 + i * 4].copy_from_slice(&ptr.to_le_bytes());
        }
        buf[60..64].copy_from_slice(&self.indirect.to_le_bytes());
        buf[64..72].copy_from_slice(&self.mtime.to_le_bytes());
    }

    /// Deserializes from `INODE_SIZE` bytes.
    pub(crate) fn decode(buf: &[u8]) -> Self {
        let mut direct = [0u32; DIRECT_PTRS];
        for (i, ptr) in direct.iter_mut().enumerate() {
            *ptr = u32::from_le_bytes(buf[12 + i * 4..16 + i * 4].try_into().unwrap());
        }
        Self {
            kind: u16::from_le_bytes(buf[0..2].try_into().unwrap()),
            links: u16::from_le_bytes(buf[2..4].try_into().unwrap()),
            size: u64::from_le_bytes(buf[4..12].try_into().unwrap()),
            direct,
            indirect: u32::from_le_bytes(buf[60..64].try_into().unwrap()),
            mtime: u64::from_le_bytes(buf[64..72].try_into().unwrap()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::BlockSize;

    fn geom(blocks: u64) -> Geometry {
        Geometry::new(BlockSize::kb4(), blocks)
    }

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let l = Layout::compute(geom(10_000), 1024).unwrap();
        assert_eq!(l.block_bitmap_start, 1);
        assert!(l.inode_bitmap_start > l.block_bitmap_start);
        assert!(l.inode_table_start > l.inode_bitmap_start);
        assert!(l.data_start > l.inode_table_start);
        assert!(l.data_blocks() > 9000);
    }

    #[test]
    fn too_small_device_is_rejected() {
        assert!(Layout::compute(geom(4), 1024).is_err());
        assert!(Layout::compute(geom(1000), 1).is_err());
    }

    #[test]
    fn superblock_roundtrip() {
        let g = geom(5000);
        let l = Layout::compute(g, 256).unwrap();
        let mut buf = vec![0u8; 4096];
        l.encode_superblock(&mut buf);
        assert_eq!(Layout::decode_superblock(g, &buf).unwrap(), l);
        // Wrong geometry is rejected.
        assert!(Layout::decode_superblock(geom(4999), &buf).is_err());
        buf[0] ^= 0xff;
        assert!(Layout::decode_superblock(g, &buf).is_err());
    }

    #[test]
    fn inode_locations_do_not_collide() {
        let l = Layout::compute(geom(10_000), 512).unwrap();
        let mut seen = std::collections::HashSet::new();
        for ino in 1..=512u32 {
            let loc = l.inode_location(ino);
            assert!(seen.insert(loc), "inode {ino} collides");
            assert!(loc.0 >= l.inode_table_start);
            assert!(loc.0 < l.data_start);
            assert!(loc.1 + INODE_SIZE <= 4096);
        }
    }

    #[test]
    fn inode_roundtrip() {
        let mut ino = Inode {
            kind: 1,
            links: 2,
            size: 123_456,
            direct: [7; DIRECT_PTRS],
            indirect: 99,
            mtime: 42,
        };
        ino.direct[3] = 1234;
        let mut buf = vec![0u8; INODE_SIZE];
        ino.encode(&mut buf);
        assert_eq!(Inode::decode(&buf), ino);
    }

    #[test]
    fn max_file_size_matches_pointer_budget() {
        let l = Layout::compute(geom(10_000), 256).unwrap();
        // 12 direct + 1024 indirect pointers of 4 KB blocks.
        assert_eq!(l.max_file_size(), (12 + 1024) * 4096);
    }
}
