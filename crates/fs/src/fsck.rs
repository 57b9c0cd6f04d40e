//! Filesystem consistency checking (`fsck`).
//!
//! Walks the directory tree from the root inode, cross-checks every
//! reachable inode's block pointers against the on-disk bitmaps, and
//! reports the classic corruption classes:
//!
//! * **leaked blocks / inodes** — marked allocated but unreachable,
//! * **unallocated references** — reachable but not marked in a bitmap,
//! * **double references** — one data block claimed by two files,
//! * **structural damage** — pointers outside the data region,
//!   directory entries naming free inodes, size/pointer disagreement.

use std::collections::HashMap;

use crate::alloc::Bitmap;
use crate::fs::Fs;
use crate::layout::{Inode, InodeId, DIRECT_PTRS, ROOT_INODE};
use crate::FsError;

/// One consistency violation found by [`Fs::check`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FsckIssue {
    /// A data block is marked allocated but no file references it.
    LeakedBlock {
        /// Data-region index of the block.
        index: u64,
    },
    /// A file references a block the bitmap says is free.
    UnallocatedBlock {
        /// Inode holding the reference.
        ino: InodeId,
        /// Data-region index of the block.
        index: u64,
    },
    /// Two references point at the same data block.
    DoubleReference {
        /// Data-region index of the block.
        index: u64,
        /// First referencing inode.
        first: InodeId,
        /// Second referencing inode.
        second: InodeId,
    },
    /// An inode is marked allocated but unreachable from the root.
    OrphanInode {
        /// The orphan inode.
        ino: InodeId,
    },
    /// A directory entry names an inode the bitmap says is free.
    DanglingEntry {
        /// Directory inode holding the entry.
        dir: InodeId,
        /// The named (free) inode.
        ino: InodeId,
    },
    /// A block pointer lies outside the data region.
    PointerOutOfRange {
        /// Inode holding the pointer.
        ino: InodeId,
        /// The raw pointer value.
        pointer: u32,
    },
    /// An inode's size requires more blocks than it has pointers for.
    SizeMismatch {
        /// The inconsistent inode.
        ino: InodeId,
        /// Size recorded in the inode.
        size: u64,
    },
}

impl std::fmt::Display for FsckIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsckIssue::LeakedBlock { index } => write!(f, "leaked data block {index}"),
            FsckIssue::UnallocatedBlock { ino, index } => {
                write!(f, "inode {ino} references unallocated block {index}")
            }
            FsckIssue::DoubleReference {
                index,
                first,
                second,
            } => {
                write!(f, "block {index} referenced by inodes {first} and {second}")
            }
            FsckIssue::OrphanInode { ino } => write!(f, "orphan inode {ino}"),
            FsckIssue::DanglingEntry { dir, ino } => {
                write!(f, "directory {dir} names free inode {ino}")
            }
            FsckIssue::PointerOutOfRange { ino, pointer } => {
                write!(f, "inode {ino} pointer {pointer} outside data region")
            }
            FsckIssue::SizeMismatch { ino, size } => {
                write!(f, "inode {ino} size {size} disagrees with its pointers")
            }
        }
    }
}

/// The result of a consistency check.
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Violations found (empty = clean).
    pub issues: Vec<FsckIssue>,
    /// Reachable files.
    pub files: u64,
    /// Reachable directories (including the root).
    pub(crate) directories: u64,
    /// Data blocks referenced by reachable inodes.
    pub(crate) referenced_blocks: u64,
}

impl FsckReport {
    /// Whether the filesystem is fully consistent.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

impl Fs {
    /// Runs a full consistency check.
    ///
    /// # Errors
    ///
    /// Propagates device I/O failures; *logical* inconsistencies are
    /// reported in the [`FsckReport`], not as errors.
    pub fn check(&self) -> Result<FsckReport, FsError> {
        let layout = self.layout();
        let dev = self.device();
        let block_bits = Bitmap::blocks_of(&layout).snapshot(&**dev)?;
        let inode_bits = Bitmap::inodes_of(&layout).snapshot(&**dev)?;
        let mut report = FsckReport::default();
        // data-region index -> first referencing inode
        let mut block_owner: HashMap<u64, InodeId> = HashMap::new();
        let mut inode_reachable = vec![false; layout.inode_count as usize];

        // Walk the tree.
        let mut stack = vec![ROOT_INODE];
        while let Some(ino) = stack.pop() {
            let idx = (ino - 1) as usize;
            if inode_reachable[idx] {
                continue; // loop guard (should not happen; stay safe)
            }
            inode_reachable[idx] = true;
            let inode = self.read_inode_raw(ino)?;
            match inode.kind {
                2 => report.directories += 1,
                _ => report.files += 1,
            }
            self.audit_pointers(ino, &inode, &block_bits, &mut block_owner, &mut report)?;
            if inode.kind == 2 {
                for (child, _name) in self.dir_entries_raw(&inode)? {
                    let child_idx = (child - 1) as usize;
                    if child_idx >= inode_bits.len() || !inode_bits[child_idx] {
                        report.issues.push(FsckIssue::DanglingEntry {
                            dir: ino,
                            ino: child,
                        });
                        continue;
                    }
                    stack.push(child);
                }
            }
        }
        report.referenced_blocks = block_owner.len() as u64;

        // Bitmap cross-checks.
        for (index, &allocated) in block_bits.iter().enumerate() {
            let referenced = block_owner.contains_key(&(index as u64));
            if allocated && !referenced {
                report.issues.push(FsckIssue::LeakedBlock {
                    index: index as u64,
                });
            }
        }
        for (idx, &allocated) in inode_bits.iter().enumerate() {
            if allocated && !inode_reachable[idx] {
                report.issues.push(FsckIssue::OrphanInode {
                    ino: idx as u32 + 1,
                });
            }
        }
        Ok(report)
    }

    /// Audits one inode's pointer structure.
    fn audit_pointers(
        &self,
        ino: InodeId,
        inode: &Inode,
        block_bits: &[bool],
        block_owner: &mut HashMap<u64, InodeId>,
        report: &mut FsckReport,
    ) -> Result<(), FsError> {
        let layout = self.layout();
        let bs = layout.block_size.bytes() as u64;
        let data_blocks = layout.data_blocks();
        let mut claim = |ptr: u32, report: &mut FsckReport| {
            if ptr == 0 {
                return;
            }
            let index = (ptr - 1) as u64;
            if index >= data_blocks {
                report
                    .issues
                    .push(FsckIssue::PointerOutOfRange { ino, pointer: ptr });
                return;
            }
            if let Some(&first) = block_owner.get(&index) {
                report.issues.push(FsckIssue::DoubleReference {
                    index,
                    first,
                    second: ino,
                });
                return;
            }
            block_owner.insert(index, ino);
            if !block_bits[index as usize] {
                report
                    .issues
                    .push(FsckIssue::UnallocatedBlock { ino, index });
            }
        };
        for &ptr in &inode.direct {
            claim(ptr, report);
        }
        if inode.indirect != 0 {
            claim(inode.indirect, report);
            let entries = self.indirect_entries_raw(inode)?;
            for ptr in entries {
                claim(ptr, report);
            }
        }
        // A hole-free size bound: the file cannot need more than
        // 12 + bs/4 blocks.
        let max_blocks = DIRECT_PTRS as u64 + bs / 4;
        if inode.size.div_ceil(bs) > max_blocks {
            report.issues.push(FsckIssue::SizeMismatch {
                ino,
                size: inode.size,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
    use std::sync::Arc;

    fn build() -> (Arc<MemDevice>, Fs) {
        let dev = Arc::new(MemDevice::new(BlockSize::kb4(), 2048));
        let fs = Fs::format(Arc::clone(&dev) as Arc<dyn BlockDevice>, 128).unwrap();
        fs.create_dir("/a").unwrap();
        fs.create_dir("/a/b").unwrap();
        fs.write_file("/a/top.txt", b"hello").unwrap();
        fs.write_file("/a/b/big.bin", &vec![7u8; 80_000]).unwrap();
        fs.write_file("/loose", b"x").unwrap();
        (dev, fs)
    }

    #[test]
    fn healthy_filesystem_checks_clean() {
        let (_dev, fs) = build();
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "{:?}", report.issues);
        assert_eq!(report.directories, 3); // root, /a, /a/b
        assert_eq!(report.files, 3);
        assert_eq!(
            report.referenced_blocks,
            crate::alloc::tests::used(&Bitmap::blocks_of(&fs.layout()), &**fs.device())
        );
    }

    #[test]
    fn check_stays_clean_through_heavy_churn() {
        let (_dev, fs) = build();
        for i in 0..30 {
            fs.write_file(&format!("/churn{i}"), &vec![i as u8; 10_000])
                .unwrap();
        }
        for i in (0..30).step_by(2) {
            fs.unlink(&format!("/churn{i}")).unwrap();
        }
        fs.truncate("/a/b/big.bin", 100).unwrap();
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "{:?}", report.issues);
    }

    #[test]
    fn leaked_block_is_detected() {
        let (dev, fs) = build();
        // Set a random unreferenced bit in the block bitmap directly.
        let layout = fs.layout();
        let mut bm = dev.read_block_vec(Lba(layout.block_bitmap_start)).unwrap();
        // Find a clear bit and set it.
        let byte = bm.iter().position(|&b| b != 0xff).unwrap();
        let bit = bm[byte].trailing_ones();
        bm[byte] |= 1 << bit;
        dev.write_block(Lba(layout.block_bitmap_start), &bm)
            .unwrap();
        let report = fs.check().unwrap();
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::LeakedBlock { .. })));
    }

    #[test]
    fn orphan_inode_is_detected() {
        let (dev, fs) = build();
        let layout = fs.layout();
        // Allocate an inode bit with no directory entry pointing at it.
        let mut bm = dev.read_block_vec(Lba(layout.inode_bitmap_start)).unwrap();
        let byte = bm.iter().position(|&b| b != 0xff).unwrap();
        let bit = bm[byte].trailing_ones();
        bm[byte] |= 1 << bit;
        dev.write_block(Lba(layout.inode_bitmap_start), &bm)
            .unwrap();
        let report = fs.check().unwrap();
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::OrphanInode { .. })));
    }

    #[test]
    fn unallocated_reference_is_detected() {
        let (dev, fs) = build();
        let layout = fs.layout();
        // Clear the bitmap bit for a block that /loose references.
        let report_before = fs.check().unwrap();
        assert!(report_before.is_clean());
        let mut bm = dev.read_block_vec(Lba(layout.block_bitmap_start)).unwrap();
        // Clear the highest set bit (belongs to the most recent file).
        let byte = bm.iter().rposition(|&b| b != 0).unwrap();
        let bit = 7 - bm[byte].leading_zeros() as u8 % 8;
        bm[byte] &= !(1 << bit);
        dev.write_block(Lba(layout.block_bitmap_start), &bm)
            .unwrap();
        let report = fs.check().unwrap();
        assert!(
            report
                .issues
                .iter()
                .any(|i| matches!(i, FsckIssue::UnallocatedBlock { .. })),
            "{:?}",
            report.issues
        );
    }

    #[test]
    fn issues_render_human_readably() {
        let issue = FsckIssue::DoubleReference {
            index: 9,
            first: 2,
            second: 5,
        };
        let text = issue.to_string();
        assert!(text.contains('9') && text.contains('2') && text.contains('5'));
    }
}
