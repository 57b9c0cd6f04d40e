//! Software RAID over [`BlockDevice`](prins_block::BlockDevice)s — the
//! storage substrate whose parity computation PRINS piggybacks on.
//!
//! The paper (§2): *"Consider a RAID 4 or RAID 5 storage system. Upon a
//! write into a data block Ai … the following computation is necessary to
//! update the parity disk: `Pnew = Ainew ⊕ Aiold ⊕ Pold`. PRINS leverages
//! this computation in storage to replicate the first part of the above
//! equation, i.e. `P' = Ainew ⊕ Aiold`."*
//!
//! [`RaidArray`] implements exactly that small-write read-modify-write
//! path for RAID-4 (dedicated parity disk) and RAID-5 (left-symmetric
//! rotated parity), plus RAID-0 striping and RAID-1 mirroring for
//! completeness. The small write reads `Aiold`; so does the PRINS
//! engine, to compute `P'`. The engine hands its captured image down
//! through
//! [`BlockDevice::write_block_over`](prins_block::BlockDevice::write_block_over),
//! and the array folds `Ainew ⊕ Aiold` into parity without reading the
//! data member again: replication over RAID-4/5 costs one old-image
//! read per write, the read the array needed anyway.
//!
//! The array itself is a block device, so databases, filesystems and
//! iSCSI targets can run on top of it unchanged. Degraded reads,
//! member-failure handling, full rebuild onto a replacement device, and
//! parity scrubbing are implemented and tested.
//!
//! # Example
//!
//! ```
//! use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
//! use prins_raid::{RaidArray, RaidLevel};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), prins_block::BlockError> {
//! let members: Vec<Arc<dyn BlockDevice>> = (0..4)
//!     .map(|_| Arc::new(MemDevice::new(BlockSize::kb4(), 64)) as Arc<dyn BlockDevice>)
//!     .collect();
//! let raid = RaidArray::new(RaidLevel::Raid5, members)?;
//! // 4 members, one parity per stripe => 3/4 of raw capacity.
//! assert_eq!(raid.geometry().num_blocks(), 3 * 64);
//! raid.write_block(Lba(17), &vec![0x5au8; 4096])?;
//! assert_eq!(raid.read_block_vec(Lba(17))?[0], 0x5a);
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]

mod array;
mod layout;

pub use array::{RaidArray, ScrubReport};
pub use layout::RaidLevel;
