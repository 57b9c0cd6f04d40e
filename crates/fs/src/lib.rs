//! An ext2-like filesystem on a [`BlockDevice`](prins_block::BlockDevice),
//! plus a tar-style archiver — the substrate of the paper's filesystem
//! micro-benchmark.
//!
//! The paper's micro-benchmark "chooses five directories randomly on an
//! Ext2 file system and creates an archive file using the `tar` command";
//! before each run, files are randomly changed. Reproducing that requires
//! a filesystem whose on-disk structures behave like ext2's:
//!
//! * block 0 superblock, block/inode bitmaps, a fixed inode table, then
//!   data blocks (the layout mirrors ext2's arithmetic),
//! * 128-byte inodes with 12 direct pointers and one indirect block,
//! * directories as files of fixed-width entries,
//! * in-place partial file writes (`write_at`) that dirty only the
//!   touched blocks — the behaviour that gives PRINS its small deltas —
//!   while bitmap and inode updates produce the small metadata writes
//!   real filesystems exhibit.
//!
//! [`tar`] implements enough of the ustar format to create and list
//! archives inside the filesystem, generating the large sequential
//! writes of the benchmark's `tar` phase.
//!
//! # Example
//!
//! ```
//! use prins_block::{BlockSize, MemDevice};
//! use prins_fs::Fs;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), prins_fs::FsError> {
//! let device = Arc::new(MemDevice::new(BlockSize::kb4(), 4096));
//! let fs = Fs::format(device, 512)?;
//! fs.create_dir("/etc")?;
//! fs.write_file("/etc/motd", b"welcome to prins\n")?;
//! assert_eq!(fs.read_file("/etc/motd")?, b"welcome to prins\n");
//! assert!(fs.exists("/etc/motd"));
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]

mod alloc;
mod error;
mod fs;
mod fsck;
mod layout;
pub mod tar;

pub use error::FsError;
pub use fs::{FileKind, Fs, Metadata};
pub use fsck::{FsckIssue, FsckReport};
