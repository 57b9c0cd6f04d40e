//! Block device abstraction for the PRINS reproduction.
//!
//! Everything in the PRINS paper — the RAID array, the iSCSI target, the
//! PRINS-engine itself, the databases and the filesystem driving the
//! benchmarks — sits on top of an LBA-addressed block device. This crate
//! provides that substrate:
//!
//! * [`BlockDevice`] — the object-safe trait all storage implements,
//! * [`MemDevice`] — a dense in-memory device (the workhorse for tests and
//!   benchmarks),
//! * [`FileDevice`] — a file-backed device for persistence across runs,
//! * [`InstrumentedDevice`] — a wrapper that captures the block-write
//!   traces the paper's traffic figures are built from,
//! * [`FaultDevice`] — a wrapper that injects I/O failures for recovery
//!   tests.
//!
//! All devices use interior mutability and take `&self`, so a single device
//! can be shared behind an [`std::sync::Arc`] between an application thread
//! and the replication thread, mirroring the shared-queue design in §2 of
//! the paper.
//!
//! # Example
//!
//! ```
//! use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
//!
//! # fn main() -> Result<(), prins_block::BlockError> {
//! let dev = MemDevice::new(BlockSize::new(4096)?, 128);
//! let payload = vec![0xabu8; 4096];
//! dev.write_block(Lba(7), &payload)?;
//! let mut back = vec![0u8; 4096];
//! dev.read_block(Lba(7), &mut back)?;
//! assert_eq!(payload, back);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(unreachable_pub)]

mod checksum;
mod device;
mod error;
mod fault;
mod file;
mod geometry;
mod instrument;
mod mem;

pub use checksum::{crc32c, crc32c_append, crc32c_append_portable};
pub use device::BlockDevice;
pub use error::BlockError;
pub use fault::{FaultDevice, FaultKind, FaultPlan};
pub use file::FileDevice;
pub use geometry::{BlockSize, Geometry, Lba, LbaRange};
pub use instrument::{InstrumentedDevice, WriteObserver};
pub use mem::MemDevice;

/// Convenience alias used by every fallible API in this crate.
pub type Result<T> = std::result::Result<T, BlockError>;
