//! iSCSI-lite: a compact implementation of the iSCSI (RFC 3720) wire
//! protocol shape used by the PRINS testbed.
//!
//! The paper implements the PRINS-engine *inside an iSCSI target* and
//! uses a second initiator/target pair between PRINS engines. This crate
//! reproduces the protocol substrate:
//!
//! * [`Pdu`] — 48-byte Basic Header Segment encoding with the real field
//!   layout (opcode, flags, data-segment length, LUN, initiator task
//!   tag, CmdSN/StatSN, embedded 16-byte CDB) carrying the SCSI block
//!   commands the storage path needs: `READ(10)`, `WRITE(10)`,
//!   `READ CAPACITY(10)`, `TEST UNIT READY`, `SYNCHRONIZE CACHE(10)`,
//! * [`Initiator`] — login, block read/write (with Data-In segmentation),
//!   capacity discovery, cache flush and logout over any
//!   [`Transport`](prins_net::Transport),
//! * [`Target`] — serves any [`BlockDevice`](prins_block::BlockDevice) to
//!   one initiator connection.
//!
//! Simplifications versus full RFC 3720, documented here deliberately:
//! single connection per session, immediate data on writes (no R2T flow
//! control), no digests or AHS, and login negotiates only the keys the
//! experiments need (`MaxRecvDataSegmentLength`). None of these affect
//! the traffic accounting the paper's figures rest on.
//!
//! # Example
//!
//! ```
//! use prins_block::{BlockSize, MemDevice};
//! use prins_iscsi::{Initiator, Target};
//! use prins_net::{channel_pair, LinkModel};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), prins_iscsi::IscsiError> {
//! let (client_side, server_side) = channel_pair(LinkModel::gigabit_lan());
//! let device = Arc::new(MemDevice::new(BlockSize::kb4(), 64));
//! let handle = Target::spawn(device, server_side);
//!
//! let mut ini = Initiator::login(client_side, "iqn.2006-04.edu.uri:prins")?;
//! ini.write_blocks(3, &vec![0xabu8; 4096])?;
//! assert_eq!(ini.read_blocks(3, 1)?[..4], [0xab, 0xab, 0xab, 0xab]);
//! ini.logout()?;
//! handle.join().expect("target thread");
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]

mod cdb;
mod error;
mod initiator;
mod pdu;
mod target;

pub use error::IscsiError;
pub use initiator::Initiator;
pub use pdu::{Opcode, Pdu};
pub use target::Target;
