//! Block replication strategies: traditional full-block replication,
//! full-block with compression, and PRINS parity replication.
//!
//! This crate is the head-to-head comparison at the center of the paper's
//! evaluation. All three techniques observe the same write stream
//! `(lba, old, new)` and produce a wire payload; they differ only in what
//! they put on the network:
//!
//! | strategy | wire payload per write |
//! |---|---|
//! | [`ReplicationMode::Traditional`] | the full new block |
//! | [`ReplicationMode::Compressed`] | the full new block, LZSS-compressed (the paper's zlib baseline) |
//! | [`ReplicationMode::Prins`] | the zero-run-encoded parity `P' = new ⊕ old` |
//! | [`ReplicationMode::PrinsCompressed`] | the encoded parity, LZSS-compressed on top (ablation) |
//!
//! The replica side ([`ReplicaApplier`]) decodes the payload and restores
//! the block — for PRINS via the backward parity computation
//! `A_new = P' ⊕ A_old` against the replica's own copy.
//!
//! The primaries that send these payloads and await the acks live
//! upstream: `prins-core`'s engine and `prins-cluster`'s groups, each
//! over a [`Link`]. [`run_replica`] is the stock replica loop on a
//! thread, [`serve_sim`] the same loop as a simulated-network actor, and
//! [`AckPolicy`] says when a primary waits (the paper's closed-loop
//! assumption: a node does not issue the next write until the previous
//! one is replicated).
//!
//! # Example
//!
//! ```
//! use prins_repl::{ReplicationMode, Replicator, ReplicaApplier};
//! use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
//!
//! # fn main() -> Result<(), prins_repl::ReplError> {
//! let replicator = ReplicationMode::Prins.replicator();
//!
//! // Primary side: a write changes 64 bytes of an 8 KB block.
//! let old = vec![0u8; 8192];
//! let mut new = old.clone();
//! new[100..164].fill(7);
//! let payload = replicator.encode_write(Lba(3), &old, &new);
//! assert!(payload.len() < 100); // vs 8192 for traditional replication
//!
//! // Replica side: holds the old image, recovers the new one.
//! let replica = MemDevice::new(BlockSize::kb8(), 8);
//! replica.write_block(Lba(3), &old)?;
//! ReplicaApplier::new(&replica).apply(&payload)?;
//! assert_eq!(replica.read_block_vec(Lba(3))?, new);
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]

mod apply;
mod error;
mod mode;
mod payload;
mod replica;
mod strategy;
mod wire;

pub use apply::{Applied, ReplicaApplier};
pub use error::ReplError;
pub use mode::{AckPolicy, ReplicationMode};
pub use payload::{BatchFrame, Payload, PayloadBody, MAX_WIRE_LEN};
pub use replica::{run_replica, serve_sim, verify_consistent};
pub use strategy::{CompressedReplicator, PrinsReplicator, Replicator, TraditionalReplicator};
pub use wire::{
    encode_ack, head_len, is_sealed, open_frame, put_batch, put_compressed, put_full, put_parity,
    put_strip_delta, seal_batch_frame_into, seal_begin, seal_frame, seal_frame_into, Link,
    LinkEvent, Request, Response, SealWriter, ACK, BATCH_TAG, DIGEST_ACK, NAK, NAK_CORRUPT,
    READ_ACK, SEAL_TAG, STRIP_ACK,
};
