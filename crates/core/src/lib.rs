//! The PRINS engine — *Parity Replication in IP-Network Storages*
//! (Yang, Xiao, Ren; ICDCS 2006), reproduced as a Rust library.
//!
//! # What PRINS does
//!
//! Distributed storage replicates written blocks to replica nodes for
//! reliability; over a WAN the replica traffic dominates cost and
//! latency. PRINS observes that the parity a RAID-4/5 array already
//! computes on every small write, `P' = A_new ⊕ A_old`, *is* a compact
//! encoding of the write: it is zero everywhere the write didn't change
//! the block. So instead of shipping `A_new`, PRINS ships a
//! zero-run-encoded `P'`; the replica recovers the block with
//! `A_new = P' ⊕ A_old` against its own copy.
//!
//! # Architecture (mirroring §2 of the paper)
//!
//! ```text
//!  application / FS / DBMS
//!          │ block writes
//!          ▼
//!   ┌─────────────────┐  admission queue  ┌──────────────────────┐
//!   │  PrinsEngine    │ ───────────────▶  │ encode pool (N thr.) │
//!   │  (local write + │  seq numbering +  │ P' = A_new ⊕ A_old   │
//!   │   old-image     │  XOR coalescing   │ → reorder by seq     │
//!   │   capture)      │                   └──────────┬───────────┘
//!   └─────────────────┘            per-replica sender lanes (1/replica)
//!                                  batching + windowed acks   │
//!                                                             │ iSCSI / TCP / channel
//!                                                             ▼
//!                                                   ┌──────────────────┐
//!                                                   │  ReplicaEngine   │
//!                                                   │  A_new = P'⊕A_old│
//!                                                   └──────────────────┘
//! ```
//!
//! [`PrinsEngine`] is itself a [`BlockDevice`], so filesystems, page
//! stores and iSCSI targets run on top of it unchanged — "our
//! implementation is file system and application independent".
//!
//! # Example
//!
//! ```
//! use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
//! use prins_core::{EngineBuilder, ReplicaEngine};
//! use prins_net::{channel_pair, LinkModel};
//! use prins_repl::ReplicationMode;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (to_replica, at_replica) = channel_pair(LinkModel::t1());
//!
//! // Replica node.
//! let replica_dev = Arc::new(MemDevice::new(BlockSize::kb8(), 32));
//! let replica = ReplicaEngine::spawn(Arc::clone(&replica_dev) as Arc<_>, at_replica);
//!
//! // Primary node.
//! let primary_dev = Arc::new(MemDevice::new(BlockSize::kb8(), 32));
//! let engine = EngineBuilder::new(Arc::clone(&primary_dev) as Arc<_>)
//!     .mode(ReplicationMode::Prins)
//!     .replica(Box::new(to_replica))
//!     .build();
//!
//! let mut block = vec![0u8; 8192];
//! block[..16].copy_from_slice(b"hello replicas!!");
//! engine.write_block(Lba(5), &block)?;
//! engine.flush()?; // barrier: all queued writes replicated
//!
//! let stats = engine.stats();
//! assert_eq!(stats.writes, 1);
//! assert!(stats.replicated_payload_bytes < 200); // 16 changed bytes, not 8192
//!
//! engine.shutdown()?;
//! assert_eq!(&replica_dev.read_block_vec(Lba(5))?[..16], b"hello replicas!!");
//! # replica.join().unwrap()?;
//! # Ok(())
//! # }
//! ```

mod builder;
mod engine;
mod obs;
pub mod pipeline;
mod replica;
mod signal;
mod stats;

pub use builder::EngineBuilder;
pub use engine::PrinsEngine;
pub use pipeline::PipelineTuning;
pub use replica::ReplicaEngine;
pub use stats::{EngineStats, LaneStats};

pub use prins_block::BlockDevice;
pub use prins_repl::ReplicationMode;
