//! Replica lifecycle, degraded writes, dirty-region tracking, and
//! parity-log delta resync.
//!
//! The paper's replication engine assumes every replica acknowledges
//! every write. Real Internet storages lose replicas: links drop,
//! disks fail, sites go down for maintenance. This crate adds the
//! availability layer on top of [`prins_repl`]:
//!
//! * [`ReplicaState`] — the lifecycle state machine
//!   `Online → Lagging → Offline → Resyncing → Online`, driven by
//!   send/ack errors,
//! * [`ClusterGroup`] — a primary that computes each write's parity
//!   once (its TRAP log keeps it, the PRINS frame ships it) and
//!   *degrades* instead of aborting:
//!   a failing replica's missed writes are recorded in a per-replica
//!   dirty map and writes succeed while at least
//!   [`ClusterConfig::write_quorum`] replicas acknowledge,
//! * [`ClusterGroup::rejoin`] — how a rejoining replica catches up:
//!   replaying the primary's TRAP parity-log suffix for each dirty
//!   block, the PRINS idea applied to recovery: the same sparse
//!   parities that made foreground replication cheap make catch-up
//!   cheap. A block with an unknown base or a pruned chain ships its
//!   full image; a replica that is not a copy of the primary catches
//!   up through [`ClusterGroup::scrub`],
//! * [`RendezvousPlacement`] / [`ShardedCluster`] — a volume sharded
//!   across replica groups by equal-weight rendezvous hashing, with live
//!   migration of a range between groups; a one-group volume is that
//!   group.
//!
//! Resync runs *concurrently* with foreground writes: the primary
//! keeps writing between [`ClusterGroup::resync_step`] calls, new
//! writes to still-dirty blocks are queued behind the resync stream,
//! and writes to clean blocks flow to the resyncing replica directly.
//!
//! Every frame a group sends — foreground writes, read offload, resync
//! batches, scrub probes, strip deltas, strip fetches, rebuild
//! shipments — goes out on one [`prins_repl::Link`] per replica or
//! node, which holds what is in flight and alone decides which answer
//! belongs to which frame; the group's probe awaits each answer and
//! records the wait.
//!
//! # Example
//!
//! ```
//! use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
//! use prins_cluster::{ClusterConfig, ClusterGroup, ReplicaState};
//! use prins_net::SimNet;
//! use prins_repl::{serve_sim, ReplicaApplier};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One replica behind a simulated WAN link, in virtual time.
//! let net = SimNet::new();
//! let (primary_side, replica_side, link) = net.add_link("replica", Duration::from_millis(1));
//! let replica_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
//! serve_sim(&net, &replica_side, ReplicaApplier::new(Arc::clone(&replica_dev)));
//!
//! let config = ClusterConfig { offline_after: 1, ..ClusterConfig::default() };
//! let mut cluster =
//!     ClusterGroup::new(MemDevice::new(BlockSize::kb4(), 8), config, vec![Box::new(primary_side)]);
//!
//! cluster.write(Lba(0), &[1u8; 4096])?; // replicated normally
//!
//! link.sever(); // outage: the write below is only recorded dirty
//! cluster.write(Lba(1), &[2u8; 4096])?;
//! assert_eq!(cluster.state(0), ReplicaState::Offline);
//!
//! link.restore();
//! cluster.rejoin(0)?;
//! cluster.resync_to_completion(0, 8)?;
//! assert_eq!(cluster.state(0), ReplicaState::Online);
//! assert_eq!(replica_dev.read_block_vec(Lba(1))?, vec![2u8; 4096]);
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]

mod dirty;
mod ec_group;
mod error;
mod group;
mod lifecycle;
mod placement;
mod probe;
mod shard;

pub use ec_group::{EcConfig, EcGroup, EcPlacement, EcRebuildReport, EcWriteOutcome};
pub use error::ClusterError;
pub use group::{
    ClusterConfig, ClusterGroup, ReadOutcome, ReplicaStatus, ScrubOutcome, WriteOutcome,
};
pub use lifecycle::ReplicaState;
pub use placement::RendezvousPlacement;
pub use shard::ShardedCluster;
