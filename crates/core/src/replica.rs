//! The replica-side PRINS engine.

use std::sync::Arc;
use std::thread::JoinHandle;

use prins_block::BlockDevice;
use prins_net::Transport;
use prins_repl::{run_replica, ReplError};

/// The replica-side counterpart of [`PrinsEngine`](crate::PrinsEngine).
///
/// Listens on a transport, performs the backward parity computation
/// (`A_new = P' ⊕ A_old`) for PRINS payloads — or plain/decompressed
/// writes for the baseline strategies — stores the block at its LBA, and
/// acknowledges. "The replica storage nodes also run the PRINS-engine
/// that receives parity, computes data back, and stores the data block
/// in-place."
pub struct ReplicaEngine<T> {
    device: Arc<dyn BlockDevice>,
    transport: T,
}

impl<T: Transport> ReplicaEngine<T> {
    /// Creates a replica engine over a local device and an inbound
    /// connection from the primary.
    pub fn new(device: Arc<dyn BlockDevice>, transport: T) -> Self {
        Self { device, transport }
    }

    /// Serves until the primary disconnects, returning the number of
    /// writes applied.
    ///
    /// # Errors
    ///
    /// Local device failures abort the loop (after NAKing the offending
    /// payload).
    pub fn run(self) -> Result<u64, ReplError> {
        run_replica(&*self.device, &self.transport)
    }
}

impl<T: Transport + 'static> ReplicaEngine<T> {
    /// Runs the replica on a dedicated thread.
    pub fn spawn(device: Arc<dyn BlockDevice>, transport: T) -> JoinHandle<Result<u64, ReplError>> {
        std::thread::Builder::new()
            .name("prins-replica".into())
            .spawn(move || ReplicaEngine::new(device, transport).run())
            .expect("spawn prins-replica thread")
    }
}

impl<T> std::fmt::Debug for ReplicaEngine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaEngine")
            .field("geometry", &self.device.geometry())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineBuilder;
    use prins_block::{BlockSize, Lba, MemDevice};
    use prins_net::{channel_pair, LinkModel};
    use prins_repl::{verify_consistent, ReplicationMode};
    use rand::{RngExt, SeedableRng};

    fn end_to_end(mode: ReplicationMode) {
        let (to_replica, at_replica) = channel_pair(LinkModel::t1());
        let replica_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 32));
        let replica =
            ReplicaEngine::spawn(Arc::clone(&replica_dev) as Arc<dyn BlockDevice>, at_replica);

        let primary_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 32));
        let engine = EngineBuilder::new(Arc::clone(&primary_dev) as Arc<dyn BlockDevice>)
            .mode(mode)
            .replica(Box::new(to_replica))
            .build();

        use prins_block::BlockDevice as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..120 {
            let lba = Lba(rng.random_range(0..32));
            let mut block = engine.read_block_vec(lba).unwrap();
            let at = rng.random_range(0..4000);
            for b in &mut block[at..at + 32] {
                *b = rng.random();
            }
            engine.write_block(lba, &block).unwrap();
        }
        engine.flush().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.writes, 120);
        assert_eq!(stats.writes_replicated, 120);
        assert_eq!(stats.replication_errors, 0);
        engine.shutdown().unwrap();

        assert_eq!(replica.join().unwrap().unwrap(), 120);
        assert!(
            verify_consistent(&*primary_dev, &*replica_dev).unwrap(),
            "{mode}"
        );
    }

    #[test]
    fn prins_end_to_end_converges() {
        end_to_end(ReplicationMode::Prins);
    }

    #[test]
    fn traditional_end_to_end_converges() {
        end_to_end(ReplicationMode::Traditional);
    }

    #[test]
    fn compressed_end_to_end_converges() {
        end_to_end(ReplicationMode::Compressed);
    }

    #[test]
    fn prins_compressed_end_to_end_converges() {
        end_to_end(ReplicationMode::PrinsCompressed);
    }

    #[test]
    fn two_replicas_both_converge() {
        let (to_r1, at_r1) = channel_pair(LinkModel::t1());
        let (to_r2, at_r2) = channel_pair(LinkModel::t3());
        let d1 = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let d2 = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let r1 = ReplicaEngine::spawn(Arc::clone(&d1) as Arc<dyn BlockDevice>, at_r1);
        let r2 = ReplicaEngine::spawn(Arc::clone(&d2) as Arc<dyn BlockDevice>, at_r2);

        let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let engine = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .replica(Box::new(to_r1))
            .replica(Box::new(to_r2))
            .build();

        use prins_block::BlockDevice as _;
        for i in 0..8u64 {
            engine
                .write_block(Lba(i), &vec![i as u8 + 1; 4096])
                .unwrap();
        }
        engine.shutdown().unwrap();
        r1.join().unwrap().unwrap();
        r2.join().unwrap().unwrap();
        assert!(verify_consistent(&*primary, &*d1).unwrap());
        assert!(verify_consistent(&*primary, &*d2).unwrap());
    }

    #[test]
    fn replication_failure_surfaces_at_flush() {
        let (to_replica, at_replica) = channel_pair(LinkModel::t1());
        // Replica device too small: writes past block 0 NAK.
        let replica_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 1));
        let _replica =
            ReplicaEngine::spawn(Arc::clone(&replica_dev) as Arc<dyn BlockDevice>, at_replica);
        let primary_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let engine = EngineBuilder::new(Arc::clone(&primary_dev) as Arc<dyn BlockDevice>)
            .mode(ReplicationMode::Traditional)
            .replica(Box::new(to_replica))
            .build();

        use prins_block::BlockDevice as _;
        engine.write_block(Lba(5), &vec![1u8; 4096]).unwrap();
        let err = engine.flush().unwrap_err();
        assert!(err.to_string().contains("replication failed"), "{err}");
        assert_eq!(engine.stats().replication_errors, 1);
    }

    #[test]
    fn windowed_ack_engine_converges_and_counts_correctly() {
        use prins_repl::AckPolicy;
        let (to_replica, at_replica) = channel_pair(LinkModel::t1());
        let replica_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 32));
        let replica =
            ReplicaEngine::spawn(Arc::clone(&replica_dev) as Arc<dyn BlockDevice>, at_replica);
        let primary_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 32));
        let engine = EngineBuilder::new(Arc::clone(&primary_dev) as Arc<dyn BlockDevice>)
            .ack_policy(AckPolicy::Window(16))
            .replica(Box::new(to_replica))
            .build();
        use prins_block::BlockDevice as _;
        for i in 0..64u64 {
            engine
                .write_block(Lba(i % 32), &vec![(i + 1) as u8; 4096])
                .unwrap();
        }
        engine.flush().unwrap();
        // The barrier drained the window: every write is acked.
        assert_eq!(engine.stats().writes_replicated, 64);
        engine.shutdown().unwrap();
        assert_eq!(replica.join().unwrap().unwrap(), 64);
        assert!(verify_consistent(&*primary_dev, &*replica_dev).unwrap());
    }

    #[test]
    fn concurrent_writers_to_overlapping_blocks_stay_consistent() {
        // Four threads hammer the same 8 LBAs; the per-LBA stripe locks
        // must keep each parity consistent with its predecessor image,
        // or the replica's XOR chain diverges.
        let (to_replica, at_replica) = channel_pair(LinkModel::t1());
        let replica_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let replica =
            ReplicaEngine::spawn(Arc::clone(&replica_dev) as Arc<dyn BlockDevice>, at_replica);
        let primary_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let engine = Arc::new(
            EngineBuilder::new(Arc::clone(&primary_dev) as Arc<dyn BlockDevice>)
                .replica(Box::new(to_replica))
                .build(),
        );
        use prins_block::BlockDevice as _;
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(t);
                for i in 0..100u64 {
                    let lba = Lba((t + i) % 8);
                    let mut block = vec![0u8; 4096];
                    rng.fill_bytes(&mut block);
                    engine.write_block(lba, &block).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        engine.flush().unwrap();
        assert_eq!(engine.stats().writes, 400);
        assert_eq!(engine.stats().replication_errors, 0);
        Arc::try_unwrap(engine)
            .map_err(|_| "engine still shared")
            .unwrap()
            .shutdown()
            .unwrap();
        replica.join().unwrap().unwrap();
        assert!(verify_consistent(&*primary_dev, &*replica_dev).unwrap());
    }

    #[test]
    fn local_only_engine_accounts_overhead() {
        let device = Arc::new(MemDevice::new(BlockSize::kb8(), 16));
        let engine = EngineBuilder::new(device as Arc<dyn BlockDevice>).build();
        use prins_block::BlockDevice as _;
        for i in 0..16u64 {
            engine.write_block(Lba(i), &vec![i as u8; 8192]).unwrap();
        }
        engine.flush().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.writes, 16);
        assert!(stats.local_write_nanos > 0);
        assert!(stats.overhead_nanos > 0);
        engine.shutdown().unwrap();
    }
}
