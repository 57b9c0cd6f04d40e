//! Fan-out replication to a set of replica nodes with acknowledged
//! delivery.

use std::time::Duration;

use prins_block::{BlockDevice, Lba};
use prins_net::Transport;

use crate::wire::{put_full, put_sync_marker, Link, ACK};
use crate::{ReplError, ReplicaApplier, ReplicationMode, Replicator};

/// When the primary waits for replica acknowledgements.
///
/// The paper's queueing model assumes [`AckPolicy::PerWrite`]: "a
/// computing node will not generate another write request until the
/// previous write is successfully replicated". [`AckPolicy::Window`]
/// pipelines up to `n` unacknowledged writes, hiding WAN round-trips —
/// a natural extension the paper leaves on the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckPolicy {
    /// Wait for every replica's acknowledgement before returning.
    PerWrite,
    /// Allow up to this many writes in flight before collecting acks.
    Window(usize),
}

impl AckPolicy {
    fn allowed_outstanding(self) -> u64 {
        match self {
            AckPolicy::PerWrite => 0,
            AckPolicy::Window(n) => n.max(1) as u64,
        }
    }
}

/// A primary's view of its replica set.
///
/// Every replicated write is encoded once by the configured strategy and
/// sent to each replica; `replicate` then blocks for all acknowledgements
/// — the closed-loop behaviour the paper's queueing model assumes ("a
/// computing node will not generate another write request until the
/// previous write is successfully replicated").
pub struct ReplicationGroup {
    replicator: Box<dyn Replicator>,
    /// The synchronous group has no replica lifecycle (and therefore no
    /// rejoins): every link stays at its first epoch.
    replicas: Vec<Link>,
    ack_timeout: Duration,
    ack_policy: AckPolicy,
    outstanding: u64,
    writes_replicated: u64,
}

impl ReplicationGroup {
    /// Creates a group replicating with `mode` to `replicas`.
    pub fn new(mode: ReplicationMode, replicas: Vec<Box<dyn Transport>>) -> Self {
        Self {
            replicator: mode.replicator(),
            replicas: replicas
                .into_iter()
                .enumerate()
                .map(|(idx, transport)| Link::new(idx, transport))
                .collect(),
            ack_timeout: Duration::from_secs(10),
            ack_policy: AckPolicy::PerWrite,
            outstanding: 0,
            writes_replicated: 0,
        }
    }

    /// Overrides the acknowledgement timeout.
    pub fn with_ack_timeout(mut self, timeout: Duration) -> Self {
        self.ack_timeout = timeout;
        self
    }

    /// Overrides when acknowledgements are awaited.
    pub fn with_ack_policy(mut self, policy: AckPolicy) -> Self {
        self.ack_policy = policy;
        self
    }

    /// Writes sent but not yet acknowledged by every replica.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Number of replica nodes.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Writes acknowledged by all replicas so far.
    pub fn writes_replicated(&self) -> u64 {
        self.writes_replicated
    }

    /// Deconstructs the group, returning the replica transports.
    ///
    /// Used to hand connections from a synchronous group (e.g. after
    /// [`initial_sync`](Self::initial_sync)) to the engine's pipelined
    /// per-replica senders. In-flight acknowledgements are drained
    /// first on a best-effort basis so the next owner starts with a
    /// quiet wire.
    pub fn into_transports(mut self) -> Vec<Box<dyn Transport>> {
        let _ = self.drain_acks();
        self.replicas
            .into_iter()
            .map(Link::into_transport)
            .collect()
    }

    /// Total payload bytes sent to replica `idx` so far (from its
    /// transport meter).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn payload_bytes_to(&self, idx: usize) -> u64 {
        self.replicas[idx].transport().meter().payload_bytes_sent()
    }

    /// Replicates one write to every replica and waits for all acks.
    ///
    /// # Errors
    ///
    /// * [`ReplError::Net`] if a replica is unreachable,
    /// * [`ReplError::Nak`] if a replica rejects the write,
    /// * [`ReplError::ChecksumMismatch`] if a replica reports the frame
    ///   damaged in flight (the synchronous group keeps no retransmit
    ///   buffer),
    /// * [`ReplError::MissingAck`] if a replica answers with an
    ///   unrecognizable acknowledgement.
    pub fn replicate(&mut self, lba: Lba, old: &[u8], new: &[u8]) -> Result<(), ReplError> {
        let payload = self.encode(lba, old, new);
        self.replicate_payload(&payload)
    }

    /// Encodes a write with the group's strategy without sending it.
    ///
    /// Exposed so callers (e.g. the PRINS engine's replication thread)
    /// can account encoding time separately from transmission time.
    pub fn encode(&self, lba: Lba, old: &[u8], new: &[u8]) -> Vec<u8> {
        self.replicator.encode_write(lba, old, new)
    }

    /// Sends a pre-encoded payload to every replica and waits for all
    /// acknowledgements.
    ///
    /// # Errors
    ///
    /// Same conditions as [`replicate`](Self::replicate).
    pub fn replicate_payload(&mut self, payload: &[u8]) -> Result<(), ReplError> {
        self.replicate_with(|out| out.extend_from_slice(payload))
    }

    /// Sends the frame `fill` writes to every replica, then collects
    /// acknowledgements down to the window.
    fn replicate_with(&mut self, fill: impl Fn(&mut Vec<u8>)) -> Result<(), ReplError> {
        for replica in &mut self.replicas {
            replica.send(&fill)?;
        }
        self.outstanding += 1;
        while self.outstanding > self.ack_policy.allowed_outstanding() {
            self.collect_one_ack_round()?;
        }
        Ok(())
    }

    /// Collects one acknowledgement from every replica (one in-flight
    /// write retires).
    fn collect_one_ack_round(&mut self) -> Result<(), ReplError> {
        // The write retires regardless of outcome: a NAK or a dead
        // transport never produces a matching ack later.
        self.outstanding -= 1;
        for replica in &self.replicas {
            replica.recv_response(ACK, replica.epoch(), self.ack_timeout, &mut |_| {})?;
        }
        self.writes_replicated += 1;
        Ok(())
    }

    /// Waits until every in-flight write is acknowledged (the barrier a
    /// flush needs under [`AckPolicy::Window`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`replicate`](Self::replicate).
    pub fn drain_acks(&mut self) -> Result<(), ReplError> {
        while self.outstanding > 0 {
            self.collect_one_ack_round()?;
        }
        Ok(())
    }

    /// Pushes a full image of `source` to every replica (the paper's
    /// "initial sync among the replica nodes"), ending with a sync
    /// marker.
    ///
    /// Sync traffic flows through the same windowed-acknowledgement
    /// path as replicated writes, so under [`AckPolicy::Window`] the
    /// bulk transfer pipelines instead of stalling one round-trip per
    /// block; the final marker acts as a barrier draining all acks.
    ///
    /// # Errors
    ///
    /// Propagates device and transport failures; fails on any NAK.
    pub fn initial_sync<D: BlockDevice + ?Sized>(&mut self, source: &D) -> Result<(), ReplError> {
        let before = self.writes_replicated;
        let geometry = source.geometry();
        for lba in geometry.range().iter() {
            let block = source.read_block_vec(lba)?;
            self.replicate_with(|out| put_full(out, lba, &block))?;
        }
        self.replicate_with(|out| put_sync_marker(out, Lba(0)))?;
        self.drain_acks()?;
        // Sync frames are not replicated writes: keep the counter the
        // paper's model cares about (foreground writes) untouched.
        self.writes_replicated = before;
        Ok(())
    }
}

impl std::fmt::Debug for ReplicationGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationGroup")
            .field("strategy", &self.replicator.name())
            .field("replicas", &self.replicas.len())
            .field("writes_replicated", &self.writes_replicated)
            .finish()
    }
}

/// Runs a replica node: applies every incoming payload to `device` and
/// acknowledges it, until the peer disconnects.
///
/// Sync markers are acknowledged but not counted. Returns the number of
/// write payloads applied.
///
/// # Errors
///
/// Local device failures NAK the offending payload and abort with the
/// error; transport disconnect is a clean return.
pub fn run_replica<D, T>(device: &D, transport: &T) -> Result<u64, ReplError>
where
    D: BlockDevice + ?Sized,
    T: Transport,
{
    run_replica_applier(ReplicaApplier::new(device), transport)
}

/// [`run_replica`] with a caller-built applier — the hook for replicas
/// that need a non-default configuration, e.g. a Reed–Solomon
/// [`ErasureCodec`](prins_parity::ErasureCodec) for parity strips of an
/// erasure-coded group.
///
/// # Errors
///
/// As [`run_replica`].
pub fn run_replica_applier<D, T>(
    mut applier: ReplicaApplier<D>,
    transport: &T,
) -> Result<u64, ReplError>
where
    D: BlockDevice,
    T: Transport,
{
    loop {
        let payload = match transport.recv() {
            Ok(p) => p,
            Err(prins_net::NetError::Disconnected) => return Ok(applier.applied()),
            Err(e) => return Err(e.into()),
        };
        let (reply, rejected) = applier.respond(&payload);
        transport.send(&reply)?;
        if let Some(e) = rejected {
            return Err(e);
        }
    }
}

/// Compares two devices block by block.
///
/// # Errors
///
/// Propagates read failures from either device.
pub fn verify_consistent<A, B>(a: &A, b: &B) -> Result<bool, ReplError>
where
    A: BlockDevice + ?Sized,
    B: BlockDevice + ?Sized,
{
    if a.geometry() != b.geometry() {
        return Ok(false);
    }
    for lba in a.geometry().range().iter() {
        if a.read_block_vec(lba)? != b.read_block_vec(lba)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::{BlockSize, MemDevice};
    use prins_net::{channel_pair, LinkModel};
    use rand::{RngExt, SeedableRng};
    use std::sync::Arc;

    #[test]
    fn stock_replica_loop_answers_unsealed_and_tag_flipped_frames_with_nak_corrupt() {
        use crate::wire::{encode_ack, seal_frame, NAK_CORRUPT};
        let (primary_side, replica_side) = channel_pair(LinkModel::t1());
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), 2));
        let dev = Arc::clone(&device);
        let worker = std::thread::spawn(move || run_replica(&*dev, &replica_side));

        let payload = ReplicationMode::Traditional.replicator().encode_write(
            Lba(1),
            &[0u8; 4096],
            &[5u8; 4096],
        );
        // One bit flip on the seal tag makes the frame look unsealed;
        // taking it at its word would skip the CRC.
        let mut flipped = seal_frame(1, &payload);
        flipped[0] ^= 0x01;
        for damaged in [&payload, &flipped] {
            primary_side.send(damaged).unwrap();
            assert_eq!(primary_side.recv().unwrap(), encode_ack(NAK_CORRUPT, 0));
        }
        assert_eq!(device.read_block_vec(Lba(1)).unwrap(), vec![0u8; 4096]);
        // The loop is still serving: the same payload, sealed, lands.
        primary_side.send(&seal_frame(1, &payload)).unwrap();
        assert_eq!(primary_side.recv().unwrap(), encode_ack(ACK, 1));
        assert_eq!(device.read_block_vec(Lba(1)).unwrap(), vec![5u8; 4096]);
        drop(primary_side);
        assert_eq!(worker.join().unwrap().unwrap(), 1);
    }

    /// Spins up `n` replica threads and a group configured with `mode`.
    #[allow(clippy::type_complexity)]
    fn group_with_replicas(
        mode: ReplicationMode,
        n: usize,
        bs: BlockSize,
        blocks: u64,
    ) -> (
        ReplicationGroup,
        Vec<Arc<MemDevice>>,
        Vec<std::thread::JoinHandle<Result<u64, ReplError>>>,
    ) {
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        let mut devices = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..n {
            let (primary_side, replica_side) = channel_pair(LinkModel::t1());
            let device = Arc::new(MemDevice::new(bs, blocks));
            let dev = Arc::clone(&device);
            handles.push(std::thread::spawn(move || {
                run_replica(&*dev, &replica_side)
            }));
            transports.push(Box::new(primary_side));
            devices.push(device);
        }
        (ReplicationGroup::new(mode, transports), devices, handles)
    }

    fn exercise(mode: ReplicationMode) {
        let primary = MemDevice::new(BlockSize::kb4(), 16);
        let (mut group, replicas, handles) = group_with_replicas(mode, 2, BlockSize::kb4(), 16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);

        // Seed the primary with data, then sync it over.
        for lba in 0..16u64 {
            let mut block = vec![0u8; 4096];
            rng.fill_bytes(&mut block);
            primary.write_block(Lba(lba), &block).unwrap();
        }
        group.initial_sync(&primary).unwrap();

        // Replicated writes.
        for _ in 0..50 {
            let lba = Lba(rng.random_range(0..16));
            let old = primary.read_block_vec(lba).unwrap();
            let mut new = old.clone();
            let at = rng.random_range(0..4000);
            for b in &mut new[at..at + 64] {
                *b = rng.random();
            }
            primary.write_block(lba, &new).unwrap();
            group.replicate(lba, &old, &new).unwrap();
        }
        assert_eq!(group.writes_replicated(), 50);

        drop(group); // hang up; replica loops exit
        for (h, dev) in handles.into_iter().zip(&replicas) {
            h.join().unwrap().unwrap();
            assert!(verify_consistent(&primary, &**dev).unwrap(), "{mode}");
        }
    }

    #[test]
    fn traditional_group_converges() {
        exercise(ReplicationMode::Traditional);
    }

    #[test]
    fn compressed_group_converges() {
        exercise(ReplicationMode::Compressed);
    }

    #[test]
    fn prins_group_converges() {
        exercise(ReplicationMode::Prins);
    }

    #[test]
    fn prins_compressed_group_converges() {
        exercise(ReplicationMode::PrinsCompressed);
    }

    #[test]
    fn prins_sends_far_fewer_bytes_than_traditional() {
        let mut totals = Vec::new();
        for mode in [ReplicationMode::Traditional, ReplicationMode::Prins] {
            let primary = MemDevice::new(BlockSize::kb8(), 8);
            let (mut group, _replicas, handles) = group_with_replicas(mode, 1, BlockSize::kb8(), 8);
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            group.initial_sync(&primary).unwrap();
            let sync_bytes = group.payload_bytes_to(0);
            for _ in 0..20 {
                let lba = Lba(rng.random_range(0..8));
                let old = primary.read_block_vec(lba).unwrap();
                let mut new = old.clone();
                let at = rng.random_range(0..8000);
                for b in &mut new[at..at + 100] {
                    *b = rng.random();
                }
                primary.write_block(lba, &new).unwrap();
                group.replicate(lba, &old, &new).unwrap();
            }
            totals.push(group.payload_bytes_to(0) - sync_bytes);
            drop(group);
            for h in handles {
                h.join().unwrap().unwrap();
            }
        }
        assert!(
            totals[1] * 10 < totals[0],
            "prins {} should be >10x below traditional {}",
            totals[1],
            totals[0]
        );
    }

    #[test]
    fn windowed_acks_pipeline_and_drain() {
        let (mut group, replicas, handles) =
            group_with_replicas(ReplicationMode::Prins, 1, BlockSize::kb4(), 16);
        group = group.with_ack_policy(AckPolicy::Window(8));
        let primary = MemDevice::new(BlockSize::kb4(), 16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        for i in 0..24u64 {
            let lba = Lba(i % 16);
            let old = primary.read_block_vec(lba).unwrap();
            let mut new = old.clone();
            let at = rng.random_range(0..4000);
            new[at] ^= 0xff;
            primary.write_block(lba, &new).unwrap();
            group.replicate(lba, &old, &new).unwrap();
            assert!(group.outstanding() <= 8, "window exceeded");
        }
        // Some writes are still in flight; the barrier collects them.
        group.drain_acks().unwrap();
        assert_eq!(group.outstanding(), 0);
        assert_eq!(group.writes_replicated(), 24);
        drop(group);
        for (h, dev) in handles.into_iter().zip(&replicas) {
            h.join().unwrap().unwrap();
            assert!(verify_consistent(&primary, &**dev).unwrap());
        }
    }

    #[test]
    fn per_write_policy_never_leaves_writes_outstanding() {
        let (mut group, _replicas, handles) =
            group_with_replicas(ReplicationMode::Traditional, 2, BlockSize::kb4(), 4);
        let old = vec![0u8; 4096];
        let new = vec![1u8; 4096];
        for _ in 0..5 {
            group.replicate(Lba(0), &old, &new).unwrap();
            assert_eq!(group.outstanding(), 0);
        }
        drop(group);
        for h in handles {
            h.join().unwrap().unwrap();
        }
    }

    #[test]
    fn replica_nak_surfaces_as_nak() {
        // Replica device too small: first replicated write is out of
        // range there and NAKs.
        let (primary_side, replica_side) = channel_pair(LinkModel::t1());
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), 1));
        let dev = Arc::clone(&device);
        let handle = std::thread::spawn(move || run_replica(&*dev, &replica_side));
        let mut group =
            ReplicationGroup::new(ReplicationMode::Traditional, vec![Box::new(primary_side)]);
        let old = vec![0u8; 4096];
        let new = vec![1u8; 4096];
        let err = group.replicate(Lba(5), &old, &new).unwrap_err();
        assert!(matches!(err, ReplError::Nak { replica: 0 }), "{err}");
        assert!(handle.join().unwrap().is_err());
    }

    #[test]
    fn garbage_ack_surfaces_byte_in_missing_ack() {
        // A "replica" that answers every frame with garbage instead of
        // an ACK/NAK byte.
        let (primary_side, replica_side) = channel_pair(LinkModel::t1());
        let handle = std::thread::spawn(move || {
            let frame = replica_side.recv().unwrap();
            assert!(!frame.is_empty());
            replica_side.send(&[0x7f]).unwrap();
        });
        let mut group =
            ReplicationGroup::new(ReplicationMode::Traditional, vec![Box::new(primary_side)]);
        let err = group
            .replicate(Lba(0), &[0u8; 4096], &[1u8; 4096])
            .unwrap_err();
        assert!(
            matches!(
                err,
                ReplError::MissingAck {
                    replica: 0,
                    got: Some(0x7f)
                }
            ),
            "{err}"
        );
        handle.join().unwrap();
    }

    #[test]
    fn initial_sync_pipelines_under_windowed_acks() {
        let primary = MemDevice::new(BlockSize::kb4(), 32);
        let (mut group, replicas, handles) =
            group_with_replicas(ReplicationMode::Prins, 2, BlockSize::kb4(), 32);
        group = group.with_ack_policy(AckPolicy::Window(16));
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for lba in 0..32u64 {
            let mut block = vec![0u8; 4096];
            rng.fill_bytes(&mut block);
            primary.write_block(Lba(lba), &block).unwrap();
        }
        group.initial_sync(&primary).unwrap();
        // The sync barrier drained everything and sync frames do not
        // count as replicated writes.
        assert_eq!(group.outstanding(), 0);
        assert_eq!(group.writes_replicated(), 0);
        drop(group);
        for (h, dev) in handles.into_iter().zip(&replicas) {
            h.join().unwrap().unwrap();
            assert!(verify_consistent(&primary, &**dev).unwrap());
        }
    }

    #[test]
    fn verify_consistent_detects_divergence() {
        let a = MemDevice::new(BlockSize::kb4(), 4);
        let b = MemDevice::new(BlockSize::kb4(), 4);
        assert!(verify_consistent(&a, &b).unwrap());
        a.write_block(Lba(2), &vec![1u8; 4096]).unwrap();
        assert!(!verify_consistent(&a, &b).unwrap());
        let c = MemDevice::new(BlockSize::kb4(), 8);
        assert!(!verify_consistent(&a, &c).unwrap());
    }
}
