//! Byte-identity of every data plane's wire frames.
//!
//! The arena-buffer rework and the single wire path changed *how*
//! frames are built (pooled buffers, fused delta encoding, batch-aware
//! sealing, one shared writer) but must not change a single wire byte.
//! These tests capture every frame an engine (stepped, and on its own
//! threads), a `ClusterGroup` and an `EcGroup` put on the wire and
//! compare them against frames assembled the classic way — the dense
//! XOR parity, zero-run encoded, wrapped in an owned [`Payload`], under
//! a seal header written out by hand here — then replay the captured
//! frames through a [`ReplicaApplier`] and check the replica converges
//! to the primary's exact contents.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use prins_block::{crc32c, BlockDevice, BlockSize, Lba, MemDevice};
use prins_cluster::{ClusterConfig, ClusterGroup, EcConfig, EcGroup, EcPlacement};
use prins_core::EngineBuilder;
use prins_net::{LinkModel, NetError, TrafficMeter, Transport};
use prins_parity::{encode_varint, ReedSolomon, SparseCodec};
use prins_repl::{
    encode_ack, Payload, PayloadBody, ReplicaApplier, ReplicationMode, ACK, BATCH_TAG, SEAL_TAG,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The epoch every link seals under until its owner bumps it — none of
/// these runs does.
const FIRST_EPOCH: u64 = 1;

/// The sealed envelope, byte by byte: tag, epoch, CRC32C over the
/// epoch's eight LE bytes followed by the inner frame, inner frame.
fn classic_seal(inner: &[u8]) -> Vec<u8> {
    let mut covered = FIRST_EPOCH.to_le_bytes().to_vec();
    covered.extend_from_slice(inner);
    let mut out = vec![SEAL_TAG];
    encode_varint(&mut out, FIRST_EPOCH);
    out.extend_from_slice(&crc32c(&covered).to_le_bytes());
    out.extend_from_slice(inner);
    out
}

/// The zero-run encoding of the dense parity `new ⊕ old`.
fn classic_sparse(old: &[u8], new: &[u8]) -> Vec<u8> {
    let parity: Vec<u8> = old.iter().zip(new).map(|(o, n)| o ^ n).collect();
    SparseCodec::default().encode(&parity).to_bytes()
}

/// The payload `mode` ships for one write, built as an owned value.
fn classic_payload(mode: ReplicationMode, lba: Lba, old: &[u8], new: &[u8]) -> Vec<u8> {
    let sparse = classic_sparse(old, new);
    let body = if mode == ReplicationMode::Traditional || sparse.len() >= new.len() {
        PayloadBody::Full(new.to_vec())
    } else {
        PayloadBody::Parity(sparse)
    };
    Payload { lba, body }.to_bytes()
}

/// Records every sent frame and acks each one unconditionally.
struct RecordingTransport {
    sent: Arc<Mutex<Vec<Vec<u8>>>>,
    meter: Arc<TrafficMeter>,
}

impl RecordingTransport {
    fn new() -> (Self, Arc<Mutex<Vec<Vec<u8>>>>) {
        let sent = Arc::new(Mutex::new(Vec::new()));
        let transport = Self {
            sent: Arc::clone(&sent),
            meter: TrafficMeter::shared(LinkModel::gigabit_lan()),
        };
        (transport, sent)
    }
}

impl Transport for RecordingTransport {
    fn send(&self, msg: &[u8]) -> Result<(), NetError> {
        self.meter.record_send(msg.len());
        self.sent.lock().unwrap().push(msg.to_vec());
        Ok(())
    }

    fn recv(&self) -> Result<Vec<u8>, NetError> {
        Ok(encode_ack(ACK, FIRST_EPOCH))
    }

    fn recv_timeout(&self, _timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.recv()
    }

    fn meter(&self) -> &Arc<TrafficMeter> {
        &self.meter
    }
}

/// The next seeded write to `shadow`'s block `lba`: one byte flipped,
/// or — a third of the time — the whole block rewritten, so the delta
/// falls back to a Full payload.
fn next_image(rng: &mut StdRng, old: &[u8]) -> Vec<u8> {
    let mut block = old.to_vec();
    if rng.random_range(0..3) == 0 {
        rng.fill_bytes(&mut block);
    } else {
        let at = rng.random_range(0..block.len());
        block[at] ^= 0x5a;
    }
    block
}

/// The frames one wire carried, in send order.
type Frames = Vec<Vec<u8>>;

/// Who drives the engine's stages.
#[derive(Clone, Copy, PartialEq)]
enum Drive {
    /// Manual stepping, the pipeline run dry after every write.
    StepEach,
    /// Manual stepping, everything admitted before the flush steps it.
    StepAtFlush,
    /// The engine's own encode and sender threads.
    Threads,
}

/// Runs `writes` seeded writes through an engine with `lanes` replicas,
/// returning each lane's captured wire frames, the classic per-write
/// payloads (in admission order) and the primary's final image.
fn run_engine(
    mode: ReplicationMode,
    batch: usize,
    writes: u64,
    lanes: usize,
    drive: Drive,
) -> (Vec<Frames>, Vec<Vec<u8>>, Vec<u8>) {
    const BLOCKS: u64 = 8;
    let device = Arc::new(MemDevice::new(BlockSize::kb4(), BLOCKS));
    let mut builder = EngineBuilder::new(Arc::clone(&device) as Arc<dyn BlockDevice>)
        .mode(mode)
        .batch_frames(batch)
        .manual_stepping(drive != Drive::Threads);
    let mut sent = Vec::new();
    for _ in 0..lanes {
        let (transport, log) = RecordingTransport::new();
        builder = builder.replica(Box::new(transport));
        sent.push(log);
    }
    let engine = builder.build();

    // Shadow the classic path: encode each write against the same old
    // image the engine captured.
    let mut shadow = vec![vec![0u8; 4096]; BLOCKS as usize];
    let mut payloads = Vec::new();

    let mut rng = StdRng::seed_from_u64(42);
    for i in 0..writes {
        let lba = Lba(i % BLOCKS);
        let old = &shadow[lba.index() as usize];
        let block = next_image(&mut rng, old);
        payloads.push(classic_payload(mode, lba, old, &block));
        shadow[lba.index() as usize] = block.clone();
        engine.write_block(lba, &block).unwrap();
        if drive == Drive::StepEach {
            while engine.step() {}
        }
    }
    engine.flush().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.writes_replicated, writes);
    assert_eq!(stats.replication_errors, 0);
    engine.shutdown().unwrap();

    let frames = sent
        .into_iter()
        .map(|log| Arc::try_unwrap(log).unwrap().into_inner().unwrap())
        .collect();
    (frames, payloads, device.snapshot())
}

/// Replays `frames` through a fresh applier and returns its image.
fn replay(frames: &[Vec<u8>]) -> Vec<u8> {
    let device = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
    let mut applier = ReplicaApplier::new(Arc::clone(&device));
    for frame in frames {
        applier.handle(frame).unwrap();
    }
    device.snapshot()
}

#[test]
fn per_write_frames_match_classic_seal_path() {
    for mode in [ReplicationMode::Traditional, ReplicationMode::Prins] {
        let (lanes, payloads, primary) = run_engine(mode, 1, 48, 1, Drive::StepEach);
        let frames = &lanes[0];
        assert_eq!(frames.len(), payloads.len());
        for (i, (frame, payload)) in frames.iter().zip(&payloads).enumerate() {
            let expected = classic_seal(payload);
            assert_eq!(frame, &expected, "{mode:?}: frame {i} diverged");
        }
        assert_eq!(replay(frames), primary, "{mode:?}: applier state diverged");
    }
}

#[test]
fn threaded_lanes_send_the_stepped_run_frame_for_frame() {
    // One lane implementation, two callers: with one payload per frame
    // and a closed window nothing about a frame depends on timing, so
    // the engine's own threads must put exactly the bytes on each wire
    // that the stepped driver does.
    let (stepped, _, _) = run_engine(ReplicationMode::Prins, 1, 48, 2, Drive::StepEach);
    let (threaded, _, primary) = run_engine(ReplicationMode::Prins, 1, 48, 2, Drive::Threads);
    assert_eq!(stepped.len(), 2);
    for (lane, (threaded, stepped)) in threaded.iter().zip(&stepped).enumerate() {
        assert_eq!(threaded.len(), 48, "lane {lane}: one frame per write");
        assert_eq!(threaded, stepped, "lane {lane}: threaded frames diverged");
        assert_eq!(replay(threaded), primary, "lane {lane}: applier diverged");
    }
}

#[test]
fn batch_sealed_frames_match_classic_batch_assembly() {
    // All writes admitted before the flush steps the pipeline: a full
    // queue batches exactly `batch` payloads per frame.
    const BATCH: usize = 4;
    let (lanes, payloads, primary) =
        run_engine(ReplicationMode::Prins, BATCH, 48, 1, Drive::StepAtFlush);
    let frames = &lanes[0];
    assert_eq!(frames.len(), payloads.len() / BATCH);
    for (i, (frame, group)) in frames.iter().zip(payloads.chunks(BATCH)).enumerate() {
        let mut inner = vec![BATCH_TAG];
        encode_varint(&mut inner, group.len() as u64);
        for payload in group {
            encode_varint(&mut inner, payload.len() as u64);
            inner.extend_from_slice(payload);
        }
        let expected = classic_seal(&inner);
        assert_eq!(frame, &expected, "batched frame {i} diverged");
    }
    assert_eq!(replay(frames), primary, "applier state diverged");
}

#[test]
fn cluster_write_frames_match_classic_seal_path() {
    const BLOCKS: u64 = 8;
    let (transport, sent) = RecordingTransport::new();
    let mut cluster = ClusterGroup::new(
        MemDevice::new(BlockSize::kb4(), BLOCKS),
        ClusterConfig::default(),
        vec![Box::new(transport)],
    );
    let mode = ReplicationMode::Prins;
    let mut shadow = vec![vec![0u8; 4096]; BLOCKS as usize];
    let mut expected = Vec::new();
    let mut rng = StdRng::seed_from_u64(43);
    for i in 0..48 {
        let lba = Lba(i % BLOCKS);
        let old = &shadow[lba.index() as usize];
        let block = next_image(&mut rng, old);
        expected.push(classic_seal(&classic_payload(mode, lba, old, &block)));
        shadow[lba.index() as usize] = block.clone();
        assert_eq!(cluster.write(lba, &block).unwrap().acked, 1);
    }
    let frames = sent.lock().unwrap().clone();
    assert_eq!(frames.len(), expected.len());
    for (i, (frame, expected)) in frames.iter().zip(&expected).enumerate() {
        assert_eq!(frame, expected, "cluster frame {i} diverged");
    }
    assert_eq!(replay(&frames), shadow.concat(), "applier state diverged");
}

#[test]
fn ec_write_frames_match_classic_strip_deltas() {
    const STRIPES: u64 = 2;
    let p = EcPlacement::group();
    let (k, n) = (p.k, p.n());
    // The classic code the strip deltas are checked against.
    let rs = ReedSolomon::k4m2();
    let (transports, logs): (Vec<Box<dyn Transport>>, Vec<_>) = (0..n)
        .map(|_| {
            let (transport, sent) = RecordingTransport::new();
            (Box::new(transport) as Box<dyn Transport>, sent)
        })
        .unzip();
    let logical = MemDevice::new(BlockSize::kb4(), STRIPES * k as u64);
    let mut group = EcGroup::new(logical, EcConfig::default(), transports);
    let placement = group.placement();

    let mut shadow = vec![vec![0u8; 4096]; (STRIPES * k as u64) as usize];
    let mut expected: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
    let mut rng = StdRng::seed_from_u64(44);
    for i in 0..48u64 {
        let lba = Lba(i % shadow.len() as u64);
        let (stripe, col) = (lba.index() / k as u64, (lba.index() % k as u64) as usize);
        let old = &shadow[lba.index() as usize];
        let block = next_image(&mut rng, old);
        // One sparse delta serves every strip: coefficient 1 to the
        // data strip's owner, the generator coefficient to each parity
        // owner.
        let sparse = classic_sparse(old, &block);
        for role in std::iter::once(col).chain(k..n) {
            let coeff = if role < k {
                1
            } else {
                rs.coefficient(role - k, col)
            };
            let payload = Payload {
                lba: Lba(stripe),
                body: PayloadBody::StripDelta {
                    coeff,
                    data: sparse.clone(),
                },
            };
            expected[placement.node_for(stripe, role)].push(classic_seal(&payload.to_bytes()));
        }
        shadow[lba.index() as usize] = block.clone();
        assert_eq!(group.write(lba, &block).unwrap().acked, 1 + n - k);
    }

    // Every node saw exactly its classic frames, and applying them
    // leaves each strip equal to the systematic encoding of the
    // logical image.
    let mut strips = Vec::new();
    for (node, (log, expected)) in logs.iter().zip(&expected).enumerate() {
        let frames = log.lock().unwrap().clone();
        assert_eq!(&frames, expected, "node {node} frames diverged");
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), STRIPES));
        let mut applier = ReplicaApplier::new(Arc::clone(&device));
        for frame in &frames {
            applier.handle(frame).unwrap();
        }
        strips.push(device);
    }
    for stripe in 0..STRIPES {
        let data: Vec<&[u8]> = (0..k)
            .map(|col| shadow[stripe as usize * k + col].as_slice())
            .collect();
        let parity = rs.encode(&data).unwrap();
        for role in 0..n {
            let want = if role < k {
                data[role]
            } else {
                &parity[role - k]
            };
            let node = placement.node_for(stripe, role);
            let got = strips[node].read_block_vec(Lba(stripe)).unwrap();
            assert_eq!(got, want, "stripe {stripe} role {role}");
        }
    }
}
