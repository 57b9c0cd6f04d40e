//! Replica-side payload application.

use std::collections::HashMap;

use prins_block::{crc32c, BlockDevice, Lba};
use prins_compress::Lzss;
use prins_parity::{ErasureCodec, SparseCodec, SparseParity, XorCodec};

use crate::payload::{BodyRef, PayloadRef};
use crate::wire::{
    batch_payloads, encode_ack, encode_digest_ack, encode_image_ack, is_sealed, open_frame,
    Request, ACK, NAK, NAK_CORRUPT, READ_ACK, STRIP_ACK,
};
use crate::{BatchFrame, ReplError};

/// What [`ReplicaApplier::handle`] did with an incoming frame;
/// [`ReplicaApplier::respond`] turns it into the response bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Applied {
    /// A replication frame was applied (`true`, or `false` for an empty
    /// batch); answer with an ACK.
    Data(bool),
    /// A scrub digest probe; answer with a digest ack carrying this
    /// CRC32C of the probed block as read from the replica's disk.
    Digest(u32),
    /// A rebuild strip read; answer with a strip ack carrying this
    /// zero-run-encoded image of the requested block.
    Strip(SparseParity),
    /// An offloaded block read; answer with a read ack carrying this
    /// zero-run-encoded image of the requested block.
    Read(SparseParity),
}

/// Applies replication payloads to a replica's local device.
///
/// For PRINS payloads this performs the paper's backward parity
/// computation: read `A_old` at the payload's LBA, XOR in the decoded
/// parity extents, and store the result in place — "the data block is
/// recomputed back at the replica storage site upon receiving the
/// parity".
///
/// # Integrity
///
/// Everything off the wire arrives sealed (see [`crate::seal_frame`]):
/// the CRC32C is verified *before* anything is parsed or written, and
/// the frame's epoch is remembered so [`respond`](Self::respond) can
/// echo it in acknowledgements. Only the in-process
/// [`apply`](Self::apply) takes a bare payload.
///
/// The applier also keeps a per-LBA checksum table of every block it
/// has written. Before a parity frame XORs against `A_old`, the table
/// entry is checked against the bytes read back from disk — if the
/// replica's media corrupted the block since the last write, the apply
/// fails with [`ReplError::ChecksumMismatch`] instead of silently
/// fabricating a state the primary never held.
pub struct ReplicaApplier<D> {
    device: D,
    sparse: SparseCodec,
    lzss: Lzss,
    codec: Box<dyn ErasureCodec>,
    applied: u64,
    /// Epoch of the most recent sealed frame opened (0 before any).
    last_epoch: u64,
    checksums: HashMap<u64, u32>,
    /// Recycled buffer every block read lands in — the base image of
    /// the backward computation, a digest probe, a served image — so
    /// the steady state performs no heap allocation for it.
    scratch: Vec<u8>,
    /// Recycled buffer LZSS bodies decompress into (a block image, or
    /// the sparse stream applied against the base in `scratch`).
    inflated: Vec<u8>,
}

impl<D: BlockDevice> ReplicaApplier<D> {
    /// Creates an applier owning a handle to the replica's device —
    /// a plain reference, an `Arc`, or the device itself all work.
    ///
    /// Deltas apply through the mirroring [`XorCodec`] by default; see
    /// [`with_codec`](Self::with_codec) for erasure-coded strips.
    pub fn new(device: D) -> Self {
        Self {
            device,
            sparse: SparseCodec::default(),
            lzss: Lzss::default(),
            codec: Box::new(XorCodec::mirror()),
            applied: 0,
            last_epoch: 0,
            checksums: HashMap::new(),
            scratch: Vec::new(),
            inflated: Vec::new(),
        }
    }

    /// Replaces the erasure codec that strip deltas apply through.
    ///
    /// A replica holding a Reed–Solomon parity strip needs the full
    /// GF(256) update `strip ^= c · Δ`; the XOR default only accepts
    /// coefficients 0 and 1.
    pub fn with_codec(mut self, codec: Box<dyn ErasureCodec>) -> Self {
        self.codec = codec;
        self
    }

    /// Number of write payloads applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// CRC32C of the block at `lba` as read back from the device right
    /// now — the scrubber's ground truth, deliberately *not* served
    /// from the checksum table so media corruption is visible.
    ///
    /// # Errors
    ///
    /// Propagates read failures from the device.
    pub(crate) fn digest(&mut self, lba: Lba) -> Result<u32, ReplError> {
        self.with_block(lba, |_, block| Ok(crc32c(block)))
    }

    /// Decodes and applies one message handed over in process — a
    /// bare payload or a [`BatchFrame`] (whose inner payloads are
    /// applied in order), or either one sealed. Returns `false` only for
    /// an empty batch.
    ///
    /// A batch is *not* atomic: a malformed or rejected inner payload
    /// aborts the batch with earlier payloads already applied — exactly
    /// the state a reconnecting primary reconciles anyway.
    ///
    /// # Errors
    ///
    /// * [`ReplError::Malformed`] / [`ReplError::Parity`] /
    ///   [`ReplError::Compress`] on undecodable payloads (a read-side
    ///   [`Request`] among them: this is the apply-only path),
    /// * [`ReplError::ChecksumMismatch`] for a sealed frame that fails
    ///   its seal check,
    /// * [`ReplError::Block`] if the local device rejects the write.
    pub fn apply(&mut self, payload_bytes: &[u8]) -> Result<bool, ReplError> {
        let inner = if is_sealed(payload_bytes) {
            self.open(payload_bytes)?
        } else {
            payload_bytes
        };
        if Request::decode(inner)?.is_some() {
            return Err(ReplError::Malformed(
                "read request on the apply-only path".into(),
            ));
        }
        self.apply_inner(inner)
    }

    /// Opens a sealed frame, remembering its epoch.
    fn open<'a>(&mut self, frame: &'a [u8]) -> Result<&'a [u8], ReplError> {
        let (epoch, inner) = open_frame(frame)?;
        self.last_epoch = epoch;
        Ok(inner)
    }

    /// Dispatches one frame off the wire — a sealed replication payload
    /// or read-side [`Request`] — and says what it did. Transport loops
    /// call [`respond`](Self::respond), which wraps this.
    ///
    /// Every sender seals, so a frame that does not look sealed is a
    /// damaged one — a bit flip on the seal tag itself would otherwise
    /// walk past the CRC — and is rejected like any other checksum
    /// failure, whatever it looks like instead.
    ///
    /// # Errors
    ///
    /// As [`apply`](Self::apply), plus [`ReplError::ChecksumMismatch`]
    /// for a frame that arrives unsealed.
    pub fn handle(&mut self, frame: &[u8]) -> Result<Applied, ReplError> {
        if !is_sealed(frame) {
            return Err(ReplError::ChecksumMismatch {
                expected: 0,
                got: crc32c(frame),
            });
        }
        // The seal's CRC vouches for the inner frame, so nothing below
        // re-checks.
        let inner = self.open(frame)?;
        match Request::decode(inner)? {
            Some(Request::Digest(lba)) => Ok(Applied::Digest(self.digest(lba)?)),
            Some(Request::Strip(lba)) => Ok(Applied::Strip(self.strip_image(lba)?)),
            Some(Request::Read(lba)) => Ok(Applied::Read(self.strip_image(lba)?)),
            None => self.apply_inner(inner).map(Applied::Data),
        }
    }

    /// Handles one incoming frame and returns the bytes to answer with,
    /// echoing the last frame's epoch so the primary can discard acks
    /// that predate a rejoin — the whole replica
    /// side of the protocol. A damaged frame draws `NAK_CORRUPT` (the
    /// sender retransmits; nothing was applied); any other failure
    /// draws `NAK` and is returned beside it, for loops that stop on a
    /// rejected frame.
    pub fn respond(&mut self, frame: &[u8]) -> (Vec<u8>, Option<ReplError>) {
        let handled = self.handle(frame);
        let epoch = self.last_epoch;
        match handled {
            Ok(Applied::Data(_)) => (encode_ack(ACK, epoch), None),
            Ok(Applied::Digest(digest)) => (encode_digest_ack(epoch, digest), None),
            Ok(Applied::Strip(image)) => {
                (encode_image_ack(STRIP_ACK, epoch, image.as_bytes()), None)
            }
            Ok(Applied::Read(image)) => (encode_image_ack(READ_ACK, epoch, image.as_bytes()), None),
            Err(ReplError::ChecksumMismatch { .. }) => (encode_ack(NAK_CORRUPT, epoch), None),
            Err(e) => (encode_ack(NAK, epoch), Some(e)),
        }
    }

    fn apply_inner(&mut self, payload_bytes: &[u8]) -> Result<bool, ReplError> {
        if BatchFrame::is_batch(payload_bytes) {
            let mut any_data = false;
            for inner in batch_payloads(payload_bytes)? {
                any_data |= self.apply_inner(inner)?;
            }
            return Ok(any_data);
        }
        // Parsed in place: each body is read once, where it arrived.
        let PayloadRef { lba, body } = PayloadRef::parse(payload_bytes)?;
        let bs = self.device.geometry().block_size().bytes();
        match body {
            BodyRef::Full(data) => self.write_checked(lba, data)?,
            BodyRef::Compressed { block_len, data } => {
                if block_len != bs {
                    return Err(ReplError::Malformed(format!(
                        "compressed payload block_len {block_len} != device block size {bs}"
                    )));
                }
                self.with_inflated(data, block_len, |this, block| {
                    this.write_checked(lba, block)
                })?;
            }
            BodyRef::Parity(data) => self.apply_parity(lba, data)?,
            BodyRef::ParityCompressed { sparse_len, data } => {
                self.with_inflated(data, sparse_len, |this, sparse| {
                    this.apply_parity(lba, sparse)
                })?;
            }
            BodyRef::StripDelta { coeff, data } => self.apply_strip_delta(lba, coeff, data)?,
        }
        self.applied += 1;
        Ok(true)
    }

    fn write_checked(&mut self, lba: Lba, block: &[u8]) -> Result<(), ReplError> {
        self.device.write_block(lba, block)?;
        self.checksums.insert(lba.index(), crc32c(block));
        Ok(())
    }

    fn apply_parity(&mut self, lba: Lba, sparse_bytes: &[u8]) -> Result<(), ReplError> {
        // PRINS mirroring is the coefficient-1 strip update: the data
        // strip of every erasure code is systematic, so the two paths
        // share one implementation through the codec seam.
        self.apply_strip_delta(lba, 1, sparse_bytes)
    }

    fn apply_strip_delta(
        &mut self,
        lba: Lba,
        coeff: u8,
        sparse_bytes: &[u8],
    ) -> Result<(), ReplError> {
        let bs = self.device.geometry().block_size().bytes();
        // Checked whole, where it arrived, before the block is touched;
        // the walk below borrows the extents from the same bytes.
        let delta = self.sparse.decode(sparse_bytes, bs)?;
        // Backward computation: A_new = A_old ^ c·Δ, touching only the
        // changed extents. A_old must be exactly what was last written
        // here — verify it against the checksum table first, because
        // updating a corrupted base fabricates a block the primary
        // never held and no later check could catch.
        self.with_block(lba, |this, block| {
            this.check_stored(lba, block)?;
            for (offset, data) in delta.segments() {
                this.codec
                    .apply_delta(&mut block[offset..offset + data.len()], coeff, data)
                    .map_err(|e| ReplError::Malformed(format!("strip delta: {e}")))?;
            }
            this.write_checked(lba, block)
        })
    }

    /// The zero-run-encoded image of the block at `lba` as read from
    /// disk — a rebuild contribution or an offloaded-read answer.
    /// Checked against the checksum table so neither a rebuild nor a
    /// served read ever ingests silently corrupted media.
    fn strip_image(&mut self, lba: Lba) -> Result<SparseParity, ReplError> {
        self.with_block(lba, |this, block| {
            this.check_stored(lba, block)?;
            Ok(this.sparse.encode(block))
        })
    }

    /// Decompresses `lzss` (claiming `len` bytes) into the recycled
    /// inflate buffer, taken out of `self` like [`with_block`]'s.
    ///
    /// [`with_block`]: Self::with_block
    fn with_inflated<T>(
        &mut self,
        lzss: &[u8],
        len: usize,
        with: impl FnOnce(&mut Self, &[u8]) -> Result<T, ReplError>,
    ) -> Result<T, ReplError> {
        let mut inflated = std::mem::take(&mut self.inflated);
        inflated.clear();
        let result = match self.lzss.decompress_into(lzss, len, &mut inflated) {
            Ok(()) => with(self, &inflated),
            Err(e) => Err(e.into()),
        };
        self.inflated = inflated;
        result
    }

    /// Reads the block at `lba` into the recycled scratch buffer (taken
    /// out of `self` for the duration, so `with` can borrow both) — no
    /// allocation after the first call.
    fn with_block<T>(
        &mut self,
        lba: Lba,
        with: impl FnOnce(&mut Self, &mut [u8]) -> Result<T, ReplError>,
    ) -> Result<T, ReplError> {
        let mut block = std::mem::take(&mut self.scratch);
        block.resize(self.device.geometry().block_size().bytes(), 0);
        let result = match self.device.read_block(lba, &mut block) {
            Ok(()) => with(self, &mut block),
            Err(e) => Err(e.into()),
        };
        self.scratch = block;
        result
    }

    /// Fails if `block`, just read from `lba`, is not what this applier
    /// last wrote there.
    fn check_stored(&self, lba: Lba, block: &[u8]) -> Result<(), ReplError> {
        if let Some(&expected) = self.checksums.get(&lba.index()) {
            let got = crc32c(block);
            if got != expected {
                return Err(ReplError::ChecksumMismatch { expected, got });
            }
        }
        Ok(())
    }
}

impl<D> std::fmt::Debug for ReplicaApplier<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaApplier")
            .field("applied", &self.applied)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::tests::batch_bytes;
    use crate::{
        CompressedReplicator, Payload, PayloadBody, PrinsReplicator, Replicator,
        TraditionalReplicator,
    };
    use prins_block::{BlockSize, MemDevice};
    use rand::{RngExt, SeedableRng};

    #[allow(clippy::type_complexity)]
    fn scenario() -> (MemDevice, Vec<(Lba, Vec<u8>, Vec<u8>)>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let replica = MemDevice::new(BlockSize::kb4(), 16);
        let mut writes = Vec::new();
        for _ in 0..40 {
            let lba = Lba(rng.random_range(0..16));
            let old = replica.read_block_vec(lba).unwrap();
            let mut new = old.clone();
            let start = rng.random_range(0..4000);
            let len = rng.random_range(1..96);
            for b in &mut new[start..start + len] {
                *b = rng.random();
            }
            writes.push((lba, old, new));
            // Track what the replica *will* hold after each apply so the
            // next old image is correct.
            replica.write_block(lba, &writes.last().unwrap().2).unwrap();
        }
        // Reset replica to zeros; the writes carry the evolution.
        let fresh = MemDevice::new(BlockSize::kb4(), 16);
        (fresh, writes)
    }

    fn request(request: Request) -> Vec<u8> {
        let mut out = Vec::new();
        request.put(&mut out);
        out
    }

    fn replay(replicator: &dyn Replicator) {
        let (replica, writes) = scenario();
        let mut applier = ReplicaApplier::new(&replica);
        for (lba, old, new) in &writes {
            let payload = replicator.encode_write(*lba, old, new);
            assert!(applier.apply(&payload).unwrap());
            assert_eq!(&replica.read_block_vec(*lba).unwrap(), new);
        }
        assert_eq!(applier.applied(), writes.len() as u64);
    }

    #[test]
    fn traditional_payloads_apply() {
        replay(&TraditionalReplicator);
    }

    #[test]
    fn compressed_payloads_apply() {
        replay(&CompressedReplicator::default());
    }

    #[test]
    fn prins_payloads_apply() {
        replay(&PrinsReplicator::new());
    }

    #[test]
    fn prins_compressed_payloads_apply() {
        replay(&PrinsReplicator::with_parity_compression());
    }

    #[test]
    fn wrong_block_size_parity_is_rejected() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        // Parity encoded for an 8 KB block cannot apply to a 4 KB device.
        let old = [0u8; 8192];
        let mut new = old;
        new[100..132].fill(1); // sparse change → parity payload
        let payload = PrinsReplicator::new().encode_write(Lba(0), &old, &new);
        assert!(matches!(applier.apply(&payload), Err(ReplError::Parity(_))));
    }

    #[test]
    fn out_of_range_lba_is_rejected() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let payload = TraditionalReplicator.encode_write(Lba(99), &[0u8; 4096], &[1u8; 4096]);
        assert!(matches!(applier.apply(&payload), Err(ReplError::Block(_))));
    }

    #[test]
    fn garbage_payload_is_rejected() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        assert!(applier.apply(&[200, 1, 2, 3]).is_err());
    }

    #[test]
    fn batch_frame_applies_all_inner_payloads_in_order() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let replicator = PrinsReplicator::new();
        // A chain of two writes to the same block, packed in one frame:
        // applying out of order would XOR against the wrong base.
        let a = vec![0u8; 4096];
        let mut b = a.clone();
        b[10..20].fill(7);
        let mut c = b.clone();
        c[15..40].fill(9);
        let frame = BatchFrame {
            payloads: vec![
                replicator.encode_write(Lba(2), &a, &b),
                replicator.encode_write(Lba(2), &b, &c),
                TraditionalReplicator.encode_write(Lba(0), &a, &b),
            ],
        };
        assert!(applier.apply(&batch_bytes(&frame)).unwrap());
        assert_eq!(applier.applied(), 3);
        assert_eq!(replica.read_block_vec(Lba(2)).unwrap(), c);
        assert_eq!(replica.read_block_vec(Lba(0)).unwrap(), b);
    }

    #[test]
    fn empty_batch_counts_as_no_data() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        assert!(!applier.apply(&batch_bytes(&BatchFrame::default())).unwrap());
        assert_eq!(applier.applied(), 0);
    }

    #[test]
    fn sealed_frames_open_transparently_and_track_epoch() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let inner = TraditionalReplicator.encode_write(Lba(1), &[0u8; 4096], &[5u8; 4096]);
        assert!(applier.apply(&crate::seal_frame(9, &inner)).unwrap());
        assert_eq!(applier.last_epoch, 9);
        assert_eq!(replica.read_block_vec(Lba(1)).unwrap(), vec![5u8; 4096]);
        // Off the wire, a bare frame is a checksum error (so the
        // transport loop answers NAK_CORRUPT, not a fatal NAK).
        assert!(matches!(
            applier.handle(&inner),
            Err(ReplError::ChecksumMismatch { .. })
        ));
        // A corrupted seal is rejected before anything is applied.
        let mut damaged = crate::seal_frame(10, &inner);
        let last = damaged.len() - 1;
        damaged[last] ^= 0x04;
        assert!(applier.apply(&damaged).is_err());
        assert_eq!(applier.last_epoch, 9);
        assert_eq!(applier.applied(), 1);
    }

    #[test]
    fn parity_against_corrupted_base_is_detected() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let replicator = PrinsReplicator::new();
        let a = vec![0u8; 4096];
        let mut b = a.clone();
        b[100..140].fill(3);
        assert!(applier
            .apply(&replicator.encode_write(Lba(2), &a, &b))
            .unwrap());
        // Simulate media corruption behind the applier's back.
        let mut damaged = b.clone();
        damaged[0] ^= 0x80;
        replica.write_block(Lba(2), &damaged).unwrap();
        let mut c = b.clone();
        c[120..160].fill(8);
        let err = applier
            .apply(&replicator.encode_write(Lba(2), &b, &c))
            .unwrap_err();
        assert!(matches!(err, ReplError::ChecksumMismatch { .. }), "{err}");
        // The corrupted base was never XORed into a fabricated state.
        assert_eq!(replica.read_block_vec(Lba(2)).unwrap(), damaged);
    }

    #[test]
    fn digest_reads_the_disk_not_the_table() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let block = vec![7u8; 4096];
        applier
            .apply(&TraditionalReplicator.encode_write(Lba(0), &[0u8; 4096], &block))
            .unwrap();
        assert_eq!(applier.digest(Lba(0)).unwrap(), prins_block::crc32c(&block));
        let mut damaged = block.clone();
        damaged[9] ^= 1;
        replica.write_block(Lba(0), &damaged).unwrap();
        assert_eq!(
            applier.digest(Lba(0)).unwrap(),
            prins_block::crc32c(&damaged)
        );
    }

    #[test]
    fn strip_delta_applies_through_the_codec() {
        use prins_parity::SparseCodec;
        // A replica holding RS parity strip 0 of a k=4,m=2 group: its
        // update for a data-strip delta Δ on column j is c_{0,j}·Δ.
        let rs = prins_ec::ReedSolomon::k4m2();
        let coeff = rs.coefficient(0, 2);
        assert!(coeff > 1, "Cauchy coefficients exercise real GF math");
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica).with_codec(Box::new(rs));

        let mut delta = vec![0u8; 4096];
        for (i, b) in delta[700..900].iter_mut().enumerate() {
            *b = (i * 13 % 251) as u8 + 1;
        }
        let sparse = SparseCodec::default().encode(&delta).to_bytes();
        let payload = Payload {
            lba: Lba(1),
            body: PayloadBody::StripDelta {
                coeff,
                data: sparse,
            },
        };
        assert!(applier.apply(&payload.to_bytes()).unwrap());
        let got = replica.read_block_vec(Lba(1)).unwrap();
        let want: Vec<u8> = delta.iter().map(|&d| prins_ec::gf::mul(coeff, d)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn xor_codec_rejects_gf_coefficients() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let sparse = prins_parity::SparseCodec::default()
            .encode(&[1u8; 4096])
            .to_bytes();
        let payload = Payload {
            lba: Lba(0),
            body: PayloadBody::StripDelta {
                coeff: 3,
                data: sparse,
            },
        };
        assert!(matches!(
            applier.apply(&payload.to_bytes()),
            Err(ReplError::Malformed(_))
        ));
    }

    #[test]
    fn strip_request_returns_the_disk_image() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let mut block = vec![0u8; 4096];
        block[40..80].fill(0x5a);
        applier
            .apply(&TraditionalReplicator.encode_write(Lba(2), &[0u8; 4096], &block))
            .unwrap();
        let req = crate::seal_frame(4, &request(Request::Strip(Lba(2))));
        match applier.handle(&req).unwrap() {
            Applied::Strip(sparse) => {
                assert_eq!(sparse.to_dense(4096), block);
                assert!(sparse.as_bytes().len() < 200, "zero runs are elided");
            }
            other => panic!("expected strip image, got {other:?}"),
        }
        // A corrupted base is refused, not served.
        let mut damaged = block.clone();
        damaged[50] ^= 0x10;
        replica.write_block(Lba(2), &damaged).unwrap();
        assert!(matches!(
            applier.handle(&req),
            Err(ReplError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn read_request_returns_the_disk_image_or_refuses_corruption() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let mut block = vec![0u8; 4096];
        block[128..192].fill(0xa7);
        applier
            .apply(&TraditionalReplicator.encode_write(Lba(1), &[0u8; 4096], &block))
            .unwrap();
        let req = crate::seal_frame(3, &request(Request::Read(Lba(1))));
        match applier.handle(&req).unwrap() {
            Applied::Read(sparse) => assert_eq!(sparse.to_dense(4096), block),
            other => panic!("expected read image, got {other:?}"),
        }
        assert_eq!(applier.last_epoch, 3);
        // Media rot under the checksum table is refused, never served.
        let mut damaged = block.clone();
        damaged[130] ^= 0x02;
        replica.write_block(Lba(1), &damaged).unwrap();
        assert!(matches!(
            applier.handle(&req),
            Err(ReplError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn every_unsealed_frame_kind_is_answered_with_nak_corrupt() {
        // A single bit flip on the seal tag (6 -> 7) makes a sealed
        // frame look like a digest request; the wire-facing entry must
        // not let any unsealed frame — payload, batch or request —
        // through.
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let payload = TraditionalReplicator.encode_write(Lba(1), &[0u8; 4096], &[5u8; 4096]);
        let mut flipped = crate::seal_frame(3, &payload);
        flipped[0] ^= 0x01;
        let unsealed = [
            payload.clone(),
            batch_bytes(&BatchFrame {
                payloads: vec![payload],
            }),
            request(Request::Digest(Lba(1))),
            request(Request::Strip(Lba(1))),
            request(Request::Read(Lba(1))),
            flipped,
        ];
        for frame in &unsealed {
            let (reply, fatal) = applier.respond(frame);
            assert_eq!(reply, encode_ack(NAK_CORRUPT, 0), "frame {:?}", &frame[..2]);
            assert!(fatal.is_none());
        }
        assert_eq!(applier.applied(), 0);
        assert_eq!(replica.read_block_vec(Lba(1)).unwrap(), vec![0u8; 4096]);
        // The same requests sealed are answered.
        let sealed = crate::seal_frame(3, &request(Request::Digest(Lba(1))));
        assert!(matches!(applier.handle(&sealed), Ok(Applied::Digest(_))));
    }

    #[test]
    fn respond_encodes_every_reply_kind_under_the_last_epoch() {
        use crate::wire::{decode_ack, DIGEST_ACK};
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let block = vec![7u8; 4096];
        let write = TraditionalReplicator.encode_write(Lba(0), &[0u8; 4096], &block);
        let (reply, fatal) = applier.respond(&crate::seal_frame(5, &write));
        assert_eq!((reply, fatal.is_none()), (encode_ack(ACK, 5), true));
        let image = applier.sparse.encode(&block).to_bytes();
        for (req, status, body) in [
            (
                Request::Digest(Lba(0)),
                DIGEST_ACK,
                crc32c(&block).to_le_bytes().to_vec(),
            ),
            (Request::Strip(Lba(0)), STRIP_ACK, image.clone()),
            (Request::Read(Lba(0)), READ_ACK, image.clone()),
        ] {
            let (reply, fatal) = applier.respond(&crate::seal_frame(6, &request(req)));
            let ack = decode_ack(&reply).unwrap();
            assert_eq!(
                (ack.status, ack.epoch, ack.body),
                (status, 6, body.as_slice())
            );
            assert!(fatal.is_none());
        }
        // A rejected frame draws NAK and hands the error back.
        let (reply, fatal) = applier.respond(&crate::seal_frame(6, &[200, 1, 2, 3]));
        assert_eq!(reply, encode_ack(NAK, 6));
        assert!(matches!(fatal, Some(ReplError::Malformed(_))));
    }

    #[test]
    fn bad_inner_payload_aborts_batch_after_earlier_applies() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let good = TraditionalReplicator.encode_write(Lba(1), &[0u8; 4096], &[3u8; 4096]);
        let frame = BatchFrame {
            payloads: vec![good, vec![200, 1, 2]],
        };
        assert!(applier.apply(&batch_bytes(&frame)).is_err());
        // The first payload landed before the abort.
        assert_eq!(replica.read_block_vec(Lba(1)).unwrap(), vec![3u8; 4096]);
    }
}
