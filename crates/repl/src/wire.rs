//! The replication wire protocol: the one module that writes a frame,
//! parses a request or response, seals bytes for a replica and decides
//! what a replica's answer means.
//!
//! Every producer appends through the writers here ([`put_full`] …
//! [`put_batch`], [`seal_begin`]); every primary talks to a replica
//! through a [`Link`], which holds what is in flight and alone decides
//! which answer belongs to which frame. The full tag and status table
//! lives in DESIGN.md §8.
//!
//! PRINS's backward parity computation `A_new = P' ⊕ A_old` silently
//! fabricates garbage if either side of the XOR is wrong, so frames do
//! not rely on TCP's checksum (too weak, and it ends at the NIC, not
//! at the disk). Every frame a primary sends is wrapped in a *seal*
//! carrying two things:
//!
//! * **epoch** — the primary's view of the replica's connection
//!   generation, bumped whenever a response may have been stranded and
//!   on every rejoin. The replica echoes the epoch of the last sealed
//!   frame it opened in every response, which makes stale in-flight
//!   responses *identifiable* instead of guessable.
//! * **crc32c** — over the epoch and the entire inner frame, verified
//!   before the inner frame is parsed. A failed check is
//!   [`ReplError::ChecksumMismatch`], answered with [`NAK_CORRUPT`] so
//!   the sender retransmits instead of tearing the link down.

use std::collections::VecDeque;
use std::time::Duration;

use prins_block::{crc32c, crc32c_append, Lba};
use prins_net::{NetError, Transport};
use prins_parity::{decode_varint, encode_varint, varint_len};

use crate::ReplError;

/// `tag varint(lba) block-bytes` — a full block image.
pub(crate) const FULL_TAG: u8 = 0;
/// `tag varint(lba) varint(block_len) lzss-bytes` — a compressed image.
pub(crate) const COMPRESSED_TAG: u8 = 1;
/// `tag varint(lba) sparse-parity-bytes` — the PRINS parity
/// (self-describing zero-run encoding).
pub(crate) const PARITY_TAG: u8 = 2;
/// `tag varint(lba) varint(sparse_len) lzss(sparse-parity-bytes)`.
pub(crate) const PARITY_COMPRESSED_TAG: u8 = 3;
// Tag 4 is retired: no sender emits it and receivers reject it as
// malformed, like any other unknown tag.
/// `tag varint(count) { varint(len) payload-bytes }*count` — several
/// payloads under one acknowledgement. Disjoint from the payload tags,
/// so a receiver dispatches on the first byte.
pub const BATCH_TAG: u8 = 5;
/// `tag varint(epoch) crc32c(u32 LE) inner-frame` — the sealed envelope.
pub const SEAL_TAG: u8 = 6;
/// `tag varint(lba)` — scrub probe: digest the block as read from disk.
const DIGEST_REQ_TAG: u8 = 7;
/// `tag varint(stripe) coeff(u8) sparse-parity-bytes` — erasure-strip
/// delta: the receiver applies `strip ^= coeff · Δ` over GF(256).
pub(crate) const STRIP_DELTA_TAG: u8 = 8;
/// `tag varint(lba)` — rebuild: read a strip image.
const STRIP_REQ_TAG: u8 = 9;
/// `tag varint(lba)` — serving path: read a block image.
const READ_REQ_TAG: u8 = 10;

/// `status varint(epoch)` — the frame was applied.
pub const ACK: u8 = 0x06;
/// `status varint(epoch)` — the frame was rejected (apply failed).
pub const NAK: u8 = 0x15;
/// `status varint(epoch)` — the frame failed its integrity check and
/// nothing was applied; the sender should retransmit.
pub const NAK_CORRUPT: u8 = 0x18;
/// `status varint(epoch) crc32c(u32 LE)` — answer to a digest request.
pub const DIGEST_ACK: u8 = 0x19;
/// `status varint(epoch) crc32c(u32 LE) sparse-bytes` — answer to a
/// strip request: the CRC-protected zero-run-encoded image.
pub const STRIP_ACK: u8 = 0x1a;
/// Same shape as [`STRIP_ACK`] — answer to a read request.
pub const READ_ACK: u8 = 0x1b;

fn put_head(out: &mut Vec<u8>, tag: u8, lba: Lba) {
    out.push(tag);
    encode_varint(out, lba.index());
}

/// Bytes every payload for `lba` opens with (`tag varint(lba)`), for
/// frame-length arithmetic ahead of an encode.
pub fn head_len(lba: Lba) -> usize {
    1 + varint_len(lba.index())
}

/// Appends a full-image payload.
pub fn put_full(out: &mut Vec<u8>, lba: Lba, block: &[u8]) {
    put_head(out, FULL_TAG, lba);
    out.extend_from_slice(block);
}

/// Appends an LZSS-compressed full-image payload whose LZSS stream
/// `lzss` writes — the compressor runs straight into the frame;
/// `block_len` is the uncompressed size.
pub fn put_compressed(
    out: &mut Vec<u8>,
    lba: Lba,
    block_len: usize,
    lzss: impl FnOnce(&mut Vec<u8>),
) {
    put_head(out, COMPRESSED_TAG, lba);
    encode_varint(out, block_len as u64);
    lzss(out);
}

/// Appends a parity payload whose sparse-parity stream `body` writes —
/// a fused encoder serializes straight into the frame.
pub fn put_parity(out: &mut Vec<u8>, lba: Lba, body: impl FnOnce(&mut Vec<u8>)) {
    put_head(out, PARITY_TAG, lba);
    body(out);
}

/// Appends an LZSS-compressed parity payload whose LZSS stream `lzss`
/// writes; `sparse_len` is the sparse-parity stream's length before
/// compression.
pub(crate) fn put_parity_compressed(
    out: &mut Vec<u8>,
    lba: Lba,
    sparse_len: usize,
    lzss: impl FnOnce(&mut Vec<u8>),
) {
    put_head(out, PARITY_COMPRESSED_TAG, lba);
    encode_varint(out, sparse_len as u64);
    lzss(out);
}

/// Appends an erasure-strip delta for the strip block at `stripe`.
pub fn put_strip_delta(out: &mut Vec<u8>, stripe: Lba, coeff: u8, sparse: &[u8]) {
    put_head(out, STRIP_DELTA_TAG, stripe);
    out.push(coeff);
    out.extend_from_slice(sparse);
}

/// Appends a batch frame packing `payloads` (each a serialized payload)
/// in order.
pub fn put_batch<'a, I>(out: &mut Vec<u8>, payloads: I)
where
    I: IntoIterator<Item = &'a [u8]>,
    I::IntoIter: Clone,
{
    let payloads = payloads.into_iter();
    out.push(BATCH_TAG);
    encode_varint(out, payloads.clone().count() as u64);
    for p in payloads {
        encode_varint(out, p.len() as u64);
        out.extend_from_slice(p);
    }
}

/// The payloads of a batch frame, borrowed from the frame in apply
/// order — what [`batch_payloads`] returns once the frame's structure
/// has been checked.
#[derive(Clone, Debug)]
pub(crate) struct BatchPayloads<'a> {
    rest: &'a [u8],
    left: usize,
}

/// Splits payload number `i` off the front of `rest`.
fn take_payload<'a>(rest: &mut &'a [u8], i: u64) -> Result<&'a [u8], ReplError> {
    let (len, used) = decode_varint(rest)
        .ok_or_else(|| ReplError::Malformed(format!("truncated length of payload {i}")))?;
    let body = &rest[used..];
    if len > body.len() as u64 {
        return Err(ReplError::Malformed(format!(
            "payload {i} length {len} exceeds remaining {}",
            body.len()
        )));
    }
    let (payload, tail) = body.split_at(len as usize);
    *rest = tail;
    Ok(payload)
}

/// Walks a batch frame written by [`put_batch`] without copying it.
/// The whole structure is checked before the first payload is yielded,
/// so a frame either walks completely or not at all; the payloads
/// themselves are *not* decoded.
///
/// # Errors
///
/// [`ReplError::Malformed`] on a wrong tag, truncated length prefixes,
/// payloads running past the end of the message, or trailing bytes.
pub(crate) fn batch_payloads(bytes: &[u8]) -> Result<BatchPayloads<'_>, ReplError> {
    let (&tag, rest) = bytes
        .split_first()
        .ok_or_else(|| ReplError::Malformed("empty batch frame".into()))?;
    if tag != BATCH_TAG {
        return Err(ReplError::Malformed(format!(
            "batch frame tag {tag} != {BATCH_TAG}"
        )));
    }
    let (count, used) =
        decode_varint(rest).ok_or_else(|| ReplError::Malformed("truncated batch count".into()))?;
    let rest = &rest[used..];
    // The count is attacker-controlled: it is believed only after this
    // pass has found that many length prefixes in the bytes received.
    let mut check = rest;
    for i in 0..count {
        take_payload(&mut check, i)?;
    }
    if !check.is_empty() {
        return Err(ReplError::Malformed(format!(
            "{} trailing bytes after batch",
            check.len()
        )));
    }
    Ok(BatchPayloads {
        rest,
        left: count as usize,
    })
}

impl<'a> Iterator for BatchPayloads<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        self.left = self.left.checked_sub(1)?;
        take_payload(&mut self.rest, 0).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

fn seal_crc(epoch: u64, inner: &[u8]) -> u32 {
    crc32c_append(crc32c(&epoch.to_le_bytes()), inner)
}

/// An open sealed envelope being written directly into a caller-owned
/// buffer (e.g. a pooled wire buffer): [`seal_begin`] writes the header
/// and reserves the checksum slot, the caller appends the inner frame,
/// and [`finish`](SealWriter::finish) runs **one** CRC32C pass over
/// whatever was appended and patches the slot — so a batch of payloads
/// is framed and checksummed without ever existing separately.
#[must_use = "a SealWriter must be finished to patch the checksum in"]
pub struct SealWriter {
    epoch: u64,
    crc_at: usize,
}

/// Starts a sealed envelope at the end of `out`: appends the tag and
/// epoch, reserves the 4-byte checksum slot and returns the writer that
/// patches it. Bytes already in `out` are left untouched.
pub fn seal_begin(epoch: u64, out: &mut Vec<u8>) -> SealWriter {
    out.push(SEAL_TAG);
    encode_varint(out, epoch);
    let crc_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    SealWriter { epoch, crc_at }
}

impl SealWriter {
    /// Checksums everything appended to `out` since [`seal_begin`] and
    /// patches it into the reserved slot.
    ///
    /// # Panics
    ///
    /// Panics if `out` was truncated below the envelope header since
    /// [`seal_begin`] — the envelope this writer refers to is gone.
    pub fn finish(self, out: &mut [u8]) {
        let inner_start = self.crc_at + 4;
        assert!(
            out.len() >= inner_start,
            "sealed buffer truncated under an open SealWriter"
        );
        let crc = seal_crc(self.epoch, &out[inner_start..]);
        out[self.crc_at..inner_start].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Appends `inner` wrapped in a sealed envelope tagged with `epoch`.
pub fn seal_frame_into(epoch: u64, inner: &[u8], out: &mut Vec<u8>) {
    let writer = seal_begin(epoch, out);
    out.extend_from_slice(inner);
    writer.finish(out);
}

/// [`seal_frame_into`] a fresh buffer.
pub fn seal_frame(epoch: u64, inner: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(inner.len() + 16);
    seal_frame_into(epoch, inner, &mut out);
    out
}

/// Appends a sealed batch frame packing `payloads`, covered by a single
/// CRC32C sweep.
pub fn seal_batch_frame_into<P: AsRef<[u8]>>(epoch: u64, payloads: &[P], out: &mut Vec<u8>) {
    let writer = seal_begin(epoch, out);
    put_batch(out, payloads.iter().map(AsRef::as_ref));
    writer.finish(out);
}

/// Whether `bytes` starts like a sealed envelope.
pub fn is_sealed(bytes: &[u8]) -> bool {
    bytes.first() == Some(&SEAL_TAG)
}

/// Splits `crc32c(u32 LE) body` and verifies the checksum under `epoch`.
fn checked_body<'a>(epoch: u64, rest: &'a [u8], what: &str) -> Result<&'a [u8], ReplError> {
    if rest.len() < 4 {
        return Err(ReplError::Malformed(format!("truncated {what} checksum")));
    }
    let expected = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
    let body = &rest[4..];
    let got = seal_crc(epoch, body);
    if got != expected {
        return Err(ReplError::ChecksumMismatch { expected, got });
    }
    Ok(body)
}

/// Opens a sealed envelope, returning `(epoch, inner-frame)`.
///
/// # Errors
///
/// * [`ReplError::Malformed`] if the envelope structure is broken,
/// * [`ReplError::ChecksumMismatch`] if the CRC32C does not cover the
///   bytes received — the frame was corrupted in flight.
pub fn open_frame(bytes: &[u8]) -> Result<(u64, &[u8]), ReplError> {
    let (&tag, rest) = bytes
        .split_first()
        .ok_or_else(|| ReplError::Malformed("empty sealed frame".into()))?;
    if tag != SEAL_TAG {
        return Err(ReplError::Malformed(format!(
            "sealed frame tag {tag} != {SEAL_TAG}"
        )));
    }
    let (epoch, used) =
        decode_varint(rest).ok_or_else(|| ReplError::Malformed("truncated seal epoch".into()))?;
    Ok((epoch, checked_body(epoch, &rest[used..], "seal")?))
}

/// A read-side request a primary sends (sealed) instead of a payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Scrub probe: answer [`DIGEST_ACK`] with the CRC32C of the block
    /// *as read back from disk* — what lets the primary detect media
    /// corruption no wire checksum can see.
    Digest(Lba),
    /// Rebuild: answer [`STRIP_ACK`] with the strip block's image.
    Strip(Lba),
    /// Read offload: answer [`READ_ACK`] with the block's image.
    Read(Lba),
}

impl Request {
    /// Appends the request's wire form.
    pub fn put(self, out: &mut Vec<u8>) {
        let (tag, lba) = match self {
            Request::Digest(lba) => (DIGEST_REQ_TAG, lba),
            Request::Strip(lba) => (STRIP_REQ_TAG, lba),
            Request::Read(lba) => (READ_REQ_TAG, lba),
        };
        put_head(out, tag, lba);
    }

    /// Parses `bytes` if it starts with a request tag; `Ok(None)` means
    /// the frame is something else (a payload or batch).
    ///
    /// # Errors
    ///
    /// [`ReplError::Malformed`] on a truncated varint or trailing bytes
    /// after a request tag.
    pub fn decode(bytes: &[u8]) -> Result<Option<Self>, ReplError> {
        let kind = match bytes.first() {
            Some(&DIGEST_REQ_TAG) => Request::Digest,
            Some(&STRIP_REQ_TAG) => Request::Strip,
            Some(&READ_REQ_TAG) => Request::Read,
            _ => return Ok(None),
        };
        match decode_varint(&bytes[1..]) {
            Some((lba, used)) if used + 1 == bytes.len() => Ok(Some(kind(Lba(lba)))),
            Some(_) => Err(ReplError::Malformed("trailing bytes after request".into())),
            None => Err(ReplError::Malformed("truncated request lba".into())),
        }
    }
}

/// A decoded response frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AckFrame<'a> {
    /// One of the six response statuses.
    pub(crate) status: u8,
    /// Epoch of the last sealed frame the replica opened (0 when it
    /// has never seen a seal).
    pub(crate) epoch: u64,
    /// What follows the epoch: the 4 digest bytes of a [`DIGEST_ACK`],
    /// the checksum-verified sparse image of a [`STRIP_ACK`] /
    /// [`READ_ACK`], empty otherwise.
    pub(crate) body: &'a [u8],
}

/// Encodes a body-less response (`status` + varint epoch).
pub fn encode_ack(status: u8, epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(11);
    out.push(status);
    encode_varint(&mut out, epoch);
    out
}

/// Encodes a [`DIGEST_ACK`].
pub(crate) fn encode_digest_ack(epoch: u64, digest: u32) -> Vec<u8> {
    let mut out = encode_ack(DIGEST_ACK, epoch);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Encodes a [`STRIP_ACK`] / [`READ_ACK`] carrying `sparse`, the
/// zero-run-encoded image, CRC-protected like a sealed frame so neither
/// a rebuild nor a served read ever decodes a damaged image.
pub(crate) fn encode_image_ack(status: u8, epoch: u64, sparse: &[u8]) -> Vec<u8> {
    let mut out = encode_ack(status, epoch);
    out.extend_from_slice(&seal_crc(epoch, sparse).to_le_bytes());
    out.extend_from_slice(sparse);
    out
}

/// Decodes a response frame in any of its shapes.
///
/// # Errors
///
/// [`ReplError::Malformed`] on empty frames, unknown status bytes, or
/// truncated / trailing fields; [`ReplError::ChecksumMismatch`] if an
/// image body was damaged in flight.
pub(crate) fn decode_ack(bytes: &[u8]) -> Result<AckFrame<'_>, ReplError> {
    let (&status, rest) = bytes
        .split_first()
        .ok_or_else(|| ReplError::Malformed("empty ack frame".into()))?;
    if !matches!(
        status,
        ACK | NAK | NAK_CORRUPT | DIGEST_ACK | STRIP_ACK | READ_ACK
    ) {
        return Err(ReplError::Malformed(format!(
            "unknown ack status {status:#04x}"
        )));
    }
    let (epoch, used) =
        decode_varint(rest).ok_or_else(|| ReplError::Malformed("truncated ack epoch".into()))?;
    let rest = &rest[used..];
    let body = match status {
        STRIP_ACK | READ_ACK => checked_body(epoch, rest, "image ack")?,
        DIGEST_ACK if rest.len() == 4 => rest,
        DIGEST_ACK => return Err(ReplError::Malformed("truncated digest".into())),
        _ if rest.is_empty() => rest,
        _ => {
            return Err(ReplError::Malformed(format!(
                "{} trailing bytes after ack",
                rest.len()
            )))
        }
    };
    Ok(AckFrame {
        status,
        epoch,
        body,
    })
}

/// What [`Link::collect_oldest`] reports while it waits, so callers can
/// count or trace it without re-implementing the rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkEvent {
    /// A response from an older epoch was dropped.
    StaleDropped,
    /// The replica answered [`NAK_CORRUPT`].
    CorruptNak,
}

/// A response that passed the response rule, owning its frame.
#[derive(Debug)]
pub struct Response {
    frame: Vec<u8>,
    body_at: usize,
}

impl Response {
    /// The response body: what follows the epoch (the digest of a
    /// [`DIGEST_ACK`], the sparse image of a [`STRIP_ACK`] /
    /// [`READ_ACK`], empty otherwise).
    pub fn body(&self) -> &[u8] {
        &self.frame[self.body_at..]
    }

    /// The block digest, if this is a [`DIGEST_ACK`].
    pub fn digest(&self) -> Option<u32> {
        match (self.frame[0], self.body()) {
            (DIGEST_ACK, &[a, b, c, d]) => Some(u32::from_le_bytes([a, b, c, d])),
            _ => None,
        }
    }

    /// Bytes the response occupied on the wire.
    pub fn wire_len(&self) -> usize {
        self.frame.len()
    }
}

/// A frame sent on a [`Link`] and not yet answered.
struct Sent<T> {
    /// The epoch the frame was sealed under — its answer echoes it.
    epoch: u64,
    /// The response status that answers it.
    want: u8,
    tag: T,
}

/// The primary's end of one replica connection: the transport, the
/// response-stream epoch, the frames sent and not yet answered — oldest
/// first, each under its owner's tag `T` — and a reusable buffer for
/// sealed frames.
///
/// Every frame goes out through [`send`](Self::send) or
/// [`send_sealed`](Self::send_sealed), and every answer is awaited
/// through [`collect_oldest`](Self::collect_oldest): the transport
/// delivers and the replica answers in order, so the oldest frame's
/// answer is the next one under its epoch. That makes this type the one
/// home of the **stranded-response rule**:
///
/// > A response that was not consumed may surface later. Whenever that
/// > can be the case — a receive failed, or frames still in flight were
/// > given up on — the link opens a new epoch, so the late answer
/// > carries an older one and is dropped instead of being credited to a
/// > newer frame.
///
/// PRINS ships XOR deltas: one acknowledgement credited to the wrong
/// frame leaves a replica silently and permanently diverged, which is
/// why the rule has exactly one home. A NAK or corrupt-NAK *was* the
/// frame's answer, so it moves nothing. The link reads no clock; its
/// callers time the wait.
pub struct Link<T> {
    transport: Box<dyn Transport>,
    replica: usize,
    epoch: u64,
    frame: Vec<u8>,
    in_flight: VecDeque<Sent<T>>,
}

impl<T> Link<T> {
    /// A link to replica number `replica` (the index errors carry), at
    /// epoch 1 with nothing in flight.
    pub fn new(replica: usize, transport: Box<dyn Transport>) -> Self {
        Self {
            transport,
            replica,
            epoch: 1,
            frame: Vec::new(),
            in_flight: VecDeque::new(),
        }
    }

    /// The current epoch — what a frame sealed now is sealed under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The tags of the frames in flight, oldest first.
    pub fn in_flight(&self) -> impl ExactSizeIterator<Item = &T> {
        self.in_flight.iter().map(|sent| &sent.tag)
    }

    /// Seals whatever `fill` appends under the current epoch, sends it
    /// and queues it under `tag` as awaiting a `want` response. Returns
    /// the sealed frame's length.
    ///
    /// # Errors
    ///
    /// [`ReplError::Net`] if the transport refuses the frame — it never
    /// left, so nothing is queued.
    pub fn send(
        &mut self,
        tag: T,
        want: u8,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Result<usize, ReplError> {
        self.frame.clear();
        let writer = seal_begin(self.epoch, &mut self.frame);
        fill(&mut self.frame);
        writer.finish(&mut self.frame);
        self.transport.send(&self.frame)?;
        self.in_flight.push_back(Sent {
            epoch: self.epoch,
            want,
            tag,
        });
        Ok(self.frame.len())
    }

    /// Sends the frame `tag` retains — already sealed with
    /// [`seal_begin`], such as a pooled frame or its retransmission —
    /// and queues it under the epoch in its seal as awaiting a `want`
    /// response. Returns the queued tag.
    ///
    /// # Errors
    ///
    /// [`ReplError::Net`] if the transport refuses the frame, beside the
    /// tag: it never left, so nothing is queued.
    ///
    /// # Panics
    ///
    /// Panics if the frame does not start with a seal header.
    pub fn send_sealed(&mut self, tag: T, want: u8) -> Result<&T, (T, ReplError)>
    where
        T: AsRef<[u8]>,
    {
        let frame = tag.as_ref();
        let epoch = match frame.split_first() {
            Some((&SEAL_TAG, rest)) => decode_varint(rest).map(|(epoch, _)| epoch),
            _ => None,
        }
        .expect("send_sealed takes a sealed frame");
        if let Err(e) = self.transport.send(frame) {
            return Err((tag, e.into()));
        }
        self.in_flight.push_back(Sent { epoch, want, tag });
        Ok(&self.in_flight.back().expect("queued just above").tag)
    }

    /// Awaits the answer to the oldest frame in flight and returns it
    /// beside that frame's tag (`None` if nothing is in flight); what is
    /// dropped on the way is reported to `on_event` with the awaited
    /// frame's tag.
    ///
    /// A frame sealed under an older epoch than the link's is retired
    /// as failed ([`NetError::Timeout`]: delivery uncertain) without
    /// reading the transport — the next answer may be the late one whose
    /// wait opened the current epoch. A receive failure opens a new
    /// epoch, the rule in the type docs.
    pub fn collect_oldest(
        &mut self,
        timeout: Duration,
        mut on_event: impl FnMut(&T, LinkEvent),
    ) -> Option<(T, Result<Response, ReplError>)> {
        let sent = self.in_flight.pop_front()?;
        if sent.epoch < self.epoch {
            return Some((sent.tag, Err(NetError::Timeout.into())));
        }
        let mut report = |event| on_event(&sent.tag, event);
        let answer = self.recv_response(sent.want, sent.epoch, timeout, &mut report);
        if matches!(answer, Err(ReplError::Net(_))) {
            self.epoch += 1;
        }
        Some((sent.tag, answer))
    }

    /// Gives up on whatever is in flight and opens a new epoch: the
    /// dropped frames' answers, and anything stranded from before a
    /// rejoin, rebuild or cutover, identify themselves as stale.
    pub fn abandon(&mut self) {
        self.in_flight.clear();
        self.epoch += 1;
    }

    /// Swaps in a new connection and opens a new epoch, so answers
    /// stranded on the old one identify themselves; frames in flight on
    /// the old one are given up on.
    pub fn reconnect(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
        self.abandon();
    }

    /// Waits for the response to a frame sealed under `expected_epoch`
    /// — **the** response rule:
    ///
    /// * a response from an older epoch is dropped and the wait goes on
    ///   ([`LinkEvent::StaleDropped`]); its frame was already booked as
    ///   failed when the epoch moved;
    /// * [`NAK_CORRUPT`] is exempt from that filter and becomes
    ///   [`ReplError::ChecksumMismatch`] ([`LinkEvent::CorruptNak`]): a
    ///   damaged frame cannot echo the epoch it was sealed under, so
    ///   the replica answers with whatever epoch it last saw. A
    ///   genuinely stale corrupt NAK at worst marks one in-flight frame
    ///   uncertain, while dropping a current one would shift FIFO
    ///   credit onto the *next* response and silently credit the
    ///   rejected frame;
    /// * status `want` is the answer; [`NAK`] is [`ReplError::Nak`];
    ///   any other status, or bytes that do not decode, are
    ///   [`ReplError::MissingAck`] carrying the stray byte.
    ///
    /// # Errors
    ///
    /// As above, plus [`ReplError::Net`] when nothing arrives within
    /// `timeout`, and [`ReplError::ChecksumMismatch`] for an image
    /// response damaged in flight.
    fn recv_response(
        &self,
        want: u8,
        expected_epoch: u64,
        timeout: Duration,
        on_event: &mut dyn FnMut(LinkEvent),
    ) -> Result<Response, ReplError> {
        loop {
            let frame = self.transport.recv_timeout(timeout)?;
            let ack = decode_ack(&frame).map_err(|e| match e {
                ReplError::ChecksumMismatch { .. } => e,
                _ => ReplError::MissingAck {
                    replica: self.replica,
                    got: frame.first().copied(),
                },
            })?;
            if ack.status == NAK_CORRUPT {
                on_event(LinkEvent::CorruptNak);
                return Err(ReplError::ChecksumMismatch {
                    expected: 0,
                    got: 0,
                });
            }
            if ack.epoch < expected_epoch {
                on_event(LinkEvent::StaleDropped);
                continue;
            }
            return match ack.status {
                status if status == want => {
                    let body_at = frame.len() - ack.body.len();
                    Ok(Response { frame, body_at })
                }
                NAK => Err(ReplError::Nak {
                    replica: self.replica,
                }),
                other => Err(ReplError::MissingAck {
                    replica: self.replica,
                    got: Some(other),
                }),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::tests::batch_bytes;
    use crate::{BatchFrame, Payload, PayloadBody};
    use prins_net::{channel_pair, LinkModel, SinkTransport};
    use proptest::prelude::*;

    const T: Duration = Duration::from_secs(1);

    #[test]
    fn every_frame_kind_has_its_documented_bytes() {
        // Pinned by hand, independent of the writers: lba 300 is the
        // two-byte varint [0xac, 0x02].
        let payload = |body| Payload {
            lba: Lba(300),
            body,
        };
        let cases: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (
                payload(PayloadBody::Full(vec![9, 8])).to_bytes(),
                vec![0, 0xac, 0x02, 9, 8],
            ),
            (
                payload(PayloadBody::Compressed {
                    block_len: 128,
                    data: vec![7],
                })
                .to_bytes(),
                vec![1, 0xac, 0x02, 0x80, 0x01, 7],
            ),
            (
                payload(PayloadBody::Parity(vec![5, 6])).to_bytes(),
                vec![2, 0xac, 0x02, 5, 6],
            ),
            (
                payload(PayloadBody::ParityCompressed {
                    sparse_len: 3,
                    data: vec![4],
                })
                .to_bytes(),
                vec![3, 0xac, 0x02, 3, 4],
            ),
            (
                batch_bytes(&BatchFrame {
                    payloads: vec![vec![1, 2], vec![]],
                }),
                vec![5, 2, 2, 1, 2, 0],
            ),
            (
                payload(PayloadBody::StripDelta {
                    coeff: 0x8e,
                    data: vec![1],
                })
                .to_bytes(),
                vec![8, 0xac, 0x02, 0x8e, 1],
            ),
            (encode_ack(ACK, 300), vec![0x06, 0xac, 0x02]),
            (encode_ack(NAK, 1), vec![0x15, 1]),
            (encode_ack(NAK_CORRUPT, 0), vec![0x18, 0]),
            (encode_digest_ack(2, 0x0403_0201), vec![0x19, 2, 1, 2, 3, 4]),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
        }
        for (request, tag) in [
            (Request::Digest(Lba(300)), 7u8),
            (Request::Strip(Lba(300)), 9),
            (Request::Read(Lba(300)), 10),
        ] {
            let mut out = Vec::new();
            request.put(&mut out);
            assert_eq!(out, vec![tag, 0xac, 0x02]);
        }
        // Seal and image acks: header, then the CRC over epoch + body.
        let crc = crc32c_append(crc32c(&5u64.to_le_bytes()), b"xy").to_le_bytes();
        assert_eq!(seal_frame(5, b"xy"), [&[6, 5][..], &crc, b"xy"].concat());
        for status in [STRIP_ACK, READ_ACK] {
            assert_eq!(
                encode_image_ack(status, 5, b"xy"),
                [&[status, 5][..], &crc, b"xy"].concat()
            );
        }
        assert_eq!((STRIP_ACK, READ_ACK), (0x1a, 0x1b));
    }

    #[test]
    fn batch_walk_borrows_from_the_frame() {
        let payloads = [&b"first"[..], b"", b"third payload"];
        let mut frame = vec![0xEE]; // the walk starts at the tag, wherever it sits
        put_batch(&mut frame, payloads);
        let frame = &frame[1..];
        let walked: Vec<&[u8]> = batch_payloads(frame).unwrap().collect();
        assert_eq!(walked, payloads);
        let inside = frame.as_ptr_range();
        for p in walked {
            assert!(inside.start <= p.as_ptr() && p.as_ptr_range().end <= inside.end);
        }
        // A frame that is structurally damaged anywhere yields nothing.
        assert!(batch_payloads(&frame[..frame.len() - 1]).is_err());
    }

    #[test]
    fn seal_roundtrips() {
        for epoch in [0u64, 1, 127, 128, u64::MAX] {
            let inner = vec![1u8, 2, 3, 4, 5];
            let sealed = seal_frame(epoch, &inner);
            assert!(is_sealed(&sealed));
            let (e, i) = open_frame(&sealed).unwrap();
            assert_eq!((e, i), (epoch, inner.as_slice()));
        }
    }

    #[test]
    fn open_rejects_structure_and_corruption() {
        assert!(open_frame(&[]).is_err());
        assert!(open_frame(&[0, 1, 2]).is_err());
        assert!(open_frame(&[SEAL_TAG]).is_err());
        assert!(open_frame(&[SEAL_TAG, 0x80]).is_err()); // dangling varint
        assert!(open_frame(&[SEAL_TAG, 0, 1, 2]).is_err()); // short crc
        let mut sealed = seal_frame(3, b"payload");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x01;
        assert!(matches!(
            open_frame(&sealed),
            Err(ReplError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn seal_frame_into_appends_after_existing_bytes() {
        let mut out = vec![0xEEu8; 3];
        seal_frame_into(9, b"inner bytes", &mut out);
        assert_eq!(&out[..3], &[0xEE; 3]);
        assert_eq!(&out[3..], seal_frame(9, b"inner bytes").as_slice());
    }

    #[test]
    #[should_panic(expected = "truncated under an open SealWriter")]
    fn finish_rejects_truncated_buffer() {
        let mut out = Vec::new();
        let writer = seal_begin(1, &mut out);
        out.clear();
        writer.finish(&mut out);
    }

    #[test]
    fn acks_roundtrip_in_all_shapes() {
        for (status, epoch) in [(ACK, 0u64), (ACK, 9), (NAK, 3), (NAK_CORRUPT, 1 << 40)] {
            let frame = encode_ack(status, epoch);
            assert_eq!(
                decode_ack(&frame).unwrap(),
                AckFrame {
                    status,
                    epoch,
                    body: &[]
                }
            );
        }
        // Every response carries its epoch: a bare status byte is cut short.
        for status in [ACK, NAK] {
            assert!(
                matches!(decode_ack(&[status]), Err(ReplError::Malformed(m)) if m == "truncated ack epoch")
            );
        }
        let digest = encode_digest_ack(7, 0xdead_beef);
        let ack = decode_ack(&digest).unwrap();
        assert_eq!((ack.status, ack.epoch), (DIGEST_ACK, 7));
        assert_eq!(ack.body, 0xdead_beefu32.to_le_bytes());
        for status in [STRIP_ACK, READ_ACK] {
            let frame = encode_image_ack(status, 5, b"sparse-image");
            let ack = decode_ack(&frame).unwrap();
            assert_eq!(
                (ack.status, ack.epoch, ack.body),
                (status, 5, &b"sparse-image"[..])
            );
            // Damage anywhere in the body is caught by the CRC.
            let mut bad = frame.clone();
            let last = bad.len() - 1;
            bad[last] ^= 0x40;
            assert!(matches!(
                decode_ack(&bad),
                Err(ReplError::ChecksumMismatch { .. })
            ));
        }
    }

    #[test]
    fn decode_ack_rejects_garbage() {
        assert!(decode_ack(&[]).is_err());
        assert!(decode_ack(&[0x7f]).is_err());
        assert!(decode_ack(&[NAK_CORRUPT]).is_err()); // corrupt-nak needs an epoch
        assert!(decode_ack(&[ACK, 0x80]).is_err()); // dangling varint
        assert!(decode_ack(&[ACK, 0, 9]).is_err()); // trailing byte
        assert!(decode_ack(&[DIGEST_ACK, 0, 1, 2]).is_err()); // short digest
        assert!(decode_ack(&[STRIP_ACK, 0, 1, 2]).is_err()); // short crc
    }

    #[test]
    fn requests_roundtrip_and_reject_bad_structure() {
        for request in [
            Request::Digest(Lba(12345)),
            Request::Strip(Lba(77)),
            Request::Read(Lba(4321)),
        ] {
            let mut out = Vec::new();
            request.put(&mut out);
            assert_eq!(Request::decode(&out).unwrap(), Some(request));
            assert!(Request::decode(&out[..1]).is_err(), "missing lba");
            out.push(0);
            assert!(Request::decode(&out).is_err(), "trailing byte");
        }
        // Payloads, batches and empty frames are not requests.
        for other in [&[0u8, 0][..], &[BATCH_TAG, 0], &[SEAL_TAG, 0], &[]] {
            assert_eq!(Request::decode(other).unwrap(), None);
        }
    }

    /// How long a wait that is meant to fail lasts.
    const SHORT: Duration = Duration::from_millis(1);

    /// A link whose far end the test holds, to see what was sent and to
    /// answer when it likes.
    fn wired() -> (Link<u32>, prins_net::ChannelTransport) {
        let (near, far) = channel_pair(LinkModel::t1());
        (Link::new(4, Box::new(near)), far)
    }

    /// A link that only answers, from a script.
    fn scripted(replies: Vec<Vec<u8>>) -> Link<()> {
        let sink = SinkTransport::new();
        sink.preload(replies);
        Link::new(4, Box::new(sink))
    }

    fn frame(out: &mut Vec<u8>) {
        out.extend_from_slice(b"frame");
    }

    /// Collects the oldest frame, noting what was dropped on the way.
    fn collect(
        link: &mut Link<u32>,
        timeout: Duration,
        events: &mut Vec<(u32, LinkEvent)>,
    ) -> (u32, Result<Response, ReplError>) {
        let collected = link.collect_oldest(timeout, |&tag, event| events.push((tag, event)));
        collected.expect("a frame in flight")
    }

    #[test]
    fn send_seals_under_the_current_epoch() {
        let (mut link, far) = wired();
        let len = link
            .send(1, ACK, |out| out.extend_from_slice(b"first"))
            .unwrap();
        let frame = far.recv().unwrap();
        assert_eq!(frame, seal_frame(1, b"first"));
        assert_eq!(len, frame.len());
        link.abandon();
        // The frame buffer is reused: nothing of "first" leaks through.
        link.send(2, ACK, |out| out.push(7)).unwrap();
        assert_eq!(far.recv().unwrap(), seal_frame(2, &[7]));
        assert_eq!(link.epoch(), 2);
    }

    /// A caller-retained sealed frame.
    #[derive(Debug)]
    struct Retained(Vec<u8>);

    impl AsRef<[u8]> for Retained {
        fn as_ref(&self) -> &[u8] {
            &self.0
        }
    }

    #[test]
    fn a_retained_frame_queues_under_the_epoch_in_its_seal() {
        let (near, far) = channel_pair(LinkModel::t1());
        let mut link = Link::new(4, Box::new(near));
        link.abandon();
        // Sealed under epoch 1, sent while the link is at epoch 2: the
        // seal, not the link, says which answers it.
        let sent = link.send_sealed(Retained(seal_frame(1, b"x")), ACK);
        assert_eq!(sent.unwrap().0, seal_frame(1, b"x"));
        assert_eq!(far.recv().unwrap(), seal_frame(1, b"x"));
        let (retained, answer) = link.collect_oldest(T, |_, _| {}).unwrap();
        assert!(matches!(answer, Err(ReplError::Net(NetError::Timeout))));
        assert_eq!(retained.0, seal_frame(1, b"x"));

        link.send_sealed(Retained(seal_frame(2, b"y")), ACK)
            .unwrap();
        far.send(&encode_ack(ACK, 2)).unwrap();
        let (_, answer) = link.collect_oldest(T, |_, _| {}).unwrap();
        assert!(answer.is_ok());
    }

    #[test]
    fn answers_retire_frames_oldest_first() {
        let (mut link, far) = wired();
        let mut events = Vec::new();
        assert!(link.send(7, ACK, frame).unwrap() > 5, "sealed");
        link.send(8, ACK, frame).unwrap();
        assert_eq!(link.in_flight().copied().collect::<Vec<_>>(), [7, 8]);
        far.send(&encode_ack(ACK, 1)).unwrap();
        far.send(&encode_ack(NAK, 1)).unwrap();
        let (tag, answer) = collect(&mut link, T, &mut events);
        assert!(tag == 7 && answer.is_ok());
        let (tag, answer) = collect(&mut link, T, &mut events);
        assert_eq!(tag, 8);
        assert!(matches!(answer, Err(ReplError::Nak { replica: 4 })));
        // A NAK was the frame's answer: the epoch did not move.
        assert_eq!(link.epoch(), 1);
        assert!(link.collect_oldest(T, |_, _| {}).is_none());
        assert!(events.is_empty());
    }

    #[test]
    fn receive_failure_opens_a_generation_and_the_late_answer_drops_as_stale() {
        let (mut link, far) = wired();
        let mut events = Vec::new();
        link.send(1, ACK, frame).unwrap();
        let (_, lost) = collect(&mut link, SHORT, &mut events);
        assert!(matches!(lost, Err(ReplError::Net(NetError::Timeout))));
        assert_eq!(link.epoch(), 2);

        // Frame 1's ACK surfaces late, ahead of frame 2's NAK. Credited
        // by position it would acknowledge a frame the far end refused.
        link.send(2, ACK, frame).unwrap();
        far.send(&encode_ack(ACK, 1)).unwrap();
        far.send(&encode_ack(NAK, 2)).unwrap();
        let (tag, answer) = collect(&mut link, T, &mut events);
        assert_eq!(tag, 2);
        assert!(matches!(answer, Err(ReplError::Nak { .. })));
        // The stale ack was consumed, dropped, and reported against the
        // frame being awaited.
        assert_eq!(events, [(2, LinkEvent::StaleDropped)]);
        assert!(matches!(
            link.transport.recv_timeout(SHORT),
            Err(NetError::Timeout)
        ));
    }

    #[test]
    fn a_frame_sealed_before_a_failed_receive_is_retired_without_reading() {
        // A window of two: frame 1's wait fails, which opens epoch 2
        // while frame 2 — sealed under epoch 1 — is still in flight.
        let (mut link, far) = wired();
        let mut events = Vec::new();
        link.send(1, ACK, frame).unwrap();
        link.send(2, ACK, frame).unwrap();
        let (tag, lost) = collect(&mut link, SHORT, &mut events);
        assert!(tag == 1 && matches!(lost, Err(ReplError::Net(_))));
        assert_eq!(link.epoch(), 2);

        // Frame 1's late ACK and frame 2's NAK arrive. Read under frame
        // 2's epoch, the ACK would be credited to the refused frame.
        far.send(&encode_ack(ACK, 1)).unwrap();
        far.send(&encode_ack(NAK, 1)).unwrap();
        let (tag, answer) = collect(&mut link, T, &mut events);
        assert_eq!(tag, 2);
        assert!(matches!(answer, Err(ReplError::Net(NetError::Timeout))));
        assert_eq!(link.epoch(), 2, "no receive failed, so no new epoch");
        assert!(events.is_empty(), "the transport was not read");

        // Both answers are still queued; the next frame drops them.
        link.send(3, ACK, frame).unwrap();
        far.send(&encode_ack(ACK, 2)).unwrap();
        let (tag, answer) = collect(&mut link, T, &mut events);
        assert!(tag == 3 && answer.is_ok());
        assert_eq!(events, [(3, LinkEvent::StaleDropped); 2]);
    }

    #[test]
    fn abandon_drops_the_tags_and_bumps_once() {
        let (mut link, far) = wired();
        link.send(1, ACK, frame).unwrap();
        link.send(2, ACK, frame).unwrap();
        link.abandon();
        assert_eq!(link.in_flight().len(), 0);
        assert_eq!(link.epoch(), 2);
        // Both abandoned answers surface under the old epoch; neither
        // is taken for the next frame's.
        link.send(3, ACK, frame).unwrap();
        for reply in [encode_ack(ACK, 1), encode_ack(ACK, 1), encode_ack(ACK, 2)] {
            far.send(&reply).unwrap();
        }
        let (tag, answer) = link.collect_oldest(T, |_, _| {}).unwrap();
        assert!(tag == 3 && answer.is_ok());
        assert!(matches!(
            link.transport.recv_timeout(SHORT),
            Err(NetError::Timeout)
        ));
    }

    #[test]
    fn reconnect_gives_up_on_the_old_connection() {
        let (mut link, _old) = wired();
        link.send(1, ACK, frame).unwrap();
        let (near, far) = channel_pair(LinkModel::t1());
        link.reconnect(Box::new(near));
        assert_eq!((link.in_flight().len(), link.epoch()), (0, 2));
        link.send(2, ACK, frame).unwrap();
        assert_eq!(far.recv().unwrap(), seal_frame(2, b"frame"));
    }

    #[test]
    fn stale_responses_are_dropped_and_reported() {
        let mut events = Vec::new();
        // Two answers from epoch 2 (an ack and a digest) and one from a
        // replica that has never opened a seal (epoch 0) surface ahead
        // of the real one while the link waits under epoch 3.
        let link = scripted(vec![
            encode_ack(ACK, 2),
            encode_digest_ack(2, 9),
            encode_ack(ACK, 0),
            encode_ack(ACK, 3),
        ]);
        let resp = link
            .recv_response(ACK, 3, T, &mut |e| events.push(e))
            .unwrap();
        assert_eq!(resp.body(), &[] as &[u8]);
        assert_eq!(events, vec![LinkEvent::StaleDropped; 3]);
    }

    #[test]
    fn corrupt_nak_is_exempt_from_the_stale_filter() {
        let mut events = Vec::new();
        let link = scripted(vec![encode_ack(NAK_CORRUPT, 0)]);
        let err = link
            .recv_response(ACK, 9, T, &mut |e| events.push(e))
            .unwrap_err();
        assert!(matches!(err, ReplError::ChecksumMismatch { .. }), "{err}");
        assert_eq!(events, vec![LinkEvent::CorruptNak]);
    }

    #[test]
    fn responses_classify_by_status() {
        let recv =
            |reply: Vec<u8>, want| scripted(vec![reply]).recv_response(want, 1, T, &mut |_| {});
        assert!(matches!(
            recv(encode_ack(NAK, 1), ACK),
            Err(ReplError::Nak { replica: 4 })
        ));
        assert!(matches!(
            recv(encode_ack(NAK, 1), DIGEST_ACK),
            Err(ReplError::Nak { replica: 4 })
        ));
        // A well-formed answer to a different question is misaligned.
        assert!(matches!(
            recv(encode_digest_ack(1, 5), ACK),
            Err(ReplError::MissingAck {
                replica: 4,
                got: Some(DIGEST_ACK)
            })
        ));
        assert!(matches!(
            recv(vec![0x7f, 1], ACK),
            Err(ReplError::MissingAck {
                replica: 4,
                got: Some(0x7f)
            })
        ));
        assert!(matches!(
            recv(Vec::new(), ACK),
            Err(ReplError::MissingAck {
                replica: 4,
                got: None
            })
        ));
        assert!(matches!(
            scripted(Vec::new()).recv_response(ACK, 1, T, &mut |_| {}),
            Err(ReplError::Net(_))
        ));
        let digest = recv(encode_digest_ack(1, 0xfeed), DIGEST_ACK).unwrap();
        assert_eq!(digest.digest(), Some(0xfeed));
        let frame = encode_image_ack(READ_ACK, 1, b"image");
        let image = recv(frame.clone(), READ_ACK).unwrap();
        assert_eq!(
            (image.body(), image.wire_len()),
            (&b"image"[..], frame.len())
        );
        assert_eq!(image.digest(), None);
        // An image damaged in flight is a checksum error, not a stray byte.
        let mut bad = frame;
        bad[8] ^= 1;
        assert!(matches!(
            recv(bad, READ_ACK),
            Err(ReplError::ChecksumMismatch { .. })
        ));
    }

    proptest! {
        /// Sealed frames round-trip for arbitrary epochs and inner bytes.
        #[test]
        fn prop_seal_roundtrip(epoch in any::<u64>(),
                               inner in proptest::collection::vec(any::<u8>(), 0..512)) {
            let sealed = seal_frame(epoch, &inner);
            let (e, i) = open_frame(&sealed).unwrap();
            prop_assert_eq!(e, epoch);
            prop_assert_eq!(i, inner.as_slice());
        }

        /// Any single-bit flip anywhere in a sealed frame is rejected —
        /// it never opens successfully, so corruption cannot be applied.
        #[test]
        fn prop_any_single_bit_flip_is_rejected(
                epoch in any::<u64>(),
                inner in proptest::collection::vec(any::<u8>(), 0..128),
                byte in any::<prop::sample::Index>(),
                bit in 0u8..8) {
            let mut sealed = seal_frame(epoch, &inner);
            let at = byte.index(sealed.len());
            sealed[at] ^= 1 << bit;
            prop_assert!(open_frame(&sealed).is_err());
        }

        /// Arbitrary bytes never panic the openers/decoders.
        #[test]
        fn prop_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = open_frame(&bytes);
            let _ = decode_ack(&bytes);
            let _ = Request::decode(&bytes);
        }

        /// Batch-aware sealing (single buffer, single CRC sweep) opens
        /// to the same batch as building the frame and sealing it.
        #[test]
        fn prop_batch_seal_is_byte_identical(
                epoch in any::<u64>(),
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 0..128), 0..10)) {
            let expected = seal_frame(
                epoch,
                &batch_bytes(&BatchFrame { payloads: payloads.clone() }),
            );
            let mut got = Vec::new();
            seal_batch_frame_into(epoch, &payloads, &mut got);
            prop_assert_eq!(&got, &expected);
            let (e, inner) = open_frame(&got).unwrap();
            prop_assert_eq!(e, epoch);
            prop_assert_eq!(BatchFrame::from_bytes(inner).unwrap().payloads, payloads);
        }
    }
}
