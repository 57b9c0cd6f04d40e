//! Zero-suppressing sparse encoding of parity blocks.
//!
//! A PRINS parity block `P' = A_new ⊕ A_old` is zero everywhere the write
//! did not change the block. The paper: "this parity block contains mostly
//! zeros with a very small portion of bit stream that is nonzero.
//! Therefore, it can be easily encoded to a small size parity block."
//!
//! [`SparseCodec`] extracts the maximal nonzero extents and serializes
//! them as `(gap, length, bytes)` triples with varint integers. Extents
//! separated by fewer than `min_gap` zero bytes are merged, trading a few
//! transmitted zeros for less per-segment metadata.

use std::cell::RefCell;
use std::fmt;

use crate::varint::{decode_varint, encode_varint, varint_len};
use crate::xor::xor_in_place;

/// Errors from decoding a serialized sparse parity.
#[derive(Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The byte stream ended before the structure was complete.
    Truncated,
    /// A segment lies (partly) outside the declared block length.
    SegmentOutOfBounds {
        /// Offset of the offending segment.
        offset: usize,
        /// End of the offending segment.
        end: usize,
        /// Declared block length.
        block_len: usize,
    },
    /// The declared block length does not match the expectation of the
    /// caller (a replica must apply parity to a same-sized block).
    BlockLenMismatch {
        /// Length encoded in the stream.
        encoded: usize,
        /// Length the caller expected.
        expected: usize,
    },
    /// Segments are not in strictly increasing, non-overlapping order.
    SegmentOrder,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "sparse parity stream truncated"),
            CodecError::SegmentOutOfBounds {
                offset,
                end,
                block_len,
            } => write!(
                f,
                "segment [{offset}, {end}) exceeds block length {block_len}"
            ),
            CodecError::BlockLenMismatch { encoded, expected } => write!(
                f,
                "encoded block length {encoded} does not match expected {expected}"
            ),
            CodecError::SegmentOrder => write!(f, "segments out of order or overlapping"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A parity block held as its validated wire stream:
/// `varint(block_len) varint(n) { varint(gap) varint(len) bytes }*n`,
/// the nonzero extents only. This is what PRINS puts on the wire (after
/// framing) and in the TRAP log instead of the full data block.
///
/// `B` is where the stream lives: [`SparseCodec::encode`] and
/// [`DeltaPlan::to_parity`] build an owned one (`Vec<u8>`, the
/// default), [`SparseCodec::decode`] checks one in place and borrows it
/// from the frame it arrived in. Either way the value *is* the stream —
/// [`as_bytes`](Self::as_bytes) serializes nothing — and every reader
/// walks it through [`segments`](Self::segments).
///
/// The field holds exactly the bytes of one well-formed stream: no
/// other value can be built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SparseParity<B = Vec<u8>>(B);

/// Why reading a [`SparseParity`]'s stream cannot fail.
const VALID: &str = "the stream was validated when this value was built";

impl<B: AsRef<[u8]>> SparseParity<B> {
    /// The declared block length and the `(gap, len, bytes)` triples
    /// behind the two header varints.
    fn header(&self) -> (usize, &[u8]) {
        let (block_len, used) = decode_varint(self.as_bytes()).expect(VALID);
        let rest = &self.as_bytes()[used..];
        let (_count, used) = decode_varint(rest).expect(VALID);
        (block_len as usize, &rest[used..])
    }

    /// Length of the dense block this parity describes.
    pub(crate) fn block_len(&self) -> usize {
        self.header().0
    }

    /// The wire stream. Its length is the number PRINS reports as
    /// replication traffic for one write.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_ref()
    }

    /// A copy of [`as_bytes`](Self::as_bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    /// The same parity owning its stream.
    pub fn to_owned(&self) -> SparseParity {
        SparseParity(self.to_bytes())
    }

    /// The nonzero extents as `(offset, bytes)`, ordered by offset.
    pub fn segments(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        let (block_len, mut rest) = self.header();
        let mut prev_end = 0usize;
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let (offset, data, after) = next_segment(rest, prev_end, block_len).expect(VALID);
            prev_end = offset + data.len();
            rest = after;
            Some((offset, data))
        })
    }

    /// Expands back to a dense parity block of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` differs from the encoded block length; replicas
    /// must operate on the same block size as the primary.
    pub fn to_dense(&self, len: usize) -> Vec<u8> {
        assert_eq!(len, self.block_len(), "dense expansion length mismatch");
        let mut out = vec![0u8; len];
        for (offset, data) in self.segments() {
            out[offset..offset + data.len()].copy_from_slice(data);
        }
        out
    }

    /// XOR-composition with `other`: applying the result once equals
    /// applying `self` then `other`. XOR is associative, so a whole
    /// same-block parity chain folds into a single parity — what PRINS
    /// ships for a delta resync instead of replaying the chain frame by
    /// frame (extents that cancel vanish from the fold entirely).
    ///
    /// # Panics
    ///
    /// Panics if the two parities describe different block lengths.
    pub fn fold(&self, other: &SparseParity<impl AsRef<[u8]>>) -> SparseParity {
        assert_eq!(
            self.block_len(),
            other.block_len(),
            "folding parities of different block lengths"
        );
        let mut dense = self.to_dense(self.block_len());
        other.apply_to(&mut dense);
        SparseCodec::default().encode(&dense)
    }

    /// Applies this parity to `block` in place (`block ^= P'`), i.e. the
    /// replica-side backward computation, touching only the changed
    /// extents.
    ///
    /// # Panics
    ///
    /// Panics if `block.len()` differs from the encoded block length.
    pub fn apply_to(&self, block: &mut [u8]) {
        assert_eq!(
            block.len(),
            self.block_len(),
            "parity applied to wrong-sized block"
        );
        for (offset, data) in self.segments() {
            xor_in_place(&mut block[offset..offset + data.len()], data);
        }
    }
}

/// Parses the `(gap, len, bytes)` triple at the front of `rest`, the
/// extent before it having ended at `prev_end`: the extent's offset,
/// its bytes, and what follows them in `rest`. The one reader of the
/// stream grammar — [`SparseCodec::decode`] checks a stream through it
/// and [`SparseParity::segments`] walks one through it.
fn next_segment(
    rest: &[u8],
    prev_end: usize,
    block_len: usize,
) -> Result<(usize, &[u8], &[u8]), CodecError> {
    let (gap, used) = decode_varint(rest).ok_or(CodecError::Truncated)?;
    let rest = &rest[used..];
    let (len, used) = decode_varint(rest).ok_or(CodecError::Truncated)?;
    let rest = &rest[used..];
    if len == 0 {
        return Err(CodecError::SegmentOrder);
    }
    let end_of = |from: usize, by: u64| from.checked_add(usize::try_from(by).ok()?);
    let offset = end_of(prev_end, gap).ok_or(CodecError::SegmentOrder)?;
    let end = end_of(offset, len).ok_or(CodecError::SegmentOrder)?;
    if end > block_len {
        return Err(CodecError::SegmentOutOfBounds {
            offset,
            end,
            block_len,
        });
    }
    if end - offset > rest.len() {
        return Err(CodecError::Truncated);
    }
    let (data, after) = rest.split_at(end - offset);
    Ok((offset, data, after))
}

/// Encoder/decoder between dense parity blocks and [`SparseParity`].
///
/// `min_gap` controls extent merging: runs of fewer than `min_gap` zero
/// bytes between two nonzero extents are kept inline rather than paying
/// for a fresh `(gap, len)` header. The default of 8 is near-optimal for
/// varint metadata of 2–4 bytes per segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SparseCodec {
    min_gap: usize,
}

impl SparseCodec {
    /// Creates a codec with the given merge threshold.
    pub fn new(min_gap: usize) -> Self {
        Self { min_gap }
    }

    /// Extracts the nonzero extents of `parity`.
    ///
    /// Zero runs — the bulk of a PRINS parity — are skipped with the
    /// word-at-a-time [`scan_nonzero`](crate::scan_nonzero), so a
    /// mostly-zero block is scanned at memory bandwidth rather than one
    /// byte-compare per position.
    pub fn encode(&self, parity: &[u8]) -> SparseParity {
        let n = parity.len();
        // The triples first: their count heads the stream.
        let mut body = Vec::new();
        let mut count = 0u64;
        let mut prev_end = 0usize;
        let mut next = crate::scan_nonzero(parity, 0);
        while let Some(start) = next {
            // Grow the segment: alternate nonzero stretches with zero
            // gaps shorter than `min_gap`, which stay inline.
            let mut last_nonzero = start + 1;
            loop {
                while last_nonzero < n && parity[last_nonzero] != 0 {
                    last_nonzero += 1;
                }
                match crate::scan_nonzero(parity, last_nonzero) {
                    Some(nz) if nz - last_nonzero < self.min_gap => last_nonzero = nz + 1,
                    later => {
                        next = later;
                        break;
                    }
                }
            }
            encode_varint(&mut body, (start - prev_end) as u64);
            encode_varint(&mut body, (last_nonzero - start) as u64);
            body.extend_from_slice(&parity[start..last_nonzero]);
            prev_end = last_nonzero;
            count += 1;
        }
        let mut stream = Vec::with_capacity(varint_len(n as u64) + varint_len(count) + body.len());
        encode_varint(&mut stream, n as u64);
        encode_varint(&mut stream, count);
        stream.extend_from_slice(&body);
        SparseParity(stream)
    }

    /// Scans `old` against `new` once and returns the plan of their
    /// sparse delta: the merged nonzero extents of the *virtual* parity
    /// `old ⊕ new`, never materialized, and the exact wire size of
    /// encoding them. Extent boundaries are exactly those
    /// [`encode`](Self::encode) would produce on
    /// `forward_parity(old, new)` — the same merge rule, driven by
    /// a word-at-a-time mismatch scan of the two images instead of a dense
    /// scratch block.
    ///
    /// This is the hot path's one pass over the images: the plan answers
    /// the sparse-versus-full size question and then
    /// [`encode_into`](DeltaPlan::encode_into) writes the stream from
    /// the recorded extents without looking for them again.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn plan_delta<'a>(&self, old: &'a [u8], new: &'a [u8]) -> DeltaPlan<'a> {
        assert_eq!(old.len(), new.len(), "delta of different-sized blocks");
        let PlanBuffers {
            mut extents,
            mut stream,
        } = PLAN_BUFFERS
            .try_with(|spare| std::mem::take(&mut *spare.borrow_mut()))
            .unwrap_or_default();
        extents.clear();
        stream.clear();
        let mut payload = 0usize;
        let mut prev_end = 0usize;
        let mut next = crate::xor::scan_mismatch(old, new, 0);
        while let Some(start) = next {
            // Grow the extent: alternate mismatching stretches with
            // equal gaps shorter than `min_gap`, which stay inline.
            let mut last = start + 1;
            loop {
                last = mismatch_run_end(old, new, last);
                match crate::xor::scan_mismatch(old, new, last) {
                    Some(nz) if nz - last < self.min_gap => last = nz + 1,
                    later => {
                        next = later;
                        break;
                    }
                }
            }
            payload += varint_len((start - prev_end) as u64);
            payload += varint_len((last - start) as u64);
            payload += last - start;
            prev_end = last;
            extents.push((start, last));
        }
        let wire_len = varint_len(old.len() as u64) + varint_len(extents.len() as u64) + payload;
        DeltaPlan {
            old,
            new,
            buffers: PlanBuffers { extents, stream },
            wire_len,
        }
    }

    /// Segment count and exact wire size of the sparse encoding of
    /// `old ⊕ new`, computed without allocating the parity or the
    /// encoding — [`plan_delta`](Self::plan_delta) for callers that only
    /// want the two numbers.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn delta_wire_info(&self, old: &[u8], new: &[u8]) -> (usize, usize) {
        let plan = self.plan_delta(old, new);
        (plan.segments(), plan.wire_len())
    }

    /// Appends the sparse encoding of `old ⊕ new` directly to `out`,
    /// byte-identical to
    /// `self.encode(&forward_parity(old, new)).to_bytes()` but with zero
    /// intermediate allocations: segment XOR results are computed
    /// straight into the output buffer.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn encode_delta_into(&self, old: &[u8], new: &[u8], out: &mut Vec<u8>) {
        self.plan_delta(old, new).encode_into(out);
    }

    /// Checks that `bytes` starts with a well-formed stream for a block
    /// of `expected_block_len` and returns exactly that prefix, borrowed
    /// (the stream is self-delimiting; what follows it is the caller's).
    /// Nothing is sized from a number read off `bytes`: a count with too
    /// few triples behind it is a truncation like any other.
    ///
    /// # Errors
    ///
    /// * [`CodecError::Truncated`] if the stream ends early,
    /// * [`CodecError::BlockLenMismatch`] if the encoded block length is
    ///   not `expected_block_len`,
    /// * [`CodecError::SegmentOutOfBounds`] /
    ///   [`CodecError::SegmentOrder`] on malformed structure.
    pub fn decode<'a>(
        &self,
        bytes: &'a [u8],
        expected_block_len: usize,
    ) -> Result<SparseParity<&'a [u8]>, CodecError> {
        let (encoded, used) = decode_varint(bytes).ok_or(CodecError::Truncated)?;
        if encoded != expected_block_len as u64 {
            return Err(CodecError::BlockLenMismatch {
                encoded: encoded as usize,
                expected: expected_block_len,
            });
        }
        let mut rest = &bytes[used..];
        let (count, used) = decode_varint(rest).ok_or(CodecError::Truncated)?;
        rest = &rest[used..];
        let mut prev_end = 0usize;
        for _ in 0..count {
            let (offset, data, after) = next_segment(rest, prev_end, expected_block_len)?;
            prev_end = offset + data.len();
            rest = after;
        }
        Ok(SparseParity(&bytes[..bytes.len() - rest.len()]))
    }
}

/// Bytes of a mismatching run walked one at a time before
/// [`mismatch_run_end`] switches to words. Database-page deltas are made
/// of runs of a few bytes (a counter, a timestamp, a balance) that end
/// inside this prefix and never pay for setting up the word loop;
/// measured on the benchmark's `tpcc-stream`, going straight to words
/// cost 3.4 % more CPU per write (worse in 5 of 6 alternating pairs).
const RUN_PREFIX: usize = 8;

/// First index at or after `from` where `old` and `new` agree (the end
/// of the mismatching run `from` is in), or their length.
///
/// Past the byte-wise prefix the run is walked a word at a time: a word
/// of `old ⊕ new` extends the run while none of its bytes is zero, and
/// the lowest zero byte — found with the borrow trick, exact for the
/// lowest one — is where the images agree again.
fn mismatch_run_end(old: &[u8], new: &[u8], from: usize) -> usize {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let n = old.len();
    let mut at = from;
    let prefix_end = (from + RUN_PREFIX).min(n);
    while at < prefix_end {
        if old[at] == new[at] {
            return at;
        }
        at += 1;
    }
    let mut old_words = old[at..].chunks_exact(8);
    let mut new_words = new[at..].chunks_exact(8);
    for (a, b) in old_words.by_ref().zip(new_words.by_ref()) {
        let x = u64::from_le_bytes(a.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        let zero_bytes = x.wrapping_sub(LOW) & !x & HIGH;
        if zero_bytes != 0 {
            return at + (zero_bytes.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    while at < n && old[at] != new[at] {
        at += 1;
    }
    at
}

/// Appends the sparse stream of `extents` over `old ⊕ new` to `out`.
fn emit_extents(old: &[u8], new: &[u8], extents: &[(usize, usize)], out: &mut Vec<u8>) {
    encode_varint(out, old.len() as u64);
    encode_varint(out, extents.len() as u64);
    let mut prev_end = 0usize;
    for &(start, end) in extents {
        encode_varint(out, (start - prev_end) as u64);
        encode_varint(out, (end - start) as u64);
        let at = out.len();
        out.extend_from_slice(&old[start..end]);
        xor_in_place(&mut out[at..], &new[start..end]);
        prev_end = end;
    }
}

/// What a [`DeltaPlan`] fills: the `(start, end)` extent list and the
/// buffer its sparse stream is encoded into on demand (empty until
/// [`DeltaPlan::stream`] asks).
#[derive(Debug, Default)]
struct PlanBuffers {
    extents: Vec<(usize, usize)>,
    stream: Vec<u8>,
}

thread_local! {
    /// The buffers of this thread's last dropped [`DeltaPlan`], for the
    /// next one: steady-state planning allocates nothing.
    static PLAN_BUFFERS: RefCell<PlanBuffers> = const {
        RefCell::new(PlanBuffers {
            extents: Vec::new(),
            stream: Vec::new(),
        })
    };
}

/// One scan's worth of knowledge about the sparse delta between two
/// images of a block — see [`SparseCodec::plan_delta`].
///
/// The plan borrows both images, so the extents it recorded can only be
/// emitted against the bytes they were found in. Its buffers come from,
/// and on drop return to, a per-thread spare; plans may nest (an inner
/// one just starts with empty buffers).
#[derive(Debug)]
pub struct DeltaPlan<'a> {
    old: &'a [u8],
    new: &'a [u8],
    buffers: PlanBuffers,
    wire_len: usize,
}

impl<'a> DeltaPlan<'a> {
    /// The old image the plan was scanned from.
    pub fn old_image(&self) -> &'a [u8] {
        self.old
    }

    /// The new image the plan was scanned from.
    pub fn new_image(&self) -> &'a [u8] {
        self.new
    }

    /// Number of extents the sparse encoding carries.
    pub fn segments(&self) -> usize {
        self.buffers.extents.len()
    }

    /// Exact length of the sparse encoding — what
    /// [`encode_into`](Self::encode_into) appends.
    pub fn wire_len(&self) -> usize {
        self.wire_len
    }

    /// Appends the sparse encoding to `out`, XOR-ing each extent
    /// straight into it.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len);
        emit_extents(self.old, self.new, &self.buffers.extents, out);
    }

    /// The sparse encoding as a value of its own — what a log keeps
    /// after the images are gone. Byte for byte what
    /// [`encode`](SparseCodec::encode) makes of `forward_parity(old, new)`
    /// and what [`decode`](SparseCodec::decode) accepts.
    pub fn to_parity(&self) -> SparseParity {
        let mut stream = Vec::new();
        self.encode_into(&mut stream);
        SparseParity(stream)
    }

    /// The sparse encoding as one slice, for a consumer that needs it
    /// contiguous (a compressor): encoded once, into the plan's own
    /// recycled buffer.
    pub fn stream(&mut self) -> &[u8] {
        let PlanBuffers { extents, stream } = &mut self.buffers;
        if stream.is_empty() {
            stream.reserve(self.wire_len);
            emit_extents(self.old, self.new, extents, stream);
        }
        stream
    }
}

impl Drop for DeltaPlan<'_> {
    fn drop(&mut self) {
        let buffers = std::mem::take(&mut self.buffers);
        // A thread that is tearing down has no spare to return to.
        let _ = PLAN_BUFFERS.try_with(|spare| *spare.borrow_mut() = buffers);
    }
}

impl Default for SparseCodec {
    /// A codec with `min_gap = 8`.
    fn default() -> Self {
        Self::new(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward_parity;
    use proptest::prelude::*;

    fn roundtrip(codec: SparseCodec, parity: &[u8]) {
        let sp = codec.encode(parity);
        let back = codec.decode(sp.as_bytes(), parity.len()).unwrap();
        assert_eq!(back.to_owned(), sp, "decode keeps the stream it checked");
        assert_eq!(back.to_dense(parity.len()), parity);
    }

    /// The extent walker as it stood before the word-wide rewrite —
    /// mismatching runs walked one byte at a time — kept verbatim as
    /// the oracle for [`SparseCodec::plan_delta`].
    fn reference_delta_segments(codec: SparseCodec, old: &[u8], new: &[u8]) -> Vec<(usize, usize)> {
        let n = old.len();
        let mut extents = Vec::new();
        let mut next = crate::xor::scan_mismatch(old, new, 0);
        while let Some(start) = next {
            let mut last = start + 1;
            loop {
                while last < n && old[last] != new[last] {
                    last += 1;
                }
                match crate::xor::scan_mismatch(old, new, last) {
                    Some(nz) if nz - last < codec.min_gap => last = nz + 1,
                    later => {
                        next = later;
                        break;
                    }
                }
            }
            extents.push((start, last));
        }
        extents
    }

    /// Plans `old -> new` and checks extents, wire size and emitted
    /// bytes against the byte-wise walker and the classic
    /// materialize-then-encode path: planned, encoded and decoded are
    /// one value.
    fn assert_plan_matches_reference(codec: SparseCodec, old: &[u8], new: &[u8]) {
        let mut plan = codec.plan_delta(old, new);
        assert_eq!(
            plan.buffers.extents,
            reference_delta_segments(codec, old, new)
        );
        let classic = codec.encode(&forward_parity(old, new));
        assert_eq!(plan.segments(), classic.segments().count());
        assert_eq!(plan.wire_len(), classic.as_bytes().len());
        assert_eq!(plan.to_parity(), classic);
        let want = classic.as_bytes();
        assert_eq!(codec.decode(want, old.len()).unwrap().to_owned(), classic);
        let mut fused = vec![0xEEu8; 3]; // pre-existing bytes must be preserved
        plan.encode_into(&mut fused);
        assert_eq!(&fused[..3], &[0xEEu8; 3]);
        assert_eq!(&fused[3..], want);
        assert_eq!(plan.stream(), want);
        assert_eq!(plan.stream(), want, "the stream is encoded once");
    }

    #[test]
    fn run_walker_matches_the_bytewise_oracle_at_every_length_gap_and_alignment() {
        // A run of `run` mismatching bytes at `align`, `gap` equal
        // bytes, a second short run — around the byte-wise prefix, every
        // word alignment, and both sides of every `min_gap`.
        let old: Vec<u8> = (0..160usize).map(|i| (i * 7 + 3) as u8).collect();
        for codec in [
            SparseCodec::new(1),
            SparseCodec::default(),
            SparseCodec::new(32),
        ] {
            for run in 0..40usize {
                for gap in 0..20usize {
                    for align in 0..8usize {
                        let mut new = old.clone();
                        let second = align + run + gap;
                        for b in &mut new[align..align + run] {
                            *b ^= 0x55;
                        }
                        for b in &mut new[second..second + 3] {
                            *b ^= 0xAA;
                        }
                        assert_plan_matches_reference(codec, &old, &new);
                        // The same first run, ending exactly at the tail.
                        let tail = align + run;
                        assert_plan_matches_reference(codec, &old[..tail], &new[..tail]);
                        // ... and with the whole tail mismatching behind it.
                        for b in &mut new[second..] {
                            *b = !*b;
                        }
                        assert_plan_matches_reference(codec, &old, &new);
                    }
                }
            }
        }
    }

    #[test]
    fn nested_plans_do_not_share_buffers() {
        let old = vec![1u8; 256];
        let mut new = old.clone();
        new[10..50].fill(2);
        let mut other = old.clone();
        other[100..103].fill(9);
        let codec = SparseCodec::default();
        let mut outer = codec.plan_delta(&old, &new);
        let outer_stream = outer.stream().to_vec();
        {
            let mut inner = codec.plan_delta(&old, &other);
            assert_eq!(inner.segments(), 1);
            assert_ne!(inner.stream(), outer_stream);
        }
        assert_eq!(outer.stream(), outer_stream);
        assert_eq!(outer.segments(), 1);
        drop(outer);
        // The recycled buffers start the next plan clean.
        assert_plan_matches_reference(codec, &old, &other);
    }

    #[test]
    fn all_zero_parity_is_tiny() {
        let parity = vec![0u8; 8192];
        let sp = SparseCodec::default().encode(&parity);
        assert!(sp.header().1.is_empty());
        assert!(sp.as_bytes().len() <= 3);
        roundtrip(SparseCodec::default(), &parity);
    }

    #[test]
    fn single_extent() {
        let mut parity = vec![0u8; 4096];
        parity[100..228].fill(0x55);
        let sp = SparseCodec::default().encode(&parity);
        let segments: Vec<_> = sp.segments().collect();
        assert_eq!(segments, [(100, &[0x55u8; 128][..])]);
        // metadata is a handful of bytes
        assert!(sp.as_bytes().len() < 128 + 10);
        roundtrip(SparseCodec::default(), &parity);
    }

    #[test]
    fn nearby_extents_are_merged_by_min_gap() {
        let mut parity = vec![0u8; 1024];
        parity[10] = 1;
        parity[14] = 1; // 3 zero gap < min_gap=8 → merged
        parity[500] = 1; // far away → separate segment
        let sp = SparseCodec::default().encode(&parity);
        assert_eq!(sp.segments().count(), 2);
        assert_eq!(sp.segments().next(), Some((10, &[1u8, 0, 0, 0, 1][..])));
        roundtrip(SparseCodec::default(), &parity);
    }

    #[test]
    fn fold_with_self_cancels() {
        let mut parity = vec![0u8; 256];
        parity[40..72].fill(0xAA);
        let sp = SparseCodec::default().encode(&parity);
        assert!(
            sp.fold(&sp).header().1.is_empty(),
            "X ^ X must fold to nothing"
        );
    }

    #[test]
    fn min_gap_one_splits_every_run() {
        let mut parity = vec![0u8; 64];
        parity[1] = 1;
        parity[3] = 1;
        let sp = SparseCodec::new(1).encode(&parity);
        assert_eq!(sp.segments().count(), 2);
        roundtrip(SparseCodec::new(1), &parity);
    }

    #[test]
    fn trailing_zeros_are_not_included() {
        let mut parity = vec![0u8; 32];
        parity[0] = 9;
        parity[2] = 9; // merged with gap 1, then 29 zeros follow
        let sp = SparseCodec::default().encode(&parity);
        assert_eq!(sp.segments().collect::<Vec<_>>(), [(0, &[9u8, 0, 9][..])]);
    }

    #[test]
    fn apply_to_equals_dense_xor() {
        let old: Vec<u8> = (0..512).map(|i| (i % 251) as u8).collect();
        let mut new = old.clone();
        new[50..60].fill(0);
        new[400] = 7;
        let parity = forward_parity(&old, &new);
        let sp = SparseCodec::default().encode(&parity);
        let mut block = old.clone();
        sp.apply_to(&mut block);
        assert_eq!(block, new);
    }

    #[test]
    fn decode_rejects_wrong_block_len() {
        let sp = SparseCodec::default().encode(&[0u8; 100]);
        assert_eq!(
            SparseCodec::default().decode(sp.as_bytes(), 200),
            Err(CodecError::BlockLenMismatch {
                encoded: 100,
                expected: 200
            })
        );
    }

    #[test]
    fn decode_rejects_truncation_at_every_cut() {
        let mut parity = vec![0u8; 256];
        parity[3..10].fill(1);
        parity[100..120].fill(2);
        let sp = SparseCodec::default().encode(&parity);
        let bytes = sp.as_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SparseCodec::default().decode(&bytes[..cut], 256).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn decode_rejects_out_of_bounds_segment() {
        // Hand-craft: block_len=4, 1 segment, gap=0, len=8.
        let mut bytes = Vec::new();
        crate::encode_varint(&mut bytes, 4);
        crate::encode_varint(&mut bytes, 1);
        crate::encode_varint(&mut bytes, 0);
        crate::encode_varint(&mut bytes, 8);
        bytes.extend_from_slice(&[1u8; 8]);
        assert!(matches!(
            SparseCodec::default().decode(&bytes, 4),
            Err(CodecError::SegmentOutOfBounds { .. })
        ));
    }

    #[test]
    fn decode_rejects_zero_length_segment() {
        let mut bytes = Vec::new();
        crate::encode_varint(&mut bytes, 16);
        crate::encode_varint(&mut bytes, 1);
        crate::encode_varint(&mut bytes, 0);
        crate::encode_varint(&mut bytes, 0);
        assert_eq!(
            SparseCodec::default().decode(&bytes, 16),
            Err(CodecError::SegmentOrder)
        );
    }

    #[test]
    fn a_count_with_nothing_behind_it_is_a_truncation() {
        // varint(4096) varint(2^40): eight bytes claiming a trillion
        // segments. Nothing may be sized from the claim.
        let mut bytes = Vec::new();
        crate::encode_varint(&mut bytes, 4096);
        crate::encode_varint(&mut bytes, 1 << 40);
        assert_eq!(bytes.len(), 8);
        assert_eq!(
            SparseCodec::default().decode(&bytes, 4096),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn decode_keeps_exactly_the_prefix_it_consumed() {
        let mut parity = vec![0u8; 64];
        parity[5..9].fill(7);
        let canonical = SparseCodec::default().encode(&parity);
        // The stream is self-delimiting: what follows it is not part of
        // the value.
        let mut trailed = canonical.to_bytes();
        trailed.extend_from_slice(b"next record");
        let got = SparseCodec::default().decode(&trailed, 64).unwrap();
        assert_eq!(got.to_owned(), canonical);
        // An overlong block length (0xC0 0x00 for 64) is accepted, and
        // the value is the bytes as they arrived — one longer than the
        // canonical stream — describing the same parity.
        let mut overlong = vec![0xC0, 0x00];
        overlong.extend_from_slice(&canonical.as_bytes()[1..]);
        overlong.extend_from_slice(b"next record");
        let got = SparseCodec::default().decode(&overlong, 64).unwrap();
        assert_eq!(got.as_bytes(), &overlong[..canonical.as_bytes().len() + 1]);
        assert_eq!(got.to_dense(64), parity);
    }

    #[test]
    fn wire_size_beats_dense_for_sparse_changes() {
        // The headline PRINS scenario: 8KB block, ~10% changed.
        let old = vec![0xabu8; 8192];
        let mut new = old.clone();
        new[1000..1800].fill(0xcd);
        let parity = forward_parity(&old, &new);
        let sp = SparseCodec::default().encode(&parity);
        assert!(sp.as_bytes().len() < 8192 / 9, "expected ~10x reduction");
    }

    proptest! {
        #[test]
        fn prop_roundtrip_arbitrary_parity(parity in proptest::collection::vec(any::<u8>(), 0..2048),
                                           min_gap in 1usize..32) {
            roundtrip(SparseCodec::new(min_gap), &parity);
        }

        #[test]
        fn prop_fold_composes(base in proptest::collection::vec(any::<u8>(), 1..512),
                              p1 in proptest::collection::vec(any::<u8>(), 1..512),
                              p2 in proptest::collection::vec(any::<u8>(), 1..512)) {
            let n = base.len().min(p1.len()).min(p2.len());
            let codec = SparseCodec::default();
            let (a, b) = (codec.encode(&p1[..n]), codec.encode(&p2[..n]));
            let mut chained = base[..n].to_vec();
            a.apply_to(&mut chained);
            b.apply_to(&mut chained);
            let mut folded = base[..n].to_vec();
            a.fold(&b).apply_to(&mut folded);
            prop_assert_eq!(chained, folded);
        }

        #[test]
        fn prop_sparse_apply_matches_dense(old in proptest::collection::vec(any::<u8>(), 1..1024),
                                           flips in proptest::collection::vec((any::<prop::sample::Index>(), 1u8..), 0..16)) {
            let mut new = old.clone();
            for (idx, v) in &flips {
                new[idx.index(old.len())] ^= v;
            }
            let parity = forward_parity(&old, &new);
            let sp = SparseCodec::default().encode(&parity);
            let mut block = old.clone();
            sp.apply_to(&mut block);
            prop_assert_eq!(block, new);
        }

        /// Correctness of folding a block's parity chain, as resync's
        /// `TrapLog::fold_since` does: for any chain old → mid → new,
        /// applying the folded parity
        /// `old ⊕ new = (old ⊕ mid) ⊕ (mid ⊕ new)` in one step leaves
        /// the block exactly where applying the two per-write parities
        /// in sequence would.
        #[test]
        fn prop_folded_parity_equals_sequential_application(
            old in proptest::collection::vec(any::<u8>(), 1..1024),
            mid_seed in any::<u64>(),
            new_seed in any::<u64>()) {
            let mutate = |base: &[u8], seed: u64| -> Vec<u8> {
                // Sparse-ish mutation: flip a few regions.
                let mut out = base.to_vec();
                let n = out.len();
                for k in 0..1 + (seed % 4) as usize {
                    let at = (seed.wrapping_mul(k as u64 * 2 + 7) as usize) % n;
                    let len = 1 + (seed.wrapping_shr(8) as usize + k) % 32;
                    for b in &mut out[at..(at + len).min(n)] {
                        *b ^= (seed.wrapping_shr(16) as u8) | 1;
                    }
                }
                out
            };
            let mid = mutate(&old, mid_seed);
            let new = mutate(&mid, new_seed);
            let codec = SparseCodec::default();

            let p1 = codec.encode(&forward_parity(&old, &mid));
            let p2 = codec.encode(&forward_parity(&mid, &new));
            let folded = codec.encode(&forward_parity(&old, &new));

            let mut sequential = old.clone();
            p1.apply_to(&mut sequential);
            p2.apply_to(&mut sequential);

            let mut one_shot = old.clone();
            folded.apply_to(&mut one_shot);

            prop_assert_eq!(&sequential, &new);
            prop_assert_eq!(one_shot, sequential);
        }

        /// The fused delta encoder must be byte-identical to the
        /// materialize-then-encode path — frames built on the pooled hot
        /// path and the classic path are indistinguishable on the wire.
        #[test]
        fn prop_encode_delta_into_is_byte_identical(
            old in proptest::collection::vec(any::<u8>(), 0..1024),
            flips in proptest::collection::vec((any::<prop::sample::Index>(), 1u8..), 0..16),
            min_gap in 1usize..32) {
            let mut new = old.clone();
            for (idx, v) in &flips {
                if !new.is_empty() {
                    let at = idx.index(new.len());
                    new[at] ^= v;
                }
            }
            let codec = SparseCodec::new(min_gap);
            let classic = codec.encode(&forward_parity(&old, &new));
            let want = classic.as_bytes();

            let mut fused = vec![0xEEu8; 3]; // pre-existing bytes must be preserved
            codec.encode_delta_into(&old, &new, &mut fused);
            prop_assert_eq!(&fused[..3], &[0xEEu8; 3][..]);
            prop_assert_eq!(&fused[3..], want);

            let (count, wire) = codec.delta_wire_info(&old, &new);
            prop_assert_eq!(count, classic.segments().count());
            prop_assert_eq!(wire, want.len());
        }

        /// The same identity on dense 8 KB rewrites — the shape whose
        /// long mismatching runs take the word-wide walker: every byte
        /// redrawn from a small alphabet (prose over prose agrees by
        /// chance every dozen bytes or so) or from all 256 values, with
        /// a few stretches left untouched so extents also split.
        #[test]
        fn prop_encode_delta_into_is_byte_identical_on_dense_blocks(
            seed in any::<u64>(),
            alphabet_pick in 0usize..3,
            kept in proptest::collection::vec((0usize..8192, 1usize..64), 0..6),
            min_gap in 1usize..32) {
            use rand::{RngExt, SeedableRng};
            let alphabet = [2u8, 16, 255][alphabet_pick];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let old: Vec<u8> = (0..8192).map(|_| rng.random_range(0..=alphabet)).collect();
            let mut new: Vec<u8> = (0..8192).map(|_| rng.random_range(0..=alphabet)).collect();
            for (at, len) in kept {
                let end = (at + len).min(8192);
                new[at..end].copy_from_slice(&old[at..end]);
            }
            assert_plan_matches_reference(SparseCodec::new(min_gap), &old, &new);
        }

        #[test]
        fn prop_segments_sorted_nonoverlapping(parity in proptest::collection::vec(any::<u8>(), 0..1024)) {
            let sp = SparseCodec::default().encode(&parity);
            let mut prev_end = 0usize;
            for (offset, data) in sp.segments() {
                prop_assert!(offset >= prev_end);
                prop_assert!(!data.is_empty());
                prop_assert!(*data.first().unwrap() != 0);
                prop_assert!(*data.last().unwrap() != 0);
                prev_end = offset + data.len();
            }
        }
    }
}
