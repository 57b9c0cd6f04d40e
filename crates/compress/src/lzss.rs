//! Greedy LZ77/LZSS compressor with hash-chain match finding.
//!
//! Token stream format (all integers LEB128 varints):
//!
//! ```text
//! stream  := token*
//! token   := literal | match
//! literal := varint(len << 1)       len >= 1, followed by `len` raw bytes
//! match   := varint(len << 1 | 1)   len >= MIN_MATCH
//!            varint(distance)       1 <= distance <= window
//! ```
//!
//! The encoder is greedy with a bounded hash-chain search — the same
//! design point as zlib's fast levels, which is what a replication engine
//! would actually run in its data path.

use std::cell::RefCell;

use crate::{Codec, CompressError};

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1 << 16;
const HASH_BITS: usize = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Upper bound on `expected_len` accepted by [`Lzss::decompress`].
///
/// Wire frames carry length claims the decoder must not trust: a corrupt
/// or hostile header must never translate into an attacker-chosen
/// allocation. The budget is far above the largest block the replication
/// stack ships (64 KB) and far below anything that could hurt; claims
/// beyond it are rejected as [`CompressError::BadToken`] before any
/// buffer is reserved.
pub const MAX_DECODE_LEN: usize = 1 << 20;

fn encode_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn decode_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CompressError> {
    let mut value: u64 = 0;
    for i in 0..10 {
        let byte = *buf.get(*pos + i).ok_or(CompressError::Truncated)?;
        if i == 9 && byte > 0x01 {
            return Err(CompressError::BadToken);
        }
        value |= ((byte & 0x7f) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            *pos += i + 1;
            return Ok(value);
        }
    }
    Err(CompressError::BadToken)
}

fn hash4(data: &[u8], pos: usize) -> usize {
    let v = u32::from_le_bytes(
        data[pos..pos + MIN_MATCH]
            .try_into()
            .expect("a MIN_MATCH-byte window"),
    );
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[c..]` and `data[pos..]`, capped
/// at `max_len`, compared eight bytes at a time: the first differing
/// byte of a word pair is the lowest nonzero byte of their XOR.
fn match_len(data: &[u8], c: usize, pos: usize, max_len: usize) -> usize {
    let (a, b) = (&data[c..c + max_len], &data[pos..pos + max_len]);
    let mut len = 0usize;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max_len && a[len] == b[len] {
        len += 1;
    }
    len
}

/// Appends literal-run tokens covering `run`.
fn put_literals(out: &mut Vec<u8>, run: &[u8]) {
    for piece in run.chunks(1 << 20) {
        encode_varint(out, (piece.len() as u64) << 1);
        out.extend_from_slice(piece);
    }
}

/// Appends the literals pending ahead of a match, then the match token.
///
/// Out of line: inlined into the scan loop, its buffer growth paths
/// cost the literal-only path registers it has no use for.
#[inline(never)]
fn put_match(out: &mut Vec<u8>, pending: &[u8], len: usize, dist: usize) {
    put_literals(out, pending);
    encode_varint(out, ((len as u64) << 1) | 1);
    encode_varint(out, dist as u64);
}

/// The match finder's hash chains, kept per thread and reused by every
/// [`Lzss::compress_into`] call on it.
///
/// Positions are stored as `base + pos` in `u32`, where `base` is the
/// running total of bytes this thread has compressed. An entry names a
/// position of the *current* input exactly when its distance from the
/// current offset is no more than the current position, so whatever
/// earlier calls left behind reads as "no candidate" and neither table
/// is cleared between calls. Only when `base` would pass `u32::MAX` is
/// `head` zeroed and `base` restarted at 1 (offset 0 stays unused, so a
/// zeroed slot is always farther away than the position).
///
/// `prev[pos & mask]` links a position to the previous one with the
/// same hash. The ring holds `min(window, len)` slots rounded up to a
/// power of two: a slot is only read for a candidate inside the window,
/// and only a position a full ring later — outside it — overwrites it.
struct MatchFinder {
    head: Vec<u32>,
    prev: Vec<u32>,
    base: u32,
}

thread_local! {
    static FINDER: RefCell<MatchFinder> = const {
        RefCell::new(MatchFinder {
            head: Vec::new(),
            prev: Vec::new(),
            base: 1,
        })
    };
}

impl MatchFinder {
    /// Readies the tables for an input of `len` bytes searched with
    /// `window`; returns them with the offset of the input's position 0.
    fn begin(&mut self, len: usize, window: usize) -> (&mut [u32; HASH_SIZE], &mut [u32], u32) {
        if self.head.is_empty() {
            self.head = vec![0; HASH_SIZE];
        }
        if len >= (u32::MAX - self.base) as usize {
            self.head.fill(0);
            self.base = 1;
        }
        let ring = window.min(len).next_power_of_two();
        if self.prev.len() < ring {
            self.prev.resize(ring, 0);
        }
        let base = self.base;
        // Only an input of 4 GiB wraps here; see `compress_into`.
        self.base = base.wrapping_add(len as u32);
        let head = (&mut self.head[..])
            .try_into()
            .expect("head holds HASH_SIZE slots");
        (head, &mut self.prev[..ring], base)
    }
}

/// Pushes `pos` (offset `cur`) onto the chain of its hash `h`.
fn chain_push(head: &mut [u32; HASH_SIZE], prev: &mut [u32], h: usize, pos: usize, cur: u32) {
    let mask = prev.len() - 1;
    prev[pos & mask] = std::mem::replace(&mut head[h], cur);
}

/// A [`Lzss::compress_bounded`] run given up on: its stream had
/// already outgrown the caller's limit. The default, all zero, stands
/// for a trial that had lost before a byte was read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Abandoned {
    /// Input bytes the run had encoded, or set aside as literals, when
    /// it stopped.
    pub consumed: usize,
    /// Stream bytes those had cost. `produced / consumed` is the ratio
    /// observed over the prefix — the whole stream's exact ratio when
    /// `consumed` is the input's length.
    pub produced: usize,
}

/// LZSS codec configuration.
///
/// # Example
///
/// ```
/// use prins_compress::{Codec, Lzss};
///
/// let fast = Lzss::fast();
/// let thorough = Lzss::new(1 << 15, 128);
/// let data = vec![7u8; 1000];
/// assert!(thorough.compress(&data).len() <= fast.compress(&data).len() + 8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lzss {
    window: usize,
    max_chain: usize,
}

impl Lzss {
    /// Creates a codec with a given window size (clamped to 32 KB) and
    /// hash-chain search depth.
    pub fn new(window: usize, max_chain: usize) -> Self {
        Self {
            window: window.clamp(256, 1 << 15),
            max_chain: max_chain.max(1),
        }
    }

    /// A fast configuration (shallow chains), comparable to `zlib -1`.
    pub fn fast() -> Self {
        Self::new(1 << 15, 8)
    }

    /// Walks the chain starting at `entry` for the longest match at
    /// `pos` (offset `cur`), the nearest candidate winning ties.
    ///
    /// Kept out of line: inlined, its set-up is paid at every position,
    /// and on incompressible input most positions have no candidate.
    #[inline(never)]
    fn find_match(
        &self,
        data: &[u8],
        pos: usize,
        cur: u32,
        mut entry: u32,
        prev: &[u32],
    ) -> Option<(usize, usize)> {
        let mask = prev.len() - 1;
        let reach = pos.min(self.window) as u32;
        let max_len = (data.len() - pos).min(MAX_MATCH);
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        for _ in 0..self.max_chain {
            // One compare rejects a candidate beyond the window, every
            // entry left by an earlier call, and distance 0 (it wraps).
            let dist = cur.wrapping_sub(entry);
            if dist.wrapping_sub(1) >= reach {
                break;
            }
            let c = pos - dist as usize;
            // Quick reject: compare the byte one past the current best
            // (`best_len < max_len` for as long as the search runs).
            if data[c + best_len] == data[pos + best_len] {
                let len = match_len(data, c, pos, max_len);
                if len > best_len {
                    best_len = len;
                    best_dist = dist as usize;
                    if len == max_len {
                        break;
                    }
                }
            }
            // Chains are built by pushing strictly increasing offsets,
            // so a well-formed chain is strictly decreasing when walked;
            // terminate explicitly on any non-decreasing link so a
            // corrupted slot ends the chain instead of teleporting the
            // search to an unrelated position.
            let next = prev[c & mask];
            if next >= entry {
                break;
            }
            entry = next;
        }
        (best_len >= MIN_MATCH).then_some((best_len, best_dist))
    }

    /// Appends the compressed form of `data` to `out` — the primitive
    /// behind [`Codec::compress`], for callers that encode straight
    /// after a header in a buffer they already hold.
    ///
    /// Apart from `out`'s own growth this allocates nothing in steady
    /// state: the match finder's tables are a per-thread scratch that
    /// is neither reallocated nor refilled between calls.
    ///
    /// An input of 4 GiB or more outruns the scratch's 32-bit offsets
    /// within one call. Its stream is still valid — every candidate is
    /// bounded by the position and verified byte for byte — but may
    /// miss matches; nothing above [`MAX_DECODE_LEN`] decodes anyway.
    pub fn compress_into(&self, data: &[u8], out: &mut Vec<u8>) {
        let unbounded = self.compress_bounded(data, usize::MAX, out);
        debug_assert!(unbounded.is_ok(), "no stream outgrows usize::MAX");
    }

    /// [`compress_into`](Self::compress_into) for a caller that only
    /// wants the stream if it is at most `limit` bytes long — a trial
    /// against something it already holds. Returns the stream's length
    /// when it fits; otherwise `out` is left as it was and the error
    /// says how far the run got.
    ///
    /// The run stops as soon as the bytes already emitted plus the
    /// literals still pending exceed `limit` — a lower bound on the
    /// final length, so a stream that would have fit is never given up
    /// on, and the stream that is kept is
    /// [`compress_into`](Self::compress_into)'s byte for
    /// byte. On incompressible input that is after about `limit` input
    /// bytes instead of all of them.
    ///
    /// # Errors
    ///
    /// [`Abandoned`] when the stream is longer than `limit`.
    pub fn compress_bounded(
        &self,
        data: &[u8],
        limit: usize,
        out: &mut Vec<u8>,
    ) -> Result<usize, Abandoned> {
        FINDER.with(|finder| {
            let mut finder = finder.borrow_mut();
            let (head, prev, base) = finder.begin(data.len(), self.window);
            let start = out.len();
            // `out` may grow to `cap` bytes and no further.
            let cap = start.saturating_add(limit);
            // Positions with fewer than MIN_MATCH bytes left are never
            // hashed: they can neither start a match nor be found.
            let hashable = data.len().saturating_sub(MIN_MATCH - 1);
            let mut literal_start = 0usize;
            let mut pos = 0usize;
            // The budget rides on the loop bound: a literal run that
            // starts with `out` at its current length overflows `cap`
            // at a position known when the run starts, so the scan
            // stops there at no cost per position. With no limit that
            // position is past the input.
            let scan_end = |emitted_to: usize, literal_start: usize| {
                let room = (cap - emitted_to).saturating_add(literal_start);
                hashable.min(room.saturating_add(1))
            };
            let mut stop = scan_end(start, 0);
            while pos < stop {
                let cur = base.wrapping_add(pos as u32);
                let h = hash4(data, pos);
                // An empty or stale chain head (see `MatchFinder`) is
                // the common case on incompressible input.
                let reach = pos.min(self.window) as u32;
                let found = if cur.wrapping_sub(head[h]).wrapping_sub(1) < reach {
                    self.find_match(data, pos, cur, head[h], prev)
                } else {
                    None
                };
                chain_push(head, prev, h, pos, cur);
                let Some((len, dist)) = found else {
                    pos += 1;
                    continue;
                };
                put_match(out, &data[literal_start..pos], len, dist);
                // Every position of the match joins the chains.
                let end = pos + len;
                for inside in pos + 1..end.min(hashable) {
                    let cur = base.wrapping_add(inside as u32);
                    chain_push(head, prev, hash4(data, inside), inside, cur);
                }
                pos = end;
                literal_start = end;
                if out.len() > cap {
                    break;
                }
                stop = scan_end(out.len(), literal_start);
            }
            if pos >= hashable && out.len() <= cap {
                put_literals(out, &data[literal_start..]);
                pos = data.len();
                literal_start = pos;
            }
            // What the stream is known to cost so far: the bytes
            // emitted and the literals waiting for their token.
            let produced = out.len() - start + (pos - literal_start);
            if produced > limit {
                out.truncate(start);
                return Err(Abandoned {
                    consumed: pos,
                    produced,
                });
            }
            Ok(produced)
        })
    }

    /// Appends the decompressed form of `data` to `out`, verifying it
    /// is exactly `expected_len` bytes — the primitive behind
    /// [`Codec::decompress`], for callers that decode into a buffer
    /// they recycle. On error `out` is left as it was.
    ///
    /// # Errors
    ///
    /// As [`Codec::decompress`].
    pub fn decompress_into(
        &self,
        data: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        let base = out.len();
        let result = decode_tokens(data, expected_len, out);
        if result.is_err() {
            out.truncate(base);
        }
        result
    }
}

/// Decodes the token stream `data` onto the end of `out`; back
/// references reach no further back than where `out` ended on entry.
fn decode_tokens(data: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<(), CompressError> {
    if expected_len > MAX_DECODE_LEN {
        return Err(CompressError::BadToken);
    }
    let base = out.len();
    // Reserve no more than the stream could plausibly produce; a
    // short corrupt stream claiming a large `expected_len` grows the
    // buffer only as far as its tokens actually validate.
    out.reserve(expected_len.min(data.len().saturating_mul(8)));
    let mut pos = 0usize;
    while pos < data.len() {
        let tok = decode_varint(data, &mut pos)?;
        let len = (tok >> 1) as usize;
        if len == 0 {
            return Err(CompressError::BadToken);
        }
        let produced = out.len() - base;
        if tok & 1 == 0 {
            // Literal run.
            if pos + len > data.len() {
                return Err(CompressError::Truncated);
            }
            if len > expected_len - produced {
                return Err(CompressError::LengthMismatch {
                    produced: produced.saturating_add(len),
                    expected: expected_len,
                });
            }
            out.extend_from_slice(&data[pos..pos + len]);
            pos += len;
        } else {
            let dist = decode_varint(data, &mut pos)? as usize;
            if dist == 0 || dist > produced {
                return Err(CompressError::BadBackreference {
                    distance: dist,
                    available: produced,
                });
            }
            // Check the output budget before copying: a hostile
            // match length must not grow the buffer past the claim.
            if len > expected_len - produced {
                return Err(CompressError::LengthMismatch {
                    produced: produced.saturating_add(len),
                    expected: expected_len,
                });
            }
            // An overlapping copy (`dist < len`) is the LZ idiom for a
            // run of period `dist`: copy what exists, which doubles the
            // periodic stretch available to the next copy.
            let start = out.len() - dist;
            let mut have = dist;
            let mut left = len;
            while left > 0 {
                let n = have.min(left);
                out.extend_from_within(start..start + n);
                have += n;
                left -= n;
            }
        }
    }
    let produced = out.len() - base;
    if produced != expected_len {
        return Err(CompressError::LengthMismatch {
            produced,
            expected: expected_len,
        });
    }
    Ok(())
}

impl Default for Lzss {
    /// Window 32 KB, chain depth 32 — comparable to zlib's default level.
    fn default() -> Self {
        Self::new(1 << 15, 32)
    }
}

impl Codec for Lzss {
    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        self.compress_into(data, &mut out);
        out
    }

    fn decompress(&self, data: &[u8], expected_len: usize) -> Result<Vec<u8>, CompressError> {
        let mut out = Vec::new();
        self.decompress_into(data, expected_len, &mut out)?;
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "lzss"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngExt, SeedableRng};

    fn roundtrip(codec: &Lzss, data: &[u8]) -> usize {
        let packed = codec.compress(data);
        assert_eq!(
            codec.decompress(&packed, data.len()).unwrap(),
            data,
            "roundtrip failed for len={}",
            data.len()
        );
        packed.len()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let c = Lzss::default();
        assert_eq!(roundtrip(&c, &[]), 0);
        roundtrip(&c, &[1]);
        roundtrip(&c, &[1, 2, 3]);
        roundtrip(&c, &[0, 0, 0, 0]);
    }

    #[test]
    fn repetitive_data_compresses_hard() {
        let c = Lzss::default();
        let data = vec![0x41u8; 8192];
        let packed = roundtrip(&c, &data);
        assert!(packed < 64, "run of one byte should collapse, got {packed}");
    }

    #[test]
    fn english_like_text_compresses_well() {
        let c = Lzss::default();
        let sentence = b"select c_id from customer where c_w_id = 3 and c_d_id = 7; ";
        let mut data = Vec::new();
        for _ in 0..100 {
            data.extend_from_slice(sentence);
        }
        let packed = roundtrip(&c, &data);
        assert!(
            packed * 5 < data.len(),
            "repeated text should compress >5x, got {} / {}",
            packed,
            data.len()
        );
    }

    #[test]
    fn random_data_expands_only_slightly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let data: Vec<u8> = (0..8192).map(|_| rng.random()).collect();
        let c = Lzss::default();
        let packed = roundtrip(&c, &data);
        assert!(packed <= data.len() + data.len() / 64 + 16);
    }

    #[test]
    fn overlapping_backreference_run() {
        let c = Lzss::default();
        // "abcabcabc..." forces dist=3 overlapping copies.
        let data: Vec<u8> = std::iter::repeat(*b"abc").flatten().take(999).collect();
        roundtrip(&c, &data);
    }

    #[test]
    fn window_limits_match_distance() {
        let small = Lzss::new(256, 32);
        let mut data = vec![0u8; 2048];
        data[..64].fill(7);
        data[1984..].fill(7); // same content, but > 256 bytes away
        roundtrip(&small, &data);
    }

    /// Exhaustive greedy reference encoder: at every position it scans
    /// the whole window nearest-first for the longest match, exactly the
    /// policy the hash-chain search implements with unbounded depth.
    fn oracle_compress(data: &[u8], window: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut literal_start = 0usize;
        let mut pos = 0usize;
        let flush = |out: &mut Vec<u8>, start: usize, end: usize| {
            let mut s = start;
            while s < end {
                let len = (end - s).min(1 << 20);
                encode_varint(out, (len as u64) << 1);
                out.extend_from_slice(&data[s..s + len]);
                s += len;
            }
        };
        while pos < data.len() {
            let mut best_len = MIN_MATCH - 1;
            let mut best_dist = 0usize;
            if pos + MIN_MATCH <= data.len() {
                let max_len = (data.len() - pos).min(MAX_MATCH);
                let lo = pos.saturating_sub(window);
                for c in (lo..pos).rev() {
                    let mut len = 0usize;
                    while len < max_len && data[c + len] == data[pos + len] {
                        len += 1;
                    }
                    if len > best_len {
                        best_len = len;
                        best_dist = pos - c;
                        if len == max_len {
                            break;
                        }
                    }
                }
            }
            if best_len >= MIN_MATCH {
                flush(&mut out, literal_start, pos);
                encode_varint(&mut out, ((best_len as u64) << 1) | 1);
                encode_varint(&mut out, best_dist as u64);
                pos += best_len;
                literal_start = pos;
            } else {
                pos += 1;
            }
        }
        flush(&mut out, literal_start, data.len());
        out
    }

    /// The compressor as it stood before the word-wide rewrite, kept
    /// verbatim as the oracle: fresh `-1`-filled `i64` tables per call,
    /// a `prev` ring of exactly `window` slots, matches extended one
    /// byte at a time. (`tests/lzss_golden.txt` pins the same thing
    /// against the parent commit's binary; this pins it on any input.)
    fn reference_compress(codec: &Lzss, data: &[u8]) -> Vec<u8> {
        fn hash(data: &[u8]) -> usize {
            let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
            (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
        }
        let find_match = |pos: usize, head: &[i64], prev: &[i64]| -> Option<(usize, usize)> {
            if pos + MIN_MATCH > data.len() {
                return None;
            }
            let mut cand = head[hash(&data[pos..])];
            let min_pos = pos.saturating_sub(codec.window) as i64;
            let max_len = (data.len() - pos).min(MAX_MATCH);
            let mut best_len = MIN_MATCH - 1;
            let mut best_dist = 0usize;
            let mut chain = 0usize;
            while cand >= min_pos && cand >= 0 && chain < codec.max_chain {
                let c = cand as usize;
                if data[c + best_len] == data[pos + best_len.min(max_len - 1)] {
                    let mut len = 0usize;
                    while len < max_len && data[c + len] == data[pos + len] {
                        len += 1;
                    }
                    if len > best_len {
                        best_len = len;
                        best_dist = pos - c;
                        if len == max_len {
                            break;
                        }
                    }
                }
                let next = prev[c % codec.window];
                if next >= cand {
                    break;
                }
                cand = next;
                chain += 1;
            }
            (best_len >= MIN_MATCH).then_some((best_len, best_dist))
        };

        let mut out = Vec::new();
        let mut head = vec![-1i64; HASH_SIZE];
        let mut prev = vec![-1i64; codec.window];
        let mut literal_start = 0usize;
        let mut pos = 0usize;
        while pos < data.len() {
            let found = find_match(pos, &head, &prev);
            if let Some((len, dist)) = found {
                put_literals(&mut out, &data[literal_start..pos]);
                encode_varint(&mut out, ((len as u64) << 1) | 1);
                encode_varint(&mut out, dist as u64);
            }
            let end = pos + found.map_or(1, |(len, _)| len);
            while pos < end {
                if pos + MIN_MATCH <= data.len() {
                    let h = hash(&data[pos..]);
                    prev[pos % codec.window] = head[h];
                    head[h] = pos as i64;
                }
                pos += 1;
            }
            if found.is_some() {
                literal_start = pos;
            }
        }
        put_literals(&mut out, &data[literal_start..]);
        out
    }

    /// Every shape of configuration: the three the stack ships, a deep
    /// chain in a small window, a shallow one, and windows that are not
    /// a power of two (the `prev` ring rounds them up).
    fn configs() -> [Lzss; 6] {
        [
            Lzss::default(),
            Lzss::fast(),
            Lzss::new(256, 512),
            Lzss::new(512, 4),
            Lzss::new(300, 16),
            Lzss::new(5000, 1),
        ]
    }

    /// Word-sampled text: long chains, long matches, like the prose the
    /// hostile mix rewrites.
    fn prose_like(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<u8> {
        const WORDS: [&str; 8] = [
            "parity ",
            "block ",
            "replication ",
            "the ",
            "of ",
            "storage.\n",
            "write ",
            "node ",
        ];
        let mut out = Vec::with_capacity(n + 16);
        while out.len() < n {
            out.extend_from_slice(WORDS[rng.random_range(0..WORDS.len())].as_bytes());
        }
        out.truncate(n);
        out
    }

    fn low_entropy(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let run = rng.random_range(1..=32usize).min(n - data.len());
            let byte = rng.random_range(0..4u8);
            data.extend(std::iter::repeat_n(byte, run));
        }
        data
    }

    fn assert_matches_reference(data: &[u8]) {
        for codec in configs() {
            assert_eq!(
                codec.compress(data),
                reference_compress(&codec, data),
                "{codec:?} on {} bytes",
                data.len()
            );
        }
    }

    /// Moves this thread's match-finder offset, as if that many bytes
    /// had been compressed on it already.
    fn set_finder_base(base: u32) {
        FINDER.with(|finder| finder.borrow_mut().base = base);
    }

    fn finder_base() -> u32 {
        FINDER.with(|finder| finder.borrow().base)
    }

    #[test]
    fn back_to_back_calls_read_stale_entries_as_empty() {
        // One thread, inputs of very different lengths that share
        // content: every call after the first finds the tables full of
        // the earlier calls' entries under exactly the hashes it looks
        // up, and the `prev` ring changes size between calls.
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let text = prose_like(&mut rng, 40_000);
        let noise: Vec<u8> = (0..9000).map(|_| rng.random()).collect();
        for (from, len) in [
            (0, 8192),
            (0, 100),
            (50, 3000),
            (0, 40_000),
            (7, 5),
            (100, 8192),
            (0, 8192),
        ] {
            assert_matches_reference(&text[from..from + len]);
            assert_matches_reference(&noise[from..][..len.min(8000)]);
        }
    }

    #[test]
    fn offset_wrap_resets_the_tables_and_nothing_else_changes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let text = prose_like(&mut rng, 8192);
        // Fits below u32::MAX by one byte: no reset, offsets run to the top.
        set_finder_base(u32::MAX - 8192 - 1);
        assert_eq!(
            Lzss::default().compress(&text),
            reference_compress(&Lzss::default(), &text)
        );
        assert_eq!(finder_base(), u32::MAX - 1);
        // The next input does not fit: the tables restart from offset 1
        // with the top-of-range entries of the call above still in them.
        assert_matches_reference(&text[..5000]);
        assert!(finder_base() < 1 << 20);
        // Exactly at the edge.
        set_finder_base(u32::MAX - 8192);
        assert_matches_reference(&text);
        assert!(finder_base() < 1 << 20);
    }

    #[test]
    fn compress_into_appends_behind_existing_bytes() {
        let data = b"abcabcabcabcabcabc-abcabcabc".to_vec();
        let codec = Lzss::default();
        let mut out = vec![0xEE; 5];
        codec.compress_into(&data, &mut out);
        assert_eq!(&out[..5], &[0xEE; 5]);
        assert_eq!(&out[5..], codec.compress(&data));
    }

    /// Runs `data` through the bounded entry point at `limit` behind
    /// pre-existing bytes and holds it to its contract against the
    /// unbounded stream `whole`: the same bytes when they fit, else
    /// `out` untouched and a report that is a true lower bound.
    fn assert_bounded_contract(codec: &Lzss, data: &[u8], whole: &[u8], limit: usize) {
        let mut out = vec![0xEE; 3];
        match codec.compress_bounded(data, limit, &mut out) {
            Ok(len) => {
                assert!(whole.len() <= limit, "kept a stream over limit {limit}");
                assert_eq!(len, whole.len());
                assert_eq!(&out[..3], &[0xEE; 3]);
                assert_eq!(&out[3..], whole, "limit {limit}");
            }
            Err(gave_up) => {
                assert!(
                    whole.len() > limit,
                    "gave up at limit {limit} on a stream of {}",
                    whole.len()
                );
                assert_eq!(out, [0xEE; 3], "partial write at limit {limit}");
                assert!(gave_up.produced > limit && gave_up.produced <= whole.len());
                assert!(gave_up.consumed <= data.len());
                if gave_up.consumed == data.len() {
                    assert_eq!(gave_up.produced, whole.len(), "a finished run is exact");
                }
            }
        }
    }

    #[test]
    fn bounded_run_keeps_the_stream_or_nothing_at_every_limit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let text = prose_like(&mut rng, 1500);
        let noise: Vec<u8> = (0..900).map(|_| rng.random()).collect();
        let runs = low_entropy(&mut rng, 1200);
        // Text whose tail is noise: the stream fits for most of the
        // run and only the last literals push it over.
        let mixed = [&text[..600], &noise[..300]].concat();
        for data in [&text[..], &noise, &runs, &mixed, b"abc", b""] {
            for codec in [Lzss::default(), Lzss::fast(), Lzss::new(300, 16)] {
                let whole = codec.compress(data);
                for limit in 0..=whole.len() + 2 {
                    assert_bounded_contract(&codec, data, &whole, limit);
                }
                assert_bounded_contract(&codec, data, &whole, usize::MAX);
            }
        }
    }

    #[test]
    fn bounded_run_gives_up_on_noise_after_about_limit_bytes() {
        // No match to be had: every byte read is a byte of output, so
        // the run is over one position past the limit — not at the end.
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let noise: Vec<u8> = (0..8192).map(|_| rng.random()).collect();
        let mut out = Vec::new();
        for limit in [0, 1, 100, 2048, 8000] {
            let gave_up = Lzss::fast()
                .compress_bounded(&noise, limit, &mut out)
                .unwrap_err();
            assert_eq!(gave_up.consumed, limit + 1, "limit {limit}");
            assert_eq!(gave_up.produced, limit + 1);
            assert!(out.is_empty());
        }
        // The whole stream is the input behind a three-byte literal header.
        assert_eq!(
            Lzss::fast().compress_bounded(&noise, 8194, &mut out),
            Err(Abandoned {
                consumed: 8192,
                produced: 8195
            })
        );
        assert_eq!(
            Lzss::fast().compress_bounded(&noise, 8195, &mut out),
            Ok(8195)
        );
        out.clear();
        // And the scratch a given-up run leaves behind reads as empty.
        assert_matches_reference(&noise);
    }

    /// The decoder as it stood before `extend_from_within`: match
    /// copies pushed one byte at a time (well-formed streams only).
    fn reference_decompress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < data.len() {
            let tok = decode_varint(data, &mut pos).unwrap();
            let len = (tok >> 1) as usize;
            if tok & 1 == 0 {
                out.extend_from_slice(&data[pos..pos + len]);
                pos += len;
            } else {
                let dist = decode_varint(data, &mut pos).unwrap() as usize;
                let start = out.len() - dist;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
        out
    }

    #[test]
    fn overlapping_copies_match_the_push_loop_for_every_distance_and_length() {
        let seed: Vec<u8> = (0..16u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for dist in 1..=16usize {
            for len in 1..=300usize {
                let mut stream = Vec::new();
                encode_varint(&mut stream, (seed.len() as u64) << 1);
                stream.extend_from_slice(&seed);
                encode_varint(&mut stream, ((len as u64) << 1) | 1);
                encode_varint(&mut stream, dist as u64);
                let want = reference_decompress(&stream);
                assert_eq!(want.len(), seed.len() + len);
                // Behind existing bytes, which no back reference may reach.
                let mut got = vec![0xEEu8; 3];
                Lzss::default()
                    .decompress_into(&stream, seed.len() + len, &mut got)
                    .unwrap();
                assert_eq!(&got[..3], &[0xEE; 3]);
                assert_eq!(&got[3..], want, "dist={dist} len={len}");
            }
        }
    }

    #[test]
    fn decompress_into_leaves_out_untouched_on_error() {
        let c = Lzss::default();
        let packed = c.compress(b"hello hello hello hello");
        let mut out = b"keep".to_vec();
        // A back reference may not reach into the bytes already there.
        let mut reach_back = Vec::new();
        encode_varint(&mut reach_back, (4 << 1) | 1);
        encode_varint(&mut reach_back, 2);
        for (stream, claim) in [(&packed[..], 22), (&packed[..5], 23), (&reach_back[..], 4)] {
            assert!(c.decompress_into(stream, claim, &mut out).is_err());
            assert_eq!(out, b"keep");
        }
    }

    #[test]
    fn decompress_rejects_claim_over_budget() {
        let c = Lzss::default();
        let data = vec![3u8; 64];
        let packed = c.compress(&data);
        assert!(matches!(
            c.decompress(&packed, MAX_DECODE_LEN + 1),
            Err(CompressError::BadToken)
        ));
        // A tiny corrupt stream claiming a huge (but in-budget) length
        // must fail cleanly, not materialize the claim.
        let mut stream = Vec::new();
        encode_varint(&mut stream, ((MAX_DECODE_LEN as u64) << 1) | 1); // match
        encode_varint(&mut stream, 1); // dist into empty output
        assert!(matches!(
            c.decompress(&stream, MAX_DECODE_LEN),
            Err(CompressError::BadBackreference { .. })
        ));
    }

    #[test]
    fn decompress_rejects_match_past_claimed_len() {
        // One literal byte, then a match that runs past `expected_len`:
        // the budget check must fire before the copy loop runs.
        let mut stream = Vec::new();
        encode_varint(&mut stream, 4 << 1); // flag bit clear: literal run of 4
        stream.extend_from_slice(b"abab");
        encode_varint(&mut stream, ((1u64 << 19) << 1) | 1);
        encode_varint(&mut stream, 2);
        let c = Lzss::default();
        assert!(matches!(
            c.decompress(&stream, 64),
            Err(CompressError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn decompress_rejects_truncated_stream() {
        let c = Lzss::default();
        let packed = c.compress(b"hello hello hello hello");
        for cut in 0..packed.len() {
            assert!(c.decompress(&packed[..cut], 24).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn decompress_rejects_bad_backreference() {
        // match len=4, dist=9 with no prior output.
        let mut stream = Vec::new();
        encode_varint(&mut stream, (4 << 1) | 1);
        encode_varint(&mut stream, 9);
        let c = Lzss::default();
        assert!(matches!(
            c.decompress(&stream, 4),
            Err(CompressError::BadBackreference { .. })
        ));
    }

    #[test]
    fn decompress_rejects_wrong_expected_len() {
        let c = Lzss::default();
        let packed = c.compress(b"abcdefgh");
        assert!(matches!(
            c.decompress(&packed, 7),
            Err(CompressError::LengthMismatch { .. })
        ));
        assert!(matches!(
            c.decompress(&packed, 9),
            Err(CompressError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn db_page_like_content_reaches_zlib_class_ratio() {
        // Simulate a slotted DB page: repeated row headers, textual fields,
        // zero padding — the kind of content Figure 4's "compressed"
        // baseline operates on.
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut page = vec![0u8; 8192];
        let mut off = 64;
        while off + 80 < 6000 {
            page[off..off + 4].copy_from_slice(&(off as u32).to_le_bytes());
            page[off + 4..off + 24].copy_from_slice(b"CUSTOMER_NAME_FIELD_");
            for b in &mut page[off + 24..off + 44] {
                *b = b'a' + rng.random_range(0..26u8);
            }
            off += 80;
        }
        let c = Lzss::default();
        let packed = roundtrip(&c, &page);
        assert!(
            packed * 2 < page.len(),
            "expected >=2x on page-like data, got {} / {}",
            packed,
            page.len()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_roundtrip_random(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            roundtrip(&Lzss::default(), &data);
        }

        #[test]
        fn prop_roundtrip_structured(seed in any::<u64>(), n in 1usize..2048) {
            // Low-entropy data: small alphabet with long runs.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut data = Vec::with_capacity(n);
            while data.len() < n {
                let run = rng.random_range(1..=32usize).min(n - data.len());
                let byte = rng.random_range(0..4u8);
                data.extend(std::iter::repeat_n(byte, run));
            }
            roundtrip(&Lzss::default(), &data);
            roundtrip(&Lzss::fast(), &data);
            roundtrip(&Lzss::new(512, 4), &data);
        }

        /// With chain depth >= window the hash-chain search must visit
        /// every candidate the brute-force scan does (a match of
        /// MIN_MATCH bytes implies an equal hash4, so the candidate is
        /// on the walked chain), and both pick the longest match with
        /// nearest-wins tie-breaking — so the token streams must agree
        /// byte for byte. Inputs run to 8x the window, forcing the
        /// `prev` ring through many wraps: a corrupted chain would show
        /// up as a worse (different) token stream.
        #[test]
        fn prop_deep_chain_matches_brute_force_oracle(seed in any::<u64>(), n in 1usize..2048) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut data = Vec::with_capacity(n);
            while data.len() < n {
                let run = rng.random_range(1..=24usize).min(n - data.len());
                let byte = rng.random_range(0..6u8);
                data.extend(std::iter::repeat_n(byte, run));
            }
            let codec = Lzss::new(256, 512);
            let packed = codec.compress(&data);
            let oracle = oracle_compress(&data, codec.window);
            prop_assert_eq!(&packed, &oracle);
            prop_assert_eq!(codec.decompress(&packed, data.len()).unwrap(), data);
        }

        /// The word-wide compressor emits the reference's stream byte
        /// for byte — same greedy parse, chain depth and tie-break — on
        /// incompressible, run-structured and text-like inputs, under
        /// every configuration, whatever earlier cases left in this
        /// thread's match-finder tables; and the `extend_from_within`
        /// decoder reads it back like the push-loop one.
        #[test]
        fn prop_compress_matches_reference(seed in any::<u64>(), n in 0usize..6000, kind in 0u8..4) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let data = match kind {
                0 => (0..n).map(|_| rng.random()).collect(),
                1 => low_entropy(&mut rng, n),
                2 => prose_like(&mut rng, n),
                // Text with a far repeat: the second half opens with
                // the first half's opening.
                _ => {
                    let mut text = prose_like(&mut rng, n);
                    text.copy_within(..n / 4, n / 2);
                    text
                }
            };
            for codec in configs() {
                let packed = codec.compress(&data);
                prop_assert_eq!(&packed, &reference_compress(&codec, &data), "{:?}", codec);
                prop_assert_eq!(&codec.decompress(&packed, data.len()).unwrap(), &data);
                prop_assert_eq!(&reference_decompress(&packed), &data);
            }
        }

        /// At any limit, on any input shape, the bounded run returns
        /// the unbounded stream exactly when it fits and otherwise
        /// leaves `out` alone — never a false abandon, never a partial
        /// write.
        #[test]
        fn prop_bounded_run_is_the_stream_or_nothing(
            seed in any::<u64>(), n in 0usize..6000, kind in 0u8..3, cut in 0u32..=1100,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let data = match kind {
                0 => (0..n).map(|_| rng.random()).collect(),
                1 => low_entropy(&mut rng, n),
                _ => prose_like(&mut rng, n),
            };
            for codec in [Lzss::default(), Lzss::fast(), Lzss::new(300, 16)] {
                let whole = codec.compress(&data);
                // From 0 to 10 % past the stream's own length.
                let limit = whole.len() * cut as usize / 1000;
                assert_bounded_contract(&codec, &data, &whole, limit);
            }
        }

        /// Decode of arbitrary bytes under an arbitrary in-budget claim
        /// never panics and never produces more than the claim.
        #[test]
        fn prop_hostile_stream_decode_is_total(
            data in proptest::collection::vec(any::<u8>(), 0..512),
            claim in 0usize..(MAX_DECODE_LEN + 4),
        ) {
            let c = Lzss::default();
            if let Ok(out) = c.decompress(&data, claim) {
                prop_assert_eq!(out.len(), claim);
            }
        }
    }
}
