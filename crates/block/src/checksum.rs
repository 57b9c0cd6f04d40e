//! CRC32C (Castagnoli) checksum, implemented from scratch.
//!
//! The integrity layer needs one checksum shared by every crate that
//! touches bytes — the wire envelope in `prins-repl`, the per-block
//! verify-on-apply table in the replica applier, and the scrubber's
//! digest comparison in `prins-cluster`. CRC32C is the natural choice:
//! it is the checksum iSCSI itself mandates for data digests, so the
//! reproduction matches the paper's deployment environment, and its
//! error-detection properties (all single-bit errors, all 2-bit errors
//! within the typical frame sizes here) cover exactly the faults the
//! sim injects.
//!
//! This is the reflected Castagnoli polynomial `0x1EDC6F41`
//! (`0x82F63B78` reversed). [`crc32c`] and [`crc32c_append`] are the
//! only two names callers use; behind them sit two kernels that return
//! the same value for every input:
//!
//! * **Hardware** — on x86-64, each call asks
//!   `is_x86_feature_detected!("sse4.2")` (std caches the probe in an
//!   atomic) and, when the CPU has it, runs the `crc32` instruction
//!   eight bytes at a time. The instruction has a three-cycle latency
//!   but issues every cycle, so inputs of at least
//!   3 × `SHORT` bytes are cut into three sub-blocks checksummed in
//!   one interleaved loop, and the three states are recombined through
//!   const-generated "advance over N zero bytes" tables. Rounds of
//!   3 × `LONG` bytes run first (one covers a 4 KB block, two an
//!   8 KB block), then rounds of 3 × `SHORT` (a typical parity frame
//!   gets one), then a single stream finishes the tail.
//! * **Portable** — the slicing-by-8 technique from const-generated
//!   tables: eight bytes are folded into the state per iteration
//!   through eight 256-entry tables. It is the fallback off x86-64 and
//!   on CPUs without SSE4.2, and the oracle the hardware kernel is
//!   tested against.
//!
//! No dependencies. The call from the dispatcher into the
//! `target_feature` kernel is the workspace's only `unsafe` block (see
//! `hardware_append`).

/// Reflected CRC32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

/// 256-entry lookup table for byte-at-a-time CRC32C (also slice 0 of
/// the slicing-by-8 tables).
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slicing-by-8 tables: `TABLE8[k][b]` is the CRC contribution of byte
/// value `b` seen `k` positions before the end of an 8-byte group
/// (`TABLE8[0]` is the plain byte table).
const TABLE8: [[u32; 256]; 8] = build_table8();

const fn build_table8() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = build_table();
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32C of `bytes` (initial value all-ones, final XOR all-ones, as in
/// iSCSI/SCTP).
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_append(0, bytes)
}

/// Continue a CRC32C over more bytes: `crc32c_append(crc32c(a), b)`
/// equals `crc32c(a ++ b)`. Lets callers checksum a frame in pieces
/// (header then body) without concatenating buffers.
pub fn crc32c_append(crc: u32, bytes: &[u8]) -> u32 {
    match hardware_append(crc, bytes) {
        Some(crc) => crc,
        None => crc32c_append_portable(crc, bytes),
    }
}

/// [`crc32c_append`] through the `crc32` instruction, or `None` when
/// this CPU (or this architecture) has none.
#[inline]
#[allow(unsafe_code)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn hardware_append(crc: u32, bytes: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `sse42::append` is a safe function whose only
        // requirement is that the CPU executes SSE4.2 instructions,
        // which the probe on the line above has just confirmed.
        return Some(unsafe { sse42::append(crc, bytes) });
    }
    None
}

#[cfg(target_arch = "x86_64")]
mod sse42 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    use super::TABLE;

    /// Bytes per stream in the hardware kernel's long three-stream round:
    /// 3 × 1360 = 4080, so one round covers a 4 KB block and two an 8 KB
    /// block. Measured against 680, 1024, 2728 and 8192 on 4 KB, 8 KB and
    /// 64 KB inputs; 1360 was best or within noise of best on all three.
    pub(super) const LONG: usize = 1360;

    /// Bytes per stream in the short three-stream round: 3 × 128 = 384, so
    /// the ~440 B parity frames of an OLTP stream get one round instead of
    /// a single latency-bound stream (measured against 64 and 256).
    pub(super) const SHORT: usize = 128;

    /// `table[k][b]` is the state reached from `b << 8k` by advancing
    /// over `N` zero bytes, for one fixed `N`. Advancing is linear over GF(2),
    /// so the four lookups for a state's four bytes XOR to that state
    /// advanced — what lets a stream that started from zero be appended to
    /// the stream before it.
    type ShiftTable = [[u32; 256]; 4];

    static LONG_SHIFT: ShiftTable = build_shift_table(LONG);
    static SHORT_SHIFT: ShiftTable = build_shift_table(SHORT);

    const fn build_shift_table(len: usize) -> ShiftTable {
        // Advance each of the 32 single-bit states bytewise, then combine
        // them into per-byte tables.
        let mut basis = [0u32; 32];
        let mut i = 0;
        while i < 32 {
            let mut state = 1u32 << i;
            let mut n = 0;
            while n < len {
                state = (state >> 8) ^ TABLE[(state & 0xff) as usize];
                n += 1;
            }
            basis[i] = state;
            i += 1;
        }
        let mut table = [[0u32; 256]; 4];
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                let mut bit = 0;
                while bit < 8 {
                    if (b >> bit) & 1 != 0 {
                        table[k][b] ^= basis[8 * k + bit];
                    }
                    bit += 1;
                }
                b += 1;
            }
            k += 1;
        }
        table
    }

    #[target_feature(enable = "sse4.2")]
    pub(super) fn append(crc: u32, bytes: &[u8]) -> u32 {
        let mut state = u64::from(!crc);
        let mut rest = bytes;
        while let Some((round, tail)) = rest.split_at_checked(3 * LONG) {
            state = three_streams::<LONG>(state, round, &LONG_SHIFT);
            rest = tail;
        }
        while let Some((round, tail)) = rest.split_at_checked(3 * SHORT) {
            state = three_streams::<SHORT>(state, round, &SHORT_SHIFT);
            rest = tail;
        }
        let mut words = rest.chunks_exact(8);
        for w in words.by_ref() {
            state = _mm_crc32_u64(state, word(w));
        }
        let mut state = state as u32;
        for &b in words.remainder() {
            state = _mm_crc32_u8(state, b);
        }
        !state
    }

    /// Checksums `round` (exactly 3 × `N` bytes, `N` a multiple of 8)
    /// as three interleaved streams — the first continuing `state`, the
    /// other two starting from zero — and appends them: advancing a
    /// state over the `N` bytes of the next stream and XORing that
    /// stream's zero-started state in gives the state after both.
    #[target_feature(enable = "sse4.2")]
    #[inline]
    fn three_streams<const N: usize>(state: u64, round: &[u8], shift: &ShiftTable) -> u64 {
        let (a, rest) = round.split_at(N);
        let (b, c) = rest.split_at(N);
        let (mut sa, mut sb, mut sc) = (state, 0, 0);
        for ((a, b), c) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8))
        {
            sa = _mm_crc32_u64(sa, word(a));
            sb = _mm_crc32_u64(sb, word(b));
            sc = _mm_crc32_u64(sc, word(c));
        }
        let ab = advance(shift, sa as u32) ^ sb as u32;
        u64::from(advance(shift, ab) ^ sc as u32)
    }

    fn advance(shift: &ShiftTable, state: u32) -> u32 {
        shift[0][(state & 0xff) as usize]
            ^ shift[1][((state >> 8) & 0xff) as usize]
            ^ shift[2][((state >> 16) & 0xff) as usize]
            ^ shift[3][(state >> 24) as usize]
    }

    fn word(chunk: &[u8]) -> u64 {
        u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8) yields 8 bytes"))
    }
}

/// The portable slicing-by-8 kernel behind [`crc32c_append`]: what
/// runs where there is no `crc32` instruction. Public only so the
/// criterion kernel series can time it beside the hardware path.
#[doc(hidden)]
pub fn crc32c_append_portable(crc: u32, bytes: &[u8]) -> u32 {
    let mut state = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        // Fold the state into the first four bytes, then look all eight
        // up in parallel tables — one XOR reduction per 8 bytes.
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = TABLE8[7][(lo & 0xff) as usize]
            ^ TABLE8[6][((lo >> 8) & 0xff) as usize]
            ^ TABLE8[5][((lo >> 16) & 0xff) as usize]
            ^ TABLE8[4][(lo >> 24) as usize]
            ^ TABLE8[3][(hi & 0xff) as usize]
            ^ TABLE8[2][((hi >> 8) & 0xff) as usize]
            ^ TABLE8[1][((hi >> 16) & 0xff) as usize]
            ^ TABLE8[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ TABLE[((state ^ b as u32) & 0xff) as usize];
    }
    !state
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel has [`crc32c_append`]'s shape.
    type Kernel = fn(u32, &[u8]) -> u32;

    /// The byte-at-a-time definition — the oracle for every kernel.
    fn bytewise_append(crc: u32, bytes: &[u8]) -> u32 {
        let mut state = !crc;
        for &b in bytes {
            state = (state >> 8) ^ TABLE[((state ^ b as u32) & 0xff) as usize];
        }
        !state
    }

    /// The hardware kernel as a plain function, where the CPU has one.
    fn hardware() -> Option<Kernel> {
        fn kernel(crc: u32, bytes: &[u8]) -> u32 {
            hardware_append(crc, bytes).expect("probed before use")
        }
        hardware_append(0, &[]).map(|_| kernel as _)
    }

    /// Every shipped kernel under its name: the dispatcher, the
    /// portable fallback, and the hardware path where the CPU has one.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![
            ("dispatch", crc32c_append),
            ("portable", crc32c_append_portable),
        ];
        kernels.extend(hardware().map(|k| ("hardware", k)));
        kernels
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 11) as u8
            })
            .collect()
    }

    /// Canonical CRC32C test vectors (RFC 3720 appendix B.4).
    fn rfc_vectors() -> Vec<(Vec<u8>, u32)> {
        vec![
            (Vec::new(), 0),
            (b"123456789".to_vec(), 0xE306_9283),
            (vec![0u8; 32], 0x8A91_36AA),
            (vec![0xffu8; 32], 0x62A8_AB43),
            ((0u8..32).collect(), 0x46DD_794E),
            ((0u8..32).rev().collect(), 0x113F_DB5C),
        ]
    }

    #[test]
    fn known_vectors_on_every_kernel() {
        // The oracle is pinned to the RFC too, not only to itself.
        let oracle: (&str, Kernel) = ("bytewise", bytewise_append);
        for (name, kernel) in kernels().into_iter().chain([oracle]) {
            for (input, want) in rfc_vectors() {
                assert_eq!(kernel(0, &input), want, "{name}: {input:02x?}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn known_vectors_through_the_three_stream_rounds() {
        // The RFC inputs are too short to start a round, so each opens
        // a buffer long enough for a long and a short round plus a
        // tail; the CRC must be the RFC value continued over the
        // padding by the portable kernel.
        let Some(hardware) = hardware() else { return };
        let padding = noise(3 * sse42::LONG + 3 * sse42::SHORT + 17);
        for (input, want) in rfc_vectors() {
            let long = [&input[..], &padding].concat();
            assert_eq!(
                hardware(0, &long),
                crc32c_append_portable(want, &padding),
                "{input:02x?}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn dispatcher_takes_the_hardware_path_when_the_cpu_has_it() {
        // Every kernel returns the same value, so a dispatcher stuck on
        // the fallback would pass every other test: pin the choice.
        assert_eq!(
            hardware_append(0, b"probe").is_some(),
            std::arch::is_x86_feature_detected!("sse4.2")
        );
    }

    #[test]
    fn all_kernels_agree_at_every_length_and_alignment() {
        // Lengths run past one long round plus a tail, so the long
        // round, the short rounds, the single stream and the bytewise
        // tail all start at every offset from an 8-byte boundary.
        #[cfg(target_arch = "x86_64")]
        const MAX: usize = 3 * sse42::LONG + 17;
        #[cfg(not(target_arch = "x86_64"))]
        const MAX: usize = 4097;
        let data = noise(MAX + 8);
        let kernels = kernels();
        for align in 0..8 {
            let data = &data[align..];
            // The oracle grows a byte at a time with the length.
            let mut want = 0;
            for len in 0..=MAX {
                for (name, kernel) in &kernels {
                    assert_eq!(
                        kernel(0, &data[..len]),
                        want,
                        "{name} align={align} len={len}"
                    );
                }
                want = bytewise_append(want, &data[len..=len]);
            }
        }
    }

    #[test]
    fn append_matches_one_shot_at_every_split() {
        #[cfg(target_arch = "x86_64")]
        const LEN: usize = 3 * sse42::LONG + 17;
        #[cfg(not(target_arch = "x86_64"))]
        const LEN: usize = 4097;
        let data = noise(LEN);
        let want = bytewise_append(0, &data);
        let kernels = kernels();
        for split in 0..=LEN {
            let (a, b) = data.split_at(split);
            // Continue each kernel's prefix with the next kernel, so a
            // state handed across kernels is covered too.
            for (i, (head_name, head)) in kernels.iter().enumerate() {
                let (tail_name, tail) = kernels[(i + 1) % kernels.len()];
                assert_eq!(head(head(0, a), b), want, "{head_name} split={split}");
                assert_eq!(
                    tail(head(0, a), b),
                    want,
                    "{head_name} then {tail_name} split={split}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let data = b"prins end-to-end integrity".to_vec();
        let base = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
