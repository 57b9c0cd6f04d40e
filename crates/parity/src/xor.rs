//! Wide XOR kernels, and the words every scan of a parity reads.
//!
//! XOR is the only arithmetic PRINS and RAID parity need. The kernels
//! below walk the buffers in 64-byte chunks via `chunks_exact`, so the
//! optimizer sees fixed-size windows with no per-iteration bounds checks
//! and emits wide (SSE/AVX/NEON) loads; an 8-byte pass and a byte-wise
//! tail mop up the remainder. This keeps the "computation is much
//! cheaper than communication" premise of the paper honest.
//!
//! A parity is scanned eight bytes at a time: [`for_each_nonzero_xor_word`]
//! reads `old ⊕ new` without materializing it, skips the zero words
//! and hands over the others, and per word the mask of its nonzero
//! bytes ([`nonzero_lanes`]) is all that `DeltaStats` reads; the extent
//! finder under `SparseCodec` reads the same through
//! [`for_each_nonzero_run`] (or [`for_each_nonzero_xor_run`]), which
//! also hands over a line with no zero byte at once. Zero words are
//! passed over a 64-byte line at a time. The scans are
//! `#[inline(always)]`: compiled apart, the call per word into the
//! consumer made them several times slower.

/// Bytes per wide chunk: one cache line, eight `u64` lanes.
const WIDE: usize = 64;

/// XORs `src` into `dst` (`dst[i] ^= src[i]`).
///
/// # Panics
///
/// Panics if the slices have different lengths — calling code always
/// operates on whole blocks of a single device, so a mismatch is a logic
/// error, not an I/O condition.
///
/// # Example
///
/// ```
/// use prins_parity::xor_in_place;
///
/// let mut a = vec![0b1100u8; 16];
/// xor_in_place(&mut a, &vec![0b1010u8; 16]);
/// assert!(a.iter().all(|&b| b == 0b0110));
/// ```
pub fn xor_in_place(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor operands must be equal length");
    let mut d_wide = dst.chunks_exact_mut(WIDE);
    let mut s_wide = src.chunks_exact(WIDE);
    for (d, s) in d_wide.by_ref().zip(s_wide.by_ref()) {
        // Eight independent u64 lanes per chunk: the fixed-size
        // subslices compile to unchecked wide loads/stores.
        for lane in 0..WIDE / 8 {
            let at = lane * 8;
            let a = u64::from_ne_bytes(d[at..at + 8].try_into().unwrap());
            let b = u64::from_ne_bytes(s[at..at + 8].try_into().unwrap());
            d[at..at + 8].copy_from_slice(&(a ^ b).to_ne_bytes());
        }
    }
    let d_rem = d_wide.into_remainder();
    let s_rem = s_wide.remainder();
    let mut d8 = d_rem.chunks_exact_mut(8);
    let mut s8 = s_rem.chunks_exact(8);
    for (d, s) in d8.by_ref().zip(s8.by_ref()) {
        let a = u64::from_ne_bytes(d[..].try_into().unwrap());
        let b = u64::from_ne_bytes(s[..].try_into().unwrap());
        d.copy_from_slice(&(a ^ b).to_ne_bytes());
    }
    for (d, s) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *d ^= s;
    }
}

/// Calls `f(at, word)` for each nonzero little-endian 8-byte word of
/// the *virtual* parity `a ⊕ b`, never materialized, in order, `at` its
/// offset (byte `at + k` is lane `k`); a partial last word is padded
/// with zero bytes.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline(always)]
pub(crate) fn for_each_nonzero_xor_word(a: &[u8], b: &[u8], mut f: impl FnMut(usize, u64)) {
    nonzero_lines(xor_lines(a, b), |at, line| {
        for (k, &x) in line.iter().enumerate() {
            if x != 0 {
                f(at + 8 * k, x);
            }
        }
    });
}

/// What [`for_each_nonzero_run`] hands over at an offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Nonzero {
    /// A nonzero little-endian word (byte `at + k` is lane `k`).
    Word(u64),
    /// A whole 64-byte line with no zero byte: eight words whose
    /// [`nonzero_lanes`] are [`ALL_LANES`], at once.
    Line,
}

/// Calls `f(at, step)` for each nonzero 8-byte word of `buf` in order,
/// as [`for_each_nonzero_xor_word`] does over `a ⊕ b`, except that a
/// full line with no zero byte comes whole ([`Nonzero::Line`]) — the
/// mirror image of the zero line passed over at once — if it is
/// tested: a line behind one that came whole, and every eighth line
/// (offsets a multiple of 512). The test costs a tested line a few
/// operations, which a consumer with much work per word (the extent
/// finder) wins back on a dense write; testing every line cost a
/// write with a zero byte in every line more than that, and a consumer
/// with little work per word (`DeltaStats::measure`) would not win it
/// back at all.
#[inline(always)]
pub(crate) fn for_each_nonzero_run(buf: &[u8], f: impl FnMut(usize, Nonzero)) {
    nonzero_runs(buf.chunks(WIDE).map(line_words), f);
}

/// [`for_each_nonzero_run`] over the *virtual* parity `a ⊕ b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline(always)]
pub(crate) fn for_each_nonzero_xor_run(a: &[u8], b: &[u8], f: impl FnMut(usize, Nonzero)) {
    nonzero_runs(xor_lines(a, b), f);
}

#[inline(always)]
fn nonzero_runs(lines: impl Iterator<Item = [u64; 8]>, mut f: impl FnMut(usize, Nonzero)) {
    // Whether the last line tested had no zero byte.
    let mut dense = false;
    nonzero_lines(lines, |at, line| {
        // A write with a zero byte in every line tests an eighth of
        // them; a dense one finds its run within eight lines.
        if dense || at % (8 * WIDE) == 0 {
            dense = line.iter().fold(0, |zero, &x| zero | has_zero_byte(x)) == 0;
            if dense {
                f(at, Nonzero::Line);
                return;
            }
        }
        for (k, &x) in line.iter().enumerate() {
            if x != 0 {
                f(at + 8 * k, Nonzero::Word(x));
            }
        }
    });
}

/// The 64-byte lines of `a ⊕ b` as words, the last padded with zero
/// bytes.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline(always)]
fn xor_lines<'a>(a: &'a [u8], b: &'a [u8]) -> impl Iterator<Item = [u64; 8]> + 'a {
    assert_eq!(a.len(), b.len(), "xor operands must be equal length");
    a.chunks(WIDE).zip(b.chunks(WIDE)).map(|(x, y)| {
        let (x, y) = (line_words(x), line_words(y));
        std::array::from_fn(|k| x[k] ^ y[k])
    })
}

/// Calls `f(at, line)` for each line of `lines` (64 bytes each, `at`
/// its offset) with a nonzero byte: the zero words a parity is mostly
/// made of are passed over a line at a time.
#[inline(always)]
fn nonzero_lines(lines: impl Iterator<Item = [u64; 8]>, mut f: impl FnMut(usize, &[u64; 8])) {
    for (i, line) in lines.enumerate() {
        if line.iter().fold(0, |any, &x| any | x) != 0 {
            f(WIDE * i, &line);
        }
    }
}

/// The little-endian words of a line of up to 64 bytes, padded with
/// zero bytes.
fn line_words(line: &[u8]) -> [u64; 8] {
    let mut padded = [0u8; WIDE];
    let line: &[u8; WIDE] = line.try_into().unwrap_or_else(|_| {
        padded[..line.len()].copy_from_slice(line);
        &padded
    });
    let word = |k: usize| line[8 * k..8 * k + 8].try_into().expect("8 bytes");
    std::array::from_fn(|k| u64::from_le_bytes(word(k)))
}

/// The [`nonzero_lanes`] of a word with no zero byte.
pub(crate) const ALL_LANES: u64 = 0x8080_8080_8080_8080;

/// The nonzero bytes of the word `x`: `0x80` in each such lane, `0`
/// in the others. Exact in every lane, because `(x & 0x7f) + 0x7f`
/// cannot carry out of its byte.
pub(crate) fn nonzero_lanes(x: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    (((x & LOW7) + LOW7) | x) & ALL_LANES
}

/// Nonzero exactly when the word `x` has a zero byte. Cheaper than
/// [`nonzero_lanes`] and exact only as a whole: a borrow out of a zero
/// byte can mark the lane above it too.
fn has_zero_byte(x: u64) -> u64 {
    x.wrapping_sub(0x0101_0101_0101_0101) & !x & ALL_LANES
}

/// The number of lanes set in a [`nonzero_lanes`] mask. A multiply
/// sums the lanes into the top byte: the x86-64 baseline target has no
/// `popcnt` instruction.
pub(crate) fn lane_count(mask: u64) -> usize {
    ((mask >> 7).wrapping_mul(0x0101_0101_0101_0101) >> 56) as usize
}

/// Returns `a ^ b` as a freshly allocated buffer.
///
/// # Panics
///
/// Panics if `a` and `b` have different lengths.
///
/// # Example
///
/// ```
/// use prins_parity::xor_bytes;
///
/// assert_eq!(xor_bytes(&[1, 2, 3], &[1, 2, 3]), vec![0, 0, 0]);
/// ```
pub fn xor_bytes(a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut out = a.to_vec();
    xor_in_place(&mut out, b);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Byte-at-a-time XOR: the executable specification the wide
    /// kernel is checked against.
    fn xor_bytewise(dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len());
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
    }

    #[test]
    fn xor_with_self_is_zero() {
        let a: Vec<u8> = (0..=255).collect();
        assert!(xor_bytes(&a, &a).iter().all(|&b| b == 0));
    }

    #[test]
    fn xor_with_zero_is_identity() {
        let a: Vec<u8> = (0..100).map(|i| (i * 7) as u8).collect();
        let z = vec![0u8; 100];
        assert_eq!(xor_bytes(&a, &z), a);
    }

    #[test]
    fn handles_lengths_that_are_not_multiples_of_eight() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 65] {
            let a: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 3 + 1) as u8).collect();
            let naive: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            assert_eq!(xor_bytes(&a, &b), naive, "len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        xor_bytes(&[1, 2], &[1]);
    }

    #[test]
    fn wide_kernel_matches_scalar_reference() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 4096] {
            let a: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 31 + 1) as u8).collect();
            let mut wide = a.clone();
            xor_in_place(&mut wide, &b);
            let mut scalar = a.clone();
            xor_bytewise(&mut scalar, &b);
            assert_eq!(wide, scalar, "len={len}");
        }
    }

    #[test]
    fn nonzero_lanes_marks_exactly_the_nonzero_bytes() {
        // Every byte value in every lane, its neighbours all zero and
        // all 0xff: no lane's answer leaks into another's.
        const HIGH: u64 = 0x8080_8080_8080_8080;
        for lane in 0..8 {
            let others = !(0xffu64 << (8 * lane));
            for byte in 0..=255u8 {
                let x = u64::from(byte) << (8 * lane);
                let want = if byte == 0 { 0 } else { 0x80 << (8 * lane) };
                assert_eq!(nonzero_lanes(x), want, "lane={lane} byte={byte:#x}");
                assert_eq!(nonzero_lanes(x | others), want | (HIGH & others));
                assert_eq!(lane_count(nonzero_lanes(x)), usize::from(byte != 0));
                assert_eq!(
                    lane_count(nonzero_lanes(x | others)),
                    7 + usize::from(byte != 0)
                );
            }
        }
    }

    fn steps(buf: &[u8]) -> Vec<(usize, Nonzero)> {
        let mut got = Vec::new();
        for_each_nonzero_run(buf, |at, step| got.push((at, step)));
        got
    }

    #[test]
    fn words_pad_the_tail_with_zeros() {
        let mut buf: Vec<u8> = (1..=19).collect();
        buf[8..16].fill(0);
        let word = |bytes| Nonzero::Word(u64::from_le_bytes(bytes));
        assert_eq!(
            steps(&buf),
            [
                (0, word([1, 2, 3, 4, 5, 6, 7, 8])),
                (16, word([17, 18, 19, 0, 0, 0, 0, 0]))
            ]
        );
        assert_eq!(steps(&buf[..16]).len(), 1);
        assert!(steps(&buf[8..16]).is_empty());
        assert!(steps(&[]).is_empty());
        let mut xor = Vec::new();
        for_each_nonzero_xor_word(&buf, &[0; 19], |at, x| xor.push((at, Nonzero::Word(x))));
        assert_eq!(xor, steps(&buf));
    }

    #[test]
    fn a_line_with_no_zero_byte_comes_whole() {
        let dense = vec![0xa5u8; 3 * WIDE + 9];
        let word = Nonzero::Word(u64::from_le_bytes([0xa5; 8]));
        assert_eq!(
            steps(&dense),
            [
                (0, Nonzero::Line),
                (64, Nonzero::Line),
                (128, Nonzero::Line),
                // The padded tail has zero bytes: its words come apart.
                (192, word),
                (200, Nonzero::Word(0xa5)),
            ]
        );
        let mut xor = Vec::new();
        for_each_nonzero_xor_run(&dense, &vec![0; dense.len()], |at, step| {
            xor.push((at, step))
        });
        assert_eq!(xor, steps(&dense));
        // Only a line behind one that came whole, or every eighth
        // line, is tested: a dense stretch behind a line with a zero
        // byte comes as words up to the next 512-byte boundary.
        let mut stretch = vec![0xa5u8; 10 * WIDE];
        stretch[3] = 0;
        let got = steps(&stretch);
        assert_eq!(got.len(), 8 * 8 + 2);
        assert_eq!(&got[64..], [(512, Nonzero::Line), (576, Nonzero::Line)]);
        // One zero byte anywhere in a line breaks it into words.
        for hole in 0..WIDE {
            let mut line = vec![0xa5u8; WIDE];
            line[hole] = 0;
            let got = steps(&line);
            assert_eq!(got.len(), 8, "hole at {hole}");
            assert_eq!(got.iter().filter(|&&(_, x)| x != word).count(), 1);
        }
    }

    proptest! {
        #[test]
        fn prop_xor_is_involutive(a in proptest::collection::vec(any::<u8>(), 0..512),
                                  b_seed in any::<u64>()) {
            let b: Vec<u8> = a.iter().enumerate()
                .map(|(i, _)| (b_seed.wrapping_mul(i as u64 + 1) >> 32) as u8)
                .collect();
            let x = xor_bytes(&a, &b);
            prop_assert_eq!(xor_bytes(&x, &b), a);
        }

        #[test]
        fn prop_wide_matches_scalar(a in proptest::collection::vec(any::<u8>(), 0..600),
                                    seed in any::<u64>()) {
            let b: Vec<u8> = a.iter().enumerate()
                .map(|(i, _)| (seed.wrapping_mul(i as u64 + 3) >> 24) as u8)
                .collect();
            let mut wide = a.clone();
            xor_in_place(&mut wide, &b);
            let mut scalar = a.clone();
            xor_bytewise(&mut scalar, &b);
            prop_assert_eq!(wide, scalar);
        }

        #[test]
        fn prop_scan_words_match_the_bytes(a in proptest::collection::vec(0u8..3, 0..300),
                                           seed in any::<u64>()) {
            let b: Vec<u8> = a.iter().enumerate()
                .map(|(i, _)| (seed.wrapping_mul(i as u64 + 1) >> 61) as u8 % 3)
                .collect();
            let parity = xor_bytes(&a, &b);
            let mut lanes = vec![0u64; parity.len().div_ceil(8)];
            for_each_nonzero_xor_word(&a, &b, |at, x| lanes[at / 8] = nonzero_lanes(x));
            for (i, &p) in parity.iter().enumerate() {
                prop_assert_eq!(lanes[i / 8] >> (8 * (i % 8)) & 0xff, if p == 0 { 0 } else { 0x80 });
            }
            let changed: usize = lanes.iter().map(|&m| lane_count(m)).sum();
            prop_assert_eq!(changed, parity.iter().filter(|&&p| p != 0).count());
        }

        #[test]
        fn prop_xor_commutes(a in proptest::collection::vec(any::<u8>(), 0..256),
                             b in proptest::collection::vec(any::<u8>(), 0..256)) {
            let n = a.len().min(b.len());
            prop_assert_eq!(xor_bytes(&a[..n], &b[..n]), xor_bytes(&b[..n], &a[..n]));
        }

        #[test]
        fn prop_xor_associates(bytes in proptest::collection::vec(any::<(u8, u8, u8)>(), 0..256)) {
            let a: Vec<u8> = bytes.iter().map(|t| t.0).collect();
            let b: Vec<u8> = bytes.iter().map(|t| t.1).collect();
            let c: Vec<u8> = bytes.iter().map(|t| t.2).collect();
            prop_assert_eq!(
                xor_bytes(&xor_bytes(&a, &b), &c),
                xor_bytes(&a, &xor_bytes(&b, &c))
            );
        }
    }
}
