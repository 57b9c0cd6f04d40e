//! Wide XOR kernels.
//!
//! XOR is the only arithmetic PRINS and RAID parity need. The kernels
//! below walk the buffers in 64-byte chunks via `chunks_exact`, so the
//! optimizer sees fixed-size windows with no per-iteration bounds checks
//! and emits wide (SSE/AVX/NEON) loads; an 8-byte pass and a byte-wise
//! tail mop up the remainder. This keeps the "computation is much
//! cheaper than communication" premise of the paper honest.

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

/// Index of the first nonzero byte at or after `from`, scanning a word
/// at a time.
///
/// The hot caller is [`SparseCodec::encode`](crate::SparseCodec): a
/// PRINS parity block is mostly zeros, and this scan skips the zero
/// runs eight bytes per comparison (memory bandwidth) instead of one.
///
/// # Example
///
/// ```
/// use prins_parity::scan_nonzero;
///
/// let mut buf = vec![0u8; 100];
/// buf[70] = 9;
/// assert_eq!(scan_nonzero(&buf, 0), Some(70));
/// assert_eq!(scan_nonzero(&buf, 71), None);
/// ```
pub fn scan_nonzero(buf: &[u8], from: usize) -> Option<usize> {
    if from >= buf.len() {
        return None;
    }
    let tail = &buf[from..];
    let mut words = tail.chunks_exact(8);
    let mut offset = 0usize;
    for w in words.by_ref() {
        let word = u64::from_ne_bytes(w.try_into().unwrap());
        if word != 0 {
            // Locate the nonzero byte within the word; byte order does
            // not matter for a linear scan of 8 bytes.
            let at = w.iter().position(|&b| b != 0).unwrap();
            return Some(from + offset + at);
        }
        offset += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| b != 0)
        .map(|at| from + offset + at)
}

/// Index of the first position at or after `from` where `a` and `b`
/// differ, scanning a word at a time.
///
/// This is [`scan_nonzero`] over the *virtual* parity `a ⊕ b` without
/// materializing it: the hot caller is the pooled encode path
/// (`SparseCodec::encode_delta_into`), which walks the old/new images
/// directly instead of allocating a dense parity block first.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub(crate) fn scan_mismatch(a: &[u8], b: &[u8], from: usize) -> Option<usize> {
    assert_eq!(a.len(), b.len(), "scan operands must be equal length");
    if from >= a.len() {
        return None;
    }
    let (ta, tb) = (&a[from..], &b[from..]);
    let mut wa = ta.chunks_exact(8);
    let mut wb = tb.chunks_exact(8);
    let mut offset = 0usize;
    for (ca, cb) in wa.by_ref().zip(wb.by_ref()) {
        let x =
            u64::from_ne_bytes(ca.try_into().unwrap()) ^ u64::from_ne_bytes(cb.try_into().unwrap());
        if x != 0 {
            let at = ca.iter().zip(cb).position(|(p, q)| p != q).unwrap();
            return Some(from + offset + at);
        }
        offset += 8;
    }
    wa.remainder()
        .iter()
        .zip(wb.remainder())
        .position(|(p, q)| p != q)
        .map(|at| from + offset + at)
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
    fn scan_nonzero_finds_first_set_byte() {
        let mut buf = vec![0u8; 300];
        assert_eq!(scan_nonzero(&buf, 0), None);
        assert_eq!(scan_nonzero(&buf, 300), None);
        assert_eq!(scan_nonzero(&buf, 999), None);
        for at in [0usize, 1, 7, 8, 9, 63, 64, 255, 296, 299] {
            buf.fill(0);
            buf[at] = 1;
            assert_eq!(scan_nonzero(&buf, 0), Some(at), "at={at}");
            assert_eq!(scan_nonzero(&buf, at), Some(at), "at={at}");
            assert_eq!(scan_nonzero(&buf, at + 1), None, "at={at}");
        }
    }

    #[test]
    fn scan_mismatch_equals_scan_nonzero_of_the_parity() {
        let a: Vec<u8> = (0..300).map(|i| (i % 7) as u8).collect();
        for at in [0usize, 1, 7, 8, 9, 63, 64, 255, 296, 299] {
            let mut b = a.clone();
            b[at] ^= 0x80;
            let parity = xor_bytes(&a, &b);
            for from in [0usize, 1, at, at + 1, 300, 999] {
                assert_eq!(
                    scan_mismatch(&a, &b, from),
                    scan_nonzero(&parity, from),
                    "at={at} from={from}"
                );
            }
        }
        assert_eq!(scan_mismatch(&a, &a, 0), None);
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
        fn prop_scan_nonzero_matches_position(raw in proptest::collection::vec(any::<u8>(), 0..256),
                                              from in 0usize..300) {
            // Bias towards zeros so runs of all shapes appear.
            let buf: Vec<u8> = raw.iter().map(|&b| if b < 224 { 0 } else { b }).collect();
            let expected = buf.iter().enumerate().skip(from.min(buf.len()))
                .find(|(_, &b)| b != 0).map(|(i, _)| i);
            prop_assert_eq!(scan_nonzero(&buf, from), expected);
        }

        #[test]
        fn prop_scan_mismatch_matches_parity_scan(
                a in proptest::collection::vec(any::<u8>(), 0..256),
                flips in proptest::collection::vec((any::<prop::sample::Index>(), 1u8..), 0..6),
                from in 0usize..300) {
            let mut b = a.clone();
            for (idx, v) in &flips {
                if !b.is_empty() {
                    let at = idx.index(b.len());
                    b[at] ^= v;
                }
            }
            let parity = xor_bytes(&a, &b);
            prop_assert_eq!(scan_mismatch(&a, &b, from), scan_nonzero(&parity, from));
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
