//! GF(256) arithmetic: log/exp tables and slice-wise kernels.
//!
//! The field is GF(2^8) with the conventional reduction polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11d) and generator 2. Tables are
//! built at compile time; [`mul`] and `inv` are single lookups, and
//! [`MulTable`] turns a fixed coefficient into a 256-byte product row
//! so the slice kernel [`mul_xor_slice`] runs one table load per byte
//! — the GF analogue of this crate's word-at-a-time XOR kernels (XOR
//! needs no table, so its kernel is 8 bytes per op; a GF multiply is
//! inherently bytewise).

/// The reduction polynomial of the field (degree-8 term implicit).
pub(crate) const POLY: u16 = 0x11d;

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        // Doubled table: exp[a + b] is valid for a, b < 255 without a
        // mod-255 in the hot path.
        exp[i + 255] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Positions 510/511 are never indexed (log sums top out at 508);
    // keep them at the cycle start for definedness.
    exp[510] = exp[0];
    exp[511] = exp[1];
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();
/// `EXP[i] = g^i` for the generator `g = 2`, doubled to 510 entries.
pub(crate) static EXP: [u8; 512] = TABLES.0;
/// `LOG[x] = log_g x` for `x != 0` (`LOG[0]` is unused and 0).
pub(crate) static LOG: [u8; 256] = TABLES.1;

/// Field multiplication.
#[inline]
#[must_use]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse of a nonzero element.
///
/// # Panics
///
/// In debug builds if `a == 0`; zero has no inverse.
#[inline]
#[must_use]
pub(crate) fn inv(a: u8) -> u8 {
    debug_assert_ne!(a, 0, "zero has no inverse in GF(256)");
    EXP[255 - LOG[a as usize] as usize]
}

/// A fixed coefficient's 256-entry product row: `row[x] = c · x`.
///
/// Encoding and repair multiply whole strips by the same generator
/// coefficient; hoisting the double table lookup into one row load
/// per byte is what makes the slice kernels below the hot path.
#[derive(Clone, Debug)]
pub struct MulTable {
    row: [u8; 256],
}

impl MulTable {
    /// Builds the product row of `c`.
    #[must_use]
    pub fn new(c: u8) -> Self {
        let mut row = [0u8; 256];
        if c != 0 {
            let lc = LOG[c as usize] as usize;
            for (x, slot) in row.iter_mut().enumerate().skip(1) {
                *slot = EXP[lc + LOG[x] as usize];
            }
        }
        Self { row }
    }

    /// The coefficient's product for a single byte.
    #[inline]
    #[must_use]
    pub fn mul(&self, x: u8) -> u8 {
        self.row[x as usize]
    }

    /// `dst ^= c · src`, elementwise — the RMW parity-strip update.
    ///
    /// Eight products per lane fold into one `u64` XOR against the
    /// destination: one wide load, one wide XOR, one wide store instead
    /// of eight read-modify-write byte ops.
    ///
    /// # Panics
    ///
    /// If the slices differ in length.
    pub fn mul_xor_slice(&self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "mul_xor_slice length mismatch");
        const WIDE: usize = 64;
        let blocks = src.len() / WIDE;
        for b in 0..blocks {
            let s = &src[b * WIDE..(b + 1) * WIDE];
            let d = &mut dst[b * WIDE..(b + 1) * WIDE];
            for (dc, sc) in d.chunks_exact_mut(8).zip(s.chunks_exact(8)) {
                let products = u64::from_ne_bytes([
                    self.row[sc[0] as usize],
                    self.row[sc[1] as usize],
                    self.row[sc[2] as usize],
                    self.row[sc[3] as usize],
                    self.row[sc[4] as usize],
                    self.row[sc[5] as usize],
                    self.row[sc[6] as usize],
                    self.row[sc[7] as usize],
                ]);
                let lane = u64::from_ne_bytes(dc[..8].try_into().unwrap()) ^ products;
                dc.copy_from_slice(&lane.to_ne_bytes());
            }
        }
        for (d, s) in dst[blocks * WIDE..].iter_mut().zip(&src[blocks * WIDE..]) {
            *d ^= self.row[*s as usize];
        }
    }
}

/// `dst ^= c · src` without a prebuilt [`MulTable`].
///
/// Coefficient 1 is PRINS's own backward parity, `A_new = P′ ⊕ A_old`,
/// and runs the word-at-a-time [`xor_in_place`](crate::xor_in_place).
pub fn mul_xor_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    match c {
        0 => {}
        1 => crate::xor_in_place(dst, src),
        _ => MulTable::new(c).mul_xor_slice(src, dst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mul_ref(mut a: u8, mut b: u8) -> u8 {
        // Russian-peasant multiplication straight off the polynomial —
        // the table-free oracle.
        let mut out = 0u8;
        while b != 0 {
            if b & 1 == 1 {
                out ^= a;
            }
            let carry = a & 0x80 != 0;
            a <<= 1;
            if carry {
                a ^= (POLY & 0xff) as u8;
            }
            b >>= 1;
        }
        out
    }

    #[test]
    fn tables_match_the_polynomial_oracle() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_ref(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_an_inverse() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
        }
    }

    #[test]
    fn slice_kernels_match_scalar_for_all_lengths() {
        // Cover the 64-byte blocks, the 8-wide unroll, and ragged tails.
        let src: Vec<u8> = (0..200u16).map(|i| (i * 37 % 251) as u8).collect();
        for c in [0u8, 1, 2, 0x53, 0xff] {
            for len in [0usize, 1, 7, 8, 63, 64, 65, 128, 200] {
                let mut dst = vec![0xa5u8; len];
                mul_xor_slice(c, &src[..len], &mut dst);
                let want: Vec<u8> = src[..len].iter().map(|&x| 0xa5 ^ mul(c, x)).collect();
                assert_eq!(dst, want, "mul_xor_slice c={c} len={len}");
            }
        }
    }

    proptest! {
        /// Multiplication is associative and commutative.
        #[test]
        fn prop_mul_assoc_comm(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
            prop_assert_eq!(mul(a, b), mul(b, a));
            prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
        }

        /// Multiplication distributes over addition (XOR).
        #[test]
        fn prop_distributive(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
            prop_assert_eq!(mul(a, b ^ c), mul(a, b) ^ mul(a, c));
        }

        /// Inverse round-trip: `(a · b) · b⁻¹ == a` for `b != 0`.
        #[test]
        fn prop_inverse_roundtrip(a in any::<u8>(), b in 1u8..=255) {
            prop_assert_eq!(mul(mul(a, b), inv(b)), a);
        }

        /// Identity and annihilator.
        #[test]
        fn prop_identities(a in any::<u8>()) {
            prop_assert_eq!(mul(a, 1), a);
            prop_assert_eq!(mul(a, 0), 0);
        }

        /// The slice kernel is the scalar multiply, elementwise.
        #[test]
        fn prop_mul_xor_slice_matches_scalar(
            c in any::<u8>(),
            src in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let mut dst = vec![0u8; src.len()];
            mul_xor_slice(c, &src, &mut dst);
            let want: Vec<u8> = src.iter().map(|&x| mul(c, x)).collect();
            prop_assert_eq!(dst, want);
        }
    }
}
