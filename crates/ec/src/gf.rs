//! GF(256) arithmetic: log/exp tables and slice-wise kernels.
//!
//! The field is GF(2^8) with the conventional reduction polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11d) and generator 2. Tables are
//! built at compile time; [`mul`]/[`div`]/[`inv`] are single lookups,
//! and [`MulTable`] turns a fixed coefficient into a 256-byte product
//! row so the slice kernels [`mul_slice`]/[`mul_xor_slice`] run one
//! table load per byte — the GF analogue of `prins_parity`'s
//! word-at-a-time XOR kernels (XOR needs no table, so its kernel is
//! 8 bytes per op; a GF multiply is inherently bytewise).

/// The reduction polynomial of the field (degree-8 term implicit).
pub const POLY: u16 = 0x11d;

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
pub static EXP: [u8; 512] = TABLES.0;
/// `LOG[x] = log_g x` for `x != 0` (`LOG[0]` is unused and 0).
pub static LOG: [u8; 256] = TABLES.1;

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

/// Field addition — XOR, shared with every GF(2^w).
#[inline]
#[must_use]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplicative inverse of a nonzero element.
///
/// # Panics
///
/// In debug builds if `a == 0`; zero has no inverse.
#[inline]
#[must_use]
pub fn inv(a: u8) -> u8 {
    debug_assert_ne!(a, 0, "zero has no inverse in GF(256)");
    EXP[255 - LOG[a as usize] as usize]
}

/// Field division `a / b`.
///
/// # Panics
///
/// In debug builds if `b == 0`.
#[inline]
#[must_use]
pub fn div(a: u8, b: u8) -> u8 {
    debug_assert_ne!(b, 0, "division by zero in GF(256)");
    if a == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + 255 - LOG[b as usize] as usize]
    }
}

/// `a^e` by square-and-multiply (used by tests; the codec needs only
/// table lookups).
#[must_use]
pub fn pow(mut a: u8, mut e: u32) -> u8 {
    let mut out = 1u8;
    while e > 0 {
        if e & 1 == 1 {
            out = mul(out, a);
        }
        a = mul(a, a);
        e >>= 1;
    }
    out
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

    /// `dst = c · src`, elementwise.
    ///
    /// The lookups are inherently bytewise, but the eight products of
    /// each lane are composed into one `u64` and written with a single
    /// wide store — 1/8th the stores of the scalar loop.
    ///
    /// # Panics
    ///
    /// If the slices differ in length.
    pub fn mul_slice(&self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "mul_slice length mismatch");
        // 64-byte blocks, 8-byte lanes inside — the same walk shape as
        // the XOR kernel.
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
                dc.copy_from_slice(&products.to_ne_bytes());
            }
        }
        for (d, s) in dst[blocks * WIDE..].iter_mut().zip(&src[blocks * WIDE..]) {
            *d = self.row[*s as usize];
        }
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

/// `dst = c · src` without a prebuilt [`MulTable`] (builds one
/// internally; prefer the table for repeated coefficients).
pub fn mul_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    match c {
        0 => dst.fill(0),
        1 => dst.copy_from_slice(src),
        _ => MulTable::new(c).mul_slice(src, dst),
    }
}

/// `dst ^= c · src` without a prebuilt [`MulTable`].
pub fn mul_xor_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    match c {
        0 => {}
        1 => prins_parity::xor_in_place(dst, src),
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
    fn inverse_and_division() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
            assert_eq!(div(a, a), 1);
            assert_eq!(div(0, a), 0);
        }
        assert_eq!(pow(2, 255), 1); // the generator's order
    }

    #[test]
    fn slice_kernels_match_scalar_for_all_lengths() {
        // Cover the 64-byte blocks, the 8-wide unroll, and ragged tails.
        let src: Vec<u8> = (0..200u16).map(|i| (i * 37 % 251) as u8).collect();
        for c in [0u8, 1, 2, 0x53, 0xff] {
            for len in [0usize, 1, 7, 8, 63, 64, 65, 128, 200] {
                let mut dst = vec![0xa5u8; len];
                mul_slice(c, &src[..len], &mut dst);
                let want: Vec<u8> = src[..len].iter().map(|&x| mul(c, x)).collect();
                assert_eq!(dst, want, "mul_slice c={c} len={len}");

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
            prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }

        /// Inverse round-trip: `(a · b) / b == a` for `b != 0`.
        #[test]
        fn prop_inverse_roundtrip(a in any::<u8>(), b in 1u8..=255) {
            prop_assert_eq!(div(mul(a, b), b), a);
            prop_assert_eq!(mul(mul(a, b), inv(b)), a);
        }

        /// Identity and annihilator.
        #[test]
        fn prop_identities(a in any::<u8>()) {
            prop_assert_eq!(mul(a, 1), a);
            prop_assert_eq!(mul(a, 0), 0);
            prop_assert_eq!(add(a, a), 0); // characteristic 2
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
