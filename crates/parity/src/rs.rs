//! Systematic Reed–Solomon coding over GF(256).
//!
//! The generator is `[I_k; C]` with `C` a k×m Cauchy block,
//! `c_{i,j} = 1 / (x_i ⊕ y_j)` for `x_i = k + i`, `y_j = j`. Every
//! square submatrix of a Cauchy matrix is nonsingular, so any `k` of
//! the `k + m` codeword strips determine the rest — the MDS property
//! the repair planner leans on.
//!
//! Updates are RMW deltas: changing data strip `j` by `Δ` changes
//! parity strip `i` by `c_{i,j} · Δ`, which is [`gf::mul_xor_slice`]
//! with that coefficient — linearity of the code over the field, and
//! the reason PRINS's sparse deltas stay sparse (`c · 0 = 0`).

use std::fmt;

use crate::gf::{self, MulTable};

/// Errors from Reed–Solomon encode and reconstruct.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EcError {
    /// Strip lengths disagree.
    LenMismatch {
        /// Expected length in bytes.
        expected: usize,
        /// Offending length in bytes.
        got: usize,
    },
    /// A strip-array length that is not `k + m`.
    WrongStripCount {
        /// Strips handed in.
        got: usize,
        /// Strips the codec works over.
        want: usize,
    },
    /// More strips missing than the code tolerates.
    TooManyErasures {
        /// Missing strips.
        missing: usize,
        /// Erasures the code can decode through.
        tolerated: usize,
    },
    /// The decode matrix was singular — the chosen survivor set cannot
    /// express the lost strip (never happens for an MDS code given
    /// `k` distinct survivors).
    Singular,
}

impl fmt::Display for EcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcError::LenMismatch { expected, got } => {
                write!(f, "strip length mismatch: expected {expected}, got {got}")
            }
            EcError::WrongStripCount { got, want } => {
                write!(f, "strip count {got} != k+m = {want}")
            }
            EcError::TooManyErasures { missing, tolerated } => {
                write!(f, "{missing} strips missing, only {tolerated} tolerated")
            }
            EcError::Singular => write!(f, "decode matrix is singular"),
        }
    }
}

impl std::error::Error for EcError {}

/// A systematic `k`-of-`(k+m)` Reed–Solomon codec.
///
/// Strip positions are codeword positions: `0..k` are the data strips,
/// `k..k+m` the parity strips. `parity_i = Σ_j coefficient(i, j) ·
/// data_j`, and any `k` of the `k + m` strips reconstruct the rest.
///
/// # Example
///
/// ```
/// use prins_parity::ReedSolomon;
///
/// let rs = ReedSolomon::k4m2();
/// let data: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 64]).collect();
/// let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
/// let parity = rs.encode(&refs).unwrap();
///
/// // Lose any two strips; the other four reconstruct them.
/// let mut strips: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
/// strips.extend(parity.into_iter().map(Some));
/// strips[1] = None;
/// strips[5] = None;
/// rs.reconstruct(&mut strips).unwrap();
/// assert_eq!(strips[1].as_deref(), Some(&data[1][..]));
/// ```
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// Row-major m×k Cauchy coefficients.
    coeff: Vec<u8>,
    /// Product rows per coefficient, same layout.
    tables: Vec<MulTable>,
}

impl ReedSolomon {
    /// Builds the codec for `k` data strips and `m` parity strips.
    ///
    /// # Panics
    ///
    /// If `k == 0`, `m == 0`, or `k + m > 256` (the Cauchy points must
    /// be distinct field elements).
    #[must_use]
    pub(crate) fn new(k: usize, m: usize) -> Self {
        assert!(k >= 1 && m >= 1, "RS needs k >= 1 and m >= 1");
        assert!(k + m <= 256, "k + m must not exceed the field size");
        let mut coeff = Vec::with_capacity(m * k);
        for i in 0..m {
            for j in 0..k {
                coeff.push(gf::inv(((k + i) ^ j) as u8));
            }
        }
        let tables = coeff.iter().map(|&c| MulTable::new(c)).collect();
        Self {
            k,
            m,
            coeff,
            tables,
        }
    }

    /// The paper-grade default: 4 data + 2 parity strips.
    #[must_use]
    pub fn k4m2() -> Self {
        Self::new(4, 2)
    }

    fn generator_row(&self, strip: usize) -> Vec<u8> {
        let mut row = vec![0u8; self.k];
        if strip < self.k {
            row[strip] = 1;
        } else {
            row.copy_from_slice(
                &self.coeff[(strip - self.k) * self.k..(strip - self.k + 1) * self.k],
            );
        }
        row
    }

    /// Expresses strip `lost` as a GF(256)-linear combination of the
    /// `k` chosen `survivors`: returns `λ` with
    /// `strip_lost = Σ_s λ_s · strip_{survivors[s]}`.
    ///
    /// This is the repair plan: a rebuild reads exactly `k` surviving
    /// strips — not all `n` — and scales each contribution once.
    ///
    /// # Errors
    ///
    /// [`EcError::TooManyErasures`] unless exactly `k` distinct
    /// survivors (none of them `lost`) are given;
    /// [`EcError::Singular`] if they cannot express the strip (never
    /// for distinct codeword positions of an MDS code).
    pub(crate) fn repair_coefficients(
        &self,
        lost: usize,
        survivors: &[usize],
    ) -> Result<Vec<u8>, EcError> {
        let n = self.k + self.m;
        if survivors.len() != self.k
            || survivors.contains(&lost)
            || survivors.iter().any(|&s| s >= n)
            || lost >= n
        {
            return Err(EcError::TooManyErasures {
                missing: n - survivors.len().min(n),
                tolerated: self.m,
            });
        }
        // Rows of the generator for the survivors: A · data = survivors.
        let a: Vec<Vec<u8>> = survivors.iter().map(|&s| self.generator_row(s)).collect();
        let a_inv = invert(a)?;
        // g_lost · A⁻¹ maps survivor strips straight to the lost strip.
        let g = self.generator_row(lost);
        let mut lambda = vec![0u8; self.k];
        for (s, slot) in lambda.iter_mut().enumerate() {
            let mut acc = 0u8;
            for (j, &gj) in g.iter().enumerate() {
                acc ^= gf::mul(gj, a_inv[j][s]);
            }
            *slot = acc;
        }
        Ok(lambda)
    }

    /// Number of data strips `k`.
    pub fn data_strips(&self) -> usize {
        self.k
    }

    /// Number of parity strips `m`.
    pub fn parity_strips(&self) -> usize {
        self.m
    }

    /// Total codeword width `n = k + m`.
    pub fn total_strips(&self) -> usize {
        self.k + self.m
    }

    /// Generator coefficient `c` of parity strip `parity` (0-based,
    /// `< m`) over data strip `data` (`< k`): updating data strip `j`
    /// by `Δd` updates parity `i` by `coefficient(i, j) · Δd`.
    pub fn coefficient(&self, parity: usize, data: usize) -> u8 {
        self.coeff[parity * self.k + data]
    }

    /// Encodes `m` parity strips over `k` equal-length data strips.
    ///
    /// # Errors
    ///
    /// [`EcError::WrongStripCount`] / [`EcError::LenMismatch`] on a
    /// malformed strip set.
    pub fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, EcError> {
        if data.len() != self.k {
            return Err(EcError::WrongStripCount {
                got: data.len(),
                want: self.k,
            });
        }
        let len = data[0].len();
        for s in data {
            if s.len() != len {
                return Err(EcError::LenMismatch {
                    expected: len,
                    got: s.len(),
                });
            }
        }
        let mut parity = vec![vec![0u8; len]; self.m];
        for (i, p) in parity.iter_mut().enumerate() {
            for (j, d) in data.iter().enumerate() {
                self.tables[i * self.k + j].mul_xor_slice(d, p);
            }
        }
        Ok(parity)
    }

    /// Fills in every `None` strip from the `Some` survivors, in place.
    /// `strips` must hold `k + m` positions in codeword order.
    ///
    /// # Errors
    ///
    /// [`EcError::TooManyErasures`] with fewer than `k` survivors,
    /// [`EcError::WrongStripCount`] / [`EcError::LenMismatch`] on a
    /// malformed strip set.
    pub fn reconstruct(&self, strips: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        let n = self.k + self.m;
        if strips.len() != n {
            return Err(EcError::WrongStripCount {
                got: strips.len(),
                want: n,
            });
        }
        let missing: Vec<usize> = (0..n).filter(|&i| strips[i].is_none()).collect();
        if missing.is_empty() {
            return Ok(());
        }
        if missing.len() > self.m {
            return Err(EcError::TooManyErasures {
                missing: missing.len(),
                tolerated: self.m,
            });
        }
        let survivors: Vec<usize> = (0..n)
            .filter(|&i| strips[i].is_some())
            .take(self.k)
            .collect();
        let len = strips[survivors[0]].as_ref().map_or(0, Vec::len);
        for &s in &survivors {
            let got = strips[s].as_ref().map_or(0, Vec::len);
            if got != len {
                return Err(EcError::LenMismatch { expected: len, got });
            }
        }
        for &lost in &missing {
            let lambda = self.repair_coefficients(lost, &survivors)?;
            let mut out = vec![0u8; len];
            for (s, &c) in survivors.iter().zip(&lambda) {
                let strip = strips[*s].as_ref().expect("survivor present");
                gf::mul_xor_slice(c, strip, &mut out);
            }
            strips[lost] = Some(out);
        }
        Ok(())
    }
}

/// Gauss–Jordan inversion of a square matrix over GF(256).
fn invert(mut a: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, EcError> {
    let n = a.len();
    let mut inv: Vec<Vec<u8>> = (0..n)
        .map(|i| (0..n).map(|j| u8::from(i == j)).collect())
        .collect();
    for col in 0..n {
        let pivot = (col..n)
            .find(|&r| a[r][col] != 0)
            .ok_or(EcError::Singular)?;
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let p = gf::inv(a[col][col]);
        for j in 0..n {
            a[col][j] = gf::mul(a[col][j], p);
            inv[col][j] = gf::mul(inv[col][j], p);
        }
        for r in 0..n {
            if r == col || a[r][col] == 0 {
                continue;
            }
            let f = a[r][col];
            for j in 0..n {
                let ac = gf::mul(f, a[col][j]);
                a[r][j] ^= ac;
                let ic = gf::mul(f, inv[col][j]);
                inv[r][j] ^= ic;
            }
        }
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngExt, SeedableRng};

    fn sample_strips(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| {
                let mut s = vec![0u8; len];
                rng.fill_bytes(&mut s);
                s
            })
            .collect()
    }

    fn codeword(rs: &ReedSolomon, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let mut strips = data.to_vec();
        strips.extend(rs.encode(&refs).unwrap());
        strips
    }

    #[test]
    fn erase_any_m_and_decode() {
        let rs = ReedSolomon::k4m2();
        let data = sample_strips(4, 128, 1);
        let full = codeword(&rs, &data);
        // Every pair of erasures across all 6 positions.
        for a in 0..6 {
            for b in a..6 {
                let mut view: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                view[a] = None;
                view[b] = None;
                rs.reconstruct(&mut view).unwrap();
                for (i, strip) in full.iter().enumerate() {
                    assert_eq!(
                        view[i].as_ref().unwrap(),
                        strip,
                        "erase ({a},{b}) strip {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn three_erasures_with_m2_are_rejected() {
        let rs = ReedSolomon::k4m2();
        let data = sample_strips(4, 32, 2);
        let mut view: Vec<Option<Vec<u8>>> = codeword(&rs, &data).into_iter().map(Some).collect();
        view[0] = None;
        view[2] = None;
        view[5] = None;
        assert!(matches!(
            rs.reconstruct(&mut view),
            Err(EcError::TooManyErasures {
                missing: 3,
                tolerated: 2
            })
        ));
    }

    #[test]
    fn rmw_delta_update_equals_reencode() {
        let rs = ReedSolomon::k4m2();
        let mut data = sample_strips(4, 96, 3);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let mut parity = rs.encode(&refs).unwrap();
        // Sparse update of data strip 2.
        let mut updated = data[2].clone();
        updated[10..30].fill(0x5a);
        let delta = crate::xor_bytes(&data[2], &updated);
        for (i, p) in parity.iter_mut().enumerate() {
            gf::mul_xor_slice(rs.coefficient(i, 2), &delta, p);
        }
        data[2] = updated;
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        assert_eq!(parity, rs.encode(&refs).unwrap());
    }

    #[test]
    fn repair_coefficients_rebuild_each_strip_from_k_survivors() {
        let rs = ReedSolomon::new(3, 2);
        let data = sample_strips(3, 64, 4);
        let full = codeword(&rs, &data);
        for lost in 0..5 {
            let survivors: Vec<usize> = (0..5).filter(|&s| s != lost).take(3).collect();
            let lambda = rs.repair_coefficients(lost, &survivors).unwrap();
            let mut out = vec![0u8; 64];
            for (&s, &c) in survivors.iter().zip(&lambda) {
                gf::mul_xor_slice(c, &full[s], &mut out);
            }
            assert_eq!(out, full[lost], "lost {lost} via {survivors:?}");
        }
    }

    #[test]
    fn repair_coefficients_reject_bad_survivor_sets() {
        let rs = ReedSolomon::k4m2();
        assert!(rs.repair_coefficients(0, &[1, 2, 3]).is_err()); // too few
        assert!(rs.repair_coefficients(0, &[0, 1, 2, 3]).is_err()); // contains lost
        assert!(rs.repair_coefficients(9, &[1, 2, 3, 4]).is_err()); // out of range
    }

    #[test]
    fn malformed_strip_sets_are_rejected() {
        let rs = ReedSolomon::k4m2();
        assert!(matches!(
            rs.encode(&[&[0u8; 4][..]; 3]),
            Err(EcError::WrongStripCount { got: 3, want: 4 })
        ));
        assert!(matches!(
            rs.encode(&[&[0u8; 4][..], &[0u8; 4], &[0u8; 4], &[0u8; 8]]),
            Err(EcError::LenMismatch { .. })
        ));
        let mut short = vec![Some(vec![0u8; 4]); 5];
        assert!(matches!(
            rs.reconstruct(&mut short),
            Err(EcError::WrongStripCount { .. })
        ));
    }

    proptest! {
        /// Encode → erase any ≤ m strips → decode restores the codeword.
        #[test]
        fn prop_encode_erase_decode(
            k in 1usize..6,
            m in 1usize..4,
            len in 1usize..80,
            seed in any::<u64>(),
            picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        ) {
            let rs = ReedSolomon::new(k, m);
            let data = sample_strips(k, len, seed);
            let full = codeword(&rs, &data);
            let mut view: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            let mut erased = std::collections::BTreeSet::new();
            for p in picks.iter().take(m) {
                erased.insert(p.index(k + m));
            }
            for &e in &erased {
                view[e] = None;
            }
            rs.reconstruct(&mut view).unwrap();
            for (i, strip) in full.iter().enumerate() {
                prop_assert_eq!(view[i].as_ref().unwrap(), strip);
            }
        }

        /// RMW parity updates commute with re-encoding for random
        /// deltas on random strips.
        #[test]
        fn prop_rmw_update_equals_reencode(
            seed in any::<u64>(),
            strip in 0usize..4,
            at in 0usize..60,
            val in any::<u8>(),
        ) {
            let rs = ReedSolomon::k4m2();
            let mut data = sample_strips(4, 64, seed);
            let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
            let mut parity = rs.encode(&refs).unwrap();
            let mut updated = data[strip].clone();
            updated[at] ^= val;
            let delta = crate::xor_bytes(&data[strip], &updated);
            for (i, p) in parity.iter_mut().enumerate() {
                gf::mul_xor_slice(rs.coefficient(i, strip), &delta, p);
            }
            data[strip] = updated;
            let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
            prop_assert_eq!(parity, rs.encode(&refs).unwrap());
        }
    }
}
