//! The erasure-codec seam: k-of-n strip coding behind one trait.
//!
//! PRINS's delta algebra generalizes beyond mirroring: a write that
//! changes a data strip by `Δd` changes parity strip `i` by
//! `Δp_i = c_i · Δd`, where `c_i` is the codec's generator coefficient
//! for that (parity, data) pair and `·` is multiplication in the
//! codec's field. Mirroring is the degenerate code (`k = 1`, every
//! coefficient 1, the field is GF(2) applied bytewise — plain XOR);
//! Reed–Solomon over GF(256) lives in `prins-ec` and plugs in through
//! the same trait.
//!
//! Consumers (the replica applier, the EC cluster group) depend on
//! [`ErasureCodec`], not on XOR free functions, so swapping the code
//! never touches the wire or apply paths.

use std::fmt;

use crate::xor::xor_in_place;

/// Errors from erasure encode/apply/reconstruct.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EcError {
    /// A delta-apply coefficient the codec cannot multiply by (the XOR
    /// codec only knows 0 and 1).
    BadCoefficient(u8),
    /// Strip or delta lengths disagree.
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
            EcError::BadCoefficient(c) => write!(f, "unsupported coefficient {c:#04x}"),
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

/// A systematic k-of-(k+m) erasure code over byte strips.
///
/// Strip positions are codeword positions: `0..k` are the data strips,
/// `k..k+m` the parity strips. The contract every implementation keeps:
///
/// * `parity_i = Σ_j coefficient(i, j) · data_j` (encode),
/// * updating data strip `j` by `Δd` updates parity `i` by
///   `coefficient(i, j) · Δd` ([`apply_delta`](Self::apply_delta) with
///   that coefficient lands exactly that), and
/// * any `k` of the `k + m` strips reconstruct the rest
///   ([`reconstruct`](Self::reconstruct)).
pub trait ErasureCodec: Send + Sync {
    /// Number of data strips `k`.
    fn data_strips(&self) -> usize;

    /// Number of parity strips `m`.
    fn parity_strips(&self) -> usize;

    /// Total codeword width `n = k + m`.
    fn total_strips(&self) -> usize {
        self.data_strips() + self.parity_strips()
    }

    /// Generator coefficient `c` of parity strip `parity` (0-based,
    /// `< m`) over data strip `data` (`< k`).
    fn coefficient(&self, parity: usize, data: usize) -> u8;

    /// RMW-applies `base ^= coeff · delta` in the codec's field.
    ///
    /// # Errors
    ///
    /// [`EcError::LenMismatch`] when slices disagree, or
    /// [`EcError::BadCoefficient`] if the codec cannot scale by
    /// `coeff`.
    fn apply_delta(&self, base: &mut [u8], coeff: u8, delta: &[u8]) -> Result<(), EcError>;

    /// Encodes `m` parity strips over `k` equal-length data strips.
    ///
    /// # Errors
    ///
    /// [`EcError::WrongStripCount`] / [`EcError::LenMismatch`] on a
    /// malformed strip set.
    fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, EcError>;

    /// Fills in every `None` strip from the `Some` survivors, in place.
    /// `strips` must hold `k + m` positions in codeword order.
    ///
    /// # Errors
    ///
    /// [`EcError::TooManyErasures`] with fewer than `k` survivors,
    /// [`EcError::WrongStripCount`] / [`EcError::LenMismatch`] on a
    /// malformed strip set.
    fn reconstruct(&self, strips: &mut [Option<Vec<u8>>]) -> Result<(), EcError>;

    /// Short name for reports ("xor", "rs(4+2)", …).
    fn name(&self) -> &'static str;
}

fn check_strip_lens(strips: &[&[u8]]) -> Result<usize, EcError> {
    let len = strips.first().map_or(0, |s| s.len());
    for s in strips {
        if s.len() != len {
            return Err(EcError::LenMismatch {
                expected: len,
                got: s.len(),
            });
        }
    }
    Ok(len)
}

/// The trivial codec: single XOR parity (`m = 1`), the RAID-4/5 and
/// mirroring fast path. With `k = 1` the parity strip is a byte-exact
/// copy of the data strip — classic PRINS mirroring expressed as an
/// erasure code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XorCodec {
    k: usize,
}

impl XorCodec {
    /// An XOR code over `k` data strips (`k ≥ 1`).
    ///
    /// # Panics
    ///
    /// If `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "XOR code needs at least one data strip");
        Self { k }
    }

    /// The mirroring configuration: one data strip, one copy.
    pub fn mirror() -> Self {
        Self::new(1)
    }
}

impl Default for XorCodec {
    fn default() -> Self {
        Self::mirror()
    }
}

impl ErasureCodec for XorCodec {
    fn data_strips(&self) -> usize {
        self.k
    }

    fn parity_strips(&self) -> usize {
        1
    }

    fn coefficient(&self, _parity: usize, _data: usize) -> u8 {
        1
    }

    fn apply_delta(&self, base: &mut [u8], coeff: u8, delta: &[u8]) -> Result<(), EcError> {
        if base.len() != delta.len() {
            return Err(EcError::LenMismatch {
                expected: base.len(),
                got: delta.len(),
            });
        }
        match coeff {
            0 => Ok(()),
            1 => {
                xor_in_place(base, delta);
                Ok(())
            }
            other => Err(EcError::BadCoefficient(other)),
        }
    }

    fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, EcError> {
        if data.len() != self.k {
            return Err(EcError::WrongStripCount {
                got: data.len(),
                want: self.k,
            });
        }
        let len = check_strip_lens(data)?;
        let mut parity = vec![0u8; len];
        for strip in data {
            xor_in_place(&mut parity, strip);
        }
        Ok(vec![parity])
    }

    fn reconstruct(&self, strips: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        let n = self.total_strips();
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
        if missing.len() > 1 {
            return Err(EcError::TooManyErasures {
                missing: missing.len(),
                tolerated: 1,
            });
        }
        let present: Vec<&[u8]> = strips.iter().filter_map(|s| s.as_deref()).collect();
        let len = check_strip_lens(&present)?;
        // Sum of every survivor: data ⊕ parity cancels to the missing
        // strip, whichever position it held.
        let mut out = vec![0u8; len];
        for s in &present {
            xor_in_place(&mut out, s);
        }
        strips[missing[0]] = Some(out);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "xor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_parity_is_a_copy() {
        let codec = XorCodec::mirror();
        let data = vec![1u8, 2, 3, 4];
        let parity = codec.encode(&[&data]).unwrap();
        assert_eq!(parity, vec![data.clone()]);
        assert_eq!(codec.name(), "xor");
        assert_eq!((codec.data_strips(), codec.parity_strips()), (1, 1));
    }

    #[test]
    fn apply_delta_supports_only_zero_and_one() {
        let codec = XorCodec::new(3);
        let mut base = vec![0x0fu8; 4];
        codec.apply_delta(&mut base, 0, &[0xff; 4]).unwrap();
        assert_eq!(base, vec![0x0f; 4]);
        codec.apply_delta(&mut base, 1, &[0xf0; 4]).unwrap();
        assert_eq!(base, vec![0xff; 4]);
        assert_eq!(
            codec.apply_delta(&mut base, 2, &[0; 4]),
            Err(EcError::BadCoefficient(2))
        );
        assert!(matches!(
            codec.apply_delta(&mut base, 1, &[0; 3]),
            Err(EcError::LenMismatch { .. })
        ));
    }

    #[test]
    fn any_single_erasure_reconstructs() {
        let codec = XorCodec::new(3);
        let strips: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]];
        let refs: Vec<&[u8]> = strips.iter().map(|s| s.as_slice()).collect();
        let parity = codec.encode(&refs).unwrap().remove(0);
        let mut full: Vec<Vec<u8>> = strips.clone();
        full.push(parity);
        for lost in 0..4 {
            let mut view: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            view[lost] = None;
            codec.reconstruct(&mut view).unwrap();
            assert_eq!(view[lost].as_ref().unwrap(), &full[lost], "strip {lost}");
        }
    }

    #[test]
    fn double_erasure_is_rejected() {
        let codec = XorCodec::new(2);
        let mut view = vec![None, None, Some(vec![0u8; 4])];
        assert!(matches!(
            codec.reconstruct(&mut view),
            Err(EcError::TooManyErasures {
                missing: 2,
                tolerated: 1
            })
        ));
        let mut short = vec![Some(vec![0u8; 4])];
        assert!(matches!(
            codec.reconstruct(&mut short),
            Err(EcError::WrongStripCount { .. })
        ));
    }

    #[test]
    fn rmw_update_equals_reencode() {
        // The satellite equivalence at its simplest: XOR-update the
        // parity by coefficient(0, j)·Δ and compare with re-encoding.
        let codec = XorCodec::new(4);
        let mut strips: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 16]).collect();
        let refs: Vec<&[u8]> = strips.iter().map(|s| s.as_slice()).collect();
        let mut parity = codec.encode(&refs).unwrap().remove(0);
        let mut new_strip = strips[2].clone();
        new_strip[3] ^= 0x77;
        let delta = crate::xor_bytes(&strips[2], &new_strip);
        codec
            .apply_delta(&mut parity, codec.coefficient(0, 2), &delta)
            .unwrap();
        strips[2] = new_strip;
        let refs: Vec<&[u8]> = strips.iter().map(|s| s.as_slice()).collect();
        assert_eq!(parity, codec.encode(&refs).unwrap().remove(0));
    }

    #[test]
    fn trait_objects_compose() {
        let codec: Box<dyn ErasureCodec> = Box::new(XorCodec::mirror());
        assert_eq!(codec.total_strips(), 2);
        assert_eq!(codec.coefficient(0, 0), 1);
    }
}
