//! Forward parity computation (Equation (1) of the paper) and
//! change-ratio statistics.

use crate::xor::xor_bytes;

/// Computes the forward parity `P' = A_new ⊕ A_old` at the primary site.
///
/// In a RAID-4/5 array this value is already produced by the small-write
/// read-modify-write path (see `prins-raid`), so PRINS gets it for free;
/// without RAID it costs one XOR pass over the block.
///
/// # Panics
///
/// Panics if the images have different lengths.
///
/// # Example
///
/// ```
/// use prins_parity::forward_parity;
///
/// let old = [0u8; 8];
/// let mut new = old;
/// new[3] = 0xff;
/// let p = forward_parity(&old, &new);
/// assert_eq!(p.iter().filter(|&&b| b != 0).count(), 1);
/// ```
pub fn forward_parity(old: &[u8], new: &[u8]) -> Vec<u8> {
    xor_bytes(old, new)
}

/// Statistics about how much of a block a write actually changed.
///
/// The paper's premise (from the authors' earlier measurement studies) is
/// that real applications change only 5–20 % of a block per write; these
/// statistics let the workloads verify they reproduce that regime.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeltaStats {
    /// Total bytes in the block.
    pub block_bytes: usize,
    /// Bytes whose value differs between old and new image.
    pub changed_bytes: usize,
    /// Number of maximal contiguous runs of changed bytes.
    pub changed_extents: usize,
}

impl DeltaStats {
    /// Measures the delta between two images.
    ///
    /// # Panics
    ///
    /// Panics if the images have different lengths.
    pub fn measure(old: &[u8], new: &[u8]) -> Self {
        assert_eq!(old.len(), new.len(), "delta operands must be equal length");
        let mut changed_bytes = 0usize;
        let mut changed_extents = 0usize;
        let mut in_run = false;
        for (a, b) in old.iter().zip(new) {
            if a != b {
                changed_bytes += 1;
                if !in_run {
                    changed_extents += 1;
                    in_run = true;
                }
            } else {
                in_run = false;
            }
        }
        Self {
            block_bytes: old.len(),
            changed_bytes,
            changed_extents,
        }
    }

    /// Fraction of the block that changed, in `[0, 1]`.
    pub fn change_ratio(&self) -> f64 {
        if self.block_bytes == 0 {
            0.0
        } else {
            self.changed_bytes as f64 / self.block_bytes as f64
        }
    }

    /// Merges two measurements (e.g. accumulating over a whole trace).
    pub fn merge(&mut self, other: &DeltaStats) {
        self.block_bytes += other.block_bytes;
        self.changed_bytes += other.changed_bytes;
        self.changed_extents += other.changed_extents;
    }
}

impl std::fmt::Display for DeltaStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} bytes changed ({:.1}%) in {} extents",
            self.changed_bytes,
            self.block_bytes,
            self.change_ratio() * 100.0,
            self.changed_extents
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn forward_then_apply_recovers_new_image() {
        let old: Vec<u8> = (0..97).map(|i| (i * 13) as u8).collect();
        let mut new = old.clone();
        new[10..20].fill(0);
        new[90] = 0xee;
        let p = forward_parity(&old, &new);
        assert_eq!(xor_bytes(&old, &p), new);
    }

    #[test]
    fn delta_stats_counts_bytes_and_extents() {
        let old = vec![0u8; 100];
        let mut new = old.clone();
        new[5..10].fill(1); // extent 1: 5 bytes
        new[50] = 2; // extent 2: 1 byte
        new[98..100].fill(3); // extent 3: 2 bytes
        let d = DeltaStats::measure(&old, &new);
        assert_eq!(d.changed_bytes, 8);
        assert_eq!(d.changed_extents, 3);
        assert!((d.change_ratio() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn unchanged_write_has_zero_delta() {
        let img = vec![42u8; 10];
        let d = DeltaStats::measure(&img, &img);
        assert_eq!(d.changed_bytes, 0);
        assert_eq!(d.changed_extents, 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut acc = DeltaStats::default();
        acc.merge(&DeltaStats {
            block_bytes: 100,
            changed_bytes: 10,
            changed_extents: 2,
        });
        acc.merge(&DeltaStats {
            block_bytes: 100,
            changed_bytes: 30,
            changed_extents: 1,
        });
        assert_eq!(acc.block_bytes, 200);
        assert_eq!(acc.changed_bytes, 40);
        assert_eq!(acc.changed_extents, 3);
        assert!((acc.change_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_block_ratio_is_zero() {
        assert_eq!(DeltaStats::measure(&[], &[]).change_ratio(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_forward_apply_roundtrip(old in proptest::collection::vec(any::<u8>(), 0..1024),
                                        mask in proptest::collection::vec(any::<u8>(), 0..1024)) {
            let n = old.len().min(mask.len());
            let old = &old[..n];
            let new: Vec<u8> = old.iter().zip(&mask[..n]).map(|(a, m)| a ^ m).collect();
            let p = forward_parity(old, &new);
            prop_assert_eq!(xor_bytes(old, &p), new);
        }

        #[test]
        fn prop_parity_nonzero_iff_changed(old in proptest::collection::vec(any::<u8>(), 1..256),
                                           idx in any::<prop::sample::Index>()) {
            let mut new = old.clone();
            let i = idx.index(old.len());
            new[i] ^= 0x01;
            let p = forward_parity(&old, &new);
            let nonzero = p.iter().filter(|&&b| b != 0).count();
            prop_assert_eq!(nonzero, 1);
            let d = DeltaStats::measure(&old, &new);
            prop_assert_eq!(d.changed_bytes, 1);
        }
    }
}
