//! Per-LBA-region statistics: a fixed, direct-mapped table of atomic
//! EWMA slots. Lock-free and allocation-free after construction, so the
//! classifier can sit on the ≤2-allocations-per-write hot path.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

use crate::EWMA_SHIFT;

/// One EWMA step with integer arithmetic: `old + (sample - old) >> shift`,
/// nudged by one toward the sample when the shift would round the step
/// to zero (so the average can actually converge to nearby values).
pub fn ewma_step(old: u32, sample: u32, shift: u32) -> u32 {
    let step = (i64::from(sample) - i64::from(old)) >> shift;
    let next = (i64::from(old) + step).max(0) as u32;
    if next == old && sample != old {
        if sample > old {
            old + 1
        } else {
            old - 1
        }
    } else {
        next
    }
}

/// Learned state for one LBA region.
///
/// All fields are independent relaxed atomics: racing writers can lose
/// individual samples but never corrupt a value, which is fine for
/// moving averages.
pub(crate) struct RegionSlot {
    /// Owning region id + 1; 0 marks an empty slot. Direct-mapped: a
    /// colliding region takes the slot over and reseeds.
    tag: AtomicU64,
    /// Writes observed since the slot was (re)seeded.
    pub(crate) writes: AtomicU32,
    /// EWMA of parity-wire-bytes / block-bytes, per-mille.
    pub(crate) change_pm: AtomicU32,
    /// EWMA of modified-segment count per write.
    pub(crate) segments: AtomicU32,
    /// EWMA compressed/raw ratio of the *parity* stream, per-mille.
    pub(crate) delta_c_pm: AtomicU32,
    /// EWMA compressed/raw ratio of the *full block*, per-mille.
    pub(crate) full_c_pm: AtomicU32,
    /// Which compressibility EWMAs have received an *exact* sample (as
    /// opposed to the probe seed) since the slot was (re)seeded — see
    /// [`RegionSlot::DELTA_SAMPLED`] / [`RegionSlot::FULL_SAMPLED`]. An
    /// unsampled estimate is a guess; decisions trust it for skipping
    /// compression but not for committing bytes to it.
    sampled: AtomicU8,
}

impl RegionSlot {
    /// `sampled` bit: `delta_c_pm` holds at least one exact ratio.
    pub(crate) const DELTA_SAMPLED: u8 = 1;
    /// `sampled` bit: `full_c_pm` holds at least one exact ratio.
    pub(crate) const FULL_SAMPLED: u8 = 2;

    const fn empty() -> Self {
        Self {
            tag: AtomicU64::new(0),
            writes: AtomicU32::new(0),
            change_pm: AtomicU32::new(0),
            segments: AtomicU32::new(0),
            delta_c_pm: AtomicU32::new(0),
            full_c_pm: AtomicU32::new(0),
            sampled: AtomicU8::new(0),
        }
    }

    /// One [`EWMA_SHIFT`] step of `field` toward `sample`.
    pub(crate) fn ewma(&self, field: &AtomicU32, sample: u32) {
        let old = field.load(Ordering::Relaxed);
        field.store(ewma_step(old, sample, EWMA_SHIFT), Ordering::Relaxed);
    }

    pub(crate) fn clear_sampled(&self) {
        self.sampled.store(0, Ordering::Relaxed);
    }

    pub(crate) fn mark_sampled(&self, bit: u8) {
        self.sampled.fetch_or(bit, Ordering::Relaxed);
    }

    pub(crate) fn is_sampled(&self, bit: u8) -> bool {
        self.sampled.load(Ordering::Relaxed) & bit != 0
    }
}

/// Fixed-size, direct-mapped table of [`RegionSlot`]s keyed by
/// `lba >> region_shift`.
pub struct RegionTable {
    slots: Box<[RegionSlot]>,
    mask: usize,
    region_shift: u32,
}

impl RegionTable {
    /// A table with at least `regions` slots (rounded to a power of two).
    pub fn new(regions: usize, region_shift: u32) -> Self {
        let n = regions.next_power_of_two().max(16);
        let slots: Vec<RegionSlot> = (0..n).map(|_| RegionSlot::empty()).collect();
        Self {
            slots: slots.into_boxed_slice(),
            mask: n - 1,
            region_shift,
        }
    }

    /// Slot count (power of two).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Always at least 16 slots.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The region an LBA belongs to.
    pub fn region_of(&self, lba: u64) -> u64 {
        lba >> self.region_shift
    }

    /// The slot for `lba`, claiming it if another region owned it.
    /// Returns `(slot, fresh)`; `fresh` means the caller must reseed.
    pub(crate) fn slot(&self, lba: u64) -> (&RegionSlot, bool) {
        let region = self.region_of(lba);
        let slot = &self.slots[(region as usize) & self.mask];
        let tag = region + 1;
        let fresh = slot.tag.swap(tag, Ordering::Relaxed) != tag;
        (slot, fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_toward_the_sample() {
        let mut v = 1000;
        for _ in 0..64 {
            v = ewma_step(v, 200, 3);
        }
        assert!((195..=210).contains(&v), "got {v}");
        // And back up again, including the +1 nudge near the target.
        for _ in 0..64 {
            v = ewma_step(v, 1000, 3);
        }
        assert_eq!(v, 1000);
    }

    #[test]
    fn ewma_reaches_exact_small_targets() {
        // Without the nudge, (0 - 7) >> 3 == -1 but (7 - 0) >> 3 == 0
        // would strand the average.
        let mut v = 0;
        for _ in 0..16 {
            v = ewma_step(v, 7, 3);
        }
        assert_eq!(v, 7);
    }

    #[test]
    fn slots_are_reclaimed_on_region_collision() {
        let table = RegionTable::new(16, 0);
        let (a, fresh_a) = table.slot(1);
        assert!(fresh_a);
        a.writes.store(99, Ordering::Relaxed);
        let (_, again) = table.slot(1);
        assert!(!again, "same region must keep its slot");
        // Region 17 maps to the same slot in a 16-entry table.
        let (b, fresh_b) = table.slot(17);
        assert!(fresh_b, "collision must hand the slot over");
        assert_eq!(b.writes.load(Ordering::Relaxed), 99, "caller reseeds");
    }

    #[test]
    fn region_shift_groups_neighboring_lbas() {
        let table = RegionTable::new(64, 6);
        assert_eq!(table.region_of(0), table.region_of(63));
        assert_ne!(table.region_of(63), table.region_of(64));
        assert_eq!(table.len(), 64);
        assert!(!table.is_empty());
    }
}
