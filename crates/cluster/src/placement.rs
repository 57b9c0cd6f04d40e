//! Placement: mapping volume LBAs onto replica groups.
//!
//! [`RendezvousPlacement`] is equal-weight rendezvous
//! (highest-random-weight) hashing over full-size devices: every group
//! scores every slot and the highest score wins. It has the *minimal
//! disruption* property — adding a group steals only the slots it now
//! wins — and it keeps volume addresses intact on every group, which is what lets [`ShardedCluster`](crate::ShardedCluster)
//! move a block between groups without re-addressing it. With one group
//! every slot has a single contender, so a one-group volume routes every
//! LBA to group 0 at the same LBA: it *is* that group.

use prins_block::Lba;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Equal-weight rendezvous (HRW) placement over identity-addressed
/// groups.
///
/// Each slot of `slot_blocks` contiguous LBAs hashes against every group;
/// the group with the highest score `1 / -ln(u)` wins, where `u ∈ (0, 1)`
/// is derived from `hash(slot, group)`, so every group expects an equal
/// share of slots.
#[derive(Debug, Clone)]
pub struct RendezvousPlacement {
    groups: usize,
    num_blocks: u64,
    slot_blocks: u64,
}

impl RendezvousPlacement {
    /// Equal-weight placement of `num_blocks` over `groups` groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups == 0` or `num_blocks == 0`.
    pub fn new(num_blocks: u64, groups: usize) -> Self {
        assert!(groups > 0, "need at least one group");
        assert!(num_blocks > 0, "need at least one block");
        Self {
            groups,
            num_blocks,
            slot_blocks: 1,
        }
    }

    /// Hash `blocks` contiguous LBAs as one slot, so sequential runs stay
    /// on one group (larger resync batches, fewer cross-group seeks).
    ///
    /// # Panics
    ///
    /// Panics if `blocks == 0`.
    pub fn with_slot_blocks(mut self, blocks: u64) -> Self {
        assert!(blocks > 0, "slot must cover at least one block");
        self.slot_blocks = blocks;
        self
    }

    /// Rendezvous score of `(slot, group)`: `1 / -ln(u)`, `u ∈ (0, 1)`.
    /// Independent across groups — the property the disruption bound
    /// rests on.
    fn score(&self, slot: u64, g: usize) -> f64 {
        let h = mix64(slot ^ (g as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Top 53 bits, offset by half a ulp: u ∈ (0, 1) strictly, so ln(u)
        // is finite and negative.
        let u = ((h >> 11) as f64 + 0.5) * (1.0 / 9_007_199_254_740_992.0);
        1.0 / -u.ln()
    }

    /// Number of replica groups this placement spreads load over.
    pub(crate) fn group_count(&self) -> usize {
        self.groups
    }

    /// Total volume size in blocks — also what every group's device must
    /// hold: any block may land on (or migrate to) any group.
    pub(crate) fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// The group that owns `lba`. Total over `[0, num_blocks)` and
    /// deterministic: routing is consulted on every write and must agree
    /// across restarts.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is at or beyond [`num_blocks`](Self::num_blocks).
    pub(crate) fn group_for(&self, lba: Lba) -> usize {
        assert!(
            lba.index() < self.num_blocks,
            "lba {lba:?} out of range for placement of {} blocks",
            self.num_blocks
        );
        let slot = lba.index() / self.slot_blocks;
        let mut best = 0usize;
        let mut best_score = self.score(slot, 0);
        for g in 1..self.groups {
            let s = self.score(slot, g);
            // Strict `>` keeps the lowest index on (measure-zero) ties.
            if s > best_score {
                best = g;
                best_score = s;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KEYS: u64 = 10_000;

    fn assignments(p: &RendezvousPlacement) -> Vec<usize> {
        (0..p.num_blocks()).map(|i| p.group_for(Lba(i))).collect()
    }

    /// Keys owned per group.
    fn load_counts(p: &RendezvousPlacement) -> Vec<u64> {
        let mut counts = vec![0u64; p.group_count()];
        for g in assignments(p) {
            counts[g] += 1;
        }
        counts
    }

    #[test]
    fn equal_weights_balance_within_bound() {
        // Binomial concentration: each group's share of 10k keys is
        // mean ± ~4σ; 25% slack is > 6σ even at eight groups.
        for groups in 2..=8usize {
            let p = RendezvousPlacement::new(KEYS, groups);
            let counts = load_counts(&p);
            let mean = KEYS as f64 / groups as f64;
            for (g, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64 - mean).abs() < mean * 0.25,
                    "group {g}/{groups} holds {c} of {KEYS} keys (mean {mean})"
                );
            }
        }
    }

    #[test]
    fn a_single_group_owns_every_block() {
        for slot_blocks in [1, 4, 64] {
            let p = RendezvousPlacement::new(64, 1).with_slot_blocks(slot_blocks);
            assert!(assignments(&p).iter().all(|&g| g == 0));
        }
    }

    #[test]
    fn slot_blocks_keep_runs_together() {
        let p = RendezvousPlacement::new(1024, 4).with_slot_blocks(16);
        for slot in 0..64u64 {
            let owner = p.group_for(Lba(slot * 16));
            for off in 1..16u64 {
                assert_eq!(p.group_for(Lba(slot * 16 + off)), owner);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_panics() {
        RendezvousPlacement::new(8, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_lookup_panics() {
        RendezvousPlacement::new(8, 2).group_for(Lba(8));
    }

    proptest! {
        /// Adding a group moves only the keys the new group wins, and the
        /// count stays near its fair share: unaffected groups' scores are
        /// untouched, so no key can move anywhere else. (Read backwards:
        /// removing the last group moves exactly its own keys.)
        #[test]
        fn adding_a_group_moves_at_most_its_share(groups in 2..8usize) {
            let before = assignments(&RendezvousPlacement::new(KEYS, groups));
            let after = assignments(&RendezvousPlacement::new(KEYS, groups + 1));

            let mut moved = 0u64;
            for (b, a) in before.iter().zip(&after) {
                if a != b {
                    prop_assert_eq!(*a, groups, "keys may only move TO the new group");
                    moved += 1;
                }
            }
            // Fair share of the new group is 1 / (groups + 1); allow 2x.
            let share = 1.0 / (groups as f64 + 1.0);
            prop_assert!(
                (moved as f64) < 2.0 * share * KEYS as f64,
                "{moved} keys moved, fair share {}", share * KEYS as f64
            );
        }
    }
}
