//! Placement: mapping volume LBAs onto replica groups.
//!
//! [`RendezvousPlacement`] is weighted rendezvous (highest-random-weight)
//! hashing over full-size devices: every group scores every slot and the
//! highest score wins. It has the *minimal disruption* property — adding a
//! group steals only the slots it now wins, and draining a group (weight 0)
//! moves only that group's own slots — and it keeps volume addresses intact
//! on every group, which is what lets [`ShardedCluster`](crate::ShardedCluster)
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

/// Weighted rendezvous (HRW) placement over identity-addressed groups.
///
/// Each slot of `slot_blocks` contiguous LBAs hashes against every group;
/// the group with the highest score `w / -ln(u)` wins, where `u ∈ (0, 1)`
/// is derived from `hash(slot, group)`. With equal weights every
/// group expects an equal share of slots; a group with twice the weight
/// expects twice the share. A weight of `0.0` removes a group from
/// contention (it never wins a slot) without renumbering the others —
/// the drain side of the minimal-disruption property.
#[derive(Debug, Clone)]
pub struct RendezvousPlacement {
    weights: Vec<f64>,
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
        Self::weighted(num_blocks, vec![1.0; groups])
    }

    /// Placement with one weight per group. Weights must be finite,
    /// non-negative, and not all zero.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, `num_blocks == 0`, any weight is
    /// negative or non-finite, or every weight is zero.
    pub(crate) fn weighted(num_blocks: u64, weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "need at least one group");
        assert!(num_blocks > 0, "need at least one block");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        assert!(
            weights.iter().any(|w| *w > 0.0),
            "at least one group must have positive weight"
        );
        Self {
            weights,
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

    /// Rendezvous score of `(slot, group)`: `w / -ln(u)`, `u ∈ (0, 1)`.
    /// Monotone in `w`, independent across groups — the two properties the
    /// disruption bound rests on.
    fn score(&self, slot: u64, g: usize) -> f64 {
        let w = self.weights[g];
        if w == 0.0 {
            return 0.0;
        }
        let h = mix64(slot ^ (g as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Top 53 bits, offset by half a ulp: u ∈ (0, 1) strictly, so ln(u)
        // is finite and negative.
        let u = ((h >> 11) as f64 + 0.5) * (1.0 / 9_007_199_254_740_992.0);
        w / -u.ln()
    }

    /// Number of replica groups this placement spreads load over.
    pub(crate) fn group_count(&self) -> usize {
        self.weights.len()
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
        for g in 1..self.weights.len() {
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
    fn doubled_weight_doubles_share() {
        let p = RendezvousPlacement::weighted(KEYS, vec![1.0, 2.0, 1.0]);
        let counts = load_counts(&p);
        let heavy = counts[1] as f64;
        let light = (counts[0] + counts[2]) as f64 / 2.0;
        assert!(
            (heavy / light - 2.0).abs() < 0.3,
            "weight-2 group holds {heavy} keys vs {light} per weight-1 group"
        );
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
        RendezvousPlacement::weighted(8, vec![]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_lookup_panics() {
        RendezvousPlacement::new(8, 2).group_for(Lba(8));
    }

    proptest! {
        /// Adding a group moves only the keys the new group wins, and the
        /// count stays near its fair share: unaffected groups' scores are
        /// untouched, so no key can move anywhere else.
        #[test]
        fn adding_a_group_moves_at_most_its_share(
            groups in 2..8usize,
            weight in 0.5..2.0f64,
        ) {
            let before = assignments(&RendezvousPlacement::new(KEYS, groups));
            let mut weights = vec![1.0; groups];
            weights.push(weight);
            let after = assignments(&RendezvousPlacement::weighted(KEYS, weights));

            let mut moved = 0u64;
            for (b, a) in before.iter().zip(&after) {
                if a != b {
                    prop_assert_eq!(*a, groups, "keys may only move TO the new group");
                    moved += 1;
                }
            }
            // Fair share of the new group is w / (groups + w); allow 2x.
            let share = weight / (groups as f64 + weight);
            prop_assert!(
                (moved as f64) < 2.0 * share * KEYS as f64,
                "{moved} keys moved, fair share {}", share * KEYS as f64
            );
        }

        /// Draining a group (weight 0) moves exactly its own keys; everyone
        /// else's assignment is stable.
        #[test]
        fn draining_a_group_moves_only_its_keys(
            groups in 2..8usize,
            victim_sel in any::<prop::sample::Index>(),
        ) {
            let victim = victim_sel.index(groups);
            let before = assignments(&RendezvousPlacement::new(KEYS, groups));
            let mut weights = vec![1.0; groups];
            weights[victim] = 0.0;
            let after = assignments(&RendezvousPlacement::weighted(KEYS, weights));

            for (i, (b, a)) in before.iter().zip(&after).enumerate() {
                if *b == victim {
                    prop_assert!(*a != victim, "drained group still owns key {}", i);
                } else {
                    prop_assert_eq!(*a, *b, "unrelated key {} moved", i);
                }
            }
        }
    }
}
