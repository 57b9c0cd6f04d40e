//! Pure stripe-layout arithmetic: mapping array LBAs to member devices.

use prins_block::Lba;

/// The RAID organization of an array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RaidLevel {
    /// Striping, no redundancy.
    Raid0,
    /// N-way mirroring.
    Raid1,
    /// Block striping with a dedicated parity disk (the last member).
    Raid4,
    /// Block striping with left-symmetric rotated parity.
    Raid5,
}

impl RaidLevel {
    /// Minimum number of member devices the level requires.
    pub(crate) fn min_members(self) -> usize {
        match self {
            RaidLevel::Raid0 => 1,
            RaidLevel::Raid1 => 2,
            RaidLevel::Raid4 | RaidLevel::Raid5 => 3,
        }
    }

    /// Number of data blocks per stripe for an `n`-member array.
    pub(crate) fn data_per_stripe(self, n: usize) -> usize {
        match self {
            RaidLevel::Raid0 => n,
            RaidLevel::Raid1 => 1,
            RaidLevel::Raid4 | RaidLevel::Raid5 => n - 1,
        }
    }
}

impl std::fmt::Display for RaidLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RaidLevel::Raid0 => "RAID-0",
            RaidLevel::Raid1 => "RAID-1",
            RaidLevel::Raid4 => "RAID-4",
            RaidLevel::Raid5 => "RAID-5",
        };
        f.write_str(s)
    }
}

/// Where one array block lives physically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Mapping {
    /// Stripe number (== member LBA for all members of the stripe).
    pub(crate) stripe: u64,
    /// Member index holding the data block.
    pub(crate) data_member: usize,
    /// LBA on the data member.
    pub(crate) member_lba: Lba,
    /// Member index holding the stripe's parity, for parity levels.
    pub(crate) parity_member: Option<usize>,
}

/// Stripe layout calculator for an `n`-member array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Layout {
    level: RaidLevel,
    members: usize,
}

impl Layout {
    /// Creates a layout for `members` devices.
    ///
    /// # Panics
    ///
    /// Panics if `members` is below the level's minimum; arrays are
    /// constructed through [`RaidArray::new`](crate::RaidArray::new),
    /// which validates first.
    pub(crate) fn new(level: RaidLevel, members: usize) -> Self {
        assert!(
            members >= level.min_members(),
            "{level} requires at least {} members, got {members}",
            level.min_members()
        );
        Self { level, members }
    }

    /// The array's RAID level.
    pub(crate) fn level(&self) -> RaidLevel {
        self.level
    }

    /// Usable array capacity in blocks, given per-member capacity.
    pub(crate) fn array_blocks(&self, member_blocks: u64) -> u64 {
        self.level.data_per_stripe(self.members) as u64 * member_blocks
    }

    /// Member index holding parity for `stripe`, if the level has parity.
    pub(crate) fn parity_member(&self, stripe: u64) -> Option<usize> {
        match self.level {
            RaidLevel::Raid4 => Some(self.members - 1),
            // Left-symmetric ("backward parity") rotation, as used by
            // Linux md: parity walks from the last disk downward.
            RaidLevel::Raid5 => Some(self.members - 1 - (stripe % self.members as u64) as usize),
            _ => None,
        }
    }

    /// Maps an array LBA to its physical location.
    pub(crate) fn map(&self, lba: Lba) -> Mapping {
        let n = self.members;
        match self.level {
            RaidLevel::Raid0 => Mapping {
                stripe: lba.index() / n as u64,
                data_member: (lba.index() % n as u64) as usize,
                member_lba: Lba(lba.index() / n as u64),
                parity_member: None,
            },
            RaidLevel::Raid1 => Mapping {
                stripe: lba.index(),
                data_member: 0,
                member_lba: lba,
                parity_member: None,
            },
            RaidLevel::Raid4 => {
                let data = (n - 1) as u64;
                let stripe = lba.index() / data;
                Mapping {
                    stripe,
                    data_member: (lba.index() % data) as usize,
                    member_lba: Lba(stripe),
                    parity_member: Some(n - 1),
                }
            }
            RaidLevel::Raid5 => {
                let data = (n - 1) as u64;
                let stripe = lba.index() / data;
                let p = self.parity_member(stripe).expect("raid5 has parity");
                let d = (lba.index() % data) as usize;
                // Left-symmetric: data blocks start just after the parity
                // disk and wrap around.
                let member = (p + 1 + d) % n;
                Mapping {
                    stripe,
                    data_member: member,
                    member_lba: Lba(stripe),
                    parity_member: Some(p),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The member indices holding data for `stripe`, in array order:
    /// the stripe-wise reference `Layout::map` is checked against.
    fn data_members(l: &Layout, stripe: u64) -> Vec<usize> {
        match l.level {
            RaidLevel::Raid0 => (0..l.members).collect(),
            RaidLevel::Raid1 => vec![0],
            RaidLevel::Raid4 => (0..l.members - 1).collect(),
            RaidLevel::Raid5 => {
                let p = l.parity_member(stripe).expect("raid5 has parity");
                (0..l.members - 1)
                    .map(|d| (p + 1 + d) % l.members)
                    .collect()
            }
        }
    }

    #[test]
    fn raid0_round_robins_members() {
        let l = Layout::new(RaidLevel::Raid0, 3);
        assert_eq!(l.map(Lba(0)).data_member, 0);
        assert_eq!(l.map(Lba(1)).data_member, 1);
        assert_eq!(l.map(Lba(2)).data_member, 2);
        assert_eq!(l.map(Lba(3)).data_member, 0);
        assert_eq!(l.map(Lba(3)).member_lba, Lba(1));
        assert_eq!(l.array_blocks(100), 300);
    }

    #[test]
    fn raid1_maps_identity() {
        let l = Layout::new(RaidLevel::Raid1, 2);
        let m = l.map(Lba(42));
        assert_eq!(m.member_lba, Lba(42));
        assert_eq!(m.parity_member, None);
        assert_eq!(l.array_blocks(100), 100);
    }

    #[test]
    fn raid4_parity_is_always_last_member() {
        let l = Layout::new(RaidLevel::Raid4, 4);
        for lba in 0..30u64 {
            let m = l.map(Lba(lba));
            assert_eq!(m.parity_member, Some(3));
            assert!(m.data_member < 3);
        }
        assert_eq!(l.array_blocks(100), 300);
    }

    #[test]
    fn raid5_rotates_parity_across_all_members() {
        let l = Layout::new(RaidLevel::Raid5, 4);
        let parity_members: Vec<_> = (0..4u64).map(|s| l.parity_member(s).unwrap()).collect();
        assert_eq!(parity_members, vec![3, 2, 1, 0]);
        assert_eq!(l.parity_member(4), Some(3)); // cycle repeats
    }

    #[test]
    fn raid5_data_never_lands_on_parity() {
        let l = Layout::new(RaidLevel::Raid5, 5);
        for lba in 0..200u64 {
            let m = l.map(Lba(lba));
            assert_ne!(Some(m.data_member), m.parity_member, "lba={lba}");
        }
    }

    #[test]
    fn raid5_stripe_members_partition_the_array() {
        let l = Layout::new(RaidLevel::Raid5, 4);
        for stripe in 0..8u64 {
            let mut all = data_members(&l, stripe);
            all.push(l.parity_member(stripe).unwrap());
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3], "stripe={stripe}");
        }
    }

    #[test]
    fn min_members_enforced() {
        assert_eq!(RaidLevel::Raid5.min_members(), 3);
    }

    #[test]
    #[should_panic(expected = "requires at least")]
    fn too_few_members_panics() {
        let _ = Layout::new(RaidLevel::Raid5, 2);
    }

    proptest! {
        #[test]
        fn prop_mapping_is_injective(members in 3usize..8, lbas in proptest::collection::hash_set(0u64..10_000, 2..50)) {
            for level in [RaidLevel::Raid0, RaidLevel::Raid4, RaidLevel::Raid5] {
                let l = Layout::new(level, members);
                let mut seen = std::collections::HashSet::new();
                for &lba in &lbas {
                    let m = l.map(Lba(lba));
                    prop_assert!(seen.insert((m.data_member, m.member_lba.index())),
                                 "collision at lba {lba} for {level}");
                }
            }
        }

        #[test]
        fn prop_raid5_data_members_consistent_with_map(members in 3usize..8, lba in 0u64..10_000) {
            let l = Layout::new(RaidLevel::Raid5, members);
            let m = l.map(Lba(lba));
            let dm = data_members(&l, m.stripe);
            // The d-th data slot of the stripe is this LBA's member.
            let d = (lba % (members as u64 - 1)) as usize;
            prop_assert_eq!(dm[d], m.data_member);
        }
    }
}
