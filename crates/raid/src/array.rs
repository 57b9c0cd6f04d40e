//! The RAID array device: small-write RMW, degraded reads, rebuild and
//! scrub.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use prins_block::{BlockDevice, BlockError, Geometry, Lba, Result};
use prins_parity::xor_in_place;

use crate::layout::{Layout, RaidLevel};

struct Member {
    dev: Arc<dyn BlockDevice>,
    failed: AtomicBool,
}

/// Outcome of a parity scrub pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Stripes checked.
    pub(crate) stripes_checked: u64,
    /// Stripes whose parity did not match the XOR of their data blocks.
    pub(crate) mismatched_stripes: Vec<u64>,
}

impl ScrubReport {
    /// Whether the scrub found the array fully consistent.
    pub fn is_clean(&self) -> bool {
        self.mismatched_stripes.is_empty()
    }
}

/// A software RAID array exposing its members as one [`BlockDevice`].
///
/// See the [crate docs](crate) for the role this plays in PRINS. The
/// write path for RAID-4/5 is the classic small-write read-modify-write:
///
/// 1. read `A_old` from the data member (reconstructing it when that
///    member is failed) and `P_old` from the parity member,
/// 2. write `A_new`, write `P_new = P_old ⊕ (A_new ⊕ A_old)`.
///
/// `P' = A_new ⊕ A_old` is the parity PRINS replicates. A caller that
/// already read `A_old` — the PRINS engine captures it for exactly that
/// parity — passes it to
/// [`write_block_over`](BlockDevice::write_block_over), which skips step
/// 1's data-member read: one old-image read per write serves both the
/// array's parity and the replica's.
///
/// Single-member failures are tolerated (RAID-1/4/5): reads reconstruct
/// from the surviving members and writes keep parity consistent so a
/// later [`rebuild`](Self::rebuild) restores the lost disk exactly.
pub struct RaidArray {
    layout: Layout,
    members: Vec<Member>,
    geometry: Geometry,
    member_blocks: u64,
}

impl RaidArray {
    /// Assembles an array from identical member devices.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::DeviceFailed`] if fewer members than the
    /// level's minimum are supplied, or if members disagree on geometry.
    pub fn new(level: RaidLevel, members: Vec<Arc<dyn BlockDevice>>) -> Result<Self> {
        if members.len() < level.min_members() {
            return Err(BlockError::DeviceFailed {
                device: format!(
                    "{level} needs >= {} members, got {}",
                    level.min_members(),
                    members.len()
                ),
            });
        }
        let g0 = members[0].geometry();
        for (i, m) in members.iter().enumerate() {
            if m.geometry() != g0 {
                return Err(BlockError::DeviceFailed {
                    device: format!(
                        "member {i} geometry {:?} differs from member 0 {:?}",
                        m.geometry(),
                        g0
                    ),
                });
            }
        }
        let layout = Layout::new(level, members.len());
        let geometry = Geometry::new(g0.block_size(), layout.array_blocks(g0.num_blocks()));
        Ok(Self {
            layout,
            members: members
                .into_iter()
                .map(|dev| Member {
                    dev,
                    failed: AtomicBool::new(false),
                })
                .collect(),
            geometry,
            member_blocks: g0.num_blocks(),
        })
    }

    /// Marks member `idx` as failed; subsequent I/O avoids it.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn fail_member(&self, idx: usize) {
        self.members[idx].failed.store(true, Ordering::SeqCst);
    }

    /// Number of members currently marked failed.
    pub fn failed_members(&self) -> usize {
        self.members
            .iter()
            .filter(|m| m.failed.load(Ordering::SeqCst))
            .count()
    }

    fn member_read(&self, idx: usize, lba: Lba, buf: &mut [u8]) -> Result<()> {
        if self.members[idx].failed.load(Ordering::SeqCst) {
            return Err(BlockError::DeviceFailed {
                device: format!("member {idx} is failed"),
            });
        }
        self.members[idx].dev.read_block(lba, buf)
    }

    fn member_write(&self, idx: usize, lba: Lba, buf: &[u8]) -> Result<()> {
        if self.members[idx].failed.load(Ordering::SeqCst) {
            return Err(BlockError::DeviceFailed {
                device: format!("member {idx} is failed"),
            });
        }
        self.members[idx].dev.write_block(lba, buf)
    }

    /// Reconstructs the block `member_lba` of member `missing` by XORing
    /// every other member of the stripe (valid for RAID-4/5).
    fn reconstruct(&self, missing: usize, member_lba: Lba, out: &mut [u8]) -> Result<()> {
        out.fill(0);
        let mut tmp = self.geometry.block_size().zeroed();
        for idx in 0..self.members.len() {
            if idx == missing {
                continue;
            }
            self.member_read(idx, member_lba, &mut tmp)
                .map_err(|_| BlockError::DeviceFailed {
                    device: format!(
                        "cannot reconstruct member {missing}: member {idx} also unavailable"
                    ),
                })?;
            xor_in_place(out, &tmp);
        }
        Ok(())
    }

    /// Rebuilds the full contents of member `idx` onto `replacement` and
    /// swaps it in as a healthy member.
    ///
    /// # Errors
    ///
    /// * [`BlockError::DeviceFailed`] if the level has no redundancy, the
    ///   replacement geometry differs, or another member fails mid-rebuild.
    pub fn rebuild(&mut self, idx: usize, replacement: Arc<dyn BlockDevice>) -> Result<()> {
        if replacement.geometry() != self.members[idx].dev.geometry() {
            return Err(BlockError::DeviceFailed {
                device: "replacement geometry mismatch".to_string(),
            });
        }
        match self.layout.level() {
            RaidLevel::Raid0 => {
                return Err(BlockError::DeviceFailed {
                    device: "RAID-0 cannot rebuild a lost member".to_string(),
                })
            }
            RaidLevel::Raid1 => {
                // Copy from any healthy mirror.
                let src = (0..self.members.len())
                    .find(|&i| i != idx && !self.members[i].failed.load(Ordering::SeqCst))
                    .ok_or_else(|| BlockError::DeviceFailed {
                        device: "no healthy mirror to rebuild from".to_string(),
                    })?;
                let mut buf = self.geometry.block_size().zeroed();
                for b in 0..self.member_blocks {
                    self.member_read(src, Lba(b), &mut buf)?;
                    replacement.write_block(Lba(b), &buf)?;
                }
            }
            RaidLevel::Raid4 | RaidLevel::Raid5 => {
                let mut buf = self.geometry.block_size().zeroed();
                for b in 0..self.member_blocks {
                    self.reconstruct(idx, Lba(b), &mut buf)?;
                    replacement.write_block(Lba(b), &buf)?;
                }
            }
        }
        self.members[idx] = Member {
            dev: replacement,
            failed: AtomicBool::new(false),
        };
        Ok(())
    }

    /// Verifies parity consistency of every stripe (RAID-4/5) or mirror
    /// agreement (RAID-1).
    ///
    /// # Errors
    ///
    /// Propagates member I/O failures; a *clean* pass with inconsistent
    /// stripes is reported in the [`ScrubReport`], not as an error.
    pub fn scrub(&self) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();
        let bs = self.geometry.block_size();
        match self.layout.level() {
            RaidLevel::Raid0 => {}
            RaidLevel::Raid1 => {
                let mut first = bs.zeroed();
                let mut other = bs.zeroed();
                for b in 0..self.member_blocks {
                    self.member_read(0, Lba(b), &mut first)?;
                    let mut ok = true;
                    for idx in 1..self.members.len() {
                        self.member_read(idx, Lba(b), &mut other)?;
                        if other != first {
                            ok = false;
                        }
                    }
                    report.stripes_checked += 1;
                    if !ok {
                        report.mismatched_stripes.push(b);
                    }
                }
            }
            RaidLevel::Raid4 | RaidLevel::Raid5 => {
                let mut acc = bs.zeroed();
                let mut tmp = bs.zeroed();
                for stripe in 0..self.member_blocks {
                    acc.fill(0);
                    for idx in 0..self.members.len() {
                        self.member_read(idx, Lba(stripe), &mut tmp)?;
                        xor_in_place(&mut acc, &tmp);
                    }
                    report.stripes_checked += 1;
                    if acc.iter().any(|&b| b != 0) {
                        report.mismatched_stripes.push(stripe);
                    }
                }
            }
        }
        Ok(report)
    }
}

impl BlockDevice for RaidArray {
    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn read_block(&self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        self.geometry.check_lba(lba)?;
        self.geometry.check_buf(buf)?;
        let m = self.layout.map(lba);
        match self.layout.level() {
            RaidLevel::Raid0 => self.member_read(m.data_member, m.member_lba, buf),
            RaidLevel::Raid1 => {
                let mut last_err = None;
                for idx in 0..self.members.len() {
                    match self.member_read(idx, m.member_lba, buf) {
                        Ok(()) => return Ok(()),
                        Err(e) => last_err = Some(e),
                    }
                }
                Err(last_err.expect("raid1 has at least two members"))
            }
            RaidLevel::Raid4 | RaidLevel::Raid5 => {
                match self.member_read(m.data_member, m.member_lba, buf) {
                    Ok(()) => Ok(()),
                    Err(_) => self.reconstruct(m.data_member, m.member_lba, buf),
                }
            }
        }
    }

    fn write_block(&self, lba: Lba, buf: &[u8]) -> Result<()> {
        self.geometry.check_lba(lba)?;
        self.geometry.check_buf(buf)?;
        let m = self.layout.map(lba);
        match self.layout.level() {
            RaidLevel::Raid0 => self.member_write(m.data_member, m.member_lba, buf),
            RaidLevel::Raid1 => {
                let mut wrote = 0usize;
                let mut last_err = None;
                for idx in 0..self.members.len() {
                    match self.member_write(idx, m.member_lba, buf) {
                        Ok(()) => wrote += 1,
                        Err(e) => last_err = Some(e),
                    }
                }
                if wrote == 0 {
                    Err(last_err.expect("raid1 has members"))
                } else {
                    Ok(())
                }
            }
            RaidLevel::Raid4 | RaidLevel::Raid5 => {
                // Step 1's data-member read (or reconstruction); the
                // rest of the small write is `write_block_over`.
                let mut old = self.geometry.block_size().zeroed();
                self.read_block(lba, &mut old)?;
                self.write_block_over(lba, &old, buf)
            }
        }
    }

    /// The RAID-4/5 small write without its data-member read: `new` goes
    /// to the data member (unless it is failed) and `old ⊕ new` is
    /// folded into the parity member in place. RAID-0/1 keep no parity,
    /// so there `old` buys nothing and this is a plain write.
    fn write_block_over(&self, lba: Lba, old: &[u8], new: &[u8]) -> Result<()> {
        self.geometry.check_lba(lba)?;
        self.geometry.check_buf(old)?;
        self.geometry.check_buf(new)?;
        let m = self.layout.map(lba);
        let Some(p) = m.parity_member else {
            return self.write_block(lba, new);
        };
        let data_failed = self.members[m.data_member].failed.load(Ordering::SeqCst);
        let parity_failed = self.members[p].failed.load(Ordering::SeqCst);
        if data_failed && parity_failed {
            return Err(BlockError::DeviceFailed {
                device: "both data and parity members failed".to_string(),
            });
        }
        if !data_failed {
            self.member_write(m.data_member, m.member_lba, new)?;
        }
        if !parity_failed {
            // P_new = P_old ⊕ P', P' = A_new ⊕ A_old.
            let mut parity = self.geometry.block_size().zeroed();
            self.member_read(p, m.member_lba, &mut parity)?;
            xor_in_place(&mut parity, old);
            xor_in_place(&mut parity, new);
            self.member_write(p, m.member_lba, &parity)?;
        }
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        for m in &self.members {
            if !m.failed.load(Ordering::SeqCst) {
                m.dev.flush()?;
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for RaidArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaidArray")
            .field("level", &self.layout.level())
            .field("members", &self.members.len())
            .field("geometry", &self.geometry)
            .field("failed_members", &self.failed_members())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::{BlockSize, MemDevice};
    use rand::{RngExt, SeedableRng};
    use std::collections::HashMap;

    fn mems(n: usize, blocks: u64) -> Vec<Arc<dyn BlockDevice>> {
        (0..n)
            .map(|_| Arc::new(MemDevice::new(BlockSize::kb4(), blocks)) as Arc<dyn BlockDevice>)
            .collect()
    }

    fn random_writes(raid: &RaidArray, seed: u64, count: usize) -> Vec<(Lba, Vec<u8>)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = raid.geometry().num_blocks();
        let bs = raid.geometry().block_size().bytes();
        let mut writes = Vec::new();
        for _ in 0..count {
            let lba = Lba(rng.random_range(0..n));
            let mut buf = vec![0u8; bs];
            rng.fill_bytes(&mut buf);
            raid.write_block(lba, &buf).unwrap();
            writes.push((lba, buf));
        }
        writes
    }

    #[test]
    fn all_levels_round_trip() {
        for (level, n) in [
            (RaidLevel::Raid0, 3),
            (RaidLevel::Raid1, 2),
            (RaidLevel::Raid4, 4),
            (RaidLevel::Raid5, 5),
        ] {
            let raid = RaidArray::new(level, mems(n, 32)).unwrap();
            let writes = random_writes(&raid, 1, 50);
            let mut latest = std::collections::HashMap::new();
            for (lba, buf) in writes {
                latest.insert(lba, buf);
            }
            for (lba, buf) in latest {
                assert_eq!(raid.read_block_vec(lba).unwrap(), buf, "{level}");
            }
        }
    }

    #[test]
    fn construction_validates_members() {
        assert!(RaidArray::new(RaidLevel::Raid5, mems(2, 8)).is_err());
        let mut mixed = mems(2, 8);
        mixed.push(Arc::new(MemDevice::new(BlockSize::kb4(), 16)) as Arc<dyn BlockDevice>);
        assert!(RaidArray::new(RaidLevel::Raid5, mixed).is_err());
    }

    #[test]
    fn scrub_is_clean_after_random_writes() {
        for level in [RaidLevel::Raid4, RaidLevel::Raid5] {
            let raid = RaidArray::new(level, mems(4, 16)).unwrap();
            random_writes(&raid, 2, 100);
            let report = raid.scrub().unwrap();
            assert!(
                report.is_clean(),
                "{level}: {:?}",
                report.mismatched_stripes
            );
            assert_eq!(report.stripes_checked, 16);
        }
    }

    #[test]
    fn scrub_detects_silent_corruption() {
        let members = mems(4, 8);
        let direct = Arc::clone(&members[1]);
        let raid = RaidArray::new(RaidLevel::Raid5, members).unwrap();
        random_writes(&raid, 3, 40);
        // Corrupt a member block behind the array's back.
        let mut blk = direct.read_block_vec(Lba(3)).unwrap();
        blk[17] ^= 0xff;
        direct.write_block(Lba(3), &blk).unwrap();
        let report = raid.scrub().unwrap();
        assert_eq!(report.mismatched_stripes, vec![3]);
    }

    #[test]
    fn degraded_read_reconstructs_lost_member() {
        for level in [RaidLevel::Raid4, RaidLevel::Raid5] {
            let raid = RaidArray::new(level, mems(4, 16)).unwrap();
            let writes = random_writes(&raid, 4, 80);
            raid.fail_member(1);
            assert_eq!(raid.failed_members(), 1);
            let mut latest = std::collections::HashMap::new();
            for (lba, buf) in writes {
                latest.insert(lba, buf);
            }
            for (lba, buf) in latest {
                assert_eq!(raid.read_block_vec(lba).unwrap(), buf, "{level}");
            }
        }
    }

    #[test]
    fn raid1_survives_all_but_one_mirror() {
        let raid = RaidArray::new(RaidLevel::Raid1, mems(3, 8)).unwrap();
        raid.write_block(Lba(5), &vec![7u8; 4096]).unwrap();
        raid.fail_member(0);
        raid.fail_member(2);
        assert_eq!(raid.read_block_vec(Lba(5)).unwrap(), vec![7u8; 4096]);
        // Writes continue on the surviving mirror.
        raid.write_block(Lba(5), &vec![8u8; 4096]).unwrap();
        assert_eq!(raid.read_block_vec(Lba(5)).unwrap(), vec![8u8; 4096]);
    }

    #[test]
    fn writes_in_degraded_mode_then_rebuild_restores_everything() {
        let mut raid = RaidArray::new(RaidLevel::Raid5, mems(4, 16)).unwrap();
        random_writes(&raid, 5, 60);
        raid.fail_member(2);
        // Keep writing while degraded — including blocks mapped to the
        // failed member.
        let writes = random_writes(&raid, 6, 60);
        let replacement = Arc::new(MemDevice::new(BlockSize::kb4(), 16)) as Arc<dyn BlockDevice>;
        raid.rebuild(2, replacement).unwrap();
        assert_eq!(raid.failed_members(), 0);
        let report = raid.scrub().unwrap();
        assert!(report.is_clean(), "{:?}", report.mismatched_stripes);
        let mut latest = std::collections::HashMap::new();
        for (lba, buf) in writes {
            latest.insert(lba, buf);
        }
        for (lba, buf) in latest {
            assert_eq!(raid.read_block_vec(lba).unwrap(), buf);
        }
    }

    #[test]
    fn raid0_cannot_rebuild() {
        let mut raid = RaidArray::new(RaidLevel::Raid0, mems(3, 8)).unwrap();
        let replacement = Arc::new(MemDevice::new(BlockSize::kb4(), 8)) as Arc<dyn BlockDevice>;
        assert!(raid.rebuild(0, replacement).is_err());
    }

    #[test]
    fn double_failure_on_parity_level_is_fatal_for_writes() {
        let raid = RaidArray::new(RaidLevel::Raid5, mems(4, 16)).unwrap();
        raid.fail_member(0);
        raid.fail_member(1);
        // Find an LBA whose data member is 0 and parity member is 1.
        let mut hit = None;
        for lba in 0..raid.geometry().num_blocks() {
            let m = raid.layout.map(Lba(lba));
            if m.data_member == 0 && m.parity_member == Some(1) {
                hit = Some(Lba(lba));
                break;
            }
        }
        let lba = hit.expect("some stripe has this configuration");
        assert!(raid.write_block(lba, &vec![0u8; 4096]).is_err());
    }

    #[test]
    fn write_block_over_leaves_members_as_write_block_does() {
        for (level, n) in [
            (RaidLevel::Raid0, 3),
            (RaidLevel::Raid1, 2),
            (RaidLevel::Raid4, 4),
            (RaidLevel::Raid5, 4),
        ] {
            let (plain_members, over_members) = (mems(n, 16), mems(n, 16));
            let plain = RaidArray::new(level, plain_members.clone()).unwrap();
            let over = RaidArray::new(level, over_members.clone()).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(8);
            for i in 0..120 {
                if i == 60 && level != RaidLevel::Raid0 {
                    // Half the run degraded, with member 1 out.
                    plain.fail_member(1);
                    over.fail_member(1);
                }
                let lba = Lba(rng.random_range(0..plain.geometry().num_blocks()));
                let mut new = vec![0u8; 4096];
                let changed = rng.random_range(1..4096);
                rng.fill_bytes(&mut new[..changed]);
                plain.write_block(lba, &new).unwrap();
                let current = over.read_block_vec(lba).unwrap();
                over.write_block_over(lba, &current, &new).unwrap();
            }
            for (idx, (a, b)) in plain_members.iter().zip(&over_members).enumerate() {
                for blk in 0..16 {
                    assert_eq!(
                        a.read_block_vec(Lba(blk)).unwrap(),
                        b.read_block_vec(Lba(blk)).unwrap(),
                        "{level} member {idx} block {blk}"
                    );
                }
            }
        }
    }

    #[test]
    fn write_block_over_reads_only_the_parity_member() {
        use prins_block::InstrumentedDevice;
        let members: Vec<Arc<InstrumentedDevice<MemDevice>>> = (0..4)
            .map(|_| Arc::new(InstrumentedDevice::new(MemDevice::new(BlockSize::kb4(), 8))))
            .collect();
        let raid = RaidArray::new(
            RaidLevel::Raid5,
            members
                .iter()
                .map(|m| Arc::clone(m) as Arc<dyn BlockDevice>)
                .collect(),
        )
        .unwrap();
        let member_reads = || members.iter().map(|m| m.stats().reads).sum::<u64>();
        raid.write_block(Lba(4), &vec![1u8; 4096]).unwrap();
        assert_eq!(member_reads(), 2, "write_block: data + parity member");
        // Through `&D`, which must forward to the override, not fall
        // back to the default's re-reading `write_block`.
        fn write_over<D: BlockDevice>(dev: D, old: u8, new: u8) {
            dev.write_block_over(Lba(4), &[old; 4096], &[new; 4096])
                .unwrap();
        }
        write_over(&raid, 1, 2);
        assert_eq!(member_reads(), 3, "write_block_over: parity member only");
        assert!(raid.scrub().unwrap().is_clean());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `write_block_over` sequences on RAID-4/5, with one member
        /// failed partway and rebuilt later: reads return the last
        /// write throughout and the rebuilt array scrubs clean.
        #[test]
        fn prop_write_block_over_keeps_parity_through_failure_and_rebuild(
            raid5 in proptest::prelude::any::<bool>(),
            writes in proptest::collection::vec((0u64..24, 1u8..=255, 0usize..4032), 1..48),
            fail_at in 0usize..48,
            degraded_for in 0usize..48,
            victim in 0usize..4,
        ) {
            let level = if raid5 { RaidLevel::Raid5 } else { RaidLevel::Raid4 };
            let mut raid = RaidArray::new(level, mems(4, 8)).unwrap();
            let rebuild_at = fail_at + degraded_for;
            let mut latest: HashMap<Lba, Vec<u8>> = HashMap::new();
            let check_reads = |raid: &RaidArray, latest: &HashMap<Lba, Vec<u8>>| {
                latest
                    .iter()
                    .all(|(lba, image)| raid.read_block_vec(*lba).unwrap() == *image)
            };
            for (i, &(lba, fill, at)) in writes.iter().enumerate() {
                if i == fail_at {
                    raid.fail_member(victim);
                }
                if i == rebuild_at && raid.failed_members() == 1 {
                    proptest::prop_assert!(check_reads(&raid, &latest), "degraded read");
                    raid.rebuild(victim, mems(1, 8).remove(0)).unwrap();
                }
                let lba = Lba(lba);
                let current = raid.read_block_vec(lba).unwrap();
                let mut new = current.clone();
                new[at..at + 64].fill(fill);
                raid.write_block_over(lba, &current, &new).unwrap();
                latest.insert(lba, new);
            }
            if raid.failed_members() == 1 {
                proptest::prop_assert!(check_reads(&raid, &latest), "degraded read");
                raid.rebuild(victim, mems(1, 8).remove(0)).unwrap();
            }
            let report = raid.scrub().unwrap();
            proptest::prop_assert!(report.is_clean(), "{:?}", report.mismatched_stripes);
            proptest::prop_assert!(check_reads(&raid, &latest), "healthy read");
        }
    }

    #[test]
    fn bounds_checks_apply_to_array_lba_space() {
        let raid = RaidArray::new(RaidLevel::Raid5, mems(4, 8)).unwrap();
        assert_eq!(raid.geometry().num_blocks(), 24);
        assert!(raid.read_block_vec(Lba(24)).is_err());
        assert!(raid.write_block(Lba(24), &vec![0u8; 4096]).is_err());
    }
}
