//! Fault-injecting device wrapper for failure and recovery tests.

use parking_lot::Mutex;

use crate::{BlockDevice, BlockError, Geometry, Lba, Result};

/// The kind of failure a [`FaultDevice`] injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Every read fails (media unreadable).
    FailReads,
    /// Every write fails (media write-protected / dead).
    FailWrites,
    /// All I/O fails (device offline) — what a RAID rebuild test wants.
    FailAll,
    /// Reads succeed but return silently corrupted data (bit flips), which
    /// a scrub must detect.
    CorruptReads,
    /// Writes succeed but persist silently corrupted data (a bit flip on
    /// the way to media). Unlike [`FaultKind::CorruptReads`] the damage is
    /// durable: once the plan is cleared, reads keep returning the bad
    /// bytes until something rewrites the block — exactly the divergence a
    /// scrub-and-repair pass must find and fix.
    CorruptWrites,
}

/// Declarative description of which operations should fail.
#[derive(Debug, Default)]
pub struct FaultPlan {
    kind: Option<FaultKind>,
}

impl FaultPlan {
    /// A plan that never fails.
    pub fn healthy() -> Self {
        Self::default()
    }

    /// A plan that fails according to `kind` for every LBA.
    pub fn always(kind: FaultKind) -> Self {
        Self { kind: Some(kind) }
    }
}

/// A [`BlockDevice`] wrapper that injects failures per a [`FaultPlan`].
///
/// # Example
///
/// ```
/// use prins_block::{BlockDevice, BlockSize, FaultDevice, FaultKind, FaultPlan, Lba, MemDevice};
///
/// let dev = FaultDevice::new(MemDevice::new(BlockSize::kb4(), 4));
/// dev.set_plan(FaultPlan::always(FaultKind::FailAll));
/// assert!(dev.read_block_vec(Lba(0)).is_err());
/// dev.set_plan(FaultPlan::healthy());
/// assert!(dev.read_block_vec(Lba(0)).is_ok());
/// ```
pub struct FaultDevice<D> {
    inner: D,
    plan: Mutex<FaultPlan>,
}

impl<D: BlockDevice> FaultDevice<D> {
    /// Wraps `inner` with a healthy plan.
    pub fn new(inner: D) -> Self {
        Self {
            inner,
            plan: Mutex::new(FaultPlan::healthy()),
        }
    }

    /// Replaces the active fault plan.
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock() = plan;
    }

    /// Decides whether an operation at `lba` should fail with
    /// `kind`-relevant behaviour.
    fn check(&self, lba: Lba, is_read: bool) -> Result<Option<FaultKind>> {
        let Some(kind) = self.plan.lock().kind else {
            return Ok(None);
        };
        let applies = match kind {
            FaultKind::FailReads | FaultKind::CorruptReads => is_read,
            FaultKind::FailWrites | FaultKind::CorruptWrites => !is_read,
            FaultKind::FailAll => true,
        };
        if !applies {
            return Ok(None);
        }
        match kind {
            FaultKind::CorruptReads | FaultKind::CorruptWrites => Ok(Some(kind)),
            _ => Err(BlockError::DeviceFailed {
                device: format!("fault injection ({kind:?}) at lba {lba}"),
            }),
        }
    }
}

impl<D: BlockDevice> BlockDevice for FaultDevice<D> {
    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn read_block(&self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        let kind = self.check(lba, true)?;
        self.inner.read_block(lba, buf)?;
        if kind == Some(FaultKind::CorruptReads) {
            // Flip a deterministic bit so scrubs can detect the damage.
            let idx = (lba.index() as usize) % buf.len();
            buf[idx] ^= 0x80;
        }
        Ok(())
    }

    fn write_block(&self, lba: Lba, buf: &[u8]) -> Result<()> {
        let kind = self.check(lba, false)?;
        if kind == Some(FaultKind::CorruptWrites) && !buf.is_empty() {
            // Persist a deterministically damaged copy: the corruption
            // survives plan clearing, as real media corruption would.
            let mut damaged = buf.to_vec();
            let idx = (lba.index() as usize) % damaged.len();
            damaged[idx] ^= 0x80;
            return self.inner.write_block(lba, &damaged);
        }
        self.inner.write_block(lba, buf)
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }
}

impl<D: BlockDevice> std::fmt::Debug for FaultDevice<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultDevice")
            .field("geometry", &self.geometry())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockSize, MemDevice};

    fn dev() -> FaultDevice<MemDevice> {
        FaultDevice::new(MemDevice::new(BlockSize::kb4(), 8))
    }

    #[test]
    fn healthy_plan_passes_through() {
        let d = dev();
        d.write_block(Lba(1), &vec![1u8; 4096]).unwrap();
        assert_eq!(d.read_block_vec(Lba(1)).unwrap(), vec![1u8; 4096]);
    }

    #[test]
    fn fail_reads_only_blocks_reads() {
        let d = dev();
        d.set_plan(FaultPlan::always(FaultKind::FailReads));
        assert!(d.write_block(Lba(0), &vec![0u8; 4096]).is_ok());
        assert!(d.read_block_vec(Lba(0)).is_err());
    }

    #[test]
    fn fail_writes_only_blocks_writes() {
        let d = dev();
        d.set_plan(FaultPlan::always(FaultKind::FailWrites));
        assert!(d.write_block(Lba(0), &vec![0u8; 4096]).is_err());
        assert!(d.read_block_vec(Lba(0)).is_ok());
    }

    #[test]
    fn corrupt_reads_flip_bits_silently() {
        let d = dev();
        d.write_block(Lba(2), &vec![0u8; 4096]).unwrap();
        d.set_plan(FaultPlan::always(FaultKind::CorruptReads));
        let data = d.read_block_vec(Lba(2)).unwrap();
        assert_eq!(data.iter().filter(|&&b| b != 0).count(), 1);
        // Writes still work under CorruptReads.
        assert!(d.write_block(Lba(2), &vec![1u8; 4096]).is_ok());
    }

    #[test]
    fn corrupt_writes_persist_damage_after_plan_clears() {
        let d = dev();
        d.set_plan(FaultPlan::always(FaultKind::CorruptWrites));
        d.write_block(Lba(5), &vec![0u8; 4096]).unwrap();
        d.set_plan(FaultPlan::healthy());
        let data = d.read_block_vec(Lba(5)).unwrap();
        assert_eq!(data.iter().filter(|&&b| b != 0).count(), 1);
        // Rewriting under a healthy plan heals the block.
        d.write_block(Lba(5), &vec![0u8; 4096]).unwrap();
        assert_eq!(d.read_block_vec(Lba(5)).unwrap(), vec![0u8; 4096]);
    }
}
