//! TRAP: Timely Recovery to Any Point-in-time — the continuous data
//! protection extension the paper's conclusion advertises ("available
//! online … with additional functionalities such as continuous data
//! protection (CDP) and timely recovery to any point-in-time (TRAP)",
//! elaborated in the authors' ISCA'06 paper, reference [42]).
//!
//! The same parity `P' = A_new ⊕ A_old` that PRINS replicates is, kept
//! in a log, a *time machine*: XORing the current block with the logged
//! parities newer than time `t` (in any order — XOR commutes) undoes
//! those writes and yields the block's contents at `t`. Because each
//! log entry is a sparse-encoded parity, the log is a fraction of the
//! size of a full-block journal.
//!
//! * [`TrapDevice`] — a [`BlockDevice`] wrapper that appends every
//!   write's encoded parity to a [`TrapLog`],
//! * [`TrapLog`] — the per-LBA parity chains with sequence numbers,
//! * [`TrapLog::recover_block`] / [`recover_device`](TrapLog::recover_device)
//!   — point-in-time reconstruction.
//!
//! # Example
//!
//! ```
//! use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
//! use prins_trap::TrapDevice;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), prins_block::BlockError> {
//! let dev = TrapDevice::new(MemDevice::new(BlockSize::kb4(), 8));
//! dev.write_block(Lba(0), &vec![1u8; 4096])?; // seq 1
//! dev.write_block(Lba(0), &vec![2u8; 4096])?; // seq 2
//! dev.write_block(Lba(0), &vec![3u8; 4096])?; // seq 3
//!
//! // Roll block 0 back to just after seq 2.
//! let current = dev.read_block_vec(Lba(0))?;
//! let at_seq2 = dev.log().recover_block(&current, Lba(0), 2);
//! assert_eq!(at_seq2, vec![2u8; 4096]);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use prins_block::{BlockDevice, Geometry, Lba, MemDevice, Result};
use prins_parity::{SparseCodec, SparseParity};

/// One logged write: sequence number plus the encoded parity.
#[derive(Clone, Debug)]
pub struct TrapEntry {
    /// Global sequence number of the write (1-based).
    pub seq: u64,
    /// Sparse parity `P' = new ⊕ old`.
    pub parity: SparseParity,
}

/// The parity log: per-LBA chains of [`TrapEntry`]s.
///
/// Shared between a [`TrapDevice`] and recovery code via `Arc`.
#[derive(Debug, Default)]
pub struct TrapLog {
    chains: RwLock<HashMap<u64, Vec<TrapEntry>>>,
    seq: AtomicU64,
    wire_bytes: AtomicU64,
    pruned_through: AtomicU64,
}

impl TrapLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sequence number of the most recent write (0 = none yet).
    pub fn current_seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Total encoded bytes the log holds — the CDP space cost. A
    /// full-block journal would hold `writes × block_size` instead.
    pub fn stored_bytes(&self) -> u64 {
        self.wire_bytes.load(Ordering::Relaxed)
    }

    /// Number of logged writes.
    pub fn entries(&self) -> u64 {
        self.current_seq()
    }

    fn append(&self, lba: Lba, parity: SparseParity) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        self.wire_bytes
            .fetch_add(parity.as_bytes().len() as u64, Ordering::Relaxed);
        self.chains
            .write()
            .entry(lba.index())
            .or_default()
            .push(TrapEntry { seq, parity });
        seq
    }

    /// Reconstructs the contents of `lba` as of sequence number
    /// `to_seq` (inclusive), given the block's *current* contents.
    ///
    /// Undoes every logged write with `seq > to_seq` by XOR — order
    /// does not matter because XOR commutes.
    ///
    /// # Panics
    ///
    /// Panics if `current.len()` differs from the logged parity block
    /// length (callers always pass a block read from the same device).
    pub fn recover_block(&self, current: &[u8], lba: Lba, to_seq: u64) -> Vec<u8> {
        let mut block = current.to_vec();
        if let Some(chain) = self.chains.read().get(&lba.index()) {
            for entry in chain.iter().rev() {
                if entry.seq > to_seq {
                    entry.parity.apply_to(&mut block);
                }
            }
        }
        block
    }

    /// Materializes a full point-in-time image of `device` as of
    /// `to_seq` into a fresh in-memory device.
    ///
    /// # Errors
    ///
    /// Propagates read failures from `device`.
    pub fn recover_device<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        to_seq: u64,
    ) -> Result<MemDevice> {
        let geometry = device.geometry();
        let out = MemDevice::new(geometry.block_size(), geometry.num_blocks());
        for lba in geometry.range().iter() {
            let current = device.read_block_vec(lba)?;
            let recovered = self.recover_block(&current, lba, to_seq);
            out.write_block(lba, &recovered)?;
        }
        Ok(out)
    }

    /// Drops log entries with `seq <= up_to` (space reclamation once a
    /// recovery window expires). Blocks can no longer be recovered to
    /// points at or before `up_to`, and delta resync from such points
    /// becomes impossible (see [`retains_since`](Self::retains_since)).
    pub fn prune(&self, up_to: u64) {
        let mut chains = self.chains.write();
        let mut freed = 0u64;
        for chain in chains.values_mut() {
            chain.retain(|e| {
                if e.seq <= up_to {
                    freed += e.parity.as_bytes().len() as u64;
                    false
                } else {
                    true
                }
            });
        }
        chains.retain(|_, c| !c.is_empty());
        self.wire_bytes.fetch_sub(freed, Ordering::Relaxed);
        self.pruned_through.fetch_max(up_to, Ordering::SeqCst);
    }

    /// Highest sequence number ever pruned (0 = nothing pruned yet).
    pub fn pruned_through(&self) -> u64 {
        self.pruned_through.load(Ordering::SeqCst)
    }

    /// Whether the log still holds *every* entry with `seq > since` —
    /// the precondition for parity-log delta resync from `since`. When
    /// this is false a rejoining replica last synced at `since` cannot
    /// be caught up by log replay alone and needs full-image blocks for
    /// the gap.
    pub fn retains_since(&self, since: u64) -> bool {
        self.pruned_through() <= since
    }

    /// The entries of `lba`'s chain with `seq >= from`, in sequence
    /// order — the per-block replay suffix a delta resync streams for
    /// one dirty block.
    ///
    /// Callers must check that the log was never pruned at or past
    /// `from` (`pruned_through() < from`), otherwise the suffix may be
    /// missing entries.
    pub fn chain_since(&self, lba: Lba, from: u64) -> Vec<TrapEntry> {
        self.chains
            .read()
            .get(&lba.index())
            .map(|chain| chain.iter().filter(|e| e.seq >= from).cloned().collect())
            .unwrap_or_default()
    }

    /// All log entries with `seq > since`, tagged with their LBA, in
    /// sequence order — the replay suffix a delta resync streams to a
    /// rejoining replica.
    ///
    /// Callers must check [`retains_since`](Self::retains_since) first;
    /// after pruning past `since` the returned suffix is incomplete.
    pub fn entries_since(&self, since: u64) -> Vec<(Lba, TrapEntry)> {
        let chains = self.chains.read();
        let mut out: Vec<(Lba, TrapEntry)> = Vec::new();
        for (lba, chain) in chains.iter() {
            for entry in chain {
                if entry.seq > since {
                    out.push((Lba(*lba), entry.clone()));
                }
            }
        }
        out.sort_by_key(|(_, entry)| entry.seq);
        out
    }
}

/// A [`BlockDevice`] wrapper that logs every write's parity for
/// point-in-time recovery.
pub struct TrapDevice<D> {
    inner: D,
    log: Arc<TrapLog>,
    codec: SparseCodec,
}

impl<D: BlockDevice> TrapDevice<D> {
    /// Wraps `inner` with a fresh log.
    pub fn new(inner: D) -> Self {
        Self {
            inner,
            log: Arc::new(TrapLog::new()),
            codec: SparseCodec::default(),
        }
    }

    /// The shared parity log.
    pub fn log(&self) -> &Arc<TrapLog> {
        &self.log
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: BlockDevice> BlockDevice for TrapDevice<D> {
    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn read_block(&self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        self.inner.read_block(lba, buf)
    }

    fn write_block(&self, lba: Lba, buf: &[u8]) -> Result<()> {
        let mut old = self.geometry().block_size().zeroed();
        self.inner.read_block(lba, &mut old)?;
        self.write_block_over(lba, &old, buf)
    }

    /// Logs `old ⊕ new` without reading the block, and hands `old` on
    /// to the inner device. A wrong `old` makes the logged parity undo
    /// a write that never happened; on a write failure nothing is
    /// logged.
    fn write_block_over(&self, lba: Lba, old: &[u8], new: &[u8]) -> Result<()> {
        self.inner.write_block_over(lba, old, new)?;
        // One scan of the two images, straight to the logged stream.
        self.log
            .append(lba, self.codec.plan_delta(old, new).to_parity());
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }
}

impl<D: BlockDevice> std::fmt::Debug for TrapDevice<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrapDevice")
            .field("geometry", &self.geometry())
            .field("logged_writes", &self.log.entries())
            .field("log_bytes", &self.log.stored_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::BlockSize;
    use rand::{RngExt, SeedableRng};

    fn dev() -> TrapDevice<MemDevice> {
        TrapDevice::new(MemDevice::new(BlockSize::kb4(), 8))
    }

    #[test]
    fn recover_to_every_historical_point() {
        let d = dev();
        let mut history: Vec<Vec<u8>> = vec![vec![0u8; 4096]]; // state at seq 0
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let mut block = history.last().unwrap().clone();
            let at = rng.random_range(0..4000);
            for b in &mut block[at..at + 64] {
                *b = rng.random();
            }
            d.write_block(Lba(3), &block).unwrap();
            history.push(block);
        }
        let current = d.read_block_vec(Lba(3)).unwrap();
        for (seq, expected) in history.iter().enumerate() {
            let recovered = d.log().recover_block(&current, Lba(3), seq as u64);
            assert_eq!(&recovered, expected, "recovery to seq {seq}");
        }
    }

    #[test]
    fn recover_device_rolls_all_blocks_back() {
        let d = dev();
        // seq 1..=8: write every block.
        for i in 0..8u64 {
            d.write_block(Lba(i), &vec![1u8; 4096]).unwrap();
        }
        let checkpoint = d.log().current_seq();
        // More writes after the checkpoint.
        for i in 0..8u64 {
            d.write_block(Lba(i), &vec![9u8; 4096]).unwrap();
        }
        let snapshot = d.log().recover_device(&d, checkpoint).unwrap();
        for i in 0..8u64 {
            assert_eq!(snapshot.read_block_vec(Lba(i)).unwrap(), vec![1u8; 4096]);
            // The live device is untouched.
            assert_eq!(d.read_block_vec(Lba(i)).unwrap(), vec![9u8; 4096]);
        }
    }

    #[test]
    fn recover_to_seq_zero_is_the_initial_image() {
        let d = dev();
        for _ in 0..5 {
            d.write_block(Lba(0), &vec![7u8; 4096]).unwrap();
            d.write_block(Lba(0), &vec![8u8; 4096]).unwrap();
        }
        let current = d.read_block_vec(Lba(0)).unwrap();
        let initial = d.log().recover_block(&current, Lba(0), 0);
        assert!(initial.iter().all(|&b| b == 0));
    }

    #[test]
    fn log_is_much_smaller_than_full_block_journal() {
        let d = dev();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut block = vec![0u8; 4096];
        for _ in 0..50 {
            let at = rng.random_range(0..4000);
            for b in &mut block[at..at + 40] {
                *b = rng.random();
            }
            d.write_block(Lba(1), &block).unwrap();
        }
        let journal_bytes = 50 * 4096u64;
        let log_bytes = d.log().stored_bytes();
        assert!(
            log_bytes * 10 < journal_bytes,
            "trap log {log_bytes} should be >10x below journal {journal_bytes}"
        );
    }

    #[test]
    fn prune_reclaims_space_and_limits_recovery() {
        let d = dev();
        d.write_block(Lba(0), &vec![1u8; 4096]).unwrap(); // seq 1
        d.write_block(Lba(0), &vec![2u8; 4096]).unwrap(); // seq 2
        d.write_block(Lba(0), &vec![3u8; 4096]).unwrap(); // seq 3
        let before = d.log().stored_bytes();
        d.log().prune(2);
        assert!(d.log().stored_bytes() < before);
        let current = d.read_block_vec(Lba(0)).unwrap();
        // Recovery to seq 2 still works (entry 3 is retained).
        assert_eq!(d.log().recover_block(&current, Lba(0), 2), vec![2u8; 4096]);
    }

    #[test]
    fn entries_since_returns_ordered_replay_suffix() {
        let d = dev();
        d.write_block(Lba(0), &vec![1u8; 4096]).unwrap(); // seq 1
        d.write_block(Lba(3), &vec![2u8; 4096]).unwrap(); // seq 2
        d.write_block(Lba(0), &vec![3u8; 4096]).unwrap(); // seq 3
        d.write_block(Lba(5), &vec![4u8; 4096]).unwrap(); // seq 4

        let suffix = d.log().entries_since(2);
        let seqs: Vec<u64> = suffix.iter().map(|(_, e)| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert_eq!(suffix[0].0, Lba(0));
        assert_eq!(suffix[1].0, Lba(5));
        assert!(d.log().entries_since(4).is_empty());
        assert_eq!(d.log().entries_since(0).len(), 4);

        let chain = d.log().chain_since(Lba(0), 2);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].seq, 3);
        assert_eq!(d.log().chain_since(Lba(0), 1).len(), 2);
        assert!(d.log().chain_since(Lba(7), 0).is_empty());
    }

    #[test]
    fn replaying_suffix_catches_a_stale_copy_up() {
        let d = dev();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        // Build some history, checkpoint a copy, keep writing.
        let mut write_random = |lba: u64| {
            let mut block = d.read_block_vec(Lba(lba)).unwrap();
            let at = rng.random_range(0..4000);
            for b in &mut block[at..at + 32] {
                *b = rng.random();
            }
            d.write_block(Lba(lba), &block).unwrap();
        };
        for i in 0..6 {
            write_random(i % 3);
        }
        let stale_at = d.log().current_seq();
        let stale = d.log().recover_device(&d, stale_at).unwrap();
        for i in 0..10 {
            write_random(i % 3);
        }

        // Forward-replay the suffix onto the stale copy.
        assert!(d.log().retains_since(stale_at));
        for (lba, entry) in d.log().entries_since(stale_at) {
            let mut block = stale.read_block_vec(lba).unwrap();
            entry.parity.apply_to(&mut block);
            stale.write_block(lba, &block).unwrap();
        }
        for i in 0..3u64 {
            assert_eq!(
                stale.read_block_vec(Lba(i)).unwrap(),
                d.read_block_vec(Lba(i)).unwrap()
            );
        }
    }

    #[test]
    fn prune_invalidates_delta_resync_from_older_points() {
        let d = dev();
        for _ in 0..4 {
            d.write_block(Lba(0), &vec![1u8; 4096]).unwrap();
        }
        assert_eq!(d.log().pruned_through(), 0);
        assert!(d.log().retains_since(0));
        d.log().prune(2);
        assert_eq!(d.log().pruned_through(), 2);
        assert!(!d.log().retains_since(1));
        assert!(d.log().retains_since(2));
        assert!(d.log().retains_since(3));
    }

    #[test]
    fn empty_replay_suffix_for_an_up_to_date_replica() {
        let d = dev();
        for i in 0..4u64 {
            d.write_block(Lba(i), &vec![6u8; 4096]).unwrap();
        }
        let now = d.log().current_seq();
        // A replica synced at the current sequence needs nothing: the
        // suffix is empty (not an error) and replaying it is a no-op.
        assert!(d.log().entries_since(now).is_empty());
        assert!(d.log().chain_since(Lba(0), now + 1).is_empty());
        assert!(d.log().retains_since(now));
        let copy = d.log().recover_device(&d, now).unwrap();
        for (lba, entry) in d.log().entries_since(now) {
            let mut block = copy.read_block_vec(lba).unwrap();
            entry.parity.apply_to(&mut block);
            copy.write_block(lba, &block).unwrap();
        }
        for i in 0..4u64 {
            assert_eq!(
                copy.read_block_vec(Lba(i)).unwrap(),
                d.read_block_vec(Lba(i)).unwrap()
            );
        }
    }

    #[test]
    fn prune_exactly_to_the_replica_boundary_keeps_delta_resync_viable() {
        let d = dev();
        d.write_block(Lba(0), &vec![1u8; 4096]).unwrap(); // seq 1
        d.write_block(Lba(0), &vec![2u8; 4096]).unwrap(); // seq 2
        let stale_at = d.log().current_seq();
        let stale = d.log().recover_device(&d, stale_at).unwrap();
        d.write_block(Lba(0), &vec![3u8; 4096]).unwrap(); // seq 3
        d.write_block(Lba(1), &vec![4u8; 4096]).unwrap(); // seq 4

        // Prune precisely up to the replica's sync point: everything it
        // still needs (seq > stale_at) is retained, so the boundary is
        // inclusive-safe.
        d.log().prune(stale_at);
        assert_eq!(d.log().pruned_through(), stale_at);
        assert!(d.log().retains_since(stale_at));
        assert!(!d.log().retains_since(stale_at - 1));
        let suffix = d.log().entries_since(stale_at);
        assert_eq!(suffix.len(), 2);
        for (lba, entry) in suffix {
            let mut block = stale.read_block_vec(lba).unwrap();
            entry.parity.apply_to(&mut block);
            stale.write_block(lba, &block).unwrap();
        }
        assert_eq!(stale.read_block_vec(Lba(0)).unwrap(), vec![3u8; 4096]);
        assert_eq!(stale.read_block_vec(Lba(1)).unwrap(), vec![4u8; 4096]);
    }

    #[test]
    fn replay_after_prune_is_incomplete_and_must_be_guarded() {
        let d = dev();
        // Values chosen so no partial XOR chain collapses back onto a
        // historical state: 0x11 ⊕ (0x47 ⊕ 0x22) = 0x74 ∉ {0, 0x11,
        // 0x22, 0x47}.
        d.write_block(Lba(0), &vec![0x11u8; 4096]).unwrap(); // seq 1
        let stale_at = d.log().current_seq();
        let stale = d.log().recover_device(&d, stale_at).unwrap();
        d.write_block(Lba(0), &vec![0x22u8; 4096]).unwrap(); // seq 2
        d.write_block(Lba(0), &vec![0x47u8; 4096]).unwrap(); // seq 3

        // Prune past the replica's sync point: seq 2 is gone.
        d.log().prune(stale_at + 1);
        assert!(!d.log().retains_since(stale_at));

        // An unguarded replay of what's left applies seq 3's parity to
        // seq 1's base — a stale-base XOR yielding a state the primary
        // never held. This is exactly why callers must check
        // `retains_since` and fall back to full images.
        for (lba, entry) in d.log().entries_since(stale_at) {
            let mut block = stale.read_block_vec(lba).unwrap();
            entry.parity.apply_to(&mut block);
            stale.write_block(lba, &block).unwrap();
        }
        let replayed = stale.read_block_vec(Lba(0)).unwrap();
        assert_ne!(replayed, d.read_block_vec(Lba(0)).unwrap());
        for historical in [vec![0u8; 4096], vec![0x11u8; 4096], vec![0x22u8; 4096]] {
            assert_ne!(replayed, historical);
        }
        assert_eq!(replayed, vec![0x74u8; 4096]);
    }

    #[test]
    fn unwritten_blocks_recover_to_themselves() {
        let d = dev();
        d.write_block(Lba(0), &vec![5u8; 4096]).unwrap();
        let current = d.read_block_vec(Lba(7)).unwrap();
        assert_eq!(d.log().recover_block(&current, Lba(7), 0), current);
    }

    #[test]
    fn reads_pass_through() {
        let d = dev();
        d.write_block(Lba(2), &vec![4u8; 4096]).unwrap();
        assert_eq!(d.inner().read_block_vec(Lba(2)).unwrap(), vec![4u8; 4096]);
        assert_eq!(d.log().entries(), 1);
        d.flush().unwrap();
    }
}
