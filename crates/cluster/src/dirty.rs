//! Per-replica dirty-region tracking.
//!
//! The primary records, for every replica, which blocks that replica is
//! missing writes for and *since which log sequence number* — the
//! minimal state parity-log resync needs to replay each dirty block's
//! log chain from the recorded first-missed sequence number.
//!
//! A dirty block can additionally be **uncertain**: a frame carrying a
//! write to it was handed to the transport but its acknowledgement never
//! came back, so the primary cannot know whether the replica applied it.
//! Replaying the parity chain over an already-applied parity would XOR
//! it in twice and silently corrupt the block (`P' ⊕ (A_old ⊕ P')`
//! instead of `A_old`), so parity-log resync must fall back to a full
//! image for uncertain blocks. Blocks that were never sent (routed
//! around an offline replica) are *certain*: the chain replay is sound.

use std::collections::BTreeMap;

use prins_block::Lba;

#[derive(Clone, Copy, Debug)]
struct DirtyEntry {
    first_missed: u64,
    uncertain: bool,
}

/// The set of blocks one replica is missing writes for.
///
/// Maps each dirty LBA to the sequence number of the *first* write to
/// that block the replica missed: the replica's copy reflects the
/// block's chain strictly before that sequence number — unless the
/// block is [`uncertain`](Self::is_uncertain), in which case the
/// replica's state within the chain is unknown.
#[derive(Clone, Debug, Default)]
pub(crate) struct DirtyMap {
    blocks: BTreeMap<u64, DirtyEntry>,
}

impl DirtyMap {
    /// Creates an empty map (replica fully caught up).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records that the replica missed the write with sequence number
    /// `seq` to `lba` — the write was *never delivered* (skipped or
    /// deferred). Keeps the earliest miss if already dirty; an existing
    /// uncertain flag is preserved.
    pub(crate) fn mark(&mut self, lba: Lba, seq: u64) {
        self.blocks
            .entry(lba.index())
            .and_modify(|e| e.first_missed = e.first_missed.min(seq))
            .or_insert(DirtyEntry {
                first_missed: seq,
                uncertain: false,
            });
    }

    /// Records a miss whose delivery status is unknown: the frame was
    /// sent but its acknowledgement never arrived, so the replica may
    /// or may not have applied it. Parity-log resync must not replay
    /// the chain over such a block (see module docs).
    pub(crate) fn mark_uncertain(&mut self, lba: Lba, seq: u64) {
        self.blocks
            .entry(lba.index())
            .and_modify(|e| {
                e.first_missed = e.first_missed.min(seq);
                e.uncertain = true;
            })
            .or_insert(DirtyEntry {
                first_missed: seq,
                uncertain: true,
            });
    }

    /// Whether `lba` has missed writes.
    pub(crate) fn contains(&self, lba: Lba) -> bool {
        self.blocks.contains_key(&lba.index())
    }

    /// Whether `lba` is dirty with unknown replica-side state (a sent
    /// write whose acknowledgement was lost).
    pub(crate) fn is_uncertain(&self, lba: Lba) -> bool {
        self.blocks.get(&lba.index()).is_some_and(|e| e.uncertain)
    }

    /// The first missed sequence number for `lba`, if dirty.
    pub(crate) fn missed_from(&self, lba: Lba) -> Option<u64> {
        self.blocks.get(&lba.index()).map(|e| e.first_missed)
    }

    /// Clears one block (it has been resynced).
    pub(crate) fn clear(&mut self, lba: Lba) {
        self.blocks.remove(&lba.index());
    }

    /// Clears everything (full resync completed).
    pub(crate) fn clear_all(&mut self) {
        self.blocks.clear();
    }

    /// Number of dirty blocks.
    pub(crate) fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Dirty blocks in ascending LBA order with their first-missed
    /// sequence numbers.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Lba, u64)> + '_ {
        self.blocks
            .iter()
            .map(|(&lba, e)| (Lba(lba), e.first_missed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_keeps_earliest_miss() {
        let mut d = DirtyMap::new();
        d.mark(Lba(3), 10);
        d.mark(Lba(3), 7);
        d.mark(Lba(3), 12);
        assert_eq!(d.missed_from(Lba(3)), Some(7));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn clear_and_contains() {
        let mut d = DirtyMap::new();
        assert_eq!(d.len(), 0);
        d.mark(Lba(1), 1);
        d.mark(Lba(2), 2);
        assert!(d.contains(Lba(1)));
        d.clear(Lba(1));
        assert!(!d.contains(Lba(1)));
        assert_eq!(d.len(), 1);
        d.clear_all();
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn iter_is_lba_ordered() {
        let mut d = DirtyMap::new();
        d.mark(Lba(9), 3);
        d.mark(Lba(2), 1);
        d.mark(Lba(5), 2);
        let lbas: Vec<u64> = d.iter().map(|(lba, _)| lba.index()).collect();
        assert_eq!(lbas, vec![2, 5, 9]);
    }

    #[test]
    fn uncertainty_is_sticky_and_per_block() {
        let mut d = DirtyMap::new();
        d.mark(Lba(1), 5);
        assert!(!d.is_uncertain(Lba(1)));
        // A later lost-ack send on the same block taints it...
        d.mark_uncertain(Lba(1), 9);
        assert!(d.is_uncertain(Lba(1)));
        assert_eq!(d.missed_from(Lba(1)), Some(5));
        // ...and further certain misses don't clean it.
        d.mark(Lba(1), 11);
        assert!(d.is_uncertain(Lba(1)));
        // Other blocks are unaffected; clearing resets the flag.
        d.mark(Lba(2), 6);
        assert!(!d.is_uncertain(Lba(2)));
        d.clear(Lba(1));
        d.mark(Lba(1), 20);
        assert!(!d.is_uncertain(Lba(1)));
    }

    #[test]
    fn mark_uncertain_keeps_earliest_miss() {
        let mut d = DirtyMap::new();
        d.mark_uncertain(Lba(4), 8);
        d.mark_uncertain(Lba(4), 3);
        assert_eq!(d.missed_from(Lba(4)), Some(3));
        assert!(d.is_uncertain(Lba(4)));
    }
}
