//! Contiguous sequence-number runs, for correlating one wire frame
//! (or one acknowledgement) with the pipeline writes it carries.
//!
//! The engine's reorder buffer releases writes to every sender lane in
//! strict sequence order and each lane's queue is FIFO, so the writes a
//! batch frame carries are always a contiguous run of sequence numbers.
//! A [`SeqRange`] captures that run in two words — the in-flight table
//! and the tracing layer correlate acks back to individual writes
//! without keeping a `Vec<u64>` per frame.

/// A contiguous, possibly empty run of sequence numbers
/// `[first, first + len)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeqRange {
    first: u64,
    len: u32,
}

impl SeqRange {
    /// The empty range.
    #[must_use]
    pub fn empty() -> Self {
        Self { first: 0, len: 0 }
    }

    /// Appends `seq`: starts the run when empty, extends it when `seq`
    /// is the next number, returns `false` (unchanged) otherwise.
    pub fn push(&mut self, seq: u64) -> bool {
        if self.len == 0 {
            self.first = seq;
            self.len = 1;
            true
        } else if seq == self.first + u64::from(self.len) && self.len < u32::MAX {
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// First sequence number, or `None` when empty.
    #[must_use]
    pub fn first(&self) -> Option<u64> {
        (self.len > 0).then_some(self.first)
    }

    /// The run's sequence numbers in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..u64::from(self.len)).map(move |i| self.first + i)
    }
}

impl Default for SeqRange {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_builds_only_contiguous_runs() {
        let mut r = SeqRange::empty();
        assert_eq!(r.len, 0);
        assert!(r.push(10));
        assert!(r.push(11));
        assert!(r.push(12));
        assert!(!r.push(14), "gap rejected");
        assert!(!r.push(12), "duplicate rejected");
        assert_eq!(r.len, 3);
        assert_eq!(r.first(), Some(10));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![10, 11, 12]);
    }
}
