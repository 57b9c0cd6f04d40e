//! The bounded, typed pipeline-event ring.
//!
//! Every layer pushes [`Event`]s into one shared [`EventRing`]: the
//! engine pipeline (admit, coalesce, encode done, send, ack), the
//! cluster (resync batches, lifecycle transitions), and anything else
//! wired to the registry. The ring is bounded — old events fall off,
//! but per-kind totals are kept exactly — and drainable, so a harness
//! can assert on the trace or replay it.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::Mutex;

/// What happened. Payload-carrying variants keep the tags small and
/// `Copy`; everything renders deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A write entered the admission queue.
    Admit,
    /// A write folded into a still-queued job for the same LBA.
    Coalesce,
    /// A parity finished encoding.
    EncodeDone,
    /// A frame was handed to a replica transport (`writes` = original
    /// writes carried, batching and folds included).
    Send {
        /// Application writes the frame carries.
        writes: u32,
    },
    /// A positive acknowledgement was collected.
    AckOk,
    /// A NAK was collected.
    Nak,
    /// Ack collection failed (timeout, disconnect, garbage frame).
    AckError,
    /// A send failed before the frame left the primary.
    SendError,
    /// A flush barrier completed.
    Barrier,
    /// One resync batch was sent and acknowledged.
    ResyncBatch {
        /// Frames sent in this batch.
        sent: u32,
        /// Blocks still to resync after it.
        remaining: u32,
    },
    /// A replica lifecycle transition.
    StateChange {
        /// State before.
        from: &'static str,
        /// State after.
        to: &'static str,
    },
    /// An erasure-coded strip was rebuilt from surviving strips.
    EcRebuild {
        /// Stripes reconstructed onto the replacement node.
        stripes: u32,
    },
    /// One batch of blocks copied by a live shard migration.
    MigrateBatch {
        /// Blocks copied in this batch.
        copied: u32,
        /// Blocks still to copy after it.
        remaining: u32,
    },
    /// A live migration cut over: the range's ownership moved.
    Cutover {
        /// Group the range moved from.
        from: u32,
        /// Group the range moved to.
        to: u32,
    },
}

impl EventKind {
    /// Stable kind name (payloads excluded) — the key of event-count
    /// summaries.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            EventKind::Admit => "admit",
            EventKind::Coalesce => "coalesce",
            EventKind::EncodeDone => "encode-done",
            EventKind::Send { .. } => "send",
            EventKind::AckOk => "ack-ok",
            EventKind::Nak => "nak",
            EventKind::AckError => "ack-error",
            EventKind::SendError => "send-error",
            EventKind::Barrier => "barrier",
            EventKind::ResyncBatch { .. } => "resync-batch",
            EventKind::StateChange { .. } => "state-change",
            EventKind::EcRebuild { .. } => "ec-rebuild",
            EventKind::MigrateBatch { .. } => "migrate-batch",
            EventKind::Cutover { .. } => "cutover",
        }
    }
}

/// One recorded event. `seq`/`lba`/`replica` default to the sentinel
/// `u64::MAX` where they do not apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Clock reading (nanoseconds) when the event was recorded.
    pub(crate) at: u64,
    /// What happened.
    pub kind: EventKind,
    /// Pipeline sequence number, or `u64::MAX`.
    pub(crate) seq: u64,
    /// Logical block address, or `u64::MAX`.
    pub(crate) lba: u64,
    /// Replica index, or `u64::MAX`.
    pub replica: u64,
}

impl Event {
    /// Sentinel for "field not applicable" (`u64::MAX`).
    pub(crate) const NONE: u64 = u64::MAX;

    /// An event with every tag set to `u64::MAX`.
    pub fn new(at: u64, kind: EventKind) -> Self {
        Self {
            at,
            kind,
            seq: Self::NONE,
            lba: Self::NONE,
            replica: Self::NONE,
        }
    }

    /// Sets the sequence tag.
    pub fn seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the LBA tag.
    pub fn lba(mut self, lba: u64) -> Self {
        self.lba = lba;
        self
    }

    /// Sets the replica tag.
    pub fn replica(mut self, replica: usize) -> Self {
        self.replica = replica as u64;
        self
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={} {}", self.at, self.kind.name())?;
        match self.kind {
            EventKind::Send { writes } => write!(f, " writes={writes}")?,
            EventKind::ResyncBatch { sent, remaining } => {
                write!(f, " sent={sent} remaining={remaining}")?;
            }
            EventKind::StateChange { from, to } => write!(f, " {from}->{to}")?,
            EventKind::EcRebuild { stripes } => write!(f, " stripes={stripes}")?,
            EventKind::MigrateBatch { copied, remaining } => {
                write!(f, " copied={copied} remaining={remaining}")?;
            }
            EventKind::Cutover { from, to } => write!(f, " {from}->{to}")?,
            _ => {}
        }
        if self.seq != Self::NONE {
            write!(f, " seq={}", self.seq)?;
        }
        if self.lba != Self::NONE {
            write!(f, " lba={}", self.lba)?;
        }
        if self.replica != Self::NONE {
            write!(f, " r={}", self.replica)?;
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct RingInner {
    buf: VecDeque<Event>,
    counts: BTreeMap<&'static str, u64>,
    dropped: u64,
}

/// A bounded ring of [`Event`]s plus exact per-kind totals.
///
/// When the ring is full the oldest event is dropped (and counted);
/// the per-kind totals never lose anything, so event-count summaries
/// stay exact regardless of capacity.
#[derive(Debug)]
pub struct EventRing {
    inner: Mutex<RingInner>,
    cap: usize,
}

impl EventRing {
    /// A ring holding at most `cap` events.
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(RingInner::default()),
            cap: cap.max(1),
        }
    }

    /// Appends one event.
    pub fn record(&self, event: Event) {
        let mut inner = self.inner.lock().unwrap();
        *inner.counts.entry(event.kind.name()).or_insert(0) += 1;
        if inner.buf.len() >= self.cap {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(event);
    }

    /// Events currently buffered (oldest first), without draining.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().unwrap().buf.iter().copied().collect()
    }

    /// Exact per-kind totals since construction (drops included).
    pub(crate) fn counts(&self) -> BTreeMap<&'static str, u64> {
        self.inner.lock().unwrap().counts.clone()
    }

    /// Total for one kind name.
    pub fn count(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counts
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Events evicted because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// The pipeline writes engine lane `lane` put on the wire, as
    /// `(seq, lba)` in wire order, rebuilt from the buffered events.
    ///
    /// A `send` event names its frame's first write and how many
    /// application writes the frame carries; `encode-done` events give
    /// every sequence number its LBA and `coalesce` events its folded
    /// writes, so each frame's end is determined, not assumed. The
    /// frames must tile the sequence space: each starts where the one
    /// before ended (so sequence numbers strictly increase and no write
    /// is sent twice or skipped) and ends on a write boundary. The one
    /// stretch the events leave open is behind a `send-error`, whose
    /// frame never left and whose length was not recorded: the next
    /// frame may start anywhere past it.
    ///
    /// # Errors
    ///
    /// A description of the first frame that breaks the tiling, names a
    /// write with no `encode-done`, or disagrees with it about the
    /// LBA — or of a ring that has dropped events, which cannot answer.
    pub fn lane_send_order(&self, lane: usize) -> Result<Vec<(u64, u64)>, String> {
        let inner = self.inner.lock().unwrap();
        if inner.dropped > 0 {
            return Err(format!("{} events fell off the ring", inner.dropped));
        }
        let mut lba_of: HashMap<u64, u64> = HashMap::new();
        let mut folds: HashMap<u64, u64> = HashMap::new();
        for e in &inner.buf {
            match e.kind {
                EventKind::EncodeDone => {
                    lba_of.insert(e.seq, e.lba);
                }
                EventKind::Coalesce => *folds.entry(e.seq).or_default() += 1,
                _ => {}
            }
        }
        let mut order = Vec::new();
        let mut next = 0u64;
        let mut after_error = false;
        for e in inner.buf.iter().filter(|e| e.replica == lane as u64) {
            let carried = match e.kind {
                EventKind::Send { writes } => Some(u64::from(writes)),
                EventKind::SendError => None,
                _ => continue,
            };
            if e.seq < next || (e.seq > next && !after_error) {
                return Err(format!(
                    "lane {lane}: frame starts at seq {} where seq {next} was due",
                    e.seq
                ));
            }
            next = e.seq;
            after_error = carried.is_none();
            let mut left = carried.unwrap_or(0);
            while left > 0 {
                let lba = *lba_of
                    .get(&next)
                    .ok_or_else(|| format!("lane {lane}: sent seq {next} was never encoded"))?;
                if next == e.seq && lba != e.lba {
                    return Err(format!(
                        "lane {lane}: seq {next} encoded for lba {lba}, sent as lba {}",
                        e.lba
                    ));
                }
                left = left
                    .checked_sub(1 + folds.get(&next).copied().unwrap_or(0))
                    .ok_or_else(|| format!("lane {lane}: frame ends inside seq {next}"))?;
                order.push((next, lba));
                next += 1;
            }
            next = next.max(e.seq + 1);
        }
        Ok(order)
    }

    /// The buffered events as one newline-joined deterministic trace.
    pub fn trace(&self) -> String {
        self.events()
            .iter()
            .map(Event::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_events_but_keeps_exact_counts() {
        let ring = EventRing::new(4);
        for i in 0..10u64 {
            ring.record(Event::new(i, EventKind::Admit).seq(i));
        }
        assert_eq!(ring.events().len(), 4);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.count("admit"), 10);
        assert_eq!(ring.events()[0].seq, 6, "oldest events fell off");
    }

    #[test]
    fn per_kind_counts_stay_exact_across_threaded_wraparound() {
        use std::sync::Arc;
        // 4 threads push 200 events each through a 64-slot ring: the
        // buffer wraps many times over, but the per-kind totals must
        // come out exact and the ring must hold exactly `cap` events.
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 200;
        const CAP: usize = 64;
        let ring = Arc::new(EventRing::new(CAP));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let kind = match i % 4 {
                            0 => EventKind::Admit,
                            1 => EventKind::Send { writes: 1 },
                            2 => EventKind::AckOk,
                            _ => EventKind::Nak,
                        };
                        ring.record(Event::new(t * PER_THREAD + i, kind).seq(i));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let total = THREADS * PER_THREAD;
        for kind in ["admit", "send", "ack-ok", "nak"] {
            assert_eq!(ring.count(kind), total / 4, "kind {kind}");
        }
        assert_eq!(ring.counts().values().sum::<u64>(), total);
        assert_eq!(ring.events().len(), CAP);
        assert_eq!(ring.dropped(), total - CAP as u64);
    }

    #[test]
    fn lane_send_order_pins_the_tiling() {
        let frame = |seq, lba, writes| {
            Event::new(0, EventKind::Send { writes })
                .seq(seq)
                .lba(lba)
                .replica(1)
        };
        let ring = EventRing::new(64);
        for (seq, lba) in [(0, 5), (1, 6), (2, 5), (3, 7)] {
            ring.record(Event::new(0, EventKind::EncodeDone).seq(seq).lba(lba));
        }
        // Seq 1 carries one folded write, so the first frame's three
        // writes are seqs 0 and 1.
        ring.record(Event::new(0, EventKind::Coalesce).seq(1).lba(6));
        ring.record(frame(0, 5, 3));
        ring.record(frame(2, 5, 1).replica(0));
        ring.record(frame(2, 5, 1));
        assert_eq!(ring.lane_send_order(1).unwrap(), [(0, 5), (1, 6), (2, 5)]);
        assert_eq!(
            ring.lane_send_order(0).unwrap_err(),
            "lane 0: frame starts at seq 2 where seq 0 was due"
        );

        // A resend, a gap, a frame cut mid-write, a wrong LBA and an
        // unencoded write are each refused; a send error opens a gap.
        for (bad, why) in [
            (frame(2, 5, 1), "starts at seq 2 where seq 3"),
            (frame(4, 9, 1), "starts at seq 4 where seq 3"),
            (frame(3, 8, 1), "encoded for lba 7, sent as lba 8"),
            (frame(3, 7, 2), "seq 4 was never encoded"),
        ] {
            let ring2 = EventRing::new(64);
            for e in ring.events() {
                ring2.record(e);
            }
            ring2.record(bad);
            let err = ring2.lane_send_order(1).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
        ring.record(Event::new(0, EventKind::SendError).seq(3).lba(7).replica(1));
        ring.record(Event::new(0, EventKind::EncodeDone).seq(9).lba(1));
        ring.record(frame(9, 1, 1));
        assert_eq!(ring.lane_send_order(1).unwrap().last(), Some(&(9, 1)));
        let cut = EventRing::new(64);
        cut.record(Event::new(0, EventKind::EncodeDone).seq(0).lba(1));
        cut.record(Event::new(0, EventKind::Coalesce).seq(0).lba(1));
        cut.record(frame(0, 1, 1));
        assert!(cut
            .lane_send_order(1)
            .unwrap_err()
            .contains("ends inside seq 0"));
    }

    #[test]
    fn events_render_deterministically() {
        let e = Event::new(
            42,
            EventKind::StateChange {
                from: "online",
                to: "lagging",
            },
        )
        .replica(2);
        assert_eq!(e.to_string(), "t=42 state-change online->lagging r=2");
        let s = Event::new(7, EventKind::Send { writes: 3 }).seq(5).lba(1);
        assert_eq!(s.to_string(), "t=7 send writes=3 seq=5 lba=1");
    }
}
