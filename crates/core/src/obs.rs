//! What the engine records about a write.
//!
//! [`Probe`] is the one object that reads the clock and the only code
//! that touches the metrics [`Registry`] or the per-write [`TraceSink`]:
//! [`crate::pipeline`] states what happens to a write and calls one
//! probe method per stage hop; this file alone states what is recorded
//! about it. Both recorders are optional — built without
//! [`observe`](crate::EngineBuilder::observe) and
//! [`flight_recorder`](crate::EngineBuilder::flight_recorder) a hop
//! costs two `Option` checks, and hops that exist only to be recorded
//! do not read the clock ([`Probe::stamp`]).
//!
//! The catalogue — everything a hop records. Histograms are nanoseconds
//! of the engine's clock unless noted; a registry event's tags and a
//! trace hop's lane and byte count follow its name in parentheses;
//! trace stages are `prins_obs::TraceStage` names.
//!
//! | hop | histograms, counters | registry event | trace |
//! |---|---|---|---|
//! | `local_io` | `stage_capture_nanos` (old-image read in `write_block`), `stage_local_write_nanos` (the local block write) | — | — |
//! | `admitted` | `admit_queue_depth` (admission-queue length, a count) | `admit` (seq, lba) | begins; `capture` (block bytes) |
//! | `folded` | `admit_queue_depth` | `coalesce` (seq, lba) | `coalesce` (block bytes) |
//! | `encoded` | `stage_admission_wait_nanos` (admit → claimed by an encode worker), `stage_encode_nanos` (parity encode proper) | `encode-done` (seq, lba) | `encode` (payload bytes) |
//! | `released` | `stage_reorder_hold_nanos` (encoded → released in sequence order) | — | `reorder`; drops the reorder hold |
//! | `picked_up` | `stage_lane_queue_nanos` (released → picked up by the sender lane) | — | `lane-queue` (lane, payload bytes) |
//! | `sent` | `stage_send_nanos` (the transport send call) | `send` (first seq, its lba, lane, writes carried) | `send` per write (lane; frame bytes on the first) |
//! | `send_failed` | `stage_send_nanos` | `send-error` (first seq, its lba, lane) | `send-error` per write (lane), completing |
//! | `corrupt_nak` | counter `checksum_failures` | — | — |
//! | `retransmitted` | counter `retransmits` | — | `retransmit` per write (lane) |
//! | `acked` | `stage_ack_rtt_nanos` (ack wait per in-flight frame, retries included) | `ack-ok` (lane) | `ack` per write (lane), completing |
//! | `ack_failed` | `stage_ack_rtt_nanos` | `nak` or `ack-error` (lane) | `ack-error` per write (lane), completing |
//! | `barrier` | — | `barrier` | — |

use std::sync::Arc;

use prins_block::Lba;
use prins_net::Clock;
use prins_obs::{
    Counter, Event, EventKind, Histogram, Registry, TraceId, TraceSink, TraceStage, NO_LANE,
};
use prins_repl::ReplError;

use crate::pipeline::{InFlight, Outbound};

/// Registry handles, resolved once at engine start so the hot paths
/// touch only atomics.
struct Handles {
    registry: Arc<Registry>,
    capture: Arc<Histogram>,
    local_write: Arc<Histogram>,
    admission_wait: Arc<Histogram>,
    encode: Arc<Histogram>,
    reorder_hold: Arc<Histogram>,
    lane_queue: Arc<Histogram>,
    send: Arc<Histogram>,
    ack_rtt: Arc<Histogram>,
    queue_depth: Arc<Histogram>,
    /// Frames a replica answered with `NAK_CORRUPT` — damaged in
    /// flight, caught by the seal's CRC32C before apply.
    checksum_failures: Arc<Counter>,
    /// Retained frames re-sent after a corrupt NAK.
    retransmits: Arc<Counter>,
}

impl Handles {
    fn event(&self, event: Event) {
        self.registry.events().record(event);
    }
}

/// The engine's clock and recorders (see the module docs).
pub(crate) struct Probe {
    clock: Arc<dyn Clock>,
    reg: Option<Handles>,
    /// Stage hops record into fixed slots, so the write path stays
    /// allocation-free with tracing on.
    trace: Option<Arc<TraceSink>>,
    /// Completions a trace waits for: one per lane plus the reorder
    /// stage's hold, released once the payload is handed to the lanes —
    /// so a zero-replica engine still finalizes.
    pending: u32,
}

impl Probe {
    pub fn new(
        clock: Arc<dyn Clock>,
        registry: Option<Arc<Registry>>,
        trace: Option<Arc<TraceSink>>,
        lanes: usize,
    ) -> Self {
        let reg = registry.map(|registry| Handles {
            capture: registry.histogram("stage_capture_nanos"),
            local_write: registry.histogram("stage_local_write_nanos"),
            admission_wait: registry.histogram("stage_admission_wait_nanos"),
            encode: registry.histogram("stage_encode_nanos"),
            reorder_hold: registry.histogram("stage_reorder_hold_nanos"),
            lane_queue: registry.histogram("stage_lane_queue_nanos"),
            send: registry.histogram("stage_send_nanos"),
            ack_rtt: registry.histogram("stage_ack_rtt_nanos"),
            queue_depth: registry.histogram("admit_queue_depth"),
            checksum_failures: registry.counter("checksum_failures"),
            retransmits: registry.counter("retransmits"),
            registry,
        });
        Self {
            clock,
            reg,
            trace,
            pending: lanes as u32 + 1,
        }
    }

    /// Reads the clock.
    pub fn now(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// The reading a recorded-only hop is stamped with: 0, and no clock
    /// read, when nothing records.
    pub fn stamp(&self) -> u64 {
        if self.reg.is_some() || self.trace.is_some() {
            self.now()
        } else {
            0
        }
    }

    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.reg.as_ref().map(|reg| &reg.registry)
    }

    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// `write_block` captured the old image and wrote the new one.
    pub fn local_io(&self, capture_nanos: u64, write_nanos: u64) {
        if let Some(reg) = &self.reg {
            reg.capture.record(capture_nanos);
            reg.local_write.record(write_nanos);
        }
    }

    /// A write took sequence number `seq`, making the admission queue
    /// `depth` long. Returns the admission stamp.
    pub fn admitted(&self, seq: u64, lba: Lba, bytes: usize, depth: usize) -> u64 {
        let at = self.stamp();
        if let Some(reg) = &self.reg {
            reg.event(Event::new(at, EventKind::Admit).seq(seq).lba(lba.0));
            reg.queue_depth.record(depth as u64);
        }
        if let Some(trace) = &self.trace {
            trace.begin(TraceId::from_seq(seq), 0, self.pending, at, bytes);
        }
        at
    }

    /// A write folded into the still-queued write `seq`.
    pub fn folded(&self, seq: u64, lba: Lba, bytes: usize, depth: usize) {
        let at = self.stamp();
        if let Some(reg) = &self.reg {
            reg.queue_depth.record(depth as u64);
            reg.event(Event::new(at, EventKind::Coalesce).seq(seq).lba(lba.0));
        }
        if let Some(trace) = &self.trace {
            trace.fold(TraceId::from_seq(seq), at, bytes);
        }
    }

    /// A worker claimed `w` after `waited` in the admission queue and
    /// spent `took` encoding it; `w.at` is when it finished.
    pub fn encoded(&self, w: &Outbound, waited: u64, took: u64) {
        if let Some(reg) = &self.reg {
            reg.admission_wait.record(waited);
            reg.encode.record(took);
            reg.event(
                Event::new(w.at, EventKind::EncodeDone)
                    .seq(w.seq)
                    .lba(w.lba.0),
            );
        }
        if let Some(trace) = &self.trace {
            let id = TraceId::from_seq(w.seq);
            trace.event(id, TraceStage::Encode, NO_LANE, w.at, w.bytes.len());
        }
    }

    /// `w` (encoded at `w.at`) reached its sequence turn. Returns the
    /// release stamp.
    pub fn released(&self, w: &Outbound) -> u64 {
        let at = self.stamp();
        if let Some(reg) = &self.reg {
            reg.reorder_hold.record(at.saturating_sub(w.at));
        }
        if let Some(trace) = &self.trace {
            let id = TraceId::from_seq(w.seq);
            trace.event(id, TraceStage::Reorder, NO_LANE, at, 0);
            // Release the reorder hold *before* the lanes see the
            // payload: pending stays ≥ lane count until their acks, and
            // a zero-lane engine finalizes right here.
            trace.release(id, at);
        }
        at
    }

    /// `lane` took `w` (released at `w.at`) off its queue into the
    /// frame it started building at stamp `at`.
    pub fn picked_up(&self, lane: usize, at: u64, w: &Outbound) {
        if let Some(reg) = &self.reg {
            reg.lane_queue.record(at.saturating_sub(w.at));
        }
        if let Some(trace) = &self.trace {
            let id = TraceId::from_seq(w.seq);
            trace.event(id, TraceStage::LaneQueue, lane as u32, at, w.bytes.len());
        }
    }

    /// The transport took frame `f` at `at`, after `took` in the call.
    pub fn sent(&self, lane: usize, f: &InFlight, took: u64, at: u64) {
        let first = f.range.first().expect("a frame carries a write");
        if let Some(reg) = &self.reg {
            reg.send.record(took);
            let writes = f.writes.min(u32::MAX as u64) as u32;
            reg.event(
                Event::new(at, EventKind::Send { writes })
                    .seq(first)
                    .lba(f.lba.0)
                    .replica(lane),
            );
        }
        if let Some(trace) = &self.trace {
            for s in f.range.iter() {
                let bytes = if s == first { f.frame.len() } else { 0 };
                trace.event(
                    TraceId::from_seq(s),
                    TraceStage::Send,
                    lane as u32,
                    at,
                    bytes,
                );
            }
        }
    }

    /// The transport refused frame `f`; its writes retire unsent.
    pub fn send_failed(&self, lane: usize, f: &InFlight, took: u64, at: u64) {
        if let Some(reg) = &self.reg {
            reg.send.record(took);
            reg.event(
                Event::new(at, EventKind::SendError)
                    .seq(f.range.first().expect("a frame carries a write"))
                    .lba(f.lba.0)
                    .replica(lane),
            );
        }
        self.complete(lane, f, TraceStage::SendError, at);
    }

    /// A replica answered `NAK_CORRUPT`.
    pub fn corrupt_nak(&self) {
        if let Some(reg) = &self.reg {
            reg.checksum_failures.inc();
        }
    }

    /// The retained copy of `f` went out again.
    pub fn retransmitted(&self, lane: usize, f: &InFlight, at: u64) {
        if let Some(reg) = &self.reg {
            reg.retransmits.inc();
        }
        if let Some(trace) = &self.trace {
            for s in f.range.iter() {
                trace.mark_retransmit(TraceId::from_seq(s), lane as u32, at);
            }
        }
    }

    /// Frame `f` was acknowledged at `at` after `waited` — one RTT
    /// sample and one terminal event per retired frame, however many
    /// retransmission round-trips it took.
    pub fn acked(&self, lane: usize, f: &InFlight, waited: u64, at: u64) {
        if let Some(reg) = &self.reg {
            reg.ack_rtt.record(waited);
            reg.event(Event::new(at, EventKind::AckOk).replica(lane));
        }
        self.complete(lane, f, TraceStage::Ack, at);
    }

    /// Frame `f` retired at `at` without an acknowledgement.
    pub fn ack_failed(&self, lane: usize, f: &InFlight, waited: u64, at: u64, e: &ReplError) {
        if let Some(reg) = &self.reg {
            reg.ack_rtt.record(waited);
            let kind = match e {
                ReplError::Nak { .. } => EventKind::Nak,
                _ => EventKind::AckError,
            };
            reg.event(Event::new(at, kind).replica(lane));
        }
        self.complete(lane, f, TraceStage::AckError, at);
    }

    /// A flush barrier completed.
    pub fn barrier(&self) {
        if let Some(reg) = &self.reg {
            reg.event(Event::new(self.now(), EventKind::Barrier));
        }
    }

    /// `lane`'s terminal hop for every write `f` carries.
    fn complete(&self, lane: usize, f: &InFlight, stage: TraceStage, at: u64) {
        if let Some(trace) = &self.trace {
            for s in f.range.iter() {
                trace.complete(TraceId::from_seq(s), stage, lane as u32, at, 0);
            }
        }
    }
}
