//! What the engine records about a write.
//!
//! [`Probe`] is the one object that reads the clock and the only code
//! that touches the metrics [`Registry`] or the per-write [`TraceSink`]:
//! [`crate::pipeline`] states what happens to a write and calls one
//! probe method per stage hop; this file alone states what is recorded
//! about it. It is also the only store of the engine's numbers: every
//! counter below is an instrument the probe holds — the registry's,
//! under its catalogue name, when the engine is built with
//! [`observe`](crate::EngineBuilder::observe), else a detached one no
//! registry lists — and [`EngineStats`]/[`LaneStats`] are views over
//! them. The histograms, events and traces are optional: built without
//! `observe` and [`flight_recorder`](crate::EngineBuilder::flight_recorder)
//! a hop costs two `Option` checks plus its counters' atomic adds, and
//! hops that exist only to be recorded do not read the clock
//! ([`Probe::stamp`]).
//!
//! The catalogue — everything a hop records. Histograms are nanoseconds
//! of the engine's clock unless noted; counters are totals (`*_nanos`
//! ones of the engine's clock), `{i}` is the lane's replica index; a
//! registry event's tags and a trace hop's lane and byte count follow
//! its name in parentheses; trace stages are `prins_obs::TraceStage`
//! names.
//!
//! | hop | histograms | counters, gauges | registry event | trace |
//! |---|---|---|---|---|
//! | `read` | — | `engine_reads` | — | — |
//! | `local_io` | `stage_capture_nanos` (old-image read in `write_block`), `stage_local_write_nanos` (the local block write) | `engine_writes`, `engine_local_write_nanos`, `engine_overhead_nanos` (the capture share) | — | — |
//! | `image_copied` | — | `engine_hot_bytes_copied` (the new image's copy, made only for a write that queues for the encode pool) | — | — |
//! | `admitted` | `admit_queue_depth` (admission-queue length, a count; 0 for a write its writer encodes) | gauge `engine_queue_depth_hwm` (raised to that length) | `admit` (seq, lba) | begins; `capture` (block bytes) |
//! | `encoded` | `stage_admission_wait_nanos` (admit → claimed by an encode worker or a flusher, or taken up at once by its writer), `stage_encode_nanos` (parity encode proper) | `engine_overhead_nanos` (the encode share) | `encode-done` (seq, lba) | `encode` (payload bytes) |
//! | `released` | `stage_reorder_hold_nanos` (encoded → released in sequence order) | `engine_dispatched_writes` | — | `reorder`; drops the reorder hold |
//! | `picked_up` | `stage_lane_queue_nanos` (released → picked up by the sender lane, a batching lane's hold included) | `engine_hot_bytes_copied` (payload bytes copied into the frame) | — | `lane-queue` (lane, payload bytes) |
//! | `sent` | `stage_send_nanos` (the transport send call) | `lane{i}_sends`, `lane{i}_payload_bytes` (frame bytes), `lane{i}_send_nanos` | `send` (first seq, its lba, lane, writes carried) | `send` per write (lane; frame bytes on the first) |
//! | `send_failed` | `stage_send_nanos` | `lane{i}_send_nanos`, `lane{i}_errors`, `engine_replication_errors` | `send-error` (first seq, its lba, lane) | `send-error` per write (lane), completing |
//! | `corrupt_nak` | — | `checksum_failures` | — | — |
//! | `retransmitted` | — | `retransmits`, `lane{i}_payload_bytes` (frame bytes) | — | `retransmit` per write (lane) |
//! | `acked` | `stage_ack_rtt_nanos` (ack wait per in-flight frame, retries included) | `lane{i}_ack_nanos` (the same wait), `lane{i}_acked_writes` (writes carried) | `ack-ok` (lane) | `ack` per write (lane), completing |
//! | `ack_failed` | `stage_ack_rtt_nanos` | `lane{i}_ack_nanos`, `lane{i}_errors`, `engine_replication_errors` | `nak` or `ack-error` (lane) | `ack-error` per write (lane), completing |
//! | `barrier` | — | — | `barrier` | — |
//!
//! What no hop can bump is published by a snapshot collector
//! ([`collect_gauges`]) while the engine lives, and once more when it
//! stops: gauges `pool_hits`, `pool_misses`, `pool_miss_ppm`,
//! `pool_in_use` and `pool_in_use_hwm` (the buffer pool's) and
//! `engine_bytes_copied_per_write` (`engine_hot_bytes_copied` over
//! `engine_writes`).

use std::sync::Arc;

use prins_block::Lba;
use prins_net::Clock;
use prins_obs::{
    Counter, Event, EventKind, Gauge, Histogram, Registry, TraceId, TraceSink, TraceStage, NO_LANE,
};
use prins_repl::ReplError;

use crate::pipeline::{InFlight, Inner, Outbound};
use crate::{EngineStats, LaneStats};

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
}

impl Handles {
    fn event(&self, event: Event) {
        self.registry.events().record(event);
    }
}

/// One sender lane's counters, `lane{i}_*` (see [`LaneStats`]).
struct LaneCounters {
    sends: Arc<Counter>,
    acked_writes: Arc<Counter>,
    payload_bytes: Arc<Counter>,
    send_nanos: Arc<Counter>,
    ack_nanos: Arc<Counter>,
    errors: Arc<Counter>,
}

impl LaneCounters {
    fn view(&self) -> LaneStats {
        LaneStats {
            sends: self.sends.get(),
            acked_writes: self.acked_writes.get(),
            payload_bytes: self.payload_bytes.get(),
            errors: self.errors.get(),
        }
    }
}

/// The engine's clock, counters and recorders (see the module docs).
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
    writes: Arc<Counter>,
    reads: Arc<Counter>,
    local_write_nanos: Arc<Counter>,
    overhead_nanos: Arc<Counter>,
    /// Writes released by the reorder stage to the sender lanes (with
    /// no replicas configured this is the replicated count).
    dispatched_writes: Arc<Counter>,
    replication_errors: Arc<Counter>,
    /// Bytes memcpy'd on the hot path: the new image when a write
    /// queues for the encode pool, and each payload onto the wire —
    /// this counter is what proves it.
    hot_bytes_copied: Arc<Counter>,
    queue_depth_hwm: Arc<Gauge>,
    /// Frames a replica answered with `NAK_CORRUPT` — damaged in
    /// flight, caught by the seal's CRC32C before apply.
    checksum_failures: Arc<Counter>,
    /// Retained frames re-sent after a corrupt NAK.
    retransmits: Arc<Counter>,
    lanes: Vec<LaneCounters>,
}

impl Probe {
    pub(crate) fn new(
        clock: Arc<dyn Clock>,
        registry: Option<Arc<Registry>>,
        trace: Option<Arc<TraceSink>>,
        lanes: usize,
    ) -> Self {
        let counter = |name: &str| {
            registry
                .as_ref()
                .map_or_else(Arc::default, |r| r.counter(name))
        };
        let lane = |idx: usize| {
            let counter = |suffix: &str| counter(&format!("lane{idx}_{suffix}"));
            LaneCounters {
                sends: counter("sends"),
                acked_writes: counter("acked_writes"),
                payload_bytes: counter("payload_bytes"),
                send_nanos: counter("send_nanos"),
                ack_nanos: counter("ack_nanos"),
                errors: counter("errors"),
            }
        };
        Self {
            writes: counter("engine_writes"),
            reads: counter("engine_reads"),
            local_write_nanos: counter("engine_local_write_nanos"),
            overhead_nanos: counter("engine_overhead_nanos"),
            dispatched_writes: counter("engine_dispatched_writes"),
            replication_errors: counter("engine_replication_errors"),
            hot_bytes_copied: counter("engine_hot_bytes_copied"),
            queue_depth_hwm: registry
                .as_ref()
                .map_or_else(Arc::default, |r| r.gauge("engine_queue_depth_hwm")),
            checksum_failures: counter("checksum_failures"),
            retransmits: counter("retransmits"),
            lanes: (0..lanes).map(lane).collect(),
            reg: registry.map(|registry| Handles {
                capture: registry.histogram("stage_capture_nanos"),
                local_write: registry.histogram("stage_local_write_nanos"),
                admission_wait: registry.histogram("stage_admission_wait_nanos"),
                encode: registry.histogram("stage_encode_nanos"),
                reorder_hold: registry.histogram("stage_reorder_hold_nanos"),
                lane_queue: registry.histogram("stage_lane_queue_nanos"),
                send: registry.histogram("stage_send_nanos"),
                ack_rtt: registry.histogram("stage_ack_rtt_nanos"),
                queue_depth: registry.histogram("admit_queue_depth"),
                registry,
            }),
            clock,
            trace,
            pending: lanes as u32 + 1,
        }
    }

    /// The engine's counters (see [`PrinsEngine::stats`](crate::PrinsEngine::stats)).
    pub(crate) fn stats(&self) -> EngineStats {
        let lanes = || self.lanes.iter().map(LaneCounters::view);
        EngineStats {
            writes: self.writes.get(),
            writes_replicated: lanes()
                .map(|l| l.acked_writes)
                .min()
                .unwrap_or_else(|| self.dispatched_writes.get()),
            replicated_payload_bytes: lanes().map(|l| l.payload_bytes).sum(),
            overhead_nanos: self.overhead_nanos.get(),
            replication_errors: self.replication_errors.get(),
            coalesced_writes: 0,
            queue_depth_hwm: self.queue_depth_hwm.get(),
        }
    }

    /// Each sender lane's counters, in replica order.
    pub(crate) fn lane_stats(&self) -> Vec<LaneStats> {
        self.lanes.iter().map(LaneCounters::view).collect()
    }

    /// Reads the clock.
    pub(crate) fn now(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// The reading a recorded-only hop is stamped with: 0, and no clock
    /// read, when nothing records.
    pub(crate) fn stamp(&self) -> u64 {
        if self.reg.is_some() || self.trace.is_some() {
            self.now()
        } else {
            0
        }
    }

    pub(crate) fn registry(&self) -> Option<&Arc<Registry>> {
        self.reg.as_ref().map(|reg| &reg.registry)
    }

    pub(crate) fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// `read_block` served a read.
    pub(crate) fn read(&self) {
        self.reads.inc();
    }

    /// `write_block` captured the old image and wrote the new one.
    pub(crate) fn local_io(&self, capture_nanos: u64, write_nanos: u64) {
        self.writes.inc();
        self.local_write_nanos.add(write_nanos);
        self.overhead_nanos.add(capture_nanos);
        if let Some(reg) = &self.reg {
            reg.capture.record(capture_nanos);
            reg.local_write.record(write_nanos);
        }
    }

    /// A write's new image, `bytes` long, was copied into a pooled buffer
    /// to queue for the encode pool.
    pub(crate) fn image_copied(&self, bytes: usize) {
        self.hot_bytes_copied.add(bytes as u64);
    }

    /// A write took sequence number `seq`, making the admission queue
    /// `depth` long. Returns the admission stamp.
    pub(crate) fn admitted(&self, seq: u64, lba: Lba, depth: usize) -> u64 {
        let at = self.stamp();
        self.queue_depth_hwm.set_max(depth as u64);
        if let Some(reg) = &self.reg {
            reg.event(Event::new(at, EventKind::Admit).seq(seq).lba(lba.0));
            reg.queue_depth.record(depth as u64);
        }
        if let Some(trace) = &self.trace {
            trace.begin(TraceId::from_seq(seq), 0, self.pending, at);
        }
        at
    }

    /// A worker claimed `w` after `waited` in the admission queue and
    /// spent `took` encoding it; `w.at` is when it finished.
    pub(crate) fn encoded(&self, w: &Outbound, waited: u64, took: u64) {
        self.overhead_nanos.add(took);
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
            trace.event(TraceId::from_seq(w.seq), TraceStage::Encode, NO_LANE, w.at);
        }
    }

    /// `w` (encoded at `w.at`) reached its sequence turn. Returns the
    /// release stamp.
    pub(crate) fn released(&self, w: &Outbound) -> u64 {
        let at = self.stamp();
        self.dispatched_writes.inc();
        if let Some(reg) = &self.reg {
            reg.reorder_hold.record(at.saturating_sub(w.at));
        }
        if let Some(trace) = &self.trace {
            let id = TraceId::from_seq(w.seq);
            trace.event(id, TraceStage::Reorder, NO_LANE, at);
            // Release the reorder hold *before* the lanes see the
            // payload: pending stays ≥ lane count until their acks, and
            // a zero-lane engine finalizes right here.
            trace.release(id, at);
        }
        at
    }

    /// `lane` took `w` (released at `w.at`) off its queue into the
    /// frame it started building at stamp `at`, to be copied there.
    pub(crate) fn picked_up(&self, lane: usize, at: u64, w: &Outbound) {
        self.hot_bytes_copied.add(w.bytes.len() as u64);
        if let Some(reg) = &self.reg {
            reg.lane_queue.record(at.saturating_sub(w.at));
        }
        if let Some(trace) = &self.trace {
            let id = TraceId::from_seq(w.seq);
            trace.event(id, TraceStage::LaneQueue, lane as u32, at);
        }
    }

    /// The transport took frame `f` at `at`, after `took` in the call.
    pub(crate) fn sent(&self, lane: usize, f: &InFlight, took: u64, at: u64) {
        let counters = &self.lanes[lane];
        counters.send_nanos.add(took);
        counters.sends.inc();
        counters.payload_bytes.add(f.frame.len() as u64);
        if let Some(reg) = &self.reg {
            reg.send.record(took);
            let writes = f.writes.min(u32::MAX as u64) as u32;
            reg.event(
                Event::new(at, EventKind::Send { writes })
                    .seq(f.first)
                    .lba(f.lba.0)
                    .replica(lane),
            );
        }
        if let Some(trace) = &self.trace {
            for s in f.seqs() {
                trace.event(TraceId::from_seq(s), TraceStage::Send, lane as u32, at);
            }
        }
    }

    /// The transport refused frame `f`; its writes retire unsent.
    pub(crate) fn send_failed(&self, lane: usize, f: &InFlight, took: u64, at: u64) {
        self.lanes[lane].send_nanos.add(took);
        self.failed(lane);
        if let Some(reg) = &self.reg {
            reg.send.record(took);
            reg.event(
                Event::new(at, EventKind::SendError)
                    .seq(f.first)
                    .lba(f.lba.0)
                    .replica(lane),
            );
        }
        self.complete(lane, f, TraceStage::SendError, at);
    }

    /// A replica answered `NAK_CORRUPT`.
    pub(crate) fn corrupt_nak(&self) {
        self.checksum_failures.inc();
    }

    /// The retained copy of `f` went out again.
    pub(crate) fn retransmitted(&self, lane: usize, f: &InFlight, at: u64) {
        self.retransmits.inc();
        self.lanes[lane].payload_bytes.add(f.frame.len() as u64);
        if let Some(trace) = &self.trace {
            for s in f.seqs() {
                trace.mark_retransmit(TraceId::from_seq(s), lane as u32, at);
            }
        }
    }

    /// Frame `f` was acknowledged at `at` after `waited` — one RTT
    /// sample and one terminal event per retired frame, however many
    /// retransmission round-trips it took.
    pub(crate) fn acked(&self, lane: usize, f: &InFlight, waited: u64, at: u64) {
        let counters = &self.lanes[lane];
        counters.ack_nanos.add(waited);
        counters.acked_writes.add(f.writes);
        if let Some(reg) = &self.reg {
            reg.ack_rtt.record(waited);
            reg.event(Event::new(at, EventKind::AckOk).replica(lane));
        }
        self.complete(lane, f, TraceStage::Ack, at);
    }

    /// Frame `f` retired at `at` without an acknowledgement.
    pub(crate) fn ack_failed(
        &self,
        lane: usize,
        f: &InFlight,
        waited: u64,
        at: u64,
        e: &ReplError,
    ) {
        self.lanes[lane].ack_nanos.add(waited);
        self.failed(lane);
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
    pub(crate) fn barrier(&self) {
        if let Some(reg) = &self.reg {
            reg.event(Event::new(self.now(), EventKind::Barrier));
        }
    }

    /// One replication error on `lane`.
    fn failed(&self, lane: usize) {
        self.lanes[lane].errors.inc();
        self.replication_errors.inc();
    }

    /// `lane`'s terminal hop for every write `f` carries.
    fn complete(&self, lane: usize, f: &InFlight, stage: TraceStage, at: u64) {
        if let Some(trace) = &self.trace {
            for s in f.seqs() {
                trace.complete(TraceId::from_seq(s), stage, lane as u32, at);
            }
        }
    }
}

/// Publishes the gauges no hop can bump (see the module docs) into the
/// engine's registry at every snapshot. The collector holds `cx`
/// weakly: a registry that outlives the engine must not keep the
/// pipeline context — and through its probe, the registry itself —
/// alive in a cycle, so the engine calls [`publish_gauges`] once more
/// when it stops.
pub(crate) fn collect_gauges(cx: &Arc<Inner>) {
    if let Some(registry) = cx.probe.registry() {
        let weak = Arc::downgrade(cx);
        registry.add_collector(Box::new(move |_| {
            if let Some(cx) = weak.upgrade() {
                publish_gauges(&cx);
            }
        }));
    }
}

/// Sets the collector-fed gauges from the pool and the probe's counters.
pub(crate) fn publish_gauges(cx: &Inner) {
    let Some(registry) = cx.probe.registry() else {
        return;
    };
    let pool = cx.pool.stats();
    let (writes, copied) = (cx.probe.writes.get(), cx.probe.hot_bytes_copied.get());
    for (name, value) in [
        (
            "engine_bytes_copied_per_write",
            copied.checked_div(writes).unwrap_or(0),
        ),
        ("pool_hits", pool.hits),
        ("pool_misses", pool.misses),
        ("pool_miss_ppm", pool.miss_ppm()),
        ("pool_in_use", pool.in_use),
        ("pool_in_use_hwm", pool.in_use_hwm),
    ] {
        registry.gauge(name).set(value);
    }
}
