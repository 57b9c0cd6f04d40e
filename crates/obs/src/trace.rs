//! Per-write causal tracing: trace IDs, stage events, and the
//! lock-light [`TraceSink`] every pipeline hop reports into.
//!
//! A trace is born when a write enters the system ([`TraceSink::begin`])
//! and finalizes when its last expected completion arrives — one per
//! replica lane, strip target, or read answer. Each hop appends a
//! fixed-size event (stage, lane, virtual-ns timestamp) into a bounded
//! per-trace buffer held in a fixed slot table, so the
//! steady-state record path performs **zero heap allocations**: no
//! `Vec` growth, no `Arc` clones, no map inserts.
//!
//! On finalize the sink:
//!
//! * records end-to-end latency into a log2 histogram;
//! * decomposes the trace into per-stage time (the gap each event
//!   closed) and, for traces at or above the current p99, charges those
//!   nanoseconds to `(stage, lane)` **tail attribution** counters plus
//!   a per-stage "dominant stage" counter;
//! * burns the per-shard `slo_writes_over_budget` counter when the
//!   trace exceeded the 25 ms latency budget;
//! * counts the trace as an **anomaly** if it was over budget,
//!   retransmitted, or hit a wrong-epoch drop.
//!
//! Determinism: IDs derive from sequence numbers (no randomness),
//! timestamps come from the injected clock, and every exported summary
//! is integers in sorted key order — byte-identical across replays of
//! the same simulated schedule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::Histogram;

/// Maximum events retained per trace; later hops set the truncation
/// flag instead of growing the buffer.
const MAX_TRACE_EVENTS: usize = 24;

/// Active-trace slots. A key whose slot is occupied by an older live
/// trace evicts it.
const SLOTS: usize = 1024;

/// End-to-end latency SLO: a trace over it burns its shard's
/// `slo_writes_over_budget` counter and counts as an anomaly.
const LATENCY_BUDGET_NANOS: u64 = 25_000_000;

/// Lane tag for events not bound to a replica lane.
pub const NO_LANE: u32 = u32::MAX;

/// Lane histogram buckets for tail attribution: lanes `0..8` map to
/// their own bucket, everything else (higher lanes, [`NO_LANE`]) to the
/// last.
pub const LANE_BUCKETS: usize = 9;

/// A causal trace identifier, minted deterministically from a sequence
/// number (engine pipeline) or a `(shard, counter)` pair (cluster
/// layers) — never from randomness, so replays of the same simulated
/// schedule mint the same IDs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// An ID for engine-pipeline write `seq`.
    #[must_use]
    pub fn from_seq(seq: u64) -> Self {
        Self(seq)
    }

    /// An ID for the `counter`-th traced operation of shard `shard`.
    #[must_use]
    pub fn for_shard(shard: u32, counter: u64) -> Self {
        Self((u64::from(shard) << 48) | (counter & 0xffff_ffff_ffff))
    }

    /// The raw key (the slot index derives from it).
    #[must_use]
    pub(crate) fn raw(self) -> u64 {
        self.0
    }
}

/// A pipeline hop a trace event can mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceStage {
    /// Write captured at the primary (trace birth).
    Capture = 0,
    /// Parity/payload encoding finished.
    Encode = 1,
    /// Released from the reorder buffer to the sender lanes.
    Reorder = 2,
    /// Picked up by a sender lane's queue.
    LaneQueue = 3,
    /// Frame handed to the transport.
    Send = 4,
    /// Send failed before the frame left the primary.
    SendError = 5,
    /// Frame retransmitted after a corrupt-NAK.
    Retransmit = 6,
    /// Positive acknowledgement collected.
    Ack = 7,
    /// Acknowledgement collection failed.
    AckError = 8,
    /// Cluster foreground frame sent to a replica.
    ReplicaSend = 9,
    /// Cluster replica acknowledgement collected.
    ReplicaAck = 10,
    /// A stale-epoch response was dropped while this trace waited.
    WrongEpoch = 11,
    /// Read served by an in-sync replica.
    ReadOffload = 12,
    /// Read candidate rejected by the freshness guard.
    ReadReject = 13,
    /// One migration batch copied through the target group.
    MigrateCopy = 14,
    /// Erasure-coded data-strip delta sent.
    StripData = 15,
    /// Erasure-coded parity-strip delta sent.
    StripParity = 16,
    /// Erasure-coded strip acknowledgement collected.
    StripAck = 17,
}

/// Number of [`TraceStage`] variants.
const STAGE_COUNT: usize = 18;

impl TraceStage {
    /// Every stage, in tag order.
    pub const ALL: [TraceStage; STAGE_COUNT] = [
        TraceStage::Capture,
        TraceStage::Encode,
        TraceStage::Reorder,
        TraceStage::LaneQueue,
        TraceStage::Send,
        TraceStage::SendError,
        TraceStage::Retransmit,
        TraceStage::Ack,
        TraceStage::AckError,
        TraceStage::ReplicaSend,
        TraceStage::ReplicaAck,
        TraceStage::WrongEpoch,
        TraceStage::ReadOffload,
        TraceStage::ReadReject,
        TraceStage::MigrateCopy,
        TraceStage::StripData,
        TraceStage::StripParity,
        TraceStage::StripAck,
    ];

    /// Dense index of the stage (its discriminant).
    #[must_use]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Stable stage name — the key of trace summaries and goldens.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            TraceStage::Capture => "capture",
            TraceStage::Encode => "encode",
            TraceStage::Reorder => "reorder",
            TraceStage::LaneQueue => "lane-queue",
            TraceStage::Send => "send",
            TraceStage::SendError => "send-error",
            TraceStage::Retransmit => "retransmit",
            TraceStage::Ack => "ack",
            TraceStage::AckError => "ack-error",
            TraceStage::ReplicaSend => "replica-send",
            TraceStage::ReplicaAck => "replica-ack",
            TraceStage::WrongEpoch => "wrong-epoch",
            TraceStage::ReadOffload => "read-offload",
            TraceStage::ReadReject => "read-reject",
            TraceStage::MigrateCopy => "migrate-copy",
            TraceStage::StripData => "strip-data",
            TraceStage::StripParity => "strip-parity",
            TraceStage::StripAck => "strip-ack",
        }
    }
}

/// One fixed-size hop record inside a trace.
#[derive(Clone, Copy)]
struct TraceEvent {
    /// Clock reading (virtual nanoseconds) when the hop happened.
    at: u64,
    /// Which hop.
    stage: TraceStage,
    /// Replica/lane index, or [`NO_LANE`].
    lane: u32,
}

impl TraceEvent {
    const EMPTY: TraceEvent = TraceEvent {
        at: 0,
        stage: TraceStage::Capture,
        lane: NO_LANE,
    };
}

/// Tail-attribution lane bucket of a lane tag.
#[must_use]
pub fn lane_bucket(lane: u32) -> usize {
    (lane as usize).min(LANE_BUCKETS - 1)
}

/// Tracing configuration.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Shards the SLO counters are split across (shard tags at or past
    /// this index fold into the last counter).
    pub shards: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { shards: 1 }
    }
}

/// One active-trace slot.
struct Slot {
    active: bool,
    key: u64,
    shard: u32,
    /// Completions still expected before the trace finalizes.
    pending: u32,
    retransmits: u32,
    wrong_epoch: u32,
    started_at: u64,
    len: u8,
    truncated: bool,
    events: [TraceEvent; MAX_TRACE_EVENTS],
}

impl Slot {
    const fn empty() -> Self {
        Self {
            active: false,
            key: 0,
            shard: 0,
            pending: 0,
            retransmits: 0,
            wrong_epoch: 0,
            started_at: 0,
            len: 0,
            truncated: false,
            events: [TraceEvent::EMPTY; MAX_TRACE_EVENTS],
        }
    }

    fn push(&mut self, stage: TraceStage, lane: u32, at: u64) {
        if (self.len as usize) < MAX_TRACE_EVENTS {
            self.events[self.len as usize] = TraceEvent { at, stage, lane };
            self.len += 1;
        } else {
            self.truncated = true;
        }
    }
}

/// The per-write trace collector: a fixed table of active-trace slots
/// feeding latency, tail-attribution, SLO and anomaly accounting.
///
/// All record-path methods take `&self`, lock only the one slot they
/// touch, and never allocate — safe to call from the encode pool and
/// every sender lane concurrently.
pub struct TraceSink {
    slots: Box<[Mutex<Slot>]>,
    latency: Histogram,
    started: AtomicU64,
    completed: AtomicU64,
    evicted: AtomicU64,
    truncated: AtomicU64,
    anomalies: AtomicU64,
    /// Above-p99 traces whose dominant stage this is.
    tail_traces: [AtomicU64; STAGE_COUNT],
    /// Above-p99 nanoseconds charged to `(stage, lane bucket)`.
    tail_nanos: [[AtomicU64; LANE_BUCKETS]; STAGE_COUNT],
    /// Per-shard writes that finished over the latency budget.
    slo_over_budget: Box<[AtomicU64]>,
}

impl TraceSink {
    /// A sink with `cfg`.
    #[must_use]
    pub fn new(cfg: TraceConfig) -> Self {
        Self {
            slots: (0..SLOTS).map(|_| Mutex::new(Slot::empty())).collect(),
            latency: Histogram::new(),
            started: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            anomalies: AtomicU64::new(0),
            tail_traces: std::array::from_fn(|_| AtomicU64::new(0)),
            tail_nanos: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            slo_over_budget: (0..cfg.shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn slot(&self, id: TraceId) -> &Mutex<Slot> {
        &self.slots[(id.raw() % SLOTS as u64) as usize]
    }

    /// Opens a trace: `pending` completions are expected before it
    /// finalizes (use 1 plus [`add_pending`](Self::add_pending) when
    /// the fan-out is only known later). Records a `capture` event. An
    /// older live trace in the same slot is evicted (counted, dropped).
    pub fn begin(&self, id: TraceId, shard: u32, pending: u32, at: u64) {
        self.started.fetch_add(1, Ordering::Relaxed);
        let mut slot = self.slot(id).lock().unwrap();
        if slot.active {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        *slot = Slot {
            active: true,
            key: id.raw(),
            shard,
            pending: pending.max(1),
            retransmits: 0,
            wrong_epoch: 0,
            started_at: at,
            len: 0,
            truncated: false,
            events: [TraceEvent::EMPTY; MAX_TRACE_EVENTS],
        };
        slot.push(TraceStage::Capture, NO_LANE, at);
    }

    /// Appends a hop to a live trace (ignored if the trace was evicted
    /// or already finalized).
    pub fn event(&self, id: TraceId, stage: TraceStage, lane: u32, at: u64) {
        let mut slot = self.slot(id).lock().unwrap();
        if slot.active && slot.key == id.raw() {
            slot.push(stage, lane, at);
        }
    }

    /// Raises the number of completions the trace waits for by `n`.
    pub fn add_pending(&self, id: TraceId, n: u32) {
        let mut slot = self.slot(id).lock().unwrap();
        if slot.active && slot.key == id.raw() {
            slot.pending = slot.pending.saturating_add(n);
        }
    }

    /// Books one retransmission (and its hop event).
    pub fn mark_retransmit(&self, id: TraceId, lane: u32, at: u64) {
        let mut slot = self.slot(id).lock().unwrap();
        if slot.active && slot.key == id.raw() {
            slot.retransmits = slot.retransmits.saturating_add(1);
            slot.push(TraceStage::Retransmit, lane, at);
        }
    }

    /// Books one stale-epoch response dropped while this trace waited.
    pub fn mark_wrong_epoch(&self, id: TraceId, lane: u32, at: u64) {
        let mut slot = self.slot(id).lock().unwrap();
        if slot.active && slot.key == id.raw() {
            slot.wrong_epoch = slot.wrong_epoch.saturating_add(1);
            slot.push(TraceStage::WrongEpoch, lane, at);
        }
    }

    /// Appends a terminal hop and retires one pending completion; the
    /// trace finalizes when the last one lands.
    pub fn complete(&self, id: TraceId, stage: TraceStage, lane: u32, at: u64) {
        let mut slot = self.slot(id).lock().unwrap();
        if !slot.active || slot.key != id.raw() {
            return;
        }
        slot.push(stage, lane, at);
        slot.pending = slot.pending.saturating_sub(1);
        if slot.pending == 0 {
            self.finalize(&mut slot, at);
        }
    }

    /// Retires one pending completion without a hop event — the
    /// "primary hold" a layer releases once its fan-out is booked.
    pub fn release(&self, id: TraceId, at: u64) {
        let mut slot = self.slot(id).lock().unwrap();
        if !slot.active || slot.key != id.raw() {
            return;
        }
        slot.pending = slot.pending.saturating_sub(1);
        if slot.pending == 0 {
            self.finalize(&mut slot, at);
        }
    }

    fn finalize(&self, slot: &mut Slot, finished_at: u64) {
        slot.active = false;
        self.completed.fetch_add(1, Ordering::Relaxed);
        if slot.truncated {
            self.truncated.fetch_add(1, Ordering::Relaxed);
        }
        let latency = finished_at.saturating_sub(slot.started_at);
        self.latency.record(latency);

        // Tail attribution: time decomposes into the gap each event
        // closed, charged to that event's (stage, lane). The p99 is the
        // histogram's running estimate at completion time — under a
        // deterministic schedule the comparison replays identically.
        if latency >= self.latency.quantile_permille(990) && latency > 0 {
            let mut prev = slot.started_at;
            let mut per_stage = [0u64; STAGE_COUNT];
            for event in &slot.events[..slot.len as usize] {
                let gap = event.at.saturating_sub(prev);
                prev = prev.max(event.at);
                if gap == 0 {
                    continue;
                }
                per_stage[event.stage.index()] += gap;
                self.tail_nanos[event.stage.index()][lane_bucket(event.lane)]
                    .fetch_add(gap, Ordering::Relaxed);
            }
            let dominant = per_stage
                .iter()
                .enumerate()
                .max_by_key(|&(i, &n)| (n, std::cmp::Reverse(i)))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if per_stage[dominant] > 0 {
                self.tail_traces[dominant].fetch_add(1, Ordering::Relaxed);
            }
        }

        let over_budget = latency > LATENCY_BUDGET_NANOS;
        if over_budget {
            let shard = (slot.shard as usize).min(self.slo_over_budget.len() - 1);
            self.slo_over_budget[shard].fetch_add(1, Ordering::Relaxed);
        }
        if over_budget || slot.retransmits > 0 || slot.wrong_epoch > 0 {
            self.anomalies.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Traces opened.
    #[must_use]
    pub fn started(&self) -> u64 {
        self.started.load(Ordering::Relaxed)
    }

    /// Traces finalized.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Live traces evicted by a slot collision before completing.
    #[must_use]
    pub(crate) fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Completed traces that overflowed their 24-event buffer.
    #[must_use]
    pub(crate) fn truncated(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }

    /// Completed traces flagged anomalous (over budget, retransmitted,
    /// or wrong-epoch).
    #[must_use]
    pub(crate) fn anomalies(&self) -> u64 {
        self.anomalies.load(Ordering::Relaxed)
    }

    /// Above-p99 traces whose dominant stage is `stage`.
    #[must_use]
    pub(crate) fn tail_traces(&self, stage: TraceStage) -> u64 {
        self.tail_traces[stage.index()].load(Ordering::Relaxed)
    }

    /// Above-p99 nanoseconds charged to `stage` in lane bucket
    /// `bucket` (see [`lane_bucket`]).
    #[must_use]
    pub(crate) fn tail_lane_nanos(&self, stage: TraceStage, bucket: usize) -> u64 {
        self.tail_nanos[stage.index()][bucket.min(LANE_BUCKETS - 1)].load(Ordering::Relaxed)
    }

    /// Above-p99 nanoseconds charged to lane bucket `bucket` across
    /// every stage.
    #[must_use]
    pub fn tail_bucket_nanos(&self, bucket: usize) -> u64 {
        TraceStage::ALL
            .iter()
            .map(|&s| self.tail_lane_nanos(s, bucket))
            .sum()
    }

    /// Writes that finished over the latency budget, per shard.
    #[must_use]
    pub(crate) fn slo_over_budget(&self) -> Vec<u64> {
        self.slo_over_budget
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// One-line deterministic JSON of the sink's aggregate state — the
    /// trace-summary golden CI diffs across replays. Integers only,
    /// keys sorted, per-stage tail entries included only when nonzero.
    #[must_use]
    pub fn summary_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"anomalies\":{},\"completed\":{},\"evicted\":{}",
            self.anomalies(),
            self.completed(),
            self.evicted()
        );
        let _ = write!(
            out,
            ",\"latency\":{{\"count\":{},\"max\":{},\"p50\":{},\"p99\":{}}}",
            self.latency.count(),
            self.latency.max(),
            self.latency.p50(),
            self.latency.p99()
        );
        out.push_str(",\"slo_writes_over_budget\":[");
        for (i, v) in self.slo_over_budget().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push_str("],\"started\":");
        let _ = write!(out, "{}", self.started());
        out.push_str(",\"tail\":{");
        let mut first = true;
        for &stage in &TraceStage::ALL {
            let traces = self.tail_traces(stage);
            let nanos: u64 = (0..LANE_BUCKETS)
                .map(|b| self.tail_lane_nanos(stage, b))
                .sum();
            if traces == 0 && nanos == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{{\"lanes\":[", stage.name());
            for b in 0..LANE_BUCKETS {
                if b > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", self.tail_lane_nanos(stage, b));
            }
            let _ = write!(out, "],\"nanos\":{nanos},\"traces\":{traces}}}");
        }
        out.push_str("},\"truncated\":");
        let _ = write!(out, "{}", self.truncated());
        out.push('}');
        out
    }

    /// The aggregate state as a human table: latency quantiles, tail
    /// attribution per stage, SLO burn per shard.
    #[must_use]
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "traces: {} started, {} completed, {} anomalies ({} evicted, {} truncated)",
            self.started(),
            self.completed(),
            self.anomalies(),
            self.evicted(),
            self.truncated()
        );
        let _ = writeln!(
            out,
            "latency (ns): count {} p50 {} p99 {} max {}",
            self.latency.count(),
            self.latency.p50(),
            self.latency.p99(),
            self.latency.max()
        );
        let total_tail: u64 = (0..LANE_BUCKETS).map(|b| self.tail_bucket_nanos(b)).sum();
        if total_tail > 0 {
            out.push_str("tail attribution (above-p99 traces)\n");
            let _ = writeln!(
                out,
                "  {:<14} {:>8} {:>14} {:>6}",
                "stage", "traces", "nanos", "share"
            );
            for &stage in &TraceStage::ALL {
                let nanos: u64 = (0..LANE_BUCKETS)
                    .map(|b| self.tail_lane_nanos(stage, b))
                    .sum();
                let traces = self.tail_traces(stage);
                if nanos == 0 && traces == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {:<14} {:>8} {:>14} {:>5}%",
                    stage.name(),
                    traces,
                    nanos,
                    nanos * 100 / total_tail.max(1)
                );
            }
        }
        for (shard, burned) in self.slo_over_budget().iter().enumerate() {
            if *burned > 0 {
                let _ = writeln!(out, "slo_writes_over_budget{{shard={shard}}} {burned}");
            }
        }
        out
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("slots", &self.slots.len())
            .field("started", &self.started())
            .field("completed", &self.completed())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> TraceSink {
        TraceSink::new(TraceConfig { shards: 2 })
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        assert_eq!(TraceId::from_seq(7), TraceId::from_seq(7));
        assert_ne!(TraceId::from_seq(7), TraceId::from_seq(8));
        let sharded = TraceId::for_shard(3, 5);
        assert_eq!(sharded.raw() >> 48, 3);
    }

    #[test]
    fn trace_completes_after_all_pending() {
        let s = sink();
        let id = TraceId::from_seq(0);
        s.begin(id, 0, 2, 100);
        s.event(id, TraceStage::Send, 0, 150);
        s.complete(id, TraceStage::Ack, 0, 300);
        assert_eq!(s.completed(), 0, "one completion still pending");
        assert_eq!(s.latency.count(), 0);
        s.complete(id, TraceStage::Ack, 1, 400);
        assert_eq!(s.completed(), 1);
        assert_eq!(s.latency.count(), 1);
        assert_eq!(s.latency.max(), 300);
    }

    #[test]
    fn anomalies_are_counted() {
        let s = sink();
        let healthy = TraceId::from_seq(0);
        s.begin(healthy, 0, 1, 0);
        s.complete(healthy, TraceStage::Ack, 0, 20);
        assert_eq!(s.anomalies(), 0, "a healthy trace bumps nothing");

        let retransmitted = TraceId::from_seq(1);
        s.begin(retransmitted, 0, 1, 0);
        s.mark_retransmit(retransmitted, 0, 10);
        s.complete(retransmitted, TraceStage::Ack, 0, 20);
        assert_eq!(s.anomalies(), 1);

        let wrong_epoch = TraceId::from_seq(2);
        s.begin(wrong_epoch, 0, 1, 0);
        s.mark_wrong_epoch(wrong_epoch, 1, 10);
        s.complete(wrong_epoch, TraceStage::Ack, 1, 20);
        assert_eq!(s.anomalies(), 2);
        assert_eq!(s.slo_over_budget(), vec![0, 0]);

        let slow = TraceId::from_seq(3);
        s.begin(slow, 1, 1, 0);
        s.complete(slow, TraceStage::Ack, 0, LATENCY_BUDGET_NANOS + 1);
        assert_eq!(s.anomalies(), 3);
        assert_eq!(s.slo_over_budget(), vec![0, 1], "over budget burns shard 1");
        assert_eq!(s.completed(), 4);
    }

    #[test]
    fn slot_collision_evicts_the_older_trace() {
        let s = sink();
        let a = TraceId::from_seq(1);
        let b = TraceId::from_seq(1 + SLOTS as u64); // same slot as 1
        s.begin(a, 0, 1, 0);
        s.begin(b, 0, 1, 10);
        assert_eq!(s.evicted(), 1);
        // The evicted trace's completions are ignored.
        s.complete(a, TraceStage::Ack, 0, 20);
        assert_eq!(s.completed(), 0);
        s.complete(b, TraceStage::Ack, 0, 30);
        assert_eq!(s.completed(), 1);
    }

    #[test]
    fn tail_attribution_charges_the_slow_lane() {
        let s = TraceSink::new(TraceConfig::default());
        // Every trace: fast ack on lane 0 at +100, slow ack on lane 2
        // closing a 10_000ns gap. Slow-lane time dominates every trace,
        // so whatever the p99 cut keeps must attribute to lane 2.
        for seq in 0..50u64 {
            let id = TraceId::from_seq(seq);
            s.begin(id, 0, 2, seq * 100_000);
            s.complete(id, TraceStage::Ack, 0, seq * 100_000 + 100);
            s.complete(id, TraceStage::Ack, 2, seq * 100_000 + 10_100);
        }
        let slow = s.tail_bucket_nanos(lane_bucket(2));
        let total: u64 = (0..LANE_BUCKETS).map(|b| s.tail_bucket_nanos(b)).sum();
        assert!(total > 0, "some traces must clear the p99 cut");
        assert!(
            slow * 10 >= total * 8,
            "slow lane got {slow} of {total} tail nanos"
        );
        assert!(s.tail_traces(TraceStage::Ack) > 0);
    }

    #[test]
    fn events_overflow_sets_truncated_not_panics() {
        let s = sink();
        let id = TraceId::from_seq(0);
        s.begin(id, 0, 1, 0);
        for i in 0..(MAX_TRACE_EVENTS as u64 + 8) {
            s.event(id, TraceStage::Send, 0, i);
        }
        assert_eq!(s.truncated(), 0, "counted when the trace finalizes");
        s.complete(id, TraceStage::Ack, 0, 999);
        assert_eq!(s.truncated(), 1);
        assert_eq!(s.completed(), 1);
    }

    #[test]
    fn summary_json_is_deterministic_and_integer_only() {
        let s = sink();
        let id = TraceId::from_seq(0);
        s.begin(id, 0, 1, 0);
        s.complete(id, TraceStage::Ack, 0, LATENCY_BUDGET_NANOS + 1);
        let a = s.summary_json();
        let b = s.summary_json();
        assert_eq!(a, b);
        assert!(a.contains("\"completed\":1"), "{a}");
        assert!(a.contains("\"slo_writes_over_budget\":[1,0]"), "{a}");
        assert!(!a.contains('.'), "no floats: {a}");
        assert!(s.to_table().contains("slo_writes_over_budget{shard=0} 1"));
    }
}
