//! The primary's staged replication pipeline.
//!
//! The original engine pushed every write through one thread that
//! encoded the parity, sent it to each replica in turn and waited for
//! every acknowledgement — so a single slow link throttled all
//! replicas, and encoding never overlapped transmission. This module
//! rebuilds the path as independent stages:
//!
//! ```text
//!  write_block (per-LBA stripe lock)
//!       │  Pipeline::admit: sequence assignment + XOR-fold coalescing
//!       ▼
//!  [admission queue, bounded] ──▶ encode_and_release (N workers: P' = new ⊕ old, encode)
//!       │  reorder buffer releases payloads in sequence order
//!       ▼
//!  ┌── Lane 0: bounded queue ▷ handle: batch ▷ seal ▷ send ▷ collect_oldest down to the window
//!  ├── Lane 1:      "            "        "       "      "            "
//!  └── Lane k:      "            "        "       "      "            "
//! ```
//!
//! Three objects carry it. `Inner` is the one context every stage
//! borrows: the queues between the stages, the replicator, the buffer
//! pool, the live `PipelineTuning`, the resolved ack window and
//! timeout, the last replication error and the `Probe`. A `Lane` is one
//! replica's sender — its `Link`, which holds the frames in flight and
//! decides which answer is whose, and its batch scratch — with three
//! verbs: `handle` one queue message, `collect_oldest` one
//! acknowledgement, `drain` the window; they are the only code in the
//! crate that sends a frame or awaits a response. The `Probe` is told
//! about every hop, alone decides what is recorded about it, and holds
//! every number the engine keeps.
//!
//! Invariants:
//!
//! * **Per-LBA ordering.** Admission assigns a global sequence number
//!   under one lock, the admission queue is FIFO, and the reorder
//!   buffer releases encoded payloads strictly in sequence order —
//!   so every lane observes all writes, and in particular all writes
//!   to one LBA, in admission order. This is what keeps the replica's
//!   XOR chain (`A_new = P' ⊕ A_old`) anchored to the right old image.
//! * **Coalescing correctness.** A write to an LBA whose previous
//!   write is still waiting in the admission queue *folds* into it:
//!   the queued job keeps its original `old` image and adopts the
//!   newest `new` image, so the eventual parity is
//!   `P = A_newest ⊕ A_oldest = P₁ ⊕ P₂ ⊕ …` — XOR telescopes the
//!   intermediate images away. No new sequence number is allocated,
//!   so the sequence space stays dense and the reorder buffer never
//!   waits on a hole.
//! * **Bounded end to end.** Every queue has a capacity and a full one
//!   blocks its producer: the ack window holds the lane, a full lane
//!   queue holds the encode pool, and a full admission queue
//!   (`ADMIT_QUEUE_CAP` jobs) holds the writer in `Pipeline::admit` —
//!   so a client that outruns its replicas waits instead of buffering
//!   without limit. Folds add no job and never wait. (Manual mode has
//!   one thread and therefore no capacities.)
//! * **Barrier.** A flush first encodes, on its own thread, every write
//!   it waits for that is still in the admission queue (the loop manual
//!   mode's `step` runs), then waits until every admitted write has
//!   been encoded and released to the lanes, then sends a barrier
//!   token down each lane; a lane drains its acknowledgement window
//!   before arriving at the barrier. A barrier (or shutdown) token
//!   anywhere in a lane's queue wakes the lane at once and ends any
//!   hold, so a flush is never slower for batching.
//! * **Wake-ups.** Every wait goes through a `Signal`, which counts the
//!   threads parked on it and makes no system call when the count is
//!   0; under streaming load most hand-offs find nobody parked. It is
//!   sound because each notifier first changes the guarded state under
//!   the waiter's mutex. A flusher is woken once, when the release
//!   reaches the lowest target a barrier waits for
//!   (`ReorderState::wake_at`), not after every encode. A threaded
//!   lane is woken for a full frame (`batch_frames` queued payloads,
//!   at most the queue's capacity) or a control token, not for every
//!   payload; a partial frame ships once its oldest payload has waited
//!   `HOLD` (500 µs), and `stage_lane_queue_nanos` includes the hold.
//!   A lane whose queue runs empty lingers one hold before it parks
//!   without a deadline, and only a lane parked that way is woken by a
//!   frame's first payload. The admission queue wakes the encode pool
//!   the same way: for a full frame per worker (`encode_workers ×
//!   batch_frames` queued jobs, at most the queue's capacity) or when
//!   the pool is parked idle, not for every job. An encoder that finds
//!   the queue empty lingers one hold, claims whatever queued meanwhile
//!   and otherwise parks without a deadline; a flush encodes its own
//!   tail instead of waiting for it. So an unbarriered write leaves the
//!   primary at most two holds late (encode, then lane), a flushed one
//!   no later for either. With `batch_frames = 1` every job and every
//!   payload wakes its stage, as without batching. `HOLD` bounds both
//!   stages' timed waits, the pipeline's only ones.
//!
//! A lane that hits a transport error records it (surfaced at the next
//! flush) and keeps retiring queued work, so a dead replica never
//! wedges the barrier.
//!
//! # Determinism seam
//!
//! All elapsed-time accounting goes through the `Probe`'s injected
//! [`Clock`](prins_net::Clock), and the whole pipeline can run without
//! any worker threads in *manual* mode
//! ([`EngineBuilder::manual_stepping`](crate::EngineBuilder::manual_stepping)):
//! same methods, different caller. Threaded, each encode worker loops
//! over `claim_job` → `encode_and_release` and each lane thread over
//! `lane.handle(queue.pop())`; in manual mode the lanes sit in the
//! `Pipeline` instead of on threads, admissions queue up, and
//! `Pipeline::step` makes those same calls on the caller's thread
//! until the queues are empty. The `prins-sim` harness combines this
//! with a virtual clock and simulated transports to explore fault
//! schedules deterministically.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prins_block::Lba;
use prins_buf::{BufPool, PooledBuf, PooledBytes};
use prins_net::Transport;
use prins_repl::{put_batch, seal_begin, Link, LinkEvent, ReplError, Replicator, SeqRange, ACK};

use crate::obs::Probe;
use crate::signal::Signal;

/// Tuning knobs for the replication pipeline (set via
/// [`EngineBuilder`](crate::EngineBuilder)).
#[derive(Debug)]
pub(crate) struct PipelineConfig {
    /// Parity-encoding worker threads.
    pub encode_workers: usize,
    /// Fold a write into a still-queued write to the same LBA (the
    /// starting value of [`PipelineTuning::coalesce`]).
    pub coalesce: bool,
    /// Maximum payloads packed into one wire frame, ≤ 1 disables
    /// batching (the starting value of
    /// [`PipelineTuning::batch_frames`]).
    pub batch_frames: usize,
    /// In-flight (unacknowledged) frames allowed per lane.
    pub ack_window: usize,
    /// How long a lane waits for each acknowledgement.
    pub ack_timeout: Duration,
    /// Manual (stepped) mode: no worker threads; the caller drives the
    /// stages through [`Pipeline::step`].
    pub manual: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            encode_workers: 2,
            coalesce: false,
            batch_frames: 1,
            ack_window: 1,
            ack_timeout: Duration::from_secs(10),
            manual: false,
        }
    }
}

/// The live-tunable pipeline knobs: safe to flip while the pipeline
/// runs, read fresh by the stage that uses them on every admission or
/// frame.
///
/// The adaptive policy engine retunes these on workload-phase
/// transitions — deep batching while writes are tiny parity deltas,
/// aggressive coalescing while full blocks churn. Both knobs are
/// per-decision, not per-run, state:
///
/// * `coalesce` is read once per [`Pipeline::admit`]. Toggling it off
///   mid-run leaves stale `by_lba` entries behind, which is safe —
///   `claim_job` removes an entry unconditionally when its job drains,
///   and a stale entry can only cause one extra (correct) fold.
/// * `batch_frames` is read once per lane frame, so a change applies
///   from the next frame on. Wire format is unaffected: a frame
///   carrying one payload is not wrapped in a batch envelope.
pub struct PipelineTuning {
    batch_frames: AtomicUsize,
    coalesce: AtomicBool,
}

impl PipelineTuning {
    /// Maximum payloads packed into one wire frame (clamped to ≥ 1).
    pub fn set_batch_frames(&self, frames: usize) {
        self.batch_frames.store(frames.max(1), Ordering::Relaxed);
    }

    /// The batching depth in effect.
    pub fn batch_frames(&self) -> usize {
        self.batch_frames.load(Ordering::Relaxed)
    }

    /// Whether new admissions fold into still-queued writes to the same
    /// LBA.
    pub fn set_coalesce(&self, on: bool) {
        self.coalesce.store(on, Ordering::Relaxed);
    }

    /// The coalescing mode in effect.
    pub fn coalesce(&self) -> bool {
        self.coalesce.load(Ordering::Relaxed)
    }
}

/// A write waiting for the encode pool. The block images live in
/// pooled buffers checked out by the engine front-end; encoding
/// returns them to the pool.
struct EncodeJob {
    seq: u64,
    lba: Lba,
    old: PooledBuf,
    new: PooledBuf,
    /// Writes folded into this job beyond the first.
    folds: u64,
    /// The probe's admission stamp.
    admitted_at: u64,
}

struct AdmitState {
    /// FIFO of pending jobs; sequence numbers inside are consecutive
    /// (folds reuse the queued job's number), so a job's position is
    /// `seq - front.seq`.
    queue: VecDeque<EncodeJob>,
    /// LBA → sequence number of its still-queued job (coalescing only).
    by_lba: HashMap<u64, u64>,
    /// Next sequence number to assign.
    seq_alloc: u64,
    closed: bool,
    /// An encoder is parked on an empty queue with no deadline, so the
    /// next admission must wake it.
    idle: bool,
}

/// The queued-job count that wakes an encoder: a full frame per worker,
/// clamped so that it never exceeds what the queue holds. Batching off
/// makes every job a full frame.
fn admit_threshold(encode_workers: usize, batch_frames: usize) -> usize {
    if batch_frames <= 1 {
        1
    } else {
        (encode_workers * batch_frames).min(ADMIT_QUEUE_CAP)
    }
}

/// Whether an admission wakes the encode pool: the queue holds a
/// threshold's worth of jobs, or the pool is parked idle, where nothing
/// but this wake would ever encode the job.
fn admit_wakes(queued: usize, threshold: usize, idle: bool) -> bool {
    idle || queued >= threshold
}

/// An encoded write on its way to the replicas: parked in the reorder
/// buffer until its sequence turn, then handed to every lane.
#[derive(Clone)]
pub(crate) struct Outbound {
    pub seq: u64,
    pub lba: Lba,
    /// Application writes it carries (1 + folds).
    pub writes: u64,
    pub bytes: PooledBytes,
    /// When it finished encoding while parked, the probe's release
    /// stamp once released; each hop's wait is measured against it.
    pub at: u64,
}

struct ReorderState {
    /// Next sequence number to release to the lanes.
    next_seq: u64,
    ready: HashMap<u64, Outbound>,
    /// The lowest `next_seq` a waiting barrier needs, `u64::MAX` when
    /// none waits: releasing up to it is the one moment to wake them.
    wake_at: u64,
}

enum LaneMsg {
    Payload(Outbound),
    Barrier(Arc<BarrierGate>),
    Shutdown,
}

/// Countdown the flush barrier waits on: one arrival per lane.
struct BarrierGate {
    remaining: Mutex<usize>,
    done: Signal,
}

impl BarrierGate {
    fn new(lanes: usize) -> Self {
        Self {
            remaining: Mutex::new(lanes),
            done: Signal::default(),
        }
    }

    fn arrive(&self) {
        let mut left = self.remaining.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().unwrap();
        while *left > 0 {
            left = self.done.wait(left);
        }
    }
}

/// One replica's sender-lane queue — the half of a lane the other
/// stages can see.
///
/// The queue is hand-rolled over `std::sync` because the vendored
/// crossbeam only ships unbounded channels and backpressure here is
/// the point: a full lane stalls the encode pool, not the application.
struct LaneState {
    queue: Mutex<LaneQueue>,
    not_empty: Signal,
    not_full: Signal,
    cap: usize,
    /// Its `batch_frames` is the payload count that wakes the lane.
    tuning: Arc<PipelineTuning>,
}

struct LaneQueue {
    /// Each message with the instant it was queued.
    msgs: VecDeque<(LaneMsg, Instant)>,
    /// `Barrier` and `Shutdown` messages among `msgs`.
    controls: usize,
    /// The lane is parked on an empty queue with no deadline, so the
    /// next payload must wake it to start the hold.
    idle: bool,
}

impl LaneQueue {
    fn payloads(&self) -> usize {
        self.msgs.len() - self.controls
    }

    fn pop_front(&mut self) -> Option<LaneMsg> {
        let (msg, _) = self.msgs.pop_front()?;
        if !matches!(msg, LaneMsg::Payload(_)) {
            self.controls -= 1;
        }
        Some(msg)
    }
}

/// Whether a lane has cause to send without waiting out its hold: a
/// control message anywhere in its queue — a second writer's payloads
/// can queue behind a barrier — or a full frame's worth of payloads.
fn lane_ready(payloads: usize, controls: usize, threshold: usize) -> bool {
    controls > 0 || payloads >= threshold
}

/// The queued-payload count that wakes a lane: a full frame, clamped so
/// that a `batch_frames` beyond the queue's capacity does not make
/// every frame wait out [`HOLD`].
fn wake_threshold(batch_frames: usize) -> usize {
    batch_frames.clamp(1, LANE_QUEUE_CAP)
}

impl LaneState {
    fn new(cap: usize, tuning: Arc<PipelineTuning>) -> Self {
        Self {
            queue: Mutex::new(LaneQueue {
                msgs: VecDeque::new(),
                controls: 0,
                idle: false,
            }),
            not_empty: Signal::default(),
            not_full: Signal::default(),
            cap,
            tuning,
        }
    }

    fn threshold(&self) -> usize {
        wake_threshold(self.tuning.batch_frames())
    }

    /// Queues `msg`, waking the lane only if it now has cause to send
    /// or is parked idle, where nothing but this wake starts its hold.
    fn push(&self, msg: LaneMsg) {
        let mut q = self.queue.lock().unwrap();
        while q.msgs.len() >= self.cap {
            q = self.not_full.wait(q);
        }
        if !matches!(msg, LaneMsg::Payload(_)) {
            q.controls += 1;
        }
        q.msgs.push_back((msg, Instant::now()));
        let ready = lane_ready(q.payloads(), q.controls, self.threshold());
        if std::mem::take(&mut q.idle) || ready {
            self.not_empty.notify_one();
        }
    }

    /// Takes the next message once the lane has cause to send (see
    /// [`lane_ready`]) or its oldest payload has waited [`HOLD`].
    ///
    /// A batching lane that finds its queue empty lingers one hold
    /// before it parks idle, so a frame that starts filling soon after
    /// the last one left costs one wake-up, not two.
    fn pop(&self) -> LaneMsg {
        let mut q = self.queue.lock().unwrap();
        let mut lingered = false;
        loop {
            let threshold = self.threshold();
            if lane_ready(q.payloads(), q.controls, threshold) {
                break;
            }
            match q.msgs.front() {
                // Only payloads are queued, so the front one is the
                // oldest.
                Some(&(_, queued)) => {
                    let left = HOLD.saturating_sub(queued.elapsed());
                    if left.is_zero() {
                        break;
                    }
                    q = self.not_empty.wait_timeout(q, left);
                }
                None if threshold > 1 && !lingered => {
                    lingered = true;
                    q = self.not_empty.wait_timeout(q, HOLD);
                }
                None => {
                    q.idle = true;
                    q = self.not_empty.wait(q);
                }
            }
        }
        let msg = q.pop_front().expect("a ready lane queue holds a message");
        self.not_full.notify_one();
        msg
    }

    /// Pops the next message if any (never blocks; stepped mode).
    fn try_pop(&self) -> Option<LaneMsg> {
        let mut q = self.queue.lock().unwrap();
        let msg = q.pop_front();
        if msg.is_some() {
            self.not_full.notify_one();
        }
        msg
    }

    /// Pops the next message only if it is a payload — batching must
    /// not reorder across barriers.
    fn try_pop_payload(&self) -> Option<Outbound> {
        let mut q = self.queue.lock().unwrap();
        if !matches!(q.msgs.front(), Some((LaneMsg::Payload(_), _))) {
            return None;
        }
        self.not_full.notify_one();
        match q.pop_front() {
            Some(LaneMsg::Payload(w)) => Some(w),
            _ => unreachable!("the front was a payload under this lock"),
        }
    }
}

/// The one context every stage borrows: the queues between the stages
/// and what the stages work with.
pub(crate) struct Inner {
    admit: Mutex<AdmitState>,
    admit_cv: Signal,
    /// Jobs the admission queue holds before [`Pipeline::admit`] blocks.
    admit_cap: usize,
    /// The encode pool's size, which scales its wake threshold.
    encode_workers: usize,
    /// Signalled when a worker claims a job (or the pipeline closes):
    /// where writers wait out a full admission queue.
    admit_room: Signal,
    reorder: Mutex<ReorderState>,
    /// Signalled when the release reaches `ReorderState::wake_at`.
    reorder_cv: Signal,
    lanes: Vec<Arc<LaneState>>,
    replicator: Arc<dyn Replicator>,
    pub tuning: Arc<PipelineTuning>,
    /// In-flight frames per lane, resolved from the ack policy (≥ 1).
    ack_window: usize,
    ack_timeout: Duration,
    /// Slab pool for block images, encoded payloads and wire frames, so
    /// buffers recycle across the whole hot path.
    pub pool: BufPool,
    pub probe: Probe,
    /// The first replication error since the last flush, which
    /// surfaces it.
    pub last_error: parking_lot::Mutex<Option<String>>,
}

impl Inner {
    /// Keeps `e` for the next flush unless an earlier error waits.
    fn keep_error(&self, e: &ReplError) {
        self.last_error.lock().get_or_insert_with(|| e.to_string());
    }

    /// The queued-job count that wakes an encoder under the live
    /// `batch_frames`.
    fn encode_threshold(&self) -> usize {
        admit_threshold(self.encode_workers, self.tuning.batch_frames())
    }
}

/// One sent, unacknowledged frame — a lane's tag on its [`Link`]: the
/// writes it carries plus the sealed wire bytes, retained so a corrupt
/// NAK can be answered with a retransmission instead of an error. The
/// frame stays in its pooled buffer; acknowledgement recycles it.
pub(crate) struct InFlight {
    pub writes: u64,
    /// The pipeline writes the frame carries. Reorder releases in
    /// strict sequence order and lane queues are FIFO, so a batch is
    /// always a contiguous run — two words correlate the eventual ack
    /// back to every write's trace.
    pub range: SeqRange,
    /// The first carried write's LBA.
    pub lba: Lba,
    pub frame: PooledBuf,
}

impl AsRef<[u8]> for InFlight {
    fn as_ref(&self) -> &[u8] {
        &self.frame
    }
}

/// Retransmissions attempted per frame before a corrupt NAK becomes a
/// lane error.
const MAX_RETRANSMITS: u32 = 3;

/// Sender-lane queue capacity in frames; a full lane backpressures the
/// encode pool, not the application.
const LANE_QUEUE_CAP: usize = 1024;

/// How long a threaded lane holds a partial frame open for more
/// payloads before it ships what has queued, and how long an idle
/// stage lingers before it parks without a deadline. A barrier ends a
/// lane's hold at once and encodes the admission queue's tail itself,
/// and with `batch_frames = 1` nothing waits for it.
const HOLD: Duration = Duration::from_micros(500);

/// Jobs the admission queue holds in threaded mode. Behind it sit the
/// bounded lane queues and the ack windows, so a client that outruns
/// its replicas is held to this much queued work end to end instead of
/// buffering without limit.
pub(crate) const ADMIT_QUEUE_CAP: usize = 8192;

/// One replica's sender: the only code that sends a frame or awaits a
/// response. Owned by its lane thread, or by the [`Pipeline`] in manual
/// mode.
struct Lane {
    idx: usize,
    /// The connection and the frames sent on it and not yet
    /// acknowledged, oldest first — the ack window. A receive failure
    /// opens a new epoch there (the replica echoes whatever epoch it
    /// opens), so a late ack can never retire a later frame.
    link: Link<InFlight>,
    state: Arc<LaneState>,
    /// The payloads of the frame being built; empty between frames.
    batch: Vec<PooledBytes>,
    /// The sequence number the next payload must carry.
    next_seq: u64,
}

impl Lane {
    /// Handles one queue message; `false` once the lane has shut down.
    ///
    /// A payload is batched with its queued successors, sealed, sent,
    /// and acknowledgements are retired down to the window. Frame
    /// assembly is single-copy: each payload's bytes move from their
    /// pooled buffer straight into the sealed wire buffer (also
    /// pooled), with the batch header and the seal envelope written
    /// around them in place, and one CRC pass in [`SealWriter::finish`]
    /// covers the whole batch. The frame stays in its pooled buffer
    /// until it is acknowledged, so a retransmission resends the same
    /// bytes.
    ///
    /// [`SealWriter::finish`]: prins_repl::SealWriter::finish
    fn handle(&mut self, cx: &Inner, msg: LaneMsg) -> bool {
        let first = match msg {
            LaneMsg::Payload(first) => first,
            LaneMsg::Barrier(gate) => {
                self.drain(cx);
                gate.arrive();
                return true;
            }
            LaneMsg::Shutdown => {
                self.drain(cx);
                return false;
            }
        };
        let probe = &cx.probe;
        let batch_frames = cx.tuning.batch_frames();
        let picked_up = probe.stamp();
        let lba = first.lba;
        let mut range = SeqRange::empty();
        let mut writes = 0;
        let mut next = Some(first);
        while let Some(w) = next {
            debug_assert_eq!(w.seq, self.next_seq, "a lane sends every seq, in order");
            self.next_seq = w.seq + 1;
            probe.picked_up(self.idx, picked_up, &w);
            range.push(w.seq);
            writes += w.writes;
            self.batch.push(w.bytes);
            next = if self.batch.len() < batch_frames {
                self.state.try_pop_payload()
            } else {
                None
            };
        }
        let payload_len: usize = self.batch.iter().map(|p| p.len()).sum();
        let mut frame = cx.pool.get(payload_len + 10 * (self.batch.len() - 1) + 32);
        let out = frame.vec_mut();
        let writer = seal_begin(self.link.epoch(), out);
        match &self.batch[..] {
            [only] => out.extend_from_slice(only),
            batch => put_batch(out, batch.iter().map(|p| &p[..])),
        }
        writer.finish(out);
        self.batch.clear();
        let flight = InFlight {
            writes,
            range,
            lba,
            frame,
        };

        let t0 = probe.now();
        let sent = self.link.send_sealed(flight, ACK);
        let t1 = probe.now();
        let took = t1.saturating_sub(t0);
        match sent {
            Ok(flight) => {
                probe.sent(self.idx, flight, took, t1);
                while self.link.in_flight().len() >= cx.ack_window {
                    self.collect_oldest(cx);
                }
            }
            Err((flight, e)) => {
                // The frame retires unsent; the error surfaces at the
                // next flush.
                probe.send_failed(self.idx, &flight, took, t1);
                cx.keep_error(&e);
            }
        }
        true
    }

    /// Retires the oldest in-flight frame with one acknowledgement. A
    /// corrupt NAK — the frame was damaged in flight, caught by the
    /// seal's CRC32C — retransmits the retained copy up to
    /// [`MAX_RETRANSMITS`] times, waiting one `ack_timeout` longer per
    /// attempt so the retry rides out whatever delayed traffic damaged
    /// the first copy.
    ///
    /// Retransmission needs unambiguous response alignment: acks carry
    /// no frame identity, so a retry's ack is only attributable when
    /// this frame is the *sole* in-flight one (always true in the
    /// closed-loop window of 1). With more frames in the window a
    /// corrupt NAK falls through to the error path instead, and the
    /// block is repaired by the resync layer rather than guessed at
    /// here.
    fn collect_oldest(&mut self, cx: &Inner) {
        let probe = &cx.probe;
        let mut on_event = |_: &InFlight, event| {
            if let LinkEvent::CorruptNak = event {
                probe.corrupt_nak();
            }
        };
        let (mut attempt, mut waited) = (0u32, 0u64);
        let mut t1;
        let (flight, result) = loop {
            let t0 = probe.now();
            let timeout = cx.ack_timeout * (attempt + 1);
            let collected = self.link.collect_oldest(timeout, &mut on_event);
            let (flight, answer) = collected.expect("an in-flight frame");
            t1 = probe.now();
            waited += t1.saturating_sub(t0);
            match answer {
                // The frame was damaged in flight; resend the retained copy.
                Err(ReplError::ChecksumMismatch { .. })
                    if self.link.in_flight().len() == 0 && attempt < MAX_RETRANSMITS =>
                {
                    attempt += 1;
                    match self.link.send_sealed(flight, ACK) {
                        Ok(flight) => probe.retransmitted(self.idx, flight, t1),
                        Err((flight, e)) => break (flight, Err(e)),
                    }
                }
                answer => break (flight, answer.map(drop)),
            }
        };
        match result {
            Ok(()) => probe.acked(self.idx, &flight, waited, t1),
            Err(e) => {
                probe.ack_failed(self.idx, &flight, waited, t1, &e);
                cx.keep_error(&e);
            }
        }
    }

    /// Retires every in-flight frame.
    fn drain(&mut self, cx: &Inner) {
        while self.link.in_flight().len() > 0 {
            self.collect_oldest(cx);
        }
    }
}

pub(crate) struct Pipeline {
    inner: Arc<Inner>,
    encode_handles: Mutex<Vec<JoinHandle<()>>>,
    lane_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Manual mode: the lanes the sender threads would own.
    stepped: Option<Mutex<Vec<Lane>>>,
}

impl Pipeline {
    pub fn start(
        replicator: Arc<dyn Replicator>,
        transports: Vec<Box<dyn Transport>>,
        config: &PipelineConfig,
        pool: BufPool,
        probe: Probe,
    ) -> Self {
        // In manual mode a bounded queue would deadlock the single
        // driving thread, and backpressure is meaningless anyway.
        let (admit_cap, queue_cap) = if config.manual {
            (usize::MAX, usize::MAX)
        } else {
            (ADMIT_QUEUE_CAP, LANE_QUEUE_CAP)
        };
        let tuning = Arc::new(PipelineTuning {
            batch_frames: AtomicUsize::new(config.batch_frames.max(1)),
            coalesce: AtomicBool::new(config.coalesce),
        });
        let inner = Arc::new(Inner {
            admit: Mutex::new(AdmitState {
                queue: VecDeque::new(),
                by_lba: HashMap::new(),
                seq_alloc: 0,
                closed: false,
                idle: false,
            }),
            admit_cv: Signal::default(),
            admit_cap,
            encode_workers: config.encode_workers.max(1),
            admit_room: Signal::default(),
            reorder: Mutex::new(ReorderState {
                next_seq: 0,
                ready: HashMap::new(),
                wake_at: u64::MAX,
            }),
            reorder_cv: Signal::default(),
            lanes: transports
                .iter()
                .map(|_| Arc::new(LaneState::new(queue_cap, Arc::clone(&tuning))))
                .collect(),
            replicator,
            tuning,
            ack_window: config.ack_window.max(1),
            ack_timeout: config.ack_timeout,
            pool,
            probe,
            last_error: parking_lot::Mutex::new(None),
        });
        let lanes = transports
            .into_iter()
            .enumerate()
            .map(|(idx, transport)| Lane {
                idx,
                link: Link::new(idx, transport),
                state: Arc::clone(&inner.lanes[idx]),
                batch: Vec::new(),
                next_seq: 0,
            });
        let (mut encoders, mut senders, mut stepped) = (Vec::new(), Vec::new(), None);
        if config.manual {
            stepped = Some(Mutex::new(lanes.collect()));
        } else {
            encoders.extend(
                (0..inner.encode_workers)
                    .map(|worker| spawn(&inner, format!("prins-encode-{worker}"), run_encoder)),
            );
            senders.extend(lanes.map(|mut lane| {
                spawn(&inner, format!("prins-sender-{}", lane.idx), move |cx| {
                    while lane.handle(cx, lane.state.pop()) {}
                })
            }));
        }
        Self {
            inner,
            encode_handles: Mutex::new(encoders),
            lane_handles: Mutex::new(senders),
            stepped,
        }
    }

    /// The context the stages share — the engine front-end's pool and
    /// probe live there too.
    pub fn cx(&self) -> &Arc<Inner> {
        &self.inner
    }

    /// Drives a manual-mode pipeline one round on the caller's thread:
    /// encodes and releases every queued admission (in sequence order,
    /// like the encode pool), then lets each lane in index order handle
    /// everything in its queue. Returns whether any work was done;
    /// always `false` on a threaded pipeline.
    pub fn step(&self) -> bool {
        let Some(lanes) = &self.stepped else {
            return false;
        };
        let cx = &*self.inner;
        let mut progressed = encode_queued(cx, u64::MAX);
        for lane in lanes.lock().unwrap().iter_mut() {
            while let Some(msg) = lane.state.try_pop() {
                lane.handle(cx, msg);
                progressed = true;
            }
        }
        progressed
    }

    /// Manual mode's barrier: runs the stages dry and retires every
    /// in-flight frame, all on the caller's thread.
    fn drive_dry(&self, lanes: &Mutex<Vec<Lane>>) {
        self.step();
        for lane in lanes.lock().unwrap().iter_mut() {
            lane.drain(&self.inner);
        }
    }

    /// Admits a write: folds it into a still-queued job for the same
    /// LBA (when coalescing) or assigns the next sequence number.
    ///
    /// Callers hold the engine's per-LBA stripe lock, so the captured
    /// `old` image is exactly the block content the previous admission
    /// for this LBA left behind. Both images arrive in pooled buffers;
    /// a fold recycles the superseded `new` image immediately.
    ///
    /// The queue is bounded ([`ADMIT_QUEUE_CAP`] jobs; unbounded in
    /// manual mode): a new job for a full queue blocks the writer until
    /// an encode worker claims one or the pipeline closes. A fold adds
    /// no job and never blocks. A new job wakes an encoder only if the
    /// pool is parked idle or the queue now holds a full frame per
    /// worker (see [`admit_wakes`]).
    pub fn admit(&self, lba: Lba, old: PooledBuf, new: PooledBuf) -> Result<(), ReplError> {
        let cx = &*self.inner;
        // Read the live flag once so one admission sees one mode.
        let coalesce = cx.tuning.coalesce();
        let mut st = cx.admit.lock().unwrap();
        loop {
            if st.closed {
                return Err(ReplError::Net(prins_net::NetError::Disconnected));
            }
            let queued = coalesce.then(|| st.by_lba.get(&lba.0).copied()).flatten();
            if let Some(seq) = queued {
                let front_seq = st.queue.front().expect("by_lba entry implies queue").seq;
                let job = &mut st.queue[(seq - front_seq) as usize];
                debug_assert_eq!(job.seq, seq);
                job.new = new;
                job.folds += 1;
                cx.probe.folded(seq, lba, st.queue.len());
                return Ok(());
            }
            if st.queue.len() < cx.admit_cap {
                break;
            }
            st = cx.admit_room.wait(st);
        }
        let seq = st.seq_alloc;
        st.seq_alloc += 1;
        if coalesce {
            st.by_lba.insert(lba.0, seq);
        }
        let depth = st.queue.len() + 1;
        st.queue.push_back(EncodeJob {
            seq,
            lba,
            old,
            new,
            folds: 0,
            admitted_at: cx.probe.admitted(seq, lba, depth),
        });
        let wake = admit_wakes(depth, cx.encode_threshold(), std::mem::take(&mut st.idle));
        drop(st);
        if wake {
            cx.admit_cv.notify_one();
        }
        Ok(())
    }

    /// Waits until every write admitted before the call has been
    /// encoded, released in order and acknowledged by every lane.
    ///
    /// Threaded, the caller first encodes whichever of those writes are
    /// still queued, as manual mode's `step` does; the encode pool may
    /// hold others, which the wait covers. In manual mode nothing waits:
    /// the barrier *drives* the stages to completion on the calling
    /// thread.
    pub fn barrier(&self) {
        let cx = &*self.inner;
        if let Some(lanes) = &self.stepped {
            self.drive_dry(lanes);
        } else {
            let target = cx.admit.lock().unwrap().seq_alloc;
            // The tail below the encoders' wake threshold would wait
            // out their linger; encoding it here wakes nobody.
            encode_queued(cx, target);
            let mut ro = cx.reorder.lock().unwrap();
            while ro.next_seq < target {
                ro.wake_at = ro.wake_at.min(target);
                ro = cx.reorder_cv.wait(ro);
            }
            drop(ro);
            if !cx.lanes.is_empty() {
                let gate = Arc::new(BarrierGate::new(cx.lanes.len()));
                for lane in &cx.lanes {
                    lane.push(LaneMsg::Barrier(Arc::clone(&gate)));
                }
                gate.wait();
            }
        }
        cx.probe.barrier();
    }

    /// Stops the pipeline: drains the admission queue, joins the
    /// encode pool, then retires the lanes. Idempotent.
    pub fn shutdown(&self) {
        self.inner.admit.lock().unwrap().closed = true;
        self.inner.admit_cv.notify_all();
        self.inner.admit_room.notify_all();
        if let Some(lanes) = &self.stepped {
            return self.drive_dry(lanes);
        }
        for handle in self.encode_handles.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
        // The encode pool is gone, so nothing follows the shutdown
        // token down a lane queue. A second call finds no handle left
        // and sends none.
        let mut handles = self.lane_handles.lock().unwrap();
        for (lane, _) in self.inner.lanes.iter().zip(handles.iter()) {
            lane.push(LaneMsg::Shutdown);
        }
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Starts one named pipeline thread over the shared context.
fn spawn(
    cx: &Arc<Inner>,
    name: String,
    body: impl FnOnce(&Inner) + Send + 'static,
) -> JoinHandle<()> {
    let cx = Arc::clone(cx);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || body(&cx))
        .expect("spawn prins pipeline worker")
}

/// Takes the next admission-queue job, retiring its coalescing slot.
fn claim_job(st: &mut AdmitState) -> Option<EncodeJob> {
    let job = st.queue.pop_front()?;
    if st.by_lba.get(&job.lba.0) == Some(&job.seq) {
        // The job is now being encoded; later writes to this LBA must
        // queue fresh, not fold.
        st.by_lba.remove(&job.lba.0);
    }
    Some(job)
}

/// Claims, encodes and releases every queued job numbered below
/// `before` on the caller's thread: manual mode's encode stage and a
/// threaded flush's tail. Returns whether it encoded anything.
fn encode_queued(cx: &Inner, before: u64) -> bool {
    let mut encoded = false;
    loop {
        let job = {
            let mut st = cx.admit.lock().unwrap();
            match st.queue.front() {
                Some(job) if job.seq < before => claim_job(&mut st),
                _ => None,
            }
        };
        let Some(job) = job else { break };
        cx.admit_room.notify_one();
        encode_and_release(cx, job);
        encoded = true;
    }
    encoded
}

/// Encodes one job and releases every consecutively-ready payload to
/// the lanes.
fn encode_and_release(cx: &Inner, job: EncodeJob) {
    let t0 = cx.probe.now();
    // Serialize straight into a pooled buffer: the fused encoders write
    // the wire payload without materializing the parity, and freezing
    // costs one `Arc` — the single unavoidable allocation per write.
    let mut buf = cx.pool.get(job.new.len() + 24);
    cx.replicator
        .encode_write_into(job.lba, &job.old, &job.new, buf.vec_mut());
    let bytes = buf.freeze();
    // The block images return to the pool before the reorder lock.
    drop(job.old);
    drop(job.new);
    let t1 = cx.probe.now();
    let encoded = Outbound {
        seq: job.seq,
        lba: job.lba,
        writes: 1 + job.folds,
        bytes,
        at: t1,
    };
    cx.probe.encoded(
        &encoded,
        t0.saturating_sub(job.admitted_at),
        t1.saturating_sub(t0),
    );

    let mut ro = cx.reorder.lock().unwrap();
    ro.ready.insert(encoded.seq, encoded);
    // Release every consecutive payload that is now ready; peers that
    // finish out of order leave theirs for whoever holds the next
    // sequence number.
    loop {
        let seq = ro.next_seq;
        let Some(mut w) = ro.ready.remove(&seq) else {
            break;
        };
        ro.next_seq += 1;
        w.at = cx.probe.released(&w);
        for lane in &cx.lanes {
            lane.push(LaneMsg::Payload(w.clone()));
        }
    }
    // Wake the waiting barriers once the lowest target is released;
    // one with a later target re-arms `wake_at` and parks again.
    if ro.next_seq >= ro.wake_at {
        ro.wake_at = u64::MAX;
        drop(ro);
        cx.reorder_cv.notify_all();
    }
}

/// Encode-pool worker: drains the admission queue, encodes payloads
/// concurrently with its peers and releases them through the reorder
/// buffer in sequence order.
///
/// An awake encoder claims any queued job. One that finds the queue
/// empty while batching lingers one [`HOLD`] first, so a commit that
/// starts meanwhile costs it no wake-up, then parks idle until an
/// admission wakes it (see [`admit_wakes`]).
fn run_encoder(cx: &Inner) {
    loop {
        let job = {
            let mut st = cx.admit.lock().unwrap();
            let mut lingered = false;
            loop {
                if let Some(job) = claim_job(&mut st) {
                    cx.admit_room.notify_one();
                    break Some(job);
                }
                if st.closed {
                    break None;
                }
                if !lingered && cx.encode_threshold() > 1 {
                    lingered = true;
                    st = cx.admit_cv.wait_timeout(st, HOLD);
                } else {
                    st.idle = true;
                    st = cx.admit_cv.wait(st);
                }
            }
        };
        let Some(job) = job else { return };
        encode_and_release(cx, job);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Duration;

    use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
    use prins_net::{
        channel_pair, FaultTransport, LinkHandle, LinkModel, SimLinkCtl, SimNet, Transport as _,
    };
    use prins_repl::{
        run_replica, verify_consistent, AckPolicy, ReplError, ReplicaApplier, ReplicationMode,
    };
    use proptest::prelude::*;
    use rand::{RngExt, SeedableRng};

    use crate::{EngineBuilder, EngineStats, LaneStats, PrinsEngine};

    type ReplicaHandle = std::thread::JoinHandle<Result<u64, ReplError>>;

    /// The stock replica server on a thread of its own.
    fn spawn_replica(
        device: Arc<dyn BlockDevice>,
        transport: impl prins_net::Transport + 'static,
    ) -> ReplicaHandle {
        std::thread::spawn(move || run_replica(&*device, &transport))
    }

    /// `n` replicas behind FaultTransports, so tests can slow links down.
    #[allow(clippy::type_complexity)]
    fn faulted_replicas(
        n: usize,
        blocks: u64,
    ) -> (
        Vec<Box<dyn prins_net::Transport>>,
        Vec<LinkHandle>,
        Vec<Arc<MemDevice>>,
        Vec<ReplicaHandle>,
    ) {
        let mut transports: Vec<Box<dyn prins_net::Transport>> = Vec::new();
        let mut links = Vec::new();
        let mut devices = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..n {
            let (uplink, downlink) = channel_pair(LinkModel::t1());
            let (faulty, link) = FaultTransport::new(uplink);
            let device = Arc::new(MemDevice::new(BlockSize::kb4(), blocks));
            handles.push(spawn_replica(
                Arc::clone(&device) as Arc<dyn BlockDevice>,
                downlink,
            ));
            transports.push(Box::new(faulty));
            links.push(link);
            devices.push(device);
        }
        (transports, links, devices, handles)
    }

    fn shutdown_all(engine: PrinsEngine, replicas: Vec<ReplicaHandle>) {
        engine.shutdown().unwrap();
        for handle in replicas {
            handle.join().unwrap().unwrap();
        }
    }

    /// `n` replica devices behind [`SimNet`] links with apply-and-ack
    /// actors — the deterministic, virtual-time replacement for
    /// `faulted_replicas` (no threads, no sleeps).
    #[allow(clippy::type_complexity)]
    fn sim_replicas(
        net: &SimNet,
        n: usize,
        blocks: u64,
        delay: Duration,
    ) -> (
        Vec<Box<dyn prins_net::Transport>>,
        Vec<SimLinkCtl>,
        Vec<Arc<MemDevice>>,
    ) {
        let mut transports: Vec<Box<dyn prins_net::Transport>> = Vec::new();
        let mut ctls = Vec::new();
        let mut devices = Vec::new();
        for i in 0..n {
            let (a, b, ctl) = net.add_link(&format!("replica{i}"), delay);
            let device = Arc::new(MemDevice::new(BlockSize::kb4(), blocks));
            let dev = Arc::clone(&device);
            let tr = b.clone();
            // The applier persists across actor invocations so its
            // epoch and checksum table survive.
            let mut applier = ReplicaApplier::new(dev);
            net.set_actor(
                &b,
                Box::new(move || {
                    while let Ok(Some(frame)) = tr.try_recv() {
                        let (ack, _) = applier.respond(&frame);
                        let _ = tr.send(&ack);
                    }
                }),
            );
            transports.push(Box::new(a));
            ctls.push(ctl);
            devices.push(device);
        }
        (transports, ctls, devices)
    }

    fn end_to_end(mode: ReplicationMode) {
        let (to_replica, at_replica) = channel_pair(LinkModel::t1());
        let replica_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 32));
        let replica = spawn_replica(Arc::clone(&replica_dev) as Arc<dyn BlockDevice>, at_replica);

        let primary_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 32));
        let engine = EngineBuilder::new(Arc::clone(&primary_dev) as Arc<dyn BlockDevice>)
            .mode(mode)
            .replica(Box::new(to_replica))
            .build();

        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..120 {
            let lba = Lba(rng.random_range(0..32));
            let mut block = engine.read_block_vec(lba).unwrap();
            let at = rng.random_range(0..4000);
            for b in &mut block[at..at + 32] {
                *b = rng.random();
            }
            engine.write_block(lba, &block).unwrap();
        }
        engine.flush().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.writes, 120);
        assert_eq!(stats.writes_replicated, 120);
        assert_eq!(stats.replication_errors, 0);
        engine.shutdown().unwrap();

        assert_eq!(replica.join().unwrap().unwrap(), 120);
        assert!(
            verify_consistent(&*primary_dev, &*replica_dev).unwrap(),
            "{mode}"
        );
    }

    #[test]
    fn prins_end_to_end_converges() {
        end_to_end(ReplicationMode::Prins);
    }

    #[test]
    fn traditional_end_to_end_converges() {
        end_to_end(ReplicationMode::Traditional);
    }

    #[test]
    fn compressed_end_to_end_converges() {
        end_to_end(ReplicationMode::Compressed);
    }

    #[test]
    fn prins_compressed_end_to_end_converges() {
        end_to_end(ReplicationMode::PrinsCompressed);
    }

    #[test]
    fn two_replicas_both_converge() {
        let (to_r1, at_r1) = channel_pair(LinkModel::t1());
        let (to_r2, at_r2) = channel_pair(LinkModel::t3());
        let d1 = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let d2 = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let r1 = spawn_replica(Arc::clone(&d1) as Arc<dyn BlockDevice>, at_r1);
        let r2 = spawn_replica(Arc::clone(&d2) as Arc<dyn BlockDevice>, at_r2);

        let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let engine = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .replica(Box::new(to_r1))
            .replica(Box::new(to_r2))
            .build();

        for i in 0..8u64 {
            engine
                .write_block(Lba(i), &vec![i as u8 + 1; 4096])
                .unwrap();
        }
        engine.shutdown().unwrap();
        r1.join().unwrap().unwrap();
        r2.join().unwrap().unwrap();
        assert!(verify_consistent(&*primary, &*d1).unwrap());
        assert!(verify_consistent(&*primary, &*d2).unwrap());
    }

    #[test]
    fn replication_failure_surfaces_at_flush() {
        let (to_replica, at_replica) = channel_pair(LinkModel::t1());
        // Replica device too small: writes past block 0 NAK.
        let replica_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 1));
        let _replica = spawn_replica(Arc::clone(&replica_dev) as Arc<dyn BlockDevice>, at_replica);
        let primary_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let engine = EngineBuilder::new(Arc::clone(&primary_dev) as Arc<dyn BlockDevice>)
            .mode(ReplicationMode::Traditional)
            .replica(Box::new(to_replica))
            .build();

        engine.write_block(Lba(5), &vec![1u8; 4096]).unwrap();
        let err = engine.flush().unwrap_err();
        assert!(err.to_string().contains("replication failed"), "{err}");
        assert_eq!(engine.stats().replication_errors, 1);
    }

    #[test]
    fn windowed_ack_engine_converges_and_counts_correctly() {
        use prins_repl::AckPolicy;
        let (to_replica, at_replica) = channel_pair(LinkModel::t1());
        let replica_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 32));
        let replica = spawn_replica(Arc::clone(&replica_dev) as Arc<dyn BlockDevice>, at_replica);
        let primary_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 32));
        let engine = EngineBuilder::new(Arc::clone(&primary_dev) as Arc<dyn BlockDevice>)
            .ack_policy(AckPolicy::Window(16))
            .replica(Box::new(to_replica))
            .build();
        for i in 0..64u64 {
            engine
                .write_block(Lba(i % 32), &vec![(i + 1) as u8; 4096])
                .unwrap();
        }
        engine.flush().unwrap();
        // The barrier drained the window: every write is acked.
        assert_eq!(engine.stats().writes_replicated, 64);
        engine.shutdown().unwrap();
        assert_eq!(replica.join().unwrap().unwrap(), 64);
        assert!(verify_consistent(&*primary_dev, &*replica_dev).unwrap());
    }

    #[test]
    fn concurrent_writers_to_overlapping_blocks_stay_consistent() {
        // Four threads hammer the same 8 LBAs; the per-LBA stripe locks
        // must keep each parity consistent with its predecessor image,
        // or the replica's XOR chain diverges. Each also flushes every
        // 8 writes, so barriers wait on different targets at once and
        // each must still be woken when its own target is released.
        let (to_replica, at_replica) = channel_pair(LinkModel::t1());
        let replica_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let replica = spawn_replica(Arc::clone(&replica_dev) as Arc<dyn BlockDevice>, at_replica);
        let primary_dev = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let engine = Arc::new(
            EngineBuilder::new(Arc::clone(&primary_dev) as Arc<dyn BlockDevice>)
                .replica(Box::new(to_replica))
                .build(),
        );
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(t);
                for i in 0..100u64 {
                    let lba = Lba((t + i) % 8);
                    let mut block = vec![0u8; 4096];
                    rng.fill_bytes(&mut block);
                    engine.write_block(lba, &block).unwrap();
                    if i % 8 == 7 {
                        engine.flush().unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        engine.flush().unwrap();
        assert_eq!(engine.stats().writes, 400);
        assert_eq!(engine.stats().replication_errors, 0);
        Arc::try_unwrap(engine)
            .map_err(|_| "engine still shared")
            .unwrap()
            .shutdown()
            .unwrap();
        replica.join().unwrap().unwrap();
        assert!(verify_consistent(&*primary_dev, &*replica_dev).unwrap());
    }

    #[test]
    fn local_only_engine_accounts_overhead() {
        let device = Arc::new(MemDevice::new(BlockSize::kb8(), 16));
        let engine = EngineBuilder::new(device as Arc<dyn BlockDevice>).build();
        for i in 0..16u64 {
            engine.write_block(Lba(i), &vec![i as u8; 8192]).unwrap();
        }
        engine.flush().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.writes, 16);
        assert!(stats.local_write_nanos > 0);
        assert!(stats.overhead_nanos > 0);
        engine.shutdown().unwrap();
    }

    #[test]
    fn admission_blocks_at_its_bound_behind_a_stalled_replica_then_drains() {
        use super::{ADMIT_QUEUE_CAP, LANE_QUEUE_CAP};
        use std::sync::atomic::{AtomicUsize, Ordering};

        // More writes than every queue between the writer and a replica
        // that reads nothing can absorb; small blocks keep it cheap.
        let total = ADMIT_QUEUE_CAP + LANE_QUEUE_CAP + 2048;
        let bs = BlockSize::new(512).unwrap();
        let (uplink, downlink) = channel_pair(LinkModel::t1());
        let replica = Arc::new(MemDevice::new(bs, total as u64));
        let engine = EngineBuilder::new(Arc::new(MemDevice::new(bs, total as u64)))
            .replica(Box::new(uplink))
            .build();

        let written = AtomicUsize::new(0);
        let mut replica_thread = None;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..total {
                    engine
                        .write_block(Lba(i as u64), &[(i % 251) as u8 + 1; 512])
                        .unwrap();
                    written.fetch_add(1, Ordering::SeqCst);
                }
            });
            // The lane waits on its first unanswered frame, its queue
            // fills, the encode pool blocks pushing into it, the
            // admission queue fills — and the writer has nowhere left
            // to put the rest.
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            while engine.stats().queue_depth_hwm < ADMIT_QUEUE_CAP as u64 {
                assert!(std::time::Instant::now() < deadline, "never filled");
                std::thread::sleep(Duration::from_millis(5));
            }
            // Everything downstream of a full admission queue holds
            // less than the 2048 writes still to come.
            assert!(written.load(Ordering::SeqCst) < total);

            // The replica comes to life: everything drains.
            let device = Arc::clone(&replica) as Arc<dyn BlockDevice>;
            replica_thread = Some(spawn_replica(device, downlink));
        });
        // All of it went through, and the queue never outgrew its cap.
        assert_eq!(engine.stats().queue_depth_hwm, ADMIT_QUEUE_CAP as u64);
        assert_eq!(written.load(Ordering::SeqCst), total);
        engine.flush().unwrap();
        assert!(verify_consistent(&engine, &*replica).unwrap());
        shutdown_all(engine, replica_thread.into_iter().collect());
    }

    #[test]
    fn a_lane_wakes_for_a_full_frame_or_a_control_message_anywhere_in_its_queue() {
        use super::{
            lane_ready, wake_threshold, BarrierGate, LaneMsg, LaneState, Outbound, PipelineTuning,
            HOLD, LANE_QUEUE_CAP,
        };
        use std::sync::atomic::{AtomicBool, AtomicUsize};

        assert!(lane_ready(8, 0, 8), "a full frame");
        assert!(!lane_ready(7, 0, 8), "one payload short");
        assert!(lane_ready(0, 1, 8), "a lone shutdown");
        assert!(lane_ready(1, 0, wake_threshold(1)), "batching off");
        assert_eq!(wake_threshold(4096), LANE_QUEUE_CAP);

        let tuning = PipelineTuning {
            batch_frames: AtomicUsize::new(8),
            coalesce: AtomicBool::new(false),
        };
        let lane = LaneState::new(LANE_QUEUE_CAP, Arc::new(tuning));
        let pool = prins_buf::BufPool::for_block_size(4096, 1);
        let payload = |seq| {
            LaneMsg::Payload(Outbound {
                seq,
                lba: Lba(seq),
                writes: 1,
                bytes: pool.get(8).freeze(),
                at: 0,
            })
        };
        let ready = |lane: &LaneState| {
            let q = lane.queue.lock().unwrap();
            lane_ready(q.payloads(), q.controls, lane.threshold())
        };
        lane.push(payload(0));
        assert!(!ready(&lane));
        // A second writer's payload queues behind the first one's
        // barrier: the barrier is not at the back, and still counts.
        lane.push(LaneMsg::Barrier(Arc::new(BarrierGate::new(1))));
        let queued = std::time::Instant::now();
        lane.push(payload(1));
        assert!(ready(&lane));
        assert!(matches!(lane.pop(), LaneMsg::Payload(w) if w.seq == 0));
        assert!(lane.try_pop_payload().is_none(), "never batched across");
        assert!(matches!(lane.pop(), LaneMsg::Barrier(_)));
        // The lone tail payload waits out the hold, then ships.
        assert!(!ready(&lane));
        assert!(matches!(lane.pop(), LaneMsg::Payload(w) if w.seq == 1));
        assert!(queued.elapsed() >= HOLD, "shipped before its hold");
    }

    #[test]
    fn the_encode_pool_wakes_for_a_frame_per_worker_or_when_idle() {
        use super::{admit_threshold, admit_wakes, Pipeline, PipelineConfig, ADMIT_QUEUE_CAP};
        use crate::obs::Probe;
        use crate::signal::tests::under_watchdog;

        assert_eq!(admit_threshold(2, 1), 1, "batching off");
        assert_eq!(admit_threshold(2, 8), 16, "a full frame per worker");
        assert_eq!(admit_threshold(3, 4096), ADMIT_QUEUE_CAP);

        let threshold = admit_threshold(2, 8);
        assert!(admit_wakes(1, threshold, true), "an idle pool");
        assert!(!admit_wakes(15, threshold, false), "a lingering pool");
        assert!(admit_wakes(16, threshold, false), "the 16th job");
        assert!(admit_wakes(1, admit_threshold(2, 1), false), "batching off");

        // A real pool of one encoder, parked idle once its linger ran
        // out: one admission, far below the threshold, must wake it.
        let config = PipelineConfig {
            encode_workers: 1,
            batch_frames: 8,
            ..PipelineConfig::default()
        };
        let pool = prins_buf::BufPool::for_block_size(4096, 1);
        let probe = Probe::new(Arc::new(prins_net::WallClock::new()), None, None, 0);
        let replicator = Arc::from(prins_repl::ReplicationMode::Prins.replicator());
        let pipeline = Pipeline::start(replicator, Vec::new(), &config, pool.clone(), probe);
        under_watchdog(Duration::from_secs(10), move || {
            let cx = pipeline.cx();
            while !cx.admit.lock().unwrap().idle {
                std::thread::yield_now();
            }
            let (mut old, mut new) = (pool.get(4096), pool.get(4096));
            old.resize_zeroed(4096);
            new.copy_from(&[1u8; 4096]);
            pipeline.admit(Lba(0), old, new).unwrap();
            while cx.reorder.lock().unwrap().next_seq == 0 {
                std::thread::yield_now();
            }
            pipeline.shutdown();
        });
    }

    #[test]
    fn a_sub_threshold_commit_is_encoded_by_its_flusher() {
        use crate::signal::tests::under_watchdog;
        under_watchdog(Duration::from_secs(10), || {
            let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 16));
            let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
                .encode_workers(2)
                .batch_frames(8);
            let (mut replicas, mut threads) = (Vec::new(), Vec::new());
            for _ in 0..2 {
                let (uplink, downlink) = channel_pair(LinkModel::t1());
                let replica = Arc::new(MemDevice::new(BlockSize::kb4(), 16));
                let device = Arc::clone(&replica) as Arc<dyn BlockDevice>;
                threads.push(spawn_replica(device, downlink));
                replicas.push(replica);
                builder = builder.replica(Box::new(uplink));
            }
            let engine = builder.build();
            // Eight writes a commit stay below the pool's threshold of
            // 16, so only an idle pool is woken, and each barrier
            // encodes whatever it still finds queued.
            for commit in 0..200u64 {
                for i in 0..8u64 {
                    let lba = Lba((commit * 3 + i) % 16);
                    let mut block = engine.read_block_vec(lba).unwrap();
                    block[((commit * 8 + i) % 4096) as usize] ^= 0x5a;
                    engine.write_block(lba, &block).unwrap();
                }
                engine.replication_barrier().unwrap();
            }
            for replica in &replicas {
                assert!(replica.snapshot() == primary.snapshot());
            }
            shutdown_all(engine, threads);
        });
    }

    #[test]
    fn flusher_and_pool_encodes_of_one_lba_keep_their_order() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(38);
        let writes: Vec<(u64, u8)> = (0..240)
            .map(|_| (rng.random_range(0..4), rng.random()))
            .collect();
        assert_per_lba_ordering(&writes, 2, 8, Some(3));
    }

    #[test]
    fn an_unbarriered_tail_ships_without_a_flush() {
        use crate::signal::tests::under_watchdog;
        under_watchdog(Duration::from_secs(10), || {
            let (uplink, downlink) = channel_pair(LinkModel::t1());
            let replica = Arc::new(MemDevice::new(BlockSize::kb4(), 4));
            let device = Arc::clone(&replica) as Arc<dyn BlockDevice>;
            let replica_thread = spawn_replica(device, downlink);
            let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 4));
            let engine = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
                .batch_frames(8)
                .replica(Box::new(uplink))
                .build();
            // Three writes, a frame five payloads short, and no barrier:
            // only the hold sends them.
            for i in 0..3u64 {
                engine.write_block(Lba(i), &[i as u8 + 1; 4096]).unwrap();
            }
            while replica.snapshot() != primary.snapshot() {
                std::thread::sleep(Duration::from_millis(1));
            }
            shutdown_all(engine, vec![replica_thread]);
        });
    }

    #[test]
    fn coalescing_never_changes_replica_contents() {
        // Deterministic conversion of the old sleep-based multi-writer
        // test: a stepped engine over a simulated 300 µs WAN. Writes
        // queue up between steps, so admissions fold aggressively — and
        // the replicas must still end bit-identical to the primary.
        let net = SimNet::new();
        let (transports, _ctls, replica_devs) =
            sim_replicas(&net, 3, 8, Duration::from_micros(300));
        let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .coalesce(true)
            .manual_stepping(true)
            .clock(net.clock())
            .ack_policy(AckPolicy::Window(8));
        for transport in transports {
            builder = builder.replica(transport);
        }
        let engine = builder.build();

        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        for t in 0..4u64 {
            for i in 0..80u64 {
                let lba = Lba((t * 3 + i) % 8);
                let mut block = vec![0u8; 4096];
                rng.fill_bytes(&mut block);
                engine.write_block(lba, &block).unwrap();
                // Interleave pipeline progress with admissions so folds
                // compete with encodes, like the threaded version did.
                if i % 16 == 0 {
                    engine.step();
                }
            }
        }
        engine.flush().unwrap();

        let stats = engine.stats();
        assert_eq!(stats.writes, 320);
        assert_eq!(stats.replication_errors, 0);
        // Every write is replicated — folded ones ride their partner's
        // parity and are counted when it is acknowledged.
        assert_eq!(stats.writes_replicated, 320);
        assert!(
            stats.coalesced_writes > 0,
            "queued admissions should fold: {stats:?}"
        );
        assert!(stats.queue_depth_hwm > 0);
        assert!(net.clock().now() > 0, "virtual time should have advanced");

        engine.shutdown().unwrap();
        for dev in &replica_devs {
            assert!(verify_consistent(&*primary, &**dev).unwrap());
        }
    }

    #[test]
    fn adaptive_policy_replicates_correctly_and_retunes_the_pipeline() {
        // A phased workload through the adaptive policy engine: tiny
        // deltas (parity), then random full-block churn (full images).
        // Replicas must end bit-identical — the policy mixes wire tags
        // freely and the applier takes them all — and the committed
        // phase transitions must retune the live pipeline knobs.
        let net = SimNet::new();
        let (transports, _ctls, replica_devs) =
            sim_replicas(&net, 2, 8, Duration::from_micros(300));
        let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let registry = prins_obs::Registry::new();
        let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .adaptive(prins_policy::PolicyConfig::default())
            .manual_stepping(true)
            .clock(net.clock())
            .observe(Arc::clone(&registry))
            .ack_policy(AckPolicy::Window(8));
        for transport in transports {
            builder = builder.replica(transport);
        }
        let engine = builder.build();
        assert_eq!(engine.tuning().batch_frames(), 1);
        assert!(!engine.tuning().coalesce());

        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        // Phase 1: 128 one-byte deltas — two detector windows of
        // parity-family picks commit SmallDelta and deepen batching.
        for i in 0..128u64 {
            let lba = Lba(i % 8);
            let mut block = engine.read_block_vec(lba).unwrap();
            block[(i as usize * 31) % 4096] ^= 0x5a;
            engine.write_block(lba, &block).unwrap();
            if i % 16 == 0 {
                engine.step();
            }
        }
        engine.flush().unwrap();
        let adaptive = engine.adaptive().expect("built with .adaptive()");
        assert_eq!(
            adaptive.phase(),
            prins_policy::WorkloadPhase::SmallDelta,
            "sustained tiny deltas must commit the small-delta phase"
        );
        assert_eq!(engine.tuning().batch_frames(), 8, "deep batching in effect");

        // Phase 2: 128 random full rewrites — churn commits, batching
        // shrinks back and coalescing turns on.
        for i in 0..128u64 {
            let mut block = vec![0u8; 4096];
            rng.fill_bytes(&mut block);
            engine.write_block(Lba(i % 8), &block).unwrap();
            if i % 16 == 0 {
                engine.step();
            }
        }
        engine.flush().unwrap();
        assert_eq!(adaptive.phase(), prins_policy::WorkloadPhase::Churn);
        assert_eq!(engine.tuning().batch_frames(), 1);
        assert!(engine.tuning().coalesce(), "churn phase enables coalescing");

        let counters = adaptive.counters();
        assert!(
            counters.pick_parity.get() >= 120,
            "parity picks: {}",
            counters.pick_parity.get()
        );
        assert!(counters.pick_full.get() + counters.pick_compressed.get() >= 100);
        assert_eq!(registry.counter("policy_phase_switches").get(), 2);
        // Coalescing may fold churn writes, so decided writes can be
        // fewer than admitted — but never more.
        let decided = registry.counter("policy_writes").get();
        assert!(decided > 0 && decided <= 256, "decided {decided}");

        let stats = engine.stats();
        assert_eq!(stats.writes, 256);
        assert_eq!(stats.replication_errors, 0);
        engine.shutdown().unwrap();
        for dev in &replica_devs {
            assert!(verify_consistent(&*primary, &**dev).unwrap());
        }
    }

    #[test]
    fn corrupted_frames_are_naked_and_retransmitted() {
        use prins_net::Dir;
        // Three consecutive bit flips land on the same frame: the first
        // copy and two retransmissions. The bounded retry budget (3)
        // absorbs all of them — the fourth copy goes through clean.
        let net = SimNet::new();
        let (transports, ctls, replica_devs) = sim_replicas(&net, 1, 8, Duration::from_micros(300));
        let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let registry = prins_obs::Registry::new();
        let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .manual_stepping(true)
            .clock(net.clock())
            .observe(Arc::clone(&registry));
        for transport in transports {
            builder = builder.replica(transport);
        }
        let engine = builder.build();

        ctls[0].corrupt_next(Dir::AtoB, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for i in 0..6u64 {
            let lba = Lba(i % 8);
            let mut block = engine.read_block_vec(lba).unwrap();
            let at = rng.random_range(0..4000);
            block[at] ^= 0x5a;
            engine.write_block(lba, &block).unwrap();
        }
        engine.flush().unwrap();

        let stats = engine.stats();
        assert_eq!(stats.writes_replicated, 6);
        assert_eq!(
            stats.replication_errors, 0,
            "retransmissions absorb the corruption: {stats:?}"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters["checksum_failures"], 3);
        assert_eq!(snap.counters["retransmits"], 3);

        engine.shutdown().unwrap();
        assert!(verify_consistent(&*primary, &*replica_devs[0]).unwrap());
    }

    #[test]
    fn an_ack_that_outlives_its_wait_is_not_credited_to_the_next_frame() {
        // One replica, a window of 1. The replica holds its first answer
        // back until it has answered the second frame, which it refuses
        // (block 5 lies past the end of its one-block device): the first
        // ack arrives after its wait gave up, right ahead of the NAK.
        let net = SimNet::new();
        let (a, b, _ctl) = net.add_link("replica0", Duration::from_micros(300));
        let mut applier = ReplicaApplier::new(MemDevice::new(BlockSize::kb4(), 1));
        let (tr, mut first, mut held) = (b.clone(), true, None);
        net.set_actor(
            &b,
            Box::new(move || {
                while let Ok(Some(frame)) = tr.try_recv() {
                    let (answer, _) = applier.respond(&frame);
                    if std::mem::take(&mut first) {
                        held = Some(answer);
                        continue;
                    }
                    for reply in held.take().into_iter().chain([answer]) {
                        let _ = tr.send(&reply);
                    }
                }
            }),
        );
        let engine = EngineBuilder::new(Arc::new(MemDevice::new(BlockSize::kb4(), 8)))
            .replica(Box::new(a))
            .manual_stepping(true)
            .clock(net.clock())
            .ack_timeout(Duration::from_millis(1))
            .build();

        engine.write_block(Lba(0), &[1u8; 4096]).unwrap();
        engine.step();
        engine.write_block(Lba(5), &[2u8; 4096]).unwrap();
        assert!(engine.flush().is_err());
        // The late ACK answers the first frame's epoch, not the second's:
        // it is dropped, and the NAK is the second frame's answer.
        assert_eq!(engine.lane_stats()[0].acked_writes, 0);
        assert_eq!(engine.lane_stats()[0].errors, 2);
        engine.shutdown().unwrap();
    }

    #[test]
    fn a_frame_retired_without_a_receive_still_records_its_ack() {
        // A replica that never answers, and a window of 2: the first
        // wait times out and opens a new epoch, so the second frame —
        // sealed under the old one — retires without reading the link.
        // Each frame still books one ack-error and one RTT sample, the
        // balance the sim's observability invariant checks.
        let net = SimNet::new();
        let (a, _b, _ctl) = net.add_link("replica0", Duration::from_micros(300));
        let registry = prins_obs::Registry::new();
        let engine = EngineBuilder::new(Arc::new(MemDevice::new(BlockSize::kb4(), 8)))
            .replica(Box::new(a))
            .manual_stepping(true)
            .clock(net.clock())
            .observe(Arc::clone(&registry))
            .ack_policy(AckPolicy::Window(2))
            .ack_timeout(Duration::from_millis(1))
            .build();
        for lba in 0..2 {
            engine.write_block(Lba(lba), &[7u8; 4096]).unwrap();
        }
        assert!(engine.flush().is_err());

        let snap = registry.snapshot();
        assert_eq!(snap.event_counts["ack-error"], 2);
        assert_eq!(snap.histograms["stage_ack_rtt_nanos"].count, 2);
        let trace = net.trace();
        let waits = trace.iter().filter(|l| l.ends_with("recv-timeout"));
        assert_eq!(waits.count(), 1, "only the first frame waited");
        engine.shutdown().unwrap();
    }

    #[test]
    fn batch_frames_cut_messages_on_a_slow_link() {
        // Deterministic conversion: a 1 ms (virtual) link, all writes
        // admitted before the flush drives the stepped pipeline, so
        // batching is exact — no real sleeps anywhere.
        let net = SimNet::new();
        let (transports, _ctls, replica_devs) = sim_replicas(&net, 1, 16, Duration::from_millis(1));
        let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 16));
        let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .batch_frames(8)
            .manual_stepping(true)
            .clock(net.clock())
            .ack_policy(AckPolicy::Window(4));
        for transport in transports {
            builder = builder.replica(transport);
        }
        let engine = builder.build();

        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for i in 0..60u64 {
            let lba = Lba(i % 16);
            let mut block = engine.read_block_vec(lba).unwrap();
            let at = rng.random_range(0..4000);
            block[at] ^= 0x5a;
            engine.write_block(lba, &block).unwrap();
        }
        engine.flush().unwrap();

        let stats = engine.stats();
        assert_eq!(stats.writes_replicated, 60);
        assert_eq!(stats.replication_errors, 0);
        let lanes = engine.lane_stats();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].acked_writes, 60);
        // 60 queued payloads at 8 per frame: exactly 8 sends.
        assert_eq!(lanes[0].sends, 8, "batching should be exact: {lanes:?}");
        // Ack collection pumped the simulated link, so the virtual ack
        // wait is visible in the stats (sends are scheduled instantly).
        assert!(lanes[0].ack_nanos > 0);
        assert!(net.clock().now() >= 2_000_000, "at least one 1 ms RTT");

        engine.shutdown().unwrap();
        assert!(verify_consistent(&*primary, &*replica_devs[0]).unwrap());
    }

    #[test]
    fn observed_engine_emits_deterministic_stage_latencies_and_events() {
        // A stepped engine over SimNet with the clock auto-tick on:
        // every stage gets a non-zero virtual duration, and two
        // identical runs must produce byte-identical snapshots/traces.
        fn run() -> (String, String) {
            let net = SimNet::new();
            net.clock().set_auto_tick(75);
            let (transports, _ctls, replica_devs) =
                sim_replicas(&net, 2, 8, Duration::from_micros(200));
            let registry = prins_obs::Registry::new();
            let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
            let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
                .manual_stepping(true)
                .clock(net.clock())
                .observe(Arc::clone(&registry))
                .ack_policy(AckPolicy::Window(4));
            for transport in transports {
                builder = builder.replica(transport);
            }
            let engine = builder.build();
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            for i in 0..40u64 {
                let mut block = vec![0u8; 4096];
                rng.fill_bytes(&mut block);
                engine.write_block(Lba(i % 8), &block).unwrap();
            }
            engine.flush().unwrap();
            engine.shutdown().unwrap();
            for dev in &replica_devs {
                assert!(verify_consistent(&*primary, &**dev).unwrap());
            }

            let snap = registry.snapshot();
            for stage in [
                "stage_encode_nanos",
                "stage_lane_queue_nanos",
                "stage_ack_rtt_nanos",
                "stage_admission_wait_nanos",
            ] {
                let h = &snap.histograms[stage];
                assert!(h.count > 0, "{stage} recorded nothing");
                assert!(h.p50 > 0, "{stage} p50 is zero under auto-tick");
                assert!(h.p99 >= h.p50, "{stage} p99 below p50");
            }
            assert_eq!(snap.histograms["stage_encode_nanos"].count, 40);
            assert_eq!(snap.event_counts["admit"], 40);
            // Two lanes, no batching: every write sent and acked twice.
            assert_eq!(snap.event_counts["send"], 80);
            assert_eq!(snap.event_counts["ack-ok"], 80);
            assert!(!snap.event_counts.contains_key("nak"));
            assert_eq!(snap.counters["engine_writes"], 40);
            assert_eq!(snap.counters["lane0_sends"], 40);
            (snap.to_json(), registry.events().trace())
        }
        let (json_a, trace_a) = run();
        let (json_b, trace_b) = run();
        assert_eq!(json_a, json_b, "same seed must give identical snapshots");
        assert_eq!(trace_a, trace_b, "same seed must give identical traces");
        assert!(!trace_a.is_empty());
    }

    #[test]
    fn lane_stats_account_per_replica_bytes() {
        let (transports, _links, _devs, replica_threads) = faulted_replicas(2, 4);
        let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 4));
        let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>);
        for transport in transports {
            builder = builder.replica(transport);
        }
        let engine = builder.build();
        let mut block = vec![0u8; 4096];
        block[..32].fill(7);
        engine.write_block(Lba(1), &block).unwrap();
        engine.flush().unwrap();

        let lanes = engine.lane_stats();
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].payload_bytes, lanes[1].payload_bytes);
        // Satellite accounting fix: the global counter is the sum of
        // per-lane successful sends, not payload × replica count by fiat.
        let stats = engine.stats();
        assert_eq!(
            stats.replicated_payload_bytes,
            lanes[0].payload_bytes + lanes[1].payload_bytes
        );
        shutdown_all(engine, replica_threads);
    }

    #[test]
    fn stats_are_views_over_the_registry_counters() {
        // One seeded, stepped stream — reads, folds, batches, and NAKs
        // for the two blocks the replicas lack — through an observed
        // engine and an unobserved one: the views count the same either
        // way, and the observed one's registry holds exactly those
        // counts, name for name.
        fn run(registry: Option<Arc<prins_obs::Registry>>) -> (EngineStats, Vec<LaneStats>) {
            let net = SimNet::new();
            let (transports, _ctls, _devs) = sim_replicas(&net, 2, 6, Duration::from_micros(200));
            let mut builder = EngineBuilder::new(Arc::new(MemDevice::new(BlockSize::kb4(), 8)))
                .manual_stepping(true)
                .clock(net.clock())
                .coalesce(true)
                .batch_frames(2)
                .ack_policy(AckPolicy::Window(4));
            if let Some(registry) = registry {
                builder = builder.observe(registry);
            }
            for transport in transports {
                builder = builder.replica(transport);
            }
            let engine = builder.build();
            let mut rng = rand::rngs::StdRng::seed_from_u64(41);
            for i in 0..120 {
                let lba = Lba(rng.random_range(0..8));
                let mut block = engine.read_block_vec(lba).unwrap();
                block[rng.random_range(0..4096)] ^= 0x5a;
                engine.write_block(lba, &block).unwrap();
                if i % 8 == 7 {
                    engine.step();
                }
            }
            assert!(engine.flush().is_err(), "the short replicas NAK");
            let views = (engine.stats(), engine.lane_stats());
            engine.shutdown().unwrap();
            views
        }
        // Every field but the `*_nanos` timings.
        let counts = |s: &EngineStats| {
            [
                s.writes,
                s.reads,
                s.writes_replicated,
                s.replicated_payload_bytes,
                s.replication_errors,
                s.coalesced_writes,
                s.queue_depth_hwm,
            ]
        };
        let lane_counts = |l: &LaneStats| [l.sends, l.acked_writes, l.payload_bytes, l.errors];

        let registry = prins_obs::Registry::new();
        let (stats, lanes) = run(Some(Arc::clone(&registry)));
        let (bare, bare_lanes) = run(None);
        assert_eq!(counts(&stats), counts(&bare));
        assert_eq!(
            lanes.iter().map(lane_counts).collect::<Vec<_>>(),
            bare_lanes.iter().map(lane_counts).collect::<Vec<_>>()
        );
        assert!(stats.reads > 0 && stats.coalesced_writes > 0, "{stats:?}");
        assert!(stats.replication_errors > 0 && stats.writes_replicated > 0);

        let snap = registry.snapshot();
        let counter = |name: &str| snap.counters[name];
        for (name, value) in [
            ("engine_writes", stats.writes),
            ("engine_reads", stats.reads),
            ("engine_replication_errors", stats.replication_errors),
            ("engine_coalesced_writes", stats.coalesced_writes),
        ] {
            assert_eq!(counter(name), value, "{name}");
        }
        assert_eq!(snap.gauges["engine_queue_depth_hwm"], stats.queue_depth_hwm);
        for (i, lane) in lanes.iter().enumerate() {
            for (suffix, value) in [
                ("sends", lane.sends),
                ("acked_writes", lane.acked_writes),
                ("payload_bytes", lane.payload_bytes),
                ("errors", lane.errors),
            ] {
                assert_eq!(
                    counter(&format!("lane{i}_{suffix}")),
                    value,
                    "lane{i}_{suffix}"
                );
            }
        }
        let acked = (0..2).map(|i| counter(&format!("lane{i}_acked_writes")));
        assert_eq!(acked.min(), Some(stats.writes_replicated));
        let bytes = (0..2).map(|i| counter(&format!("lane{i}_payload_bytes")));
        assert_eq!(bytes.sum::<u64>(), stats.replicated_payload_bytes);
    }

    /// Replays `writes` through an observed engine and asserts that
    /// each lane's send order — rebuilt from the registry's `send`,
    /// `encode-done` and `coalesce` events, whose frames must tile the
    /// sequence space — shows every write exactly once with strictly
    /// increasing sequence numbers per LBA (the pipeline's ordering
    /// invariant, observed at the wire).
    fn assert_per_lba_ordering(
        writes: &[(u64, u8)],
        encode_workers: usize,
        batch_frames: usize,
        flush_every: Option<usize>,
    ) {
        let (transports, _links, replica_devs, replica_threads) = faulted_replicas(2, 8);
        let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let registry = prins_obs::Registry::new();
        let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .encode_workers(encode_workers)
            .batch_frames(batch_frames)
            .ack_policy(AckPolicy::Window(16))
            .observe(Arc::clone(&registry));
        for transport in transports {
            builder = builder.replica(transport);
        }
        let engine = builder.build();

        for (i, &(lba, fill)) in writes.iter().enumerate() {
            let lba = Lba(lba % 8);
            let mut block = engine.read_block_vec(lba).unwrap();
            block[i % 4096] = fill;
            engine.write_block(lba, &block).unwrap();
            if flush_every.is_some_and(|n| (i + 1) % n == 0) {
                engine.flush().unwrap();
            }
        }
        engine.flush().unwrap();

        for lane in 0..2 {
            let log = registry.events().lane_send_order(lane).unwrap();
            assert_eq!(log.len(), writes.len(), "every write sent exactly once");
            let mut last_seq_for: HashMap<u64, u64> = HashMap::new();
            for (i, &(seq, lba)) in log.iter().enumerate() {
                assert_eq!(seq, i as u64, "global sequence order violated");
                assert_eq!(lba, writes[i].0 % 8, "seq {seq} sent for the wrong block");
                if let Some(&last) = last_seq_for.get(&lba) {
                    assert!(seq > last, "per-LBA sequence regressed on lba {lba}");
                }
                last_seq_for.insert(lba, seq);
            }
        }
        shutdown_all(engine, replica_threads);
        for dev in &replica_devs {
            assert!(verify_consistent(&*primary, &**dev).unwrap());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_sequences_are_monotonic_per_lba(
            writes in proptest::collection::vec((0u64..8, any::<u8>()), 1..80),
            workers in 1usize..5,
        ) {
            assert_per_lba_ordering(&writes, workers, 1, None);
        }
    }
}
