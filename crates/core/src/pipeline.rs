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
//!       │  Pipeline::admit: sequence assignment (AdmitState::assign)
//!       ├── nothing queued, every lane has room, a static strategy that
//!       │   does not compress, threaded: the writer encodes it ──────────┐
//!       ▼                                                                ▼
//!  [admission queue, bounded, FIFO, job per write] ──▶ encode_and_release (P' = new ⊕ old,
//!                                      N workers or a flusher)          encode; on the writer)
//!       │  reorder buffer releases payloads in sequence order
//!       ▼
//!  ┌── Lane 0: bounded queue ▷ [lane lock] ship: pop ▷ batch ▷ seal ▷ send ▷ collect_oldest down to the window
//!  ├── Lane 1:      "                 "        "      "       "      "            "
//!  └── Lane k:      "                 "        "      "       "      "            "
//!                         ▲ held by the lane's thread, or by a flusher shipping its own commit
//! ```
//!
//! Three objects carry it. `Inner` is the one context every stage
//! borrows: the queues between the stages, each replica's `Lane`
//! behind its lock, the replicator, the buffer pool, the batching
//! depth `Pipeline::start` fixes for the engine's life, the resolved
//! ack window and timeout, the last replication error and the
//! `Probe`. A `Lane` is one replica's sender — its `Link`, which
//! holds the frames in flight and decides which answer is whose, its
//! batch scratch and the sequence number it sends next — with three
//! verbs: `ship` one frame of its queue, `collect_oldest` one
//! acknowledgement, `drain` the window. They are still the only code
//! in the crate that sends a frame or awaits a response, now run by
//! whoever holds the lane: its thread, or a flusher. Popping and
//! sending happen under that one lock, so a lane sends its sequence
//! numbers in order whoever sends them. The `Probe` is told about
//! every hop, alone decides what is recorded about it, and holds every
//! number the engine keeps.
//!
//! Invariants:
//!
//! * **Per-LBA ordering.** Admission assigns a global sequence number
//!   under one lock, the admission queue is FIFO, and the reorder
//!   buffer releases encoded payloads strictly in sequence order,
//!   whoever encoded them — the pool, a flusher or the writer itself —
//!   so every lane observes all writes, and in particular all writes
//!   to one LBA, in admission order. This is what keeps the replica's
//!   XOR chain (`A_new = P' ⊕ A_old`) anchored to the right old image.
//!   Every accepted write gets its own sequence number, its own encode
//!   and its own payload, so the sequence space is dense and the
//!   reorder buffer never waits on a hole.
//! * **Inline encoding.** A threaded engine whose static strategy does
//!   not compress has a writer encode its own write when the admission
//!   queue is empty and every lane queue has room, from the old image
//!   it just captured and its caller's buffer — no image is copied, and
//!   both are still hot in the writer's cache. Compressing
//!   strategies, the adaptive engine and manual mode always queue.
//! * **Bounded end to end.** Every queue has a capacity and a full one
//!   blocks its producer: the ack window holds the lane, a full lane
//!   queue holds the encode pool, and a full admission queue
//!   (`ADMIT_QUEUE_CAP` jobs) holds the writer in `Pipeline::admit` —
//!   so a client that outruns its replicas waits instead of buffering
//!   without limit. A writer encodes its own write only while every
//!   lane queue has room, so once they fill its writes queue again and
//!   the admission queue still fills to its cap. (Manual mode has one
//!   thread and therefore no capacities.)
//! * **Barrier.** A flush drives the stages itself, on its own thread,
//!   threaded or manual (`drive_dry`): it encodes every write it waits
//!   for that is still in the admission queue (the loop manual mode's
//!   `step` runs), waits until the encode pool has released the rest,
//!   has each lane in index order ship what it holds of them, then has
//!   each lane drain its acknowledgement window. A flush neither waits
//!   out a hold nor wakes a lane thread, so it is never slower for
//!   batching. Shutdown is a flush plus a closing flag on each lane
//!   queue that lets the lane thread exit.
//! * **Wake-ups.** Every wait goes through a `Signal`, which counts the
//!   threads parked on it and makes no system call when the count is
//!   0; under streaming load most hand-offs find nobody parked. It is
//!   sound because each notifier first changes the guarded state under
//!   the waiter's mutex. A flusher is woken once, when the release
//!   reaches the lowest target a barrier waits for
//!   (`ReorderState::wake_at`), not after every encode. A lane thread
//!   is woken for a full frame (`batch_frames` queued payloads, at
//!   most the queue's capacity) or its lane closing, not for every
//!   payload; a partial frame ships once its oldest payload has waited
//!   `HOLD` (500 µs), and `stage_lane_queue_nanos` includes the hold.
//!   A lane whose queue runs empty lingers one hold before it parks
//!   without a deadline, and only a lane parked that way is woken by a
//!   frame's first payload. Those rules hold for the encode pool's
//!   releases. A writer's own releases wake an idle lane the same way,
//!   but a lane waiting out its hold only at two full frames (`2 ×
//!   batch_frames`, at most the queue's capacity): a commit's single
//!   frame is left to the flush that ends it. A flusher's own releases
//!   are quiet — it ships them — and
//!   wake a lane thread only to make room in a full queue, and what a
//!   flusher leaves queued wakes the lane as the pool's push would
//!   have. The admission queue wakes the encode pool
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
//! over popping the admission queue → `encode_and_release`, a writer
//! with nothing ahead of it calls `encode_and_release` itself, and each
//! lane thread loops over `wait_ready` → `lane.ship()`; in manual mode
//! no thread is spawned, admissions queue up, and `Pipeline::step`
//! encodes and ships on the caller's thread until the queues are empty.
//! A barrier is the same `drive_dry` in both modes. The `prins-sim` harness combines this
//! with a virtual clock and simulated transports to explore fault
//! schedules deterministically.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prins_block::Lba;
use prins_buf::{BufPool, PooledBuf, PooledBytes};
use prins_net::Transport;
use prins_repl::{put_batch, seal_begin, Link, LinkEvent, ReplError, Replicator, ACK};

use crate::obs::Probe;
use crate::signal::Signal;

/// Tuning knobs for the replication pipeline (set via
/// [`EngineBuilder`](crate::EngineBuilder)).
#[derive(Debug)]
pub(crate) struct PipelineConfig {
    /// Parity-encoding worker threads.
    pub(crate) encode_workers: usize,
    /// Maximum payloads packed into one wire frame, ≤ 1 disables
    /// batching.
    pub(crate) batch_frames: usize,
    /// In-flight (unacknowledged) frames allowed per lane.
    pub(crate) ack_window: usize,
    /// How long a lane waits for each acknowledgement.
    pub(crate) ack_timeout: Duration,
    /// Manual (stepped) mode: no worker threads; the caller drives the
    /// stages through [`Pipeline::step`].
    pub(crate) manual: bool,
    /// A writer encodes its own write when nothing waits ahead of it
    /// (see [`Pipeline::admit`]). The builder sets it for a threaded
    /// engine whose static strategy does not compress: there the encode
    /// is a scan over two images the writer has just touched, cheaper
    /// than handing them to a pool thread on another core.
    pub(crate) inline_encode: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            encode_workers: 2,
            batch_frames: 1,
            ack_window: 1,
            ack_timeout: Duration::from_secs(10),
            manual: false,
            inline_encode: false,
        }
    }
}

/// A numbered write and its two images, ready to encode. A queued job
/// holds both in pooled buffers checked out by the engine front-end
/// (encoding returns them to the pool); a writer encoding its own write
/// lends its caller's buffer as `new`.
struct EncodeJob<N = PooledBuf> {
    seq: u64,
    lba: Lba,
    old: PooledBuf,
    new: N,
    /// The probe's admission stamp.
    admitted_at: u64,
}

struct AdmitState {
    /// FIFO of pending jobs, in sequence order.
    queue: VecDeque<EncodeJob>,
    /// Next sequence number to assign.
    seq_alloc: u64,
    closed: bool,
    /// An encoder is parked on an empty queue with no deadline, so the
    /// next admission must wake it.
    idle: bool,
}

impl AdmitState {
    /// Numbers a new write — the one sequence step of a queued and an
    /// inline write.
    fn assign(&mut self) -> u64 {
        let seq = self.seq_alloc;
        self.seq_alloc += 1;
        seq
    }
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
    pub(crate) seq: u64,
    pub(crate) lba: Lba,
    pub(crate) bytes: PooledBytes,
    /// When it finished encoding while parked, the probe's release
    /// stamp once released; each hop's wait is measured against it.
    pub(crate) at: u64,
}

struct ReorderState {
    /// Next sequence number to release to the lanes.
    next_seq: u64,
    ready: HashMap<u64, Outbound>,
    /// The lowest `next_seq` a waiting barrier needs, `u64::MAX` when
    /// none waits: releasing up to it is the one moment to wake them.
    wake_at: u64,
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
    /// The payload count that wakes the lane.
    batch_frames: usize,
}

struct LaneQueue {
    /// Each payload with the instant it was queued.
    payloads: VecDeque<(Outbound, Instant)>,
    /// The pipeline is shutting down: the lane thread exits.
    closing: bool,
    /// The lane is parked on an empty queue with no deadline, so the
    /// next payload must wake it to start the hold.
    idle: bool,
}

/// Whether a lane thread has cause to send without waiting out its
/// hold: its lane is closing, or a full frame's worth of payloads is
/// queued.
fn lane_ready(payloads: usize, closing: bool, threshold: usize) -> bool {
    closing || payloads >= threshold
}

/// The queued-payload count that wakes a lane: `frames` full frames,
/// clamped so that a `batch_frames` beyond the queue's capacity does
/// not make every frame wait out [`HOLD`].
fn wake_threshold(frames: usize, batch_frames: usize) -> usize {
    (frames * batch_frames).clamp(1, LANE_QUEUE_CAP)
}

/// Who released a payload into a lane queue, which decides when the
/// push wakes the lane thread.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Releaser {
    /// An encode worker: wakes the lane for a full frame, or when it is
    /// parked idle.
    Pool,
    /// A writer encoding its own write: wakes the lane for two full
    /// frames, or when it is parked idle. A commit's single frame is
    /// left to the flush that ends it, which ships it without a wake.
    Writer,
    /// A flusher, which ships what it releases itself: quiet.
    Flusher,
}

impl LaneState {
    fn new(cap: usize, batch_frames: usize) -> Self {
        Self {
            queue: Mutex::new(LaneQueue {
                payloads: VecDeque::new(),
                closing: false,
                idle: false,
            }),
            not_empty: Signal::default(),
            not_full: Signal::default(),
            cap,
            batch_frames,
        }
    }

    /// The payload count that makes the lane ready: one full frame.
    fn threshold(&self) -> usize {
        wake_threshold(1, self.batch_frames)
    }

    /// Whether a push would find room without waiting.
    fn has_room(&self) -> bool {
        self.queue.lock().unwrap().payloads.len() < self.cap
    }

    /// Queues `w`, waking the lane thread as `by` calls for (see
    /// [`Releaser`]): the pool and a writer wake a lane parked idle,
    /// where nothing but this wake starts its hold, or one that now
    /// holds their frame count; a flusher, which ships the payload
    /// itself, wakes it only to make room in a full queue, as every
    /// push does.
    fn push(&self, w: Outbound, by: Releaser) {
        let mut q = self.queue.lock().unwrap();
        while q.payloads.len() >= self.cap {
            q.idle = false;
            self.not_empty.notify_one();
            q = self.not_full.wait(q);
        }
        q.payloads.push_back((w, Instant::now()));
        match by {
            Releaser::Pool => self.wake_if_due(&mut q, 1),
            Releaser::Writer => self.wake_if_due(&mut q, 2),
            Releaser::Flusher => {}
        }
    }

    /// Wakes the lane thread if it is parked idle, closing, or `q` holds
    /// `frames` full frames.
    fn wake_if_due(&self, q: &mut LaneQueue, frames: usize) {
        let threshold = wake_threshold(frames, self.batch_frames);
        let ready = lane_ready(q.payloads.len(), q.closing, threshold);
        if std::mem::take(&mut q.idle) || ready {
            self.not_empty.notify_one();
        }
    }

    /// Wakes the lane thread for whatever a flusher left queued, as the
    /// pool's push would have.
    fn wake_for_leftovers(&self) {
        let mut q = self.queue.lock().unwrap();
        if !q.payloads.is_empty() {
            self.wake_if_due(&mut q, 1);
        }
    }

    /// Closes the lane: its thread exits. Shutdown runs the pipeline
    /// dry first, so nothing is queued or in flight by then.
    fn close(&self) {
        self.queue.lock().unwrap().closing = true;
        self.not_empty.notify_one();
    }

    /// Waits until the lane has cause to send (see [`lane_ready`]) or
    /// its oldest payload has waited [`HOLD`]; `false` once the lane is
    /// closing.
    ///
    /// A batching lane that finds its queue empty lingers one hold
    /// before it parks idle, so a frame that starts filling soon after
    /// the last one left costs one wake-up, not two.
    fn wait_ready(&self) -> bool {
        let mut q = self.queue.lock().unwrap();
        let mut lingered = false;
        loop {
            let threshold = self.threshold();
            if lane_ready(q.payloads.len(), q.closing, threshold) {
                return !q.closing;
            }
            match q.payloads.front() {
                Some(&(_, queued)) => {
                    let left = HOLD.saturating_sub(queued.elapsed());
                    if left.is_zero() {
                        return true;
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
    }

    /// Pops the next payload if any; never blocks. Only the holder of
    /// the lane's [`Lane`] pops, so what it pops is what it sends next.
    fn try_pop(&self) -> Option<Outbound> {
        let (w, _) = self.queue.lock().unwrap().payloads.pop_front()?;
        self.not_full.notify_one();
        Some(w)
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
    /// Signalled when a worker takes a job (or the pipeline closes):
    /// where writers wait out a full admission queue.
    admit_room: Signal,
    reorder: Mutex<ReorderState>,
    /// Signalled when the release reaches `ReorderState::wake_at`.
    reorder_cv: Signal,
    /// Each replica's lane queue, pushed by the encode stage.
    lanes: Vec<LaneState>,
    /// Each replica's sender, behind the lock whose holder pops its
    /// queue and sends: its lane thread, or a flusher.
    senders: Vec<Mutex<Lane>>,
    replicator: Arc<dyn Replicator>,
    /// Payloads packed into one wire frame at most (≥ 1).
    batch_frames: usize,
    /// In-flight frames per lane, resolved from the ack policy (≥ 1).
    ack_window: usize,
    ack_timeout: Duration,
    /// Slab pool for block images, encoded payloads and wire frames, so
    /// buffers recycle across the whole hot path.
    pub(crate) pool: BufPool,
    pub(crate) probe: Probe,
    /// The first replication error since the last flush, which
    /// surfaces it.
    pub(crate) last_error: parking_lot::Mutex<Option<String>>,
}

impl Inner {
    /// Keeps `e` for the next flush unless an earlier error waits.
    fn keep_error(&self, e: &ReplError) {
        self.last_error.lock().get_or_insert_with(|| e.to_string());
    }

    /// The queued-job count that wakes an encoder.
    fn encode_threshold(&self) -> usize {
        admit_threshold(self.encode_workers, self.batch_frames)
    }

    /// Takes replica `idx`'s sender, and with it the right to pop its
    /// lane queue.
    fn sender(&self, idx: usize) -> MutexGuard<'_, Lane> {
        self.senders[idx]
            .lock()
            .expect("a pipeline thread panicked")
    }
}

/// One sent, unacknowledged frame — a lane's tag on its [`Link`]: the
/// writes it carries plus the sealed wire bytes, retained so a corrupt
/// NAK can be answered with a retransmission instead of an error. The
/// frame stays in its pooled buffer; acknowledgement recycles it.
///
/// Aligned to 16 bytes, a frame in the ack window takes 96 bytes, as it
/// did while the carried writes were a separate range type. At the
/// unaligned 88, `tpcc-stream`'s median write latency measured about
/// 12 % higher (x86-64, 2 vCPUs, 15 alternating 20 s pairs).
#[repr(align(16))]
pub(crate) struct InFlight {
    /// The first carried write's sequence number.
    pub(crate) first: u64,
    /// How many writes the frame carries. Reorder releases in strict
    /// sequence order and lane queues are FIFO, so a batch is always a
    /// contiguous run — two words correlate the eventual ack back to
    /// every write's trace.
    pub(crate) writes: u64,
    /// The first carried write's LBA.
    pub(crate) lba: Lba,
    pub(crate) frame: PooledBuf,
}

impl InFlight {
    /// The sequence numbers of the writes the frame carries.
    pub(crate) fn seqs(&self) -> std::ops::Range<u64> {
        self.first..self.first + self.writes
    }
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
/// stage lingers before it parks without a deadline. A barrier encodes
/// the admission queue's tail and ships the lanes' queues itself, and
/// with `batch_frames = 1` nothing waits for it.
const HOLD: Duration = Duration::from_micros(500);

/// Jobs the admission queue holds in threaded mode. Behind it sit the
/// bounded lane queues and the ack windows, so a client that outruns
/// its replicas is held to this much queued work end to end instead of
/// buffering without limit.
pub(crate) const ADMIT_QUEUE_CAP: usize = 8192;

/// One replica's sender: the only code that sends a frame or awaits a
/// response. It sits behind a lock in [`Inner::senders`], and whoever
/// holds it — the lane's thread, or a flusher — runs its verbs.
struct Lane {
    idx: usize,
    /// The connection and the frames sent on it and not yet
    /// acknowledged, oldest first — the ack window. A receive failure
    /// opens a new epoch there (the replica echoes whatever epoch it
    /// opens), so a late ack can never retire a later frame.
    link: Link<InFlight>,
    /// The payloads of the frame being built; empty between frames.
    batch: Vec<PooledBytes>,
    /// The sequence number the next payload must carry.
    next_seq: u64,
}

impl Lane {
    /// Sends one frame of what the lane's queue holds; `false` if it
    /// held nothing.
    ///
    /// The next payload is batched with its queued successors, sealed,
    /// sent, and acknowledgements are retired down to the window. Frame
    /// assembly is single-copy: each payload's bytes move from their
    /// pooled buffer straight into the sealed wire buffer (also
    /// pooled), with the batch header and the seal envelope written
    /// around them in place, and one CRC pass in [`SealWriter::finish`]
    /// covers the whole batch. The frame stays in its pooled buffer
    /// until it is acknowledged, so a retransmission resends the same
    /// bytes.
    ///
    /// [`SealWriter::finish`]: prins_repl::SealWriter::finish
    fn ship(&mut self, cx: &Inner) -> bool {
        let queue = &cx.lanes[self.idx];
        let Some(first) = queue.try_pop() else {
            return false;
        };
        let probe = &cx.probe;
        let picked_up = probe.stamp();
        let (lba, seq) = (first.lba, first.seq);
        let mut writes = 0;
        let mut next = Some(first);
        while let Some(w) = next {
            debug_assert_eq!(w.seq, self.next_seq, "a lane sends every seq, in order");
            self.next_seq = w.seq + 1;
            probe.picked_up(self.idx, picked_up, &w);
            writes += 1;
            self.batch.push(w.bytes);
            next = if self.batch.len() < cx.batch_frames {
                queue.try_pop()
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
            first: seq,
            writes,
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
    /// No worker threads: the caller drives the stages through
    /// [`Pipeline::step`].
    manual: bool,
    /// [`PipelineConfig::inline_encode`].
    inline: bool,
}

impl Pipeline {
    pub(crate) fn start(
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
        let batch_frames = config.batch_frames.max(1);
        let inner = Arc::new(Inner {
            admit: Mutex::new(AdmitState {
                queue: VecDeque::new(),
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
                .map(|_| LaneState::new(queue_cap, batch_frames))
                .collect(),
            senders: transports
                .into_iter()
                .enumerate()
                .map(|(idx, transport)| {
                    Mutex::new(Lane {
                        idx,
                        link: Link::new(idx, transport),
                        batch: Vec::new(),
                        next_seq: 0,
                    })
                })
                .collect(),
            replicator,
            batch_frames,
            ack_window: config.ack_window.max(1),
            ack_timeout: config.ack_timeout,
            pool,
            probe,
            last_error: parking_lot::Mutex::new(None),
        });
        let (mut encoders, mut senders) = (Vec::new(), Vec::new());
        if !config.manual {
            encoders.extend(
                (0..inner.encode_workers)
                    .map(|worker| spawn(&inner, format!("prins-encode-{worker}"), run_encoder)),
            );
            senders.extend((0..inner.lanes.len()).map(|idx| {
                spawn(&inner, format!("prins-sender-{idx}"), move |cx| {
                    while cx.lanes[idx].wait_ready() {
                        cx.sender(idx).ship(cx);
                    }
                })
            }));
        }
        Self {
            inner,
            encode_handles: Mutex::new(encoders),
            lane_handles: Mutex::new(senders),
            manual: config.manual,
            inline: config.inline_encode,
        }
    }

    /// The context the stages share — the engine front-end's pool and
    /// probe live there too.
    pub(crate) fn cx(&self) -> &Arc<Inner> {
        &self.inner
    }

    /// Drives a manual-mode pipeline one round on the caller's thread:
    /// encodes and releases every queued admission (in sequence order,
    /// like the encode pool), then lets each lane in index order ship
    /// everything in its queue. Returns whether any work was done;
    /// always `false` on a threaded pipeline.
    pub(crate) fn step(&self) -> bool {
        if !self.manual {
            return false;
        }
        let cx = &*self.inner;
        let mut progressed = encode_queued(cx, u64::MAX);
        for idx in 0..cx.senders.len() {
            let mut lane = cx.sender(idx);
            while lane.ship(cx) {
                progressed = true;
            }
        }
        progressed
    }

    /// Runs the writes admitted before the call dry on the caller's
    /// thread, in either mode: encodes whichever of them are still
    /// queued, waits until the encode pool has released the rest, has
    /// each lane in index order ship what it holds of them, then has
    /// each lane drain its window.
    fn drive_dry(&self) {
        let cx = &*self.inner;
        let target = cx.admit.lock().unwrap().seq_alloc;
        // The tail below the encoders' wake threshold would wait out
        // their linger; encoding it here wakes nobody.
        encode_queued(cx, target);
        let mut ro = cx.reorder.lock().unwrap();
        while ro.next_seq < target {
            ro.wake_at = ro.wake_at.min(target);
            ro = cx.reorder_cv.wait(ro);
        }
        drop(ro);
        for (idx, queue) in cx.lanes.iter().enumerate() {
            let mut lane = cx.sender(idx);
            while lane.next_seq < target && lane.ship(cx) {}
            drop(lane);
            // Another writer's payloads, past the target, ship on the
            // lane's own schedule.
            queue.wake_for_leftovers();
        }
        for idx in 0..cx.senders.len() {
            cx.sender(idx).drain(cx);
        }
    }

    /// Admits a write of `new` over its captured `old` image.
    ///
    /// Callers hold the engine's per-LBA stripe lock, so `old` is
    /// exactly the block content the previous admission for this LBA
    /// left behind.
    ///
    /// With [`PipelineConfig::inline_encode`] set, a write that finds
    /// the admission queue empty and room in every lane queue takes the
    /// next sequence number and is encoded and released right here,
    /// from the caller's buffer, while both images are hot in this
    /// core's cache; the reorder buffer orders its release against the
    /// pool's. Any other write copies `new` into a pooled buffer and
    /// queues (see `enqueue`).
    pub(crate) fn admit(&self, lba: Lba, old: PooledBuf, new: &[u8]) -> Result<(), ReplError> {
        let cx = &*self.inner;
        if self.inline && cx.lanes.iter().all(LaneState::has_room) {
            let mut st = cx.admit.lock().unwrap();
            if st.closed {
                return Err(closed());
            }
            if st.queue.is_empty() {
                let seq = st.assign();
                let admitted_at = cx.probe.admitted(seq, lba, 0);
                drop(st);
                let job = EncodeJob {
                    seq,
                    lba,
                    old,
                    new,
                    admitted_at,
                };
                encode_and_release(cx, job, Releaser::Writer);
                return Ok(());
            }
        }
        let mut image = cx.pool.get(new.len());
        image.copy_from(new);
        cx.probe.image_copied(new.len());
        self.enqueue(lba, old, image)
    }

    /// Queues a write for the encode pool under the next sequence
    /// number.
    ///
    /// The queue is bounded ([`ADMIT_QUEUE_CAP`] jobs; unbounded in
    /// manual mode): a full queue blocks the writer until an encode
    /// worker takes a job or the pipeline closes. A new job wakes an
    /// encoder only if the pool is parked idle or the queue now holds a
    /// full frame per worker (see [`admit_wakes`]).
    fn enqueue(&self, lba: Lba, old: PooledBuf, new: PooledBuf) -> Result<(), ReplError> {
        let cx = &*self.inner;
        let mut st = cx.admit.lock().unwrap();
        loop {
            if st.closed {
                return Err(closed());
            }
            if st.queue.len() < cx.admit_cap {
                break;
            }
            st = cx.admit_room.wait(st);
        }
        let seq = st.assign();
        let depth = st.queue.len() + 1;
        st.queue.push_back(EncodeJob {
            seq,
            lba,
            old,
            new,
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
    /// encoded, released in order and acknowledged by every lane — by
    /// driving the stages on the calling thread (see `drive_dry`).
    pub(crate) fn barrier(&self) {
        self.drive_dry();
        self.inner.probe.barrier();
    }

    /// Stops the pipeline: drains the admission queue, joins the
    /// encode pool, runs the lanes dry, then closes them. Idempotent.
    pub(crate) fn shutdown(&self) {
        let cx = &*self.inner;
        cx.admit.lock().unwrap().closed = true;
        cx.admit_cv.notify_all();
        cx.admit_room.notify_all();
        for handle in self.encode_handles.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
        // The encode pool is gone, so nothing is queued after this.
        self.drive_dry();
        for queue in &cx.lanes {
            queue.close();
        }
        for handle in self.lane_handles.lock().unwrap().drain(..) {
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

/// The error an admission to a shut-down pipeline gets.
fn closed() -> ReplError {
    ReplError::Net(prins_net::NetError::Disconnected)
}

/// Claims, encodes and releases every queued job numbered below
/// `before` on the caller's thread: manual mode's encode stage and a
/// flush's tail. Its releases wake no lane: the caller ships them.
/// Returns whether it encoded anything.
fn encode_queued(cx: &Inner, before: u64) -> bool {
    let mut encoded = false;
    loop {
        let job = {
            let mut st = cx.admit.lock().unwrap();
            match st.queue.front() {
                Some(job) if job.seq < before => st.queue.pop_front(),
                _ => None,
            }
        };
        let Some(job) = job else { break };
        cx.admit_room.notify_one();
        encode_and_release(cx, job, Releaser::Flusher);
        encoded = true;
    }
    encoded
}

/// Encodes one job and releases every consecutively-ready payload to
/// the lanes, waking them as `by` calls for (see [`Releaser`]) — the
/// one encode step of the pool, a flusher and an inline writer.
fn encode_and_release<N: AsRef<[u8]>>(cx: &Inner, job: EncodeJob<N>, by: Releaser) {
    let t0 = cx.probe.now();
    let new = job.new.as_ref();
    // Serialize straight into a pooled buffer: the fused encoders write
    // the wire payload without materializing the parity, and freezing
    // costs one `Arc` — the single unavoidable allocation per write.
    let mut buf = cx.pool.get(new.len() + 24);
    cx.replicator
        .encode_write_into(job.lba, &job.old, new, buf.vec_mut());
    let bytes = buf.freeze();
    // The block images return to the pool before the reorder lock.
    drop(job.old);
    drop(job.new);
    let t1 = cx.probe.now();
    let encoded = Outbound {
        seq: job.seq,
        lba: job.lba,
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
            lane.push(w.clone(), by);
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
                if let Some(job) = st.queue.pop_front() {
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
        encode_and_release(cx, job, Releaser::Pool);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Duration;

    use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
    use prins_net::{channel_pair, LinkModel, SimLinkCtl, SimNet, Transport as _};
    use prins_repl::{
        run_replica, serve_sim, verify_consistent, AckPolicy, ReplError, ReplicaApplier,
        ReplicationMode,
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

    /// `n` replicas behind in-process channels, each on a thread of
    /// its own.
    #[allow(clippy::type_complexity)]
    fn threaded_replicas(
        n: usize,
        blocks: u64,
    ) -> (
        Vec<Box<dyn prins_net::Transport>>,
        Vec<Arc<MemDevice>>,
        Vec<ReplicaHandle>,
    ) {
        let mut transports: Vec<Box<dyn prins_net::Transport>> = Vec::new();
        let mut devices = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..n {
            let (uplink, downlink) = channel_pair(LinkModel::t1());
            let device = Arc::new(MemDevice::new(BlockSize::kb4(), blocks));
            handles.push(spawn_replica(
                Arc::clone(&device) as Arc<dyn BlockDevice>,
                downlink,
            ));
            transports.push(Box::new(uplink));
            devices.push(device);
        }
        (transports, devices, handles)
    }

    fn shutdown_all(engine: PrinsEngine, replicas: Vec<ReplicaHandle>) {
        engine.shutdown().unwrap();
        for handle in replicas {
            handle.join().unwrap().unwrap();
        }
    }

    /// `n` replica devices behind [`SimNet`] links, each served by
    /// [`serve_sim`] — deterministic and in virtual time (no threads,
    /// no sleeps).
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
            serve_sim(net, &b, ReplicaApplier::new(Arc::clone(&device)));
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
        let registry = prins_obs::Registry::new();
        let engine = EngineBuilder::new(device as Arc<dyn BlockDevice>)
            .observe(Arc::clone(&registry))
            .build();
        for i in 0..16u64 {
            engine.write_block(Lba(i), &vec![i as u8; 8192]).unwrap();
        }
        engine.flush().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.writes, 16);
        assert!(registry.snapshot().counters["engine_local_write_nanos"] > 0);
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
    fn a_lane_wakes_for_a_full_frame_or_closing_and_a_quiet_push_only_when_full() {
        use super::{
            lane_ready, wake_threshold, LaneState, Outbound, Releaser, HOLD, LANE_QUEUE_CAP,
        };
        use crate::signal::tests::{parked, under_watchdog};
        use std::time::Instant;

        assert!(lane_ready(8, false, 8), "a full frame");
        assert!(!lane_ready(7, false, 8), "one payload short");
        assert!(lane_ready(0, true, 8), "a closing lane");
        assert!(lane_ready(1, false, wake_threshold(1, 1)), "batching off");
        assert_eq!(wake_threshold(1, 4096), LANE_QUEUE_CAP);
        assert_eq!(wake_threshold(2, 8), 16, "a writer's two frames");
        assert_eq!(
            wake_threshold(2, 1),
            2,
            "a writer's two frames, batching off"
        );
        assert_eq!(wake_threshold(2, 1000), LANE_QUEUE_CAP);

        under_watchdog(Duration::from_secs(10), || {
            let lane_of = |cap, batch_frames| Arc::new(LaneState::new(cap, batch_frames));
            // A queue of two payloads, and frames of eight: no push can
            // make the lane ready, so only the idle and full rules wake it.
            let lane = lane_of(2, 8);
            let pool = prins_buf::BufPool::for_block_size(4096, 1);
            let payload = |seq| Outbound {
                seq,
                lba: Lba(seq),
                bytes: pool.get(8).freeze(),
                at: 0,
            };
            let idle = |lane: &LaneState| lane.queue.lock().unwrap().idle;
            let park = |lane: &LaneState| {
                while !idle(lane) {
                    std::thread::yield_now();
                }
            };
            // The lane thread pops one payload per wake until it closes.
            let popper = Arc::clone(&lane);
            let thread = std::thread::spawn(move || {
                let mut popped = Vec::new();
                while popper.wait_ready() {
                    if let Some(w) = popper.try_pop() {
                        popped.push((w.seq, Instant::now()));
                    }
                }
                popped
            });

            park(&lane);
            lane.push(payload(0), Releaser::Flusher);
            lane.push(payload(1), Releaser::Flusher);
            assert!(idle(&lane), "a quiet push woke the lane");
            // The third quiet push finds the queue full and wakes the
            // lane, which makes room once its hold runs out.
            lane.push(payload(2), Releaser::Flusher);

            // A lone tail, pushed by the pool into the idle lane, ships
            // after the hold; so does a writer's.
            let mut queued = Vec::new();
            for (seq, by) in [(3, Releaser::Pool), (4, Releaser::Writer)] {
                park(&lane);
                queued.push(Instant::now());
                lane.push(payload(seq), by);
                assert!(
                    !idle(&lane),
                    "a push by the pool or a writer left the lane idle"
                );
            }
            park(&lane);
            lane.close();
            let popped = thread.join().unwrap();
            let seqs: Vec<u64> = popped.iter().map(|&(seq, _)| seq).collect();
            assert_eq!(seqs, [0, 1, 2, 3, 4]);
            for (&(seq, at), queued) in popped[3..].iter().zip(queued) {
                assert!(at - queued >= HOLD, "{seq} shipped before its hold");
            }

            // A lane waiting out a hold — parked, not idle — with frames
            // of two: a writer's push wakes it only at the fourth payload
            // (the pool's would at the second), so a commit's one frame
            // waits for the flush that ships it.
            let lane = lane_of(8, 2);
            let waiter = Arc::clone(&lane);
            let waiting = std::thread::spawn(move || {
                let q = waiter.queue.lock().unwrap();
                let q = waiter.not_empty.wait_timeout(q, Duration::from_secs(60));
                (q.payloads.len(), Instant::now())
            });
            while parked(&lane.not_empty) == 0 {
                std::thread::yield_now();
            }
            for seq in 0..3 {
                lane.push(payload(seq), Releaser::Writer);
            }
            // Time for a wrongful wake to show before the fourth push.
            std::thread::sleep(Duration::from_millis(20));
            let fourth = Instant::now();
            lane.push(payload(3), Releaser::Writer);
            let (seen, woke) = waiting.join().unwrap();
            assert_eq!(seen, 4, "a writer woke a waiting lane below two frames");
            assert!(woke >= fourth);
        });
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
            let mut old = pool.get(4096);
            old.resize_zeroed(4096);
            pipeline.admit(Lba(0), old, &[1u8; 4096]).unwrap();
            while cx.reorder.lock().unwrap().next_seq == 0 {
                std::thread::yield_now();
            }
            pipeline.shutdown();
        });
    }

    /// A transport that records the name of the thread behind each send.
    struct SenderNames {
        inner: Box<dyn prins_net::Transport>,
        names: Arc<std::sync::Mutex<Vec<Option<String>>>>,
    }

    impl prins_net::Transport for SenderNames {
        fn send(&self, msg: &[u8]) -> Result<(), prins_net::NetError> {
            let name = std::thread::current().name().map(str::to_owned);
            self.names.lock().unwrap().push(name);
            self.inner.send(msg)
        }
        fn recv(&self) -> Result<Vec<u8>, prins_net::NetError> {
            self.inner.recv()
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, prins_net::NetError> {
            self.inner.recv_timeout(timeout)
        }
        fn meter(&self) -> &Arc<prins_net::TrafficMeter> {
            self.inner.meter()
        }
    }

    #[test]
    fn a_sub_threshold_commit_is_encoded_and_shipped_by_its_flusher() {
        use crate::signal::tests::under_watchdog;
        under_watchdog(Duration::from_secs(10), || {
            // `tpcc-commit`'s shape: a window of 8, so a flusher sends to
            // both lanes before it drains either.
            let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 16));
            let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
                .encode_workers(2)
                .batch_frames(8)
                .ack_policy(AckPolicy::Window(8));
            let names = Arc::new(std::sync::Mutex::new(Vec::new()));
            let (mut replicas, mut threads) = (Vec::new(), Vec::new());
            for _ in 0..2 {
                let (uplink, downlink) = channel_pair(LinkModel::t1());
                let replica = Arc::new(MemDevice::new(BlockSize::kb4(), 16));
                let device = Arc::clone(&replica) as Arc<dyn BlockDevice>;
                threads.push(spawn_replica(device, downlink));
                replicas.push(replica);
                builder = builder.replica(Box::new(SenderNames {
                    inner: Box::new(uplink),
                    names: Arc::clone(&names),
                }));
            }
            let engine = builder.build();
            // Each write finds nothing queued ahead of it and encodes
            // itself on this thread; eight of them stay below a writer's
            // lane wake of two frames (16), so each barrier ships the
            // commit's frame itself.
            for commit in 0..200u64 {
                for i in 0..8u64 {
                    let lba = Lba((commit * 3 + i) % 16);
                    let mut block = engine.read_block_vec(lba).unwrap();
                    block[((commit * 8 + i) % 4096) as usize] ^= 0x5a;
                    engine.write_block(lba, &block).unwrap();
                }
                engine.replication_barrier().unwrap();
            }
            let me = std::thread::current().name().map(str::to_owned);
            let names = std::mem::take(&mut *names.lock().unwrap());
            let mine = names.iter().filter(|&name| *name == me).count();
            // The share is a race against `HOLD`, which is sized for an
            // optimized build: unoptimized, encoding a commit's tail can
            // outlast a lane's hold, and the lane thread ships it instead.
            if !cfg!(debug_assertions) {
                assert!(
                    mine * 10 >= names.len() * 9,
                    "{mine} of {} frames sent by the flusher",
                    names.len()
                );
            }
            for replica in &replicas {
                assert!(replica.snapshot() == primary.snapshot());
            }
            shutdown_all(engine, threads);
        });
    }

    #[test]
    fn a_flush_racing_a_busy_lane_thread_keeps_per_lba_order() {
        // Frames of 4 and a flush every 5 writes: the pool's releases
        // fill frames the lane threads ship while each flusher ships
        // its own tail, both popping the same queues. A window of 2
        // holds each lane's lock across an ack wait, and the run is
        // long enough that a lane thread popping outside that lock is
        // caught sending out of order.
        let mut rng = rand::rngs::StdRng::seed_from_u64(40);
        let writes: Vec<(u64, u8)> = (0..8000)
            .map(|_| (rng.random_range(0..4), rng.random()))
            .collect();
        assert_per_lba_ordering(&writes, 2, 4, Some(5), 2, |_| false);
    }

    #[test]
    fn flusher_and_pool_encodes_of_one_lba_keep_their_order() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(38);
        let writes: Vec<(u64, u8)> = (0..240)
            .map(|_| (rng.random_range(0..4), rng.random()))
            .collect();
        assert_per_lba_ordering(&writes, 2, 8, Some(3), 16, |_| false);
    }

    #[test]
    fn inline_and_queued_releases_keep_per_lba_order() {
        use crate::signal::tests::under_watchdog;
        under_watchdog(Duration::from_secs(60), || {
            // Four rounds of 2 000 writes, each ended by a flush. No ack
            // comes back for a round's first 1 300 writes, so each lane's
            // queue fills (1 024 payloads behind two frames of four in
            // flight) and writes turn from encoding themselves to
            // queueing for the pool; then the link opens and the pool,
            // the lane threads and the flush drain what queued.
            let mut rng = rand::rngs::StdRng::seed_from_u64(41);
            let writes: Vec<(u64, u8)> = (0..8000)
                .map(|_| (rng.random_range(0..4), rng.random()))
                .collect();
            let stalled = |i| i % 2000 < 1300;
            let registry = assert_per_lba_ordering(&writes, 2, 4, Some(2000), 2, stalled);
            let snap = registry.snapshot();
            assert!(
                snap.gauges["engine_queue_depth_hwm"] > 0,
                "no write fell back to the queue"
            );
            // A queued write copies its 4 KB image; an inline one only
            // its payload, into each lane's frame.
            let copied = snap.counters["engine_hot_bytes_copied"];
            assert!(copied < 8000 * 4096, "no write was encoded inline");
        });
    }

    #[test]
    fn a_writers_release_waits_its_turn_behind_the_pools() {
        use super::{encode_and_release, EncodeJob, Pipeline, PipelineConfig, Releaser};
        use crate::obs::Probe;
        // Two numbered writes finish encoding out of order — a writer's
        // before the pool's earlier one, the overlap a threaded engine
        // reaches only by chance — and the shared release step holds the
        // writer's payload until the pool's is out.
        let config = PipelineConfig {
            manual: true,
            ..PipelineConfig::default()
        };
        let (uplink, downlink) = channel_pair(LinkModel::t1());
        let replica = Arc::new(MemDevice::new(BlockSize::kb4(), 2));
        let replica_thread = spawn_replica(Arc::clone(&replica) as Arc<dyn BlockDevice>, downlink);
        let pool = prins_buf::BufPool::for_block_size(4096, 1);
        let probe = Probe::new(Arc::new(prins_net::WallClock::new()), None, None, 1);
        let replicator = Arc::from(ReplicationMode::Prins.replicator());
        let transports: Vec<Box<dyn prins_net::Transport>> = vec![Box::new(uplink)];
        let pipeline = Pipeline::start(replicator, transports, &config, pool.clone(), probe);
        let cx = pipeline.cx();
        let new = [7u8; 4096];
        let job = |seq: u64| {
            let mut old = pool.get(4096);
            old.resize_zeroed(4096);
            EncodeJob {
                seq,
                lba: Lba(seq),
                old,
                new: &new[..],
                admitted_at: 0,
            }
        };
        let (first, second) = {
            let mut st = cx.admit.lock().unwrap();
            (st.assign(), st.assign())
        };
        let queued = || -> Vec<u64> {
            let q = cx.lanes[0].queue.lock().unwrap();
            q.payloads.iter().map(|(w, _)| w.seq).collect()
        };
        encode_and_release(cx, job(second), Releaser::Writer);
        assert_eq!(queued(), [] as [u64; 0], "released ahead of its turn");
        encode_and_release(cx, job(first), Releaser::Pool);
        assert_eq!(queued(), [first, second]);
        pipeline.shutdown();
        drop(pipeline);
        replica_thread.join().unwrap().unwrap();
        assert_eq!(replica.read_block_vec(Lba(1)).unwrap(), new);
    }

    #[test]
    fn a_static_strategy_encodes_on_the_writers_thread_and_a_compressing_one_in_the_pool() {
        // A block image copied for the pool shows in the copy count, and
        // every write the pool (or a flush) encodes first sat in the
        // admission queue, which raises its high-water mark.
        for (mode, adaptive, inline) in [
            (ReplicationMode::Prins, false, true),
            (ReplicationMode::Traditional, false, true),
            (ReplicationMode::PrinsCompressed, false, false),
            (ReplicationMode::Prins, true, false),
        ] {
            let (transports, replica_devs, replica_threads) = threaded_replicas(2, 16);
            let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 16));
            let registry = prins_obs::Registry::new();
            let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
                .mode(mode)
                .batch_frames(8)
                .ack_policy(AckPolicy::Window(8))
                .observe(Arc::clone(&registry));
            if adaptive {
                builder = builder.adaptive(prins_policy::PolicyConfig::default());
            }
            for transport in transports {
                builder = builder.replica(transport);
            }
            let engine = builder.build();
            // Fewer writes than a lane queue holds: the lanes always
            // have room.
            for i in 0..200u64 {
                let lba = Lba(i % 16);
                let mut block = engine.read_block_vec(lba).unwrap();
                block[(i * 37 % 4096) as usize] ^= 0x5a;
                engine.write_block(lba, &block).unwrap();
            }
            engine.flush().unwrap();
            let label = format!("{mode}, adaptive {adaptive}");
            let queued = engine.stats().queue_depth_hwm;
            let copied = registry.snapshot().counters["engine_hot_bytes_copied"];
            if inline {
                assert_eq!(queued, 0, "{label}: a write was queued");
            } else {
                assert!(queued > 0, "{label}: no write was queued");
                assert!(copied >= 200 * 4096, "{label}: {copied} bytes copied");
            }
            if mode == ReplicationMode::Prins && inline {
                assert!(copied < 200 * 1024, "{label}: {copied} bytes copied");
            }
            shutdown_all(engine, replica_threads);
            for dev in &replica_devs {
                assert!(verify_consistent(&*primary, &**dev).unwrap(), "{label}");
            }
        }
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
    #[should_panic(expected = "does not coalesce")]
    fn asking_an_engine_to_coalesce_panics() {
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), 1));
        // Called by path: a method call would trip ci.sh's shim gate.
        let _ = EngineBuilder::coalesce(EngineBuilder::new(device), true);
    }

    #[test]
    fn an_adaptive_engine_keeps_the_builders_batching_through_a_churn_stream() {
        // A phased workload through the adaptive policy engine: tiny
        // deltas (parity), then random full-block churn (full images).
        // Replicas must end bit-identical — the policy mixes wire tags
        // freely and the applier takes them all — and however the
        // decision mix shifts, every lane frame packs the eight
        // payloads the builder asked for.
        let net = SimNet::new();
        let (transports, _ctls, replica_devs) =
            sim_replicas(&net, 2, 8, Duration::from_micros(300));
        let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .adaptive(prins_policy::PolicyConfig::default())
            .batch_frames(8)
            .manual_stepping(true)
            .clock(net.clock())
            .ack_policy(AckPolicy::Window(8));
        for transport in transports {
            builder = builder.replica(transport);
        }
        let engine = builder.build();

        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        // 128 one-byte deltas.
        for i in 0..128u64 {
            let lba = Lba(i % 8);
            let mut block = engine.read_block_vec(lba).unwrap();
            block[(i as usize * 31) % 4096] ^= 0x5a;
            engine.write_block(lba, &block).unwrap();
            if i % 8 == 7 {
                engine.step();
            }
        }
        engine.flush().unwrap();
        // 256 random full rewrites.
        for i in 0..256u64 {
            let mut block = vec![0u8; 4096];
            rng.fill_bytes(&mut block);
            engine.write_block(Lba(i % 8), &block).unwrap();
            if i % 8 == 7 {
                engine.step();
            }
        }
        engine.flush().unwrap();

        for (idx, lane) in engine.lane_stats().iter().enumerate() {
            assert_eq!(lane.sends, 384 / 8, "lane {idx} sent a partial frame");
        }
        let stats = engine.stats();
        assert_eq!(stats.writes, 384);
        assert_eq!(stats.replication_errors, 0);
        let counters = engine
            .adaptive()
            .expect("built with .adaptive()")
            .counters();
        assert!(
            counters.pick_parity.get() >= 120,
            "parity picks: {}",
            counters.pick_parity.get()
        );
        assert!(counters.pick_full.get() + counters.pick_compressed.get() >= 200);
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
        let registry = prins_obs::Registry::new();
        let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .batch_frames(8)
            .manual_stepping(true)
            .clock(net.clock())
            .observe(Arc::clone(&registry))
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
        // wait is visible in the lane's counter (sends are scheduled
        // instantly).
        assert!(registry.snapshot().counters["lane0_ack_nanos"] > 0);
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
        let (transports, _devs, replica_threads) = threaded_replicas(2, 4);
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
        // One seeded, stepped stream — reads, batches, and NAKs
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
        assert!(stats.replication_errors > 0 && stats.writes_replicated > 0);

        let snap = registry.snapshot();
        let counter = |name: &str| snap.counters[name];
        assert_eq!(counter("engine_reads"), 120);
        for (name, value) in [
            ("engine_writes", stats.writes),
            ("engine_replication_errors", stats.replication_errors),
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

    /// A transport whose answers wait at a gate: a link too slow to
    /// acknowledge anything until the gate opens.
    struct Gated {
        inner: Box<dyn prins_net::Transport>,
        open: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Gated {
        fn wait(&self) {
            while !self.open.load(std::sync::atomic::Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    impl prins_net::Transport for Gated {
        fn send(&self, msg: &[u8]) -> Result<(), prins_net::NetError> {
            self.inner.send(msg)
        }
        fn recv(&self) -> Result<Vec<u8>, prins_net::NetError> {
            self.wait();
            self.inner.recv()
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, prins_net::NetError> {
            self.wait();
            self.inner.recv_timeout(timeout)
        }
        fn meter(&self) -> &Arc<prins_net::TrafficMeter> {
            self.inner.meter()
        }
    }

    /// Replays `writes` through an observed engine, `window` frames in
    /// flight per lane, with no acknowledgement let through while
    /// `stalled(i)` holds for the write `i` being admitted, and asserts
    /// that
    /// each lane's send order — rebuilt from the registry's `send` and
    /// `encode-done` events, whose frames must tile the sequence space —
    /// shows every write exactly once with strictly
    /// increasing sequence numbers per LBA (the pipeline's ordering
    /// invariant, observed at the wire). Returns the registry.
    fn assert_per_lba_ordering(
        writes: &[(u64, u8)],
        encode_workers: usize,
        batch_frames: usize,
        flush_every: Option<usize>,
        window: usize,
        stalled: fn(usize) -> bool,
    ) -> Arc<prins_obs::Registry> {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (transports, replica_devs, replica_threads) = threaded_replicas(2, 8);
        let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let registry = prins_obs::Registry::new();
        let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .encode_workers(encode_workers)
            .batch_frames(batch_frames)
            .ack_policy(AckPolicy::Window(window))
            .observe(Arc::clone(&registry));
        let open = Arc::new(AtomicBool::new(true));
        for inner in transports {
            let open = Arc::clone(&open);
            builder = builder.replica(Box::new(Gated { inner, open }));
        }
        let engine = builder.build();

        for (i, &(lba, fill)) in writes.iter().enumerate() {
            open.store(!stalled(i), Ordering::SeqCst);
            let lba = Lba(lba % 8);
            let mut block = engine.read_block_vec(lba).unwrap();
            block[i % 4096] = fill;
            engine.write_block(lba, &block).unwrap();
            if flush_every.is_some_and(|n| (i + 1) % n == 0) {
                engine.flush().unwrap();
            }
        }
        open.store(true, Ordering::SeqCst);
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
        registry
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_sequences_are_monotonic_per_lba(
            writes in proptest::collection::vec((0u64..8, any::<u8>()), 1..80),
            workers in 1usize..5,
        ) {
            assert_per_lba_ordering(&writes, workers, 1, None, 16, |_| false);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_a_stepped_engine_never_diverges_a_replica(
            ops in proptest::collection::vec((0u8..4, 0u64..4, any::<u8>()), 1..60),
        ) {
            // A stepped engine: each op writes a block
            // (kinds 0–2) or steps the pipeline (3); after the flush
            // every replica must equal the primary.
            let net = SimNet::new();
            let (transports, _ctls, replica_devs) =
                sim_replicas(&net, 2, 4, Duration::from_micros(300));
            let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 4));
            let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
                .manual_stepping(true)
                .clock(net.clock())
                .ack_policy(AckPolicy::Window(4));
            for transport in transports {
                builder = builder.replica(transport);
            }
            let engine = builder.build();
            for &(kind, lba, fill) in &ops {
                match kind {
                    0..=2 => engine.write_block(Lba(lba), &[fill; 4096]).unwrap(),
                    _ => {
                        engine.step();
                    }
                }
            }
            engine.flush().unwrap();
            engine.shutdown().unwrap();
            for dev in &replica_devs {
                prop_assert!(verify_consistent(&*primary, &**dev).unwrap());
            }
        }
    }
}
