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
//!       │  admit: sequence assignment + XOR-fold coalescing
//!       ▼
//!  [admission queue] ──▶ encode pool (N workers: P' = new ⊕ old, encode)
//!       │  reorder buffer releases payloads in sequence order
//!       ▼
//!  ┌── sender lane 0: bounded queue ▷ batch ▷ send ▷ windowed acks
//!  ├── sender lane 1:      "            "      "         "
//!  └── sender lane k:      "            "      "         "
//! ```
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
//! * **Barrier.** A flush first waits until every admitted write has
//!   been encoded and released to the lanes, then sends a barrier
//!   token down each lane; a lane drains its acknowledgement window
//!   before arriving at the barrier.
//!
//! A lane that hits a transport error records it (surfaced at the next
//! flush) and keeps retiring queued work, so a dead replica never
//! wedges the barrier.
//!
//! # Determinism seam
//!
//! All elapsed-time accounting goes through an injected
//! [`Clock`](prins_net::Clock), and the whole pipeline can run without
//! any worker threads in *manual* mode
//! ([`EngineBuilder::manual_stepping`](crate::EngineBuilder::manual_stepping)):
//! admissions queue up until [`Pipeline::step`] drives encode → reorder
//! → lanes → acks to completion on the caller's thread. The `prins-sim`
//! harness combines this with a virtual clock and simulated transports
//! to explore fault schedules deterministically; the stage bodies are
//! the same functions the threaded loops run.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use prins_block::Lba;
use prins_buf::{BufPool, PooledBuf, PooledBytes};
use prins_net::{Clock, Transport};
use prins_obs::{Event, EventKind, TraceId, TraceSink, TraceStage, NO_LANE};
use prins_repl::{put_batch, seal_begin, Link, LinkEvent, ReplError, Replicator, SeqRange, ACK};

use crate::obs::PipeObs;

/// Tuning knobs for the replication pipeline (set via
/// [`EngineBuilder`](crate::EngineBuilder)).
#[derive(Clone, Debug)]
pub(crate) struct PipelineConfig {
    /// Parity-encoding worker threads.
    pub encode_workers: usize,
    /// Fold a write into a still-queued write to the same LBA.
    pub coalesce: bool,
    /// Maximum payloads packed into one wire frame (≤ 1 disables
    /// batching).
    pub batch_frames: usize,
    /// In-flight (unacknowledged) frames allowed per lane.
    pub ack_window: usize,
    /// How long a lane waits for each acknowledgement.
    pub ack_timeout: Duration,
    /// Record every (lba, seq) a lane sends, for ordering tests.
    pub trace_sends: bool,
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
            trace_sends: false,
            manual: false,
        }
    }
}

/// The live-tunable subset of [`PipelineConfig`]: knobs that are safe
/// to flip while the pipeline runs, read fresh by the stage that uses
/// them on every admission or frame.
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
    pub(crate) fn from_config(config: &PipelineConfig) -> Arc<Self> {
        Arc::new(Self {
            batch_frames: AtomicUsize::new(config.batch_frames.max(1)),
            coalesce: AtomicBool::new(config.coalesce),
        })
    }

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

/// Counters shared between the engine front-end and the pipeline
/// stages.
#[derive(Default)]
pub(crate) struct Shared {
    pub writes: AtomicU64,
    pub reads: AtomicU64,
    pub local_write_nanos: AtomicU64,
    pub overhead_nanos: AtomicU64,
    pub replication_errors: AtomicU64,
    pub coalesced_writes: AtomicU64,
    pub queue_depth_hwm: AtomicU64,
    /// Writes released by the reorder stage to the sender lanes (with
    /// no replicas configured this is the replicated count).
    pub dispatched_writes: AtomicU64,
    /// Bytes memcpy'd on the hot path (block capture → wire frame).
    /// With the pooled path a block's bytes are copied once at capture
    /// and once onto the wire; this counter is what proves it.
    pub hot_bytes_copied: AtomicU64,
    pub last_error: parking_lot::Mutex<Option<String>>,
    /// Registry wiring; `None` costs one branch per stage.
    pub obs: Option<PipeObs>,
    /// Per-write causal tracing; `None` costs one branch per stage.
    /// Stage hops record into fixed slots, so the write path stays
    /// allocation-free with tracing on.
    pub trace: Option<Arc<TraceSink>>,
}

pub(crate) fn record_error(shared: &Shared, e: &ReplError) {
    shared.replication_errors.fetch_add(1, Ordering::Relaxed);
    let mut slot = shared.last_error.lock();
    if slot.is_none() {
        *slot = Some(e.to_string());
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
    /// Clock reading at admission (0 when observability is off).
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
}

/// An encoded payload waiting for its sequence turn.
struct Ready {
    lba: Lba,
    writes: u64,
    payload: PooledBytes,
    /// Clock reading when encoding finished (0 when observability is
    /// off); the reorder hold is measured against it at release.
    encoded_at: u64,
}

struct ReorderState {
    /// Next sequence number to release to the lanes.
    next_seq: u64,
    ready: HashMap<u64, Ready>,
}

enum LaneMsg {
    Payload {
        seq: u64,
        lba: Lba,
        writes: u64,
        bytes: PooledBytes,
        /// Clock reading at release to the lanes (0 when observability
        /// is off); the lane-queue wait is measured against it.
        released_at: u64,
    },
    Barrier(Arc<BarrierGate>),
    Shutdown,
}

/// Countdown the flush barrier waits on: one arrival per lane.
struct BarrierGate {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl BarrierGate {
    fn new(lanes: usize) -> Self {
        Self {
            remaining: Mutex::new(lanes),
            done: Condvar::new(),
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
            left = self.done.wait(left).unwrap();
        }
    }
}

/// One replica's sender lane: a bounded queue plus its counters.
///
/// The queue is hand-rolled over `std::sync` because the vendored
/// crossbeam only ships unbounded channels and backpressure here is
/// the point: a full lane stalls the encode pool, not the application.
pub(crate) struct LaneState {
    queue: Mutex<VecDeque<LaneMsg>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
    pub sends: AtomicU64,
    pub acked_writes: AtomicU64,
    pub payload_bytes: AtomicU64,
    pub send_nanos: AtomicU64,
    pub ack_nanos: AtomicU64,
    pub errors: AtomicU64,
    send_log: Option<Mutex<Vec<(Lba, u64)>>>,
}

impl LaneState {
    fn new(cap: usize, trace_sends: bool) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
            sends: AtomicU64::new(0),
            acked_writes: AtomicU64::new(0),
            payload_bytes: AtomicU64::new(0),
            send_nanos: AtomicU64::new(0),
            ack_nanos: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            send_log: trace_sends.then(|| Mutex::new(Vec::new())),
        }
    }

    fn push(&self, msg: LaneMsg) {
        let mut q = self.queue.lock().unwrap();
        while q.len() >= self.cap {
            q = self.not_full.wait(q).unwrap();
        }
        q.push_back(msg);
        self.not_empty.notify_one();
    }

    fn pop(&self) -> LaneMsg {
        let mut q = self.queue.lock().unwrap();
        while q.is_empty() {
            q = self.not_empty.wait(q).unwrap();
        }
        let msg = q.pop_front().expect("non-empty lane queue");
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
    fn try_pop_payload(&self) -> Option<LaneMsg> {
        let mut q = self.queue.lock().unwrap();
        if matches!(q.front(), Some(LaneMsg::Payload { .. })) {
            let msg = q.pop_front();
            self.not_full.notify_one();
            msg
        } else {
            None
        }
    }

    fn record_sent(&self, trace: &[(Lba, u64)]) {
        if let Some(log) = &self.send_log {
            log.lock().unwrap().extend_from_slice(trace);
        }
    }

    pub fn send_log(&self) -> Vec<(Lba, u64)> {
        self.send_log
            .as_ref()
            .map(|log| log.lock().unwrap().clone())
            .unwrap_or_default()
    }
}

/// State shared by the admission front-end, the encode pool and the
/// barrier.
struct Inner {
    admit: Mutex<AdmitState>,
    admit_cv: Condvar,
    reorder: Mutex<ReorderState>,
    reorder_cv: Condvar,
    lanes: Vec<Arc<LaneState>>,
    shared: Arc<Shared>,
    clock: Arc<dyn Clock>,
    /// Slab pool for payload and wire buffers (block-image buffers are
    /// checked out by the engine front-end from the same pool).
    pool: BufPool,
}

/// One lane's sender context in manual mode: the link plus the
/// in-flight frame accounting the lane thread would otherwise keep on
/// its stack.
struct SteppedLane {
    link: Link,
    outstanding: VecDeque<InFlight>,
}

/// One sent, unacknowledged frame: the writes it carries plus the
/// sealed wire bytes, retained so a corrupt NAK can be answered with a
/// retransmission instead of an error. The frame stays in its pooled
/// buffer; acknowledgement recycles it.
struct InFlight {
    writes: u64,
    /// The pipeline writes the frame carries. Reorder releases in
    /// strict sequence order and lane queues are FIFO, so a batch is
    /// always a contiguous run — two words correlate the eventual ack
    /// back to every write's trace.
    range: SeqRange,
    frame: PooledBuf,
}

/// Retransmissions attempted per frame before a corrupt NAK becomes a
/// lane error.
const MAX_RETRANSMITS: u32 = 3;

/// Sender-lane queue capacity in frames; a full lane backpressures the
/// encode pool, not the application.
const LANE_QUEUE_CAP: usize = 1024;

/// Manual-mode runtime: everything the worker threads would own.
struct Stepped {
    replicator: Arc<dyn Replicator>,
    lanes: Mutex<Vec<SteppedLane>>,
    cfg: PipelineConfig,
}

pub(crate) struct Pipeline {
    inner: Arc<Inner>,
    tuning: Arc<PipelineTuning>,
    encode_handles: Mutex<Vec<JoinHandle<()>>>,
    lane_handles: Mutex<Option<Vec<JoinHandle<()>>>>,
    stepped: Option<Stepped>,
}

impl Pipeline {
    pub fn start(
        replicator: Arc<dyn Replicator>,
        transports: Vec<Box<dyn Transport>>,
        shared: Arc<Shared>,
        config: &PipelineConfig,
        clock: Arc<dyn Clock>,
        pool: BufPool,
        tuning: Arc<PipelineTuning>,
    ) -> Self {
        // In manual mode a bounded lane queue would deadlock the single
        // driving thread, and backpressure is meaningless anyway.
        let queue_cap = if config.manual {
            usize::MAX
        } else {
            LANE_QUEUE_CAP
        };
        let lanes: Vec<Arc<LaneState>> = transports
            .iter()
            .map(|_| Arc::new(LaneState::new(queue_cap, config.trace_sends)))
            .collect();
        // Lanes have no replica lifecycle (no offline/rejoin): each link
        // stays at its first epoch for the life of the engine.
        let links = transports
            .into_iter()
            .enumerate()
            .map(|(idx, transport)| Link::new(idx, transport));
        let inner = Arc::new(Inner {
            admit: Mutex::new(AdmitState {
                queue: VecDeque::new(),
                by_lba: HashMap::new(),
                seq_alloc: 0,
                closed: false,
            }),
            admit_cv: Condvar::new(),
            reorder: Mutex::new(ReorderState {
                next_seq: 0,
                ready: HashMap::new(),
            }),
            reorder_cv: Condvar::new(),
            lanes,
            shared,
            clock,
            pool,
        });

        if config.manual {
            return Self {
                inner,
                tuning,
                encode_handles: Mutex::new(Vec::new()),
                lane_handles: Mutex::new(None),
                stepped: Some(Stepped {
                    replicator,
                    lanes: Mutex::new(
                        links
                            .map(|link| SteppedLane {
                                link,
                                outstanding: VecDeque::new(),
                            })
                            .collect(),
                    ),
                    cfg: config.clone(),
                }),
            };
        }

        let mut encode_handles = Vec::new();
        for worker in 0..config.encode_workers.max(1) {
            let inner = Arc::clone(&inner);
            let replicator = Arc::clone(&replicator);
            encode_handles.push(
                std::thread::Builder::new()
                    .name(format!("prins-encode-{worker}"))
                    .spawn(move || run_encoder(&inner, &*replicator))
                    .expect("spawn prins encode worker"),
            );
        }

        let mut lane_handles = Vec::new();
        for (idx, link) in links.enumerate() {
            let lane = Arc::clone(&inner.lanes[idx]);
            let shared = Arc::clone(&inner.shared);
            let cfg = config.clone();
            let clock = Arc::clone(&inner.clock);
            let pool = inner.pool.clone();
            let tuning = Arc::clone(&tuning);
            lane_handles.push(
                std::thread::Builder::new()
                    .name(format!("prins-sender-{idx}"))
                    .spawn(move || {
                        run_lane(idx, &link, &lane, &shared, &cfg, &*clock, &pool, &tuning)
                    })
                    .expect("spawn prins sender lane"),
            );
        }

        Self {
            inner,
            tuning,
            encode_handles: Mutex::new(encode_handles),
            lane_handles: Mutex::new(Some(lane_handles)),
            stepped: None,
        }
    }

    /// Drives a manual-mode pipeline one round on the caller's thread:
    /// encodes and releases every queued admission (in sequence order,
    /// like the encode pool), then lets each lane in index order send
    /// its released payloads and retire acknowledgements per the
    /// configured window. Returns whether any work was done; always
    /// `false` on a threaded pipeline.
    pub fn step(&self) -> bool {
        let Some(stepped) = &self.stepped else {
            return false;
        };
        let mut progressed = false;
        loop {
            let job = claim_job(&mut self.inner.admit.lock().unwrap());
            let Some(job) = job else { break };
            encode_and_release(&self.inner, &*stepped.replicator, job);
            progressed = true;
        }
        let mut lanes_rt = stepped.lanes.lock().unwrap();
        for (idx, rt) in lanes_rt.iter_mut().enumerate() {
            let lane = &self.inner.lanes[idx];
            while let Some(msg) = lane.try_pop() {
                progressed = true;
                match msg {
                    LaneMsg::Payload {
                        seq,
                        lba,
                        writes,
                        bytes,
                        released_at,
                    } => lane_handle_payload(
                        idx,
                        &rt.link,
                        lane,
                        &self.inner.shared,
                        &stepped.cfg,
                        &*self.inner.clock,
                        &self.inner.pool,
                        self.tuning.batch_frames(),
                        &mut rt.outstanding,
                        seq,
                        lba,
                        writes,
                        bytes,
                        released_at,
                    ),
                    LaneMsg::Barrier(gate) => {
                        self.collect_lane(stepped, idx, rt);
                        gate.arrive();
                    }
                    LaneMsg::Shutdown => self.collect_lane(stepped, idx, rt),
                }
            }
        }
        progressed
    }

    fn collect_lane(&self, stepped: &Stepped, idx: usize, rt: &mut SteppedLane) {
        collect_all(
            idx,
            &rt.link,
            &self.inner.lanes[idx],
            &self.inner.shared,
            &stepped.cfg,
            &*self.inner.clock,
            &mut rt.outstanding,
        );
    }

    pub fn lanes(&self) -> &[Arc<LaneState>] {
        &self.inner.lanes
    }

    /// Admits a write: folds it into a still-queued job for the same
    /// LBA (when coalescing) or assigns the next sequence number.
    ///
    /// Callers hold the engine's per-LBA stripe lock, so the captured
    /// `old` image is exactly the block content the previous admission
    /// for this LBA left behind. Both images arrive in pooled buffers;
    /// a fold recycles the superseded `new` image immediately.
    pub fn admit(&self, lba: Lba, old: PooledBuf, new: PooledBuf) -> Result<(), ReplError> {
        let obs = self.inner.shared.obs.as_ref();
        let trace = self.inner.shared.trace.as_ref();
        let new_len = new.len();
        // Read the live flag once so one admission sees one mode.
        let coalesce = self.tuning.coalesce();
        let mut st = self.inner.admit.lock().unwrap();
        if st.closed {
            return Err(ReplError::Net(prins_net::NetError::Disconnected));
        }
        if coalesce {
            if let Some(&seq) = st.by_lba.get(&lba.0) {
                let front_seq = st.queue.front().expect("by_lba entry implies queue").seq;
                let job = &mut st.queue[(seq - front_seq) as usize];
                debug_assert_eq!(job.seq, seq);
                job.new = new;
                job.folds += 1;
                self.inner
                    .shared
                    .coalesced_writes
                    .fetch_add(1, Ordering::Relaxed);
                if obs.is_some() || trace.is_some() {
                    let now = self.inner.clock.now_nanos();
                    if let Some(obs) = obs {
                        obs.queue_depth.record(st.queue.len() as u64);
                        obs.record(Event::new(now, EventKind::Coalesce).seq(seq).lba(lba.0));
                    }
                    if let Some(trace) = trace {
                        trace.fold(TraceId::from_seq(seq), now, new_len);
                    }
                }
                return Ok(());
            }
        }
        let seq = st.seq_alloc;
        st.seq_alloc += 1;
        if coalesce {
            st.by_lba.insert(lba.0, seq);
        }
        let admitted_at = if obs.is_some() || trace.is_some() {
            let now = self.inner.clock.now_nanos();
            if let Some(obs) = obs {
                obs.record(Event::new(now, EventKind::Admit).seq(seq).lba(lba.0));
            }
            if let Some(trace) = trace {
                // One expected completion per lane plus the reorder
                // stage's hold, released once the payload is handed to
                // the lanes — so a zero-replica engine still finalizes.
                let pending = self.inner.lanes.len() as u32 + 1;
                trace.begin(TraceId::from_seq(seq), 0, pending, now, new_len);
            }
            now
        } else {
            0
        };
        st.queue.push_back(EncodeJob {
            seq,
            lba,
            old,
            new,
            folds: 0,
            admitted_at,
        });
        if let Some(obs) = obs {
            obs.queue_depth.record(st.queue.len() as u64);
        }
        self.inner
            .shared
            .queue_depth_hwm
            .fetch_max(st.queue.len() as u64, Ordering::Relaxed);
        drop(st);
        self.inner.admit_cv.notify_one();
        Ok(())
    }

    /// Waits until every write admitted before the call has been
    /// encoded, released in order and acknowledged by every lane.
    ///
    /// In manual mode nothing waits: the barrier *drives* the stages to
    /// completion on the calling thread.
    pub fn barrier(&self) {
        if let Some(stepped) = &self.stepped {
            self.step();
            let mut lanes_rt = stepped.lanes.lock().unwrap();
            for (idx, rt) in lanes_rt.iter_mut().enumerate() {
                self.collect_lane(stepped, idx, rt);
            }
            drop(lanes_rt);
            self.record_barrier();
            return;
        }
        let target = self.inner.admit.lock().unwrap().seq_alloc;
        let mut ro = self.inner.reorder.lock().unwrap();
        while ro.next_seq < target {
            ro = self.inner.reorder_cv.wait(ro).unwrap();
        }
        drop(ro);
        if self.inner.lanes.is_empty() {
            self.record_barrier();
            return;
        }
        let gate = Arc::new(BarrierGate::new(self.inner.lanes.len()));
        for lane in &self.inner.lanes {
            lane.push(LaneMsg::Barrier(Arc::clone(&gate)));
        }
        gate.wait();
        self.record_barrier();
    }

    fn record_barrier(&self) {
        if let Some(obs) = &self.inner.shared.obs {
            obs.record(Event::new(self.inner.clock.now_nanos(), EventKind::Barrier));
        }
    }

    /// Stops the pipeline: drains the admission queue, joins the
    /// encode pool, then retires the lanes. Idempotent.
    pub fn shutdown(&self) {
        self.inner.admit.lock().unwrap().closed = true;
        self.inner.admit_cv.notify_all();
        if let Some(stepped) = &self.stepped {
            self.step();
            let mut lanes_rt = stepped.lanes.lock().unwrap();
            for (idx, rt) in lanes_rt.iter_mut().enumerate() {
                self.collect_lane(stepped, idx, rt);
            }
            return;
        }
        for handle in self.encode_handles.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
        if let Some(handles) = self.lane_handles.lock().unwrap().take() {
            for lane in &self.inner.lanes {
                lane.push(LaneMsg::Shutdown);
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
}

/// Takes the next admission-queue job, retiring its coalescing slot.
/// Shared by the encode-pool workers and the stepped driver.
fn claim_job(st: &mut AdmitState) -> Option<EncodeJob> {
    let job = st.queue.pop_front()?;
    if st.by_lba.get(&job.lba.0) == Some(&job.seq) {
        // The job is now being encoded; later writes to this LBA must
        // queue fresh, not fold.
        st.by_lba.remove(&job.lba.0);
    }
    Some(job)
}

/// Encodes one job and releases every consecutively-ready payload to
/// the lanes. Shared by the encode-pool workers and the stepped driver.
fn encode_and_release(inner: &Inner, replicator: &dyn Replicator, job: EncodeJob) {
    let obs = inner.shared.obs.as_ref();
    let trace = inner.shared.trace.as_ref();
    let t0 = inner.clock.now_nanos();
    // Serialize straight into a pooled buffer: the fused encoders write
    // the wire payload without materializing the parity, and freezing
    // costs one `Arc` — the single unavoidable allocation per write.
    let mut buf = inner.pool.get(job.new.len() + 24);
    replicator.encode_write_into(job.lba, &job.old, &job.new, buf.vec_mut());
    let payload = buf.freeze();
    // The block images return to the pool before the reorder lock.
    drop(job.old);
    drop(job.new);
    let t1 = inner.clock.now_nanos();
    inner
        .shared
        .overhead_nanos
        .fetch_add(t1.saturating_sub(t0), Ordering::Relaxed);
    if let Some(obs) = obs {
        obs.admission_wait
            .record(t0.saturating_sub(job.admitted_at));
        obs.encode.record(t1.saturating_sub(t0));
        obs.record(
            Event::new(t1, EventKind::EncodeDone)
                .seq(job.seq)
                .lba(job.lba.0),
        );
    }
    if let Some(trace) = trace {
        trace.event(
            TraceId::from_seq(job.seq),
            TraceStage::Encode,
            NO_LANE,
            t1,
            payload.len(),
        );
    }

    let mut ro = inner.reorder.lock().unwrap();
    ro.ready.insert(
        job.seq,
        Ready {
            lba: job.lba,
            writes: 1 + job.folds,
            payload,
            encoded_at: t1,
        },
    );
    // Release every consecutive payload that is now ready; peers
    // that finish out of order leave theirs for whoever holds the
    // next sequence number.
    loop {
        let seq = ro.next_seq;
        let Some(ready) = ro.ready.remove(&seq) else {
            break;
        };
        ro.next_seq += 1;
        inner
            .shared
            .dispatched_writes
            .fetch_add(ready.writes, Ordering::Relaxed);
        let released_at = if obs.is_some() || trace.is_some() {
            let now = inner.clock.now_nanos();
            if let Some(obs) = obs {
                obs.reorder_hold
                    .record(now.saturating_sub(ready.encoded_at));
            }
            now
        } else {
            0
        };
        if let Some(trace) = trace {
            let id = TraceId::from_seq(seq);
            trace.event(id, TraceStage::Reorder, NO_LANE, released_at, 0);
            // Release the reorder hold *before* the lanes see the
            // payload: pending stays ≥ lane count until their acks, and
            // a zero-lane engine finalizes right here.
            trace.release(id, released_at);
        }
        for lane in &inner.lanes {
            lane.push(LaneMsg::Payload {
                seq,
                lba: ready.lba,
                writes: ready.writes,
                bytes: ready.payload.clone(),
                released_at,
            });
        }
    }
    drop(ro);
    inner.reorder_cv.notify_all();
}

/// Encode-pool worker: drains the admission queue, encodes payloads
/// concurrently with its peers and releases them through the reorder
/// buffer in sequence order.
fn run_encoder(inner: &Inner, replicator: &dyn Replicator) {
    loop {
        let job = {
            let mut st = inner.admit.lock().unwrap();
            loop {
                if let Some(job) = claim_job(&mut st) {
                    break Some(job);
                }
                if st.closed {
                    break None;
                }
                st = inner.admit_cv.wait(st).unwrap();
            }
        };
        let Some(job) = job else { return };
        encode_and_release(inner, replicator, job);
    }
}

/// One released payload's lane work: batch in queued successors, send
/// the frame, retire acknowledgements down to the window. Shared by the
/// lane threads and the stepped driver.
///
/// Frame assembly is single-copy: each payload's bytes move from their
/// pooled buffer straight into the sealed wire buffer (also pooled),
/// with the batch header and the seal envelope written around them in
/// place. One slicing-by-8 CRC pass in [`SealWriter::finish`] covers
/// the whole batch. The frame stays in its pooled buffer until it is
/// acknowledged, so a retransmission resends the same bytes.
///
/// [`SealWriter::finish`]: prins_repl::SealWriter::finish
#[allow(clippy::too_many_arguments)]
fn lane_handle_payload(
    idx: usize,
    link: &Link,
    lane: &LaneState,
    shared: &Shared,
    cfg: &PipelineConfig,
    clock: &dyn Clock,
    pool: &BufPool,
    batch_frames: usize,
    outstanding: &mut VecDeque<InFlight>,
    seq: u64,
    lba: Lba,
    writes: u64,
    bytes: PooledBytes,
    released_at: u64,
) {
    let obs = shared.obs.as_ref();
    let tsink = shared.trace.as_ref();
    let picked_up = if obs.is_some() || tsink.is_some() {
        let now = clock.now_nanos();
        if let Some(obs) = obs {
            obs.lane_queue.record(now.saturating_sub(released_at));
        }
        now
    } else {
        0
    };
    let first_seq = seq;
    let first_lba = lba;
    let tracing = lane.send_log.is_some();
    let mut trace: Vec<(Lba, u64)> = Vec::new();
    if tracing {
        trace.push((lba, seq));
    }
    if let Some(tsink) = tsink {
        tsink.event(
            TraceId::from_seq(seq),
            TraceStage::LaneQueue,
            idx as u32,
            picked_up,
            bytes.len(),
        );
    }
    let mut range = SeqRange::single(seq);
    let mut total_writes = writes;
    let mut extra: Vec<PooledBytes> = Vec::new();
    while extra.len() + 1 < batch_frames {
        match lane.try_pop_payload() {
            Some(LaneMsg::Payload {
                seq,
                lba,
                writes,
                bytes,
                released_at,
            }) => {
                if let Some(obs) = obs {
                    obs.lane_queue.record(picked_up.saturating_sub(released_at));
                }
                if tracing {
                    trace.push((lba, seq));
                }
                if let Some(tsink) = tsink {
                    tsink.event(
                        TraceId::from_seq(seq),
                        TraceStage::LaneQueue,
                        idx as u32,
                        picked_up,
                        bytes.len(),
                    );
                }
                let contiguous = range.push(seq);
                debug_assert!(contiguous, "lane batches are contiguous seq runs");
                total_writes += writes;
                extra.push(bytes);
            }
            _ => break,
        }
    }
    let inner_len = bytes.len() + extra.iter().map(|p| p.len() + 10).sum::<usize>();
    let mut wire = pool.get(inner_len + 32);
    let out = wire.vec_mut();
    let writer = seal_begin(link.epoch(), out);
    if extra.is_empty() {
        out.extend_from_slice(&bytes);
    } else {
        let payloads = std::iter::once(&bytes).chain(&extra);
        put_batch(out, payloads.map(|p| &p[..]));
    }
    writer.finish(out);
    shared.hot_bytes_copied.fetch_add(
        (bytes.len() + extra.iter().map(|p| p.len()).sum::<usize>()) as u64,
        Ordering::Relaxed,
    );
    drop(bytes);
    drop(extra);

    let t0 = clock.now_nanos();
    let sent = link.transport().send(&wire);
    let t1 = clock.now_nanos();
    lane.send_nanos
        .fetch_add(t1.saturating_sub(t0), Ordering::Relaxed);
    if let Some(obs) = obs {
        obs.send.record(t1.saturating_sub(t0));
    }
    match sent {
        Ok(()) => {
            lane.sends.fetch_add(1, Ordering::Relaxed);
            lane.payload_bytes
                .fetch_add(wire.len() as u64, Ordering::Relaxed);
            lane.record_sent(&trace);
            if let Some(obs) = obs {
                obs.record(
                    Event::new(
                        t1,
                        EventKind::Send {
                            writes: total_writes.min(u32::MAX as u64) as u32,
                        },
                    )
                    .seq(first_seq)
                    .lba(first_lba.0)
                    .replica(idx),
                );
            }
            if let Some(tsink) = tsink {
                let wire_len = wire.len();
                for s in range.iter() {
                    tsink.event(
                        TraceId::from_seq(s),
                        TraceStage::Send,
                        idx as u32,
                        t1,
                        if s == first_seq { wire_len } else { 0 },
                    );
                }
            }
            outstanding.push_back(InFlight {
                writes: total_writes,
                range,
                frame: wire,
            });
            while outstanding.len() >= cfg.ack_window.max(1) {
                collect_one(idx, link, lane, shared, cfg, clock, outstanding);
            }
        }
        Err(e) => {
            // The frame retires unsent; the error surfaces at the next
            // flush.
            lane.errors.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = obs {
                obs.record(
                    Event::new(t1, EventKind::SendError)
                        .seq(first_seq)
                        .lba(first_lba.0)
                        .replica(idx),
                );
            }
            if let Some(tsink) = tsink {
                for s in range.iter() {
                    tsink.complete(
                        TraceId::from_seq(s),
                        TraceStage::SendError,
                        idx as u32,
                        t1,
                        0,
                    );
                }
            }
            record_error(shared, &e.into());
        }
    }
}

/// Sender-lane thread: batches queued payloads into frames, sends them
/// and retires acknowledgements within the configured window.
#[allow(clippy::too_many_arguments)]
fn run_lane(
    idx: usize,
    link: &Link,
    lane: &LaneState,
    shared: &Shared,
    cfg: &PipelineConfig,
    clock: &dyn Clock,
    pool: &BufPool,
    tuning: &PipelineTuning,
) {
    // The in-flight (sent, unacknowledged) frames.
    let mut outstanding: VecDeque<InFlight> = VecDeque::new();
    loop {
        match lane.pop() {
            LaneMsg::Shutdown => {
                collect_all(idx, link, lane, shared, cfg, clock, &mut outstanding);
                return;
            }
            LaneMsg::Barrier(gate) => {
                collect_all(idx, link, lane, shared, cfg, clock, &mut outstanding);
                gate.arrive();
            }
            LaneMsg::Payload {
                seq,
                lba,
                writes,
                bytes,
                released_at,
            } => lane_handle_payload(
                idx,
                link,
                lane,
                shared,
                cfg,
                clock,
                pool,
                tuning.batch_frames(),
                &mut outstanding,
                seq,
                lba,
                writes,
                bytes,
                released_at,
            ),
        }
    }
}

/// Retires the oldest in-flight frame with one acknowledgement. A
/// corrupt NAK — the frame was damaged in flight, caught by the seal's
/// CRC32C — retransmits the retained copy up to [`MAX_RETRANSMITS`]
/// times, waiting one `ack_timeout` longer per attempt so the retry
/// rides out whatever delayed traffic damaged the first copy.
///
/// Retransmission needs unambiguous response alignment: acks carry no
/// frame identity, so a retry's ack is only attributable when this
/// frame is the *sole* in-flight one (always true in the closed-loop
/// window of 1). With more frames in the window a corrupt NAK falls
/// through to the error path instead, and the block is repaired by the
/// resync layer rather than guessed at here.
fn collect_one(
    idx: usize,
    link: &Link,
    lane: &LaneState,
    shared: &Shared,
    cfg: &PipelineConfig,
    clock: &dyn Clock,
    outstanding: &mut VecDeque<InFlight>,
) {
    let obs = shared.obs.as_ref();
    let tsink = shared.trace.as_ref();
    let InFlight {
        writes: frame_writes,
        range,
        frame,
    } = outstanding.pop_front().expect("outstanding frame");
    let sole_in_flight = outstanding.is_empty();
    let mut attempt: u32 = 0;
    let mut waited: u64 = 0;
    let mut t1;
    let mut on_event = |event| {
        if let (LinkEvent::CorruptNak, Some(obs)) = (event, obs) {
            obs.checksum_failures.inc();
        }
    };
    let result: Result<(), ReplError> = loop {
        let t0 = clock.now_nanos();
        let answer = link.recv_response(
            ACK,
            link.epoch(),
            cfg.ack_timeout * (attempt + 1),
            &mut on_event,
        );
        t1 = clock.now_nanos();
        waited += t1.saturating_sub(t0);
        lane.ack_nanos
            .fetch_add(t1.saturating_sub(t0), Ordering::Relaxed);
        match answer {
            // The frame was damaged in flight; resend the retained copy.
            Err(ReplError::ChecksumMismatch { .. })
                if sole_in_flight && attempt < MAX_RETRANSMITS =>
            {
                attempt += 1;
                if let Err(e) = link.transport().send(&frame) {
                    break Err(e.into());
                }
                lane.payload_bytes
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                if let Some(obs) = obs {
                    obs.retransmits.inc();
                }
                if let Some(tsink) = tsink {
                    for s in range.iter() {
                        tsink.mark_retransmit(TraceId::from_seq(s), idx as u32, t1);
                    }
                }
            }
            answer => break answer.map(drop),
        }
    };
    // One RTT sample and one terminal event per retired frame, however
    // many retransmission round-trips it took.
    if let Some(obs) = obs {
        obs.ack_rtt.record(waited);
    }
    match result {
        Ok(()) => {
            lane.acked_writes.fetch_add(frame_writes, Ordering::Relaxed);
            if let Some(obs) = obs {
                obs.record(Event::new(t1, EventKind::AckOk).replica(idx));
            }
            if let Some(tsink) = tsink {
                for s in range.iter() {
                    tsink.complete(TraceId::from_seq(s), TraceStage::Ack, idx as u32, t1, 0);
                }
            }
        }
        Err(e) => {
            if let Some(obs) = obs {
                let kind = match e {
                    ReplError::Nak { .. } => EventKind::Nak,
                    _ => EventKind::AckError,
                };
                obs.record(Event::new(t1, kind).replica(idx));
            }
            if let Some(tsink) = tsink {
                for s in range.iter() {
                    tsink.complete(
                        TraceId::from_seq(s),
                        TraceStage::AckError,
                        idx as u32,
                        t1,
                        0,
                    );
                }
            }
            lane.errors.fetch_add(1, Ordering::Relaxed);
            record_error(shared, &e);
        }
    }
}

fn collect_all(
    idx: usize,
    link: &Link,
    lane: &LaneState,
    shared: &Shared,
    cfg: &PipelineConfig,
    clock: &dyn Clock,
    outstanding: &mut VecDeque<InFlight>,
) {
    while !outstanding.is_empty() {
        collect_one(idx, link, lane, shared, cfg, clock, outstanding);
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
    use prins_repl::{verify_consistent, AckPolicy, ReplError, ReplicaApplier};
    use proptest::prelude::*;
    use rand::{RngExt, SeedableRng};

    use crate::{EngineBuilder, PrinsEngine, ReplicaEngine};

    type ReplicaHandle = std::thread::JoinHandle<Result<u64, ReplError>>;

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
            handles.push(ReplicaEngine::spawn(
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
            // epoch and checksum table survive. Strict mode: a bit
            // flip on the seal tag itself must not let the frame
            // bypass verification.
            let mut applier = ReplicaApplier::new(dev).require_sealed(true);
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
            assert_eq!(snap.gauges["engine_writes"], 40);
            assert_eq!(snap.gauges["lane0_sends"], 40);
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

    /// Replays `writes` through a tracing engine and asserts that each
    /// lane's send log shows strictly increasing sequence numbers per
    /// LBA (the pipeline's ordering invariant, observed at the wire).
    fn assert_per_lba_ordering(writes: &[(u64, u8)], encode_workers: usize) {
        let (transports, _links, replica_devs, replica_threads) = faulted_replicas(2, 8);
        let primary = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .encode_workers(encode_workers)
            .ack_policy(AckPolicy::Window(16))
            .trace_sends(true);
        for transport in transports {
            builder = builder.replica(transport);
        }
        let engine = builder.build();

        for (i, &(lba, fill)) in writes.iter().enumerate() {
            let lba = Lba(lba % 8);
            let mut block = engine.read_block_vec(lba).unwrap();
            block[i % 4096] = fill;
            engine.write_block(lba, &block).unwrap();
        }
        engine.flush().unwrap();

        let logs = engine.send_logs();
        assert_eq!(logs.len(), 2);
        for log in &logs {
            assert_eq!(log.len(), writes.len(), "every write sent exactly once");
            let mut last_seq_for: HashMap<u64, u64> = HashMap::new();
            let mut prev_seq: Option<u64> = None;
            for &(lba, seq) in log {
                if let Some(prev) = prev_seq {
                    assert!(seq > prev, "global sequence order violated");
                }
                prev_seq = Some(seq);
                if let Some(&last) = last_seq_for.get(&lba.0) {
                    assert!(seq > last, "per-LBA sequence regressed on {lba:?}");
                }
                last_seq_for.insert(lba.0, seq);
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
            assert_per_lba_ordering(&writes, workers);
        }
    }
}
