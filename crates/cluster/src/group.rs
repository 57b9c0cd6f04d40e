//! The primary-side cluster engine: degraded writes, lifecycle
//! transitions, and resync.

use std::sync::Arc;
use std::time::Duration;

use prins_block::{crc32c, BlockDevice, Lba};
use prins_net::{Clock, Transport};
use prins_obs::{Registry, TraceId, TraceSink};
use prins_parity::{SparseCodec, SparseParity};
use prins_repl::{
    put_full, put_parity, Link, PrinsReplicator, ReplError, Request, Response, ACK, DIGEST_ACK,
    READ_ACK,
};
use prins_trap::{TrapDevice, TrapEntry, TrapLog};

use crate::dirty::DirtyMap;
use crate::probe::{Plane, Probe, Tagged};
use crate::{ClusterError, ReplicaState};

/// One resync frame on the wire, as its acknowledgement (or its
/// batch's failure) books it.
struct SentFrame {
    lba: Lba,
    /// Where an errored batch re-marks the block from: its first miss
    /// for a full image, the last log entry folded in for a parity.
    mark_from: u64,
    parity: bool,
}

/// Per-replica bookkeeping on the primary: the connection, and the
/// lifecycle the answers on it drive.
struct Replica {
    /// The connection and what is in flight on it. Between calls that
    /// is foreground writes only, tagged `Some((lba, seq))`; resync
    /// frames and read-side requests (tagged `None`) are collected, or
    /// given up on, before the call that sent them returns.
    link: Link<Tagged<Option<(Lba, u64)>>>,
    state: ReplicaState,
    dirty: DirtyMap,
    consecutive_failures: u32,
    foreground_bytes: u64,
    resync_bytes: u64,
    scrub_bytes: u64,
    read_bytes: u64,
    deferred_writes: u64,
    acked_writes: u64,
}

impl Replica {
    fn new(idx: usize, transport: Box<dyn Transport>) -> Self {
        Self {
            link: Link::new(idx, transport),
            state: ReplicaState::Online,
            dirty: DirtyMap::new(),
            consecutive_failures: 0,
            foreground_bytes: 0,
            resync_bytes: 0,
            scrub_bytes: 0,
            read_bytes: 0,
            deferred_writes: 0,
            acked_writes: 0,
        }
    }

    /// Whether the freshness guard lets this replica serve `lba`.
    fn serves(&self, lba: Lba) -> bool {
        self.state == ReplicaState::Online && !self.dirty.contains(lba)
    }
}

/// Snapshot of one replica's status.
#[derive(Clone, Debug)]
pub struct ReplicaStatus {
    /// Lifecycle state.
    pub state: ReplicaState,
    /// Blocks this replica is missing writes for.
    pub dirty_blocks: usize,
    /// Payload bytes sent as foreground replication.
    pub foreground_bytes: u64,
    /// Payload bytes sent as resync traffic.
    pub resync_bytes: u64,
    /// Payload bytes sent as scrub digest probes.
    pub scrub_bytes: u64,
    /// Payload bytes sent as offloaded read requests.
    pub read_bytes: u64,
    /// Foreground writes deferred (not sent) due to dirtiness.
    pub deferred_writes: u64,
    /// Foreground writes this replica acknowledged.
    pub acked_writes: u64,
    /// Foreground writes sent but not yet acknowledged (0 unless
    /// [`ClusterConfig::ack_window`] > 1).
    pub in_flight: usize,
}

/// Outcome of one degraded-mode write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Log sequence number assigned to the write.
    pub(crate) seq: u64,
    /// Replicas that acknowledged it.
    pub acked: usize,
    /// Replicas that deferred it (dirty block / covered by resync).
    pub(crate) deferred: usize,
    /// Replicas skipped because they are offline.
    pub skipped: usize,
}

/// Outcome of one offloaded read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The block's content.
    pub data: Vec<u8>,
    /// The replica that served it, or `None` for the primary image.
    pub source: Option<usize>,
    /// Candidate replicas the freshness guard rejected before the read
    /// was served (not in sync, block dirty, or a stale response).
    pub rejected: usize,
}

/// Outcome of a scrub pass over one replica.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// LBAs probed with a digest request.
    pub(crate) probed: usize,
    /// LBAs whose replica digest differed from the primary's image.
    pub(crate) mismatched: usize,
    /// Divergent LBAs repaired through the resync path.
    pub repaired: usize,
}

/// Cluster configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// How long to wait for each acknowledgement.
    pub ack_timeout: Duration,
    /// Minimum replica acknowledgements per write before the write
    /// counts as safely replicated (0 = never fail the write).
    pub write_quorum: usize,
    /// Consecutive send/ack failures before a Lagging replica is
    /// declared Offline.
    pub offline_after: u32,
    /// In-flight (unacknowledged) foreground writes allowed per
    /// replica before [`ClusterGroup::write`] collects acks (default
    /// 1: every write waits, the paper's closed-loop model). Larger
    /// windows pipeline WAN round-trips; [`ClusterGroup::drain`] is
    /// the matching barrier. With a window > 1 the quorum check is
    /// optimistic — a sent-but-unacknowledged replica counts until
    /// its acknowledgement fails — and a wait that fails also fails
    /// the later writes in flight to that replica: their answers could
    /// no longer be told from the failed one's.
    pub ack_window: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            ack_timeout: Duration::from_secs(10),
            write_quorum: 0,
            offline_after: 3,
            ack_window: 1,
        }
    }
}

/// A primary replicating to a set of replicas that can fail, lag, and
/// rejoin.
///
/// Unlike `prins-core`'s engine, which surfaces the first replica error
/// at the next flush, a `ClusterGroup` *degrades*: a failing replica moves
/// through the [`ReplicaState`] lifecycle, its missed writes are
/// recorded in a per-replica dirty map, and the write succeeds as
/// long as [`ClusterConfig::write_quorum`] replicas acknowledge it.
/// Each write's parity is computed once: the primary's own
/// [`TrapLog`] keeps it, the foreground frame ships it, and the log
/// doubles as the delta-resync source.
pub struct ClusterGroup<D> {
    device: TrapDevice<D>,
    /// The current write's encoded payload, reused across writes.
    payload: Vec<u8>,
    /// The image the current write replaces, reused likewise.
    old: Vec<u8>,
    replicas: Vec<Replica>,
    config: ClusterConfig,
    probe: Probe,
    /// Round-robin cursor for offloaded reads.
    next_read: usize,
}

impl<D: BlockDevice> ClusterGroup<D> {
    /// Wraps `device` (the primary image) and the replica transports.
    ///
    /// All replicas start [`ReplicaState::Online`] and are taken to be
    /// copies of `device` (e.g. all-zero devices all around, or an
    /// out-of-band copy). A replica that is not one catches up through
    /// [`scrub`](Self::scrub).
    pub fn new(device: D, config: ClusterConfig, transports: Vec<Box<dyn Transport>>) -> Self {
        Self {
            device: TrapDevice::new(device),
            payload: Vec::new(),
            old: Vec::new(),
            replicas: transports
                .into_iter()
                .enumerate()
                .map(|(idx, transport)| Replica::new(idx, transport))
                .collect(),
            config,
            probe: Probe::default(),
            next_read: 0,
        }
    }

    /// Attaches a metrics registry: from here on the cluster records
    /// lifecycle transitions as `state-change` events, resync progress
    /// as `resync-batch` events plus per-replica
    /// `replica{idx}_dirty_blocks` / `replica{idx}_resync_pending`
    /// gauges, and acknowledgement round-trips in the
    /// `cluster_ack_rtt_nanos` histogram. `clock` timestamps the
    /// events — pass the transports' [`SimClock`](prins_net::SimClock)
    /// for deterministic traces under simulation.
    pub fn attach_observer(&mut self, registry: Arc<Registry>, clock: Arc<dyn Clock>) {
        self.probe.observe(Plane::Group, registry, clock);
    }

    /// Attaches a trace sink: from here on every foreground write (and
    /// every offloaded read) mints a deterministic [`TraceId`] tagged
    /// with `shard` and records its replica fan-out — per-replica send,
    /// acknowledgement, wrong-epoch drop, or error — as trace hops.
    /// Share one sink across groups (and with a traced engine) for
    /// cluster-wide tail attribution; `clock` timestamps the hops —
    /// pass the transports' [`SimClock`](prins_net::SimClock) for
    /// deterministic traces under simulation.
    pub(crate) fn attach_tracer(
        &mut self,
        sink: Arc<TraceSink>,
        shard: u32,
        clock: Arc<dyn Clock>,
    ) {
        self.probe.trace_into(sink, shard, clock);
    }

    /// The primary device (wrapped with the parity log).
    pub fn device(&self) -> &TrapDevice<D> {
        &self.device
    }

    /// The primary's parity log — the delta-resync source.
    pub fn log(&self) -> &TrapLog {
        self.device.log()
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Lifecycle state of replica `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn state(&self, idx: usize) -> ReplicaState {
        self.replicas[idx].state
    }

    /// Status snapshot of replica `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn status(&self, idx: usize) -> ReplicaStatus {
        let r = &self.replicas[idx];
        ReplicaStatus {
            state: r.state,
            dirty_blocks: r.dirty.len(),
            foreground_bytes: r.foreground_bytes,
            resync_bytes: r.resync_bytes,
            scrub_bytes: r.scrub_bytes,
            read_bytes: r.read_bytes,
            deferred_writes: r.deferred_writes,
            acked_writes: r.acked_writes,
            in_flight: r.link.in_flight().len(),
        }
    }

    /// Applies one write to the primary and replicates it to every
    /// replica the lifecycle allows, degrading instead of aborting.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::Block`] if the *primary* write fails (nothing
    ///   was replicated),
    /// * [`ClusterError::QuorumLost`] if fewer than the configured
    ///   quorum acknowledged — the primary and the acknowledging
    ///   replicas have applied the write regardless.
    pub fn write(&mut self, lba: Lba, new: &[u8]) -> Result<WriteOutcome, ClusterError> {
        self.old
            .resize(self.device.geometry().block_size().bytes(), 0);
        self.device.read_block(lba, &mut self.old)?;
        // One scan of the two images: the log keeps the plan's parity
        // and the frame ships it (or the full image, where the parity
        // would be no smaller).
        let mut plan = SparseCodec::default().plan_delta(&self.old, new);
        let seq = self.device.write_planned(lba, &plan)?;
        self.payload.clear();
        PrinsReplicator::new()
            .encode_planned(lba, &mut plan, usize::MAX, &mut self.payload)
            .expect("every frame fits usize::MAX");
        // The plan borrows `self.old`; the fan-out below needs `self`.
        drop(plan);

        // One trace per cluster write; its hold keeps it open across
        // the replica fan-out and is released at the end of this call,
        // so with a pipelined window the trace finalizes on whichever
        // later collection retires the last acknowledgement.
        let tid = self.probe.begin();

        let mut outcome = WriteOutcome {
            seq,
            acked: 0,
            deferred: 0,
            skipped: 0,
        };
        for idx in 0..self.replicas.len() {
            match self.route_write(idx, lba) {
                Route::Send => {
                    let payload = &self.payload;
                    let r = &mut self.replicas[idx];
                    let fill = |out: &mut Vec<u8>| out.extend_from_slice(payload);
                    match r.link.send((tid, Some((lba, seq))), ACK, fill) {
                        Ok(sealed_len) => {
                            r.foreground_bytes += sealed_len as u64;
                            self.probe.sent(tid, idx);
                        }
                        // The frame never left: the replica certainly
                        // did not apply it.
                        Err(_) => {
                            self.probe.send_failed(tid, idx);
                            self.note_failure(idx, Some((lba, seq)), false);
                        }
                    }
                }
                Route::Defer => {
                    self.replicas[idx].deferred_writes += 1;
                    outcome.deferred += 1;
                }
                Route::Skip => {
                    self.replicas[idx].dirty.mark(lba, seq);
                    outcome.skipped += 1;
                }
            }
        }
        // Collect acknowledgements only where the window is full; with
        // the default window of 1 every sent write is awaited right
        // here (the closed-loop model). Acks retire writes
        // oldest-first, matching the transport's FIFO delivery.
        let window = self.config.ack_window.max(1);
        for idx in 0..self.replicas.len() {
            while self.replicas[idx].link.in_flight().len() >= window {
                if self.collect_oldest(idx) == Some((lba, seq)) {
                    outcome.acked += 1;
                }
            }
        }
        // Under a pipelined window a replica still holding this write
        // in flight counts toward quorum optimistically; if its ack
        // later fails, the replica degrades and the write is marked
        // dirty for resync.
        let in_flight = self
            .replicas
            .iter()
            .filter(|r| r.link.in_flight().any(|&(_, w)| w == Some((lba, seq))))
            .count();
        // With everything acknowledged the trace finalizes here; under
        // a pipelined window it stays open until the last outstanding
        // acknowledgement is collected.
        self.probe.released(tid);
        if outcome.acked + in_flight < self.config.write_quorum {
            return Err(ClusterError::QuorumLost {
                acked: outcome.acked,
                quorum: self.config.write_quorum,
            });
        }
        Ok(outcome)
    }

    /// Serves a read, offloading it to an in-sync replica when the
    /// freshness guard allows and falling back to the primary image
    /// otherwise — the scale-out read path.
    ///
    /// Replicas are tried round-robin. A candidate serves the read only
    /// if it is [`ReplicaState::Online`] with no dirty or in-flight
    /// state for `lba` (in-flight acks are collected first, so the
    /// request rides the same FIFO as the writes it must follow). The
    /// response is epoch-guarded like every acknowledgement: a replica
    /// answer stranded from before a failure or rejoin carries an older
    /// epoch and is dropped, so an offloaded read can never observe
    /// pre-rejoin state. Every rejected candidate counts in
    /// [`ReadOutcome::rejected`] (and the `read_rejected_stale`
    /// counter); a served offload increments `reads_offloaded`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Block`] if the primary fallback read fails.
    /// Replica-side failures degrade that replica and fall through to
    /// the next candidate — a read offload failure is never fatal.
    pub fn read(&mut self, lba: Lba) -> Result<ReadOutcome, ClusterError> {
        let n = self.replicas.len();
        let mut rejected = 0usize;
        // Offloaded reads get their own trace: one hop per rejected
        // candidate, completed by whichever source served the block.
        let tid = self.probe.begin();
        for attempt in 0..n {
            let idx = (self.next_read + attempt) % n;
            match self.read_offload(idx, lba, tid) {
                Ok(Some(data)) => {
                    self.next_read = (idx + 1) % n.max(1);
                    self.probe.read_served(tid, Some(idx));
                    return Ok(ReadOutcome {
                        data,
                        source: Some(idx),
                        rejected,
                    });
                }
                // Guard rejection or a degraded replica: try the next.
                Ok(None) | Err(_) => {
                    rejected += 1;
                    self.probe.read_rejected(tid, idx);
                }
            }
        }
        let data = self.device.read_block_vec(lba)?;
        self.probe.read_served(tid, None);
        Ok(ReadOutcome {
            data,
            source: None,
            rejected,
        })
    }

    /// Attempts to serve `lba` from replica `idx`. `Ok(None)` means the
    /// freshness guard refused (not an error — the caller falls back);
    /// `Err` means the replica failed mid-read and has been degraded.
    fn read_offload(
        &mut self,
        idx: usize,
        lba: Lba,
        tid: Option<TraceId>,
    ) -> Result<Option<Vec<u8>>, ClusterError> {
        if !self.replicas[idx].serves(lba) {
            return Ok(None);
        }
        // Align the FIFO: collect in-flight write acks so the read
        // request is answered after every write it must reflect. The
        // drain may degrade the replica — re-check.
        self.drain_replica(idx);
        if !self.replicas[idx].serves(lba) {
            return Ok(None);
        }
        let (sealed_len, answer) =
            self.request(idx, tid, READ_ACK, |out| Request::Read(lba).put(out));
        self.replicas[idx].read_bytes += sealed_len as u64;
        let bs = self.device.geometry().block_size().bytes();
        let read = answer.and_then(|image| {
            let sparse = SparseCodec::default().decode(image.body(), bs)?;
            Ok(sparse.to_dense(bs))
        });
        match read {
            Ok(data) => {
                self.replicas[idx].consecutive_failures = 0;
                Ok(Some(data))
            }
            Err(e) => {
                self.note_failure(idx, None, false);
                Err(e.into())
            }
        }
    }

    /// Asks replica `idx` one read-side question; callers have drained
    /// it first (see [`Probe::request`]). The question closes its epoch:
    /// a surplus copy of its answer (a duplicated read ack) is stale to
    /// whatever is sent or asked next, instead of answering the next
    /// read by position.
    fn request(
        &mut self,
        idx: usize,
        tid: Option<TraceId>,
        want: u8,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> (usize, Result<Response, ReplError>) {
        let link = &mut self.replicas[idx].link;
        let timeout = self.config.ack_timeout;
        let asked = self
            .probe
            .request(idx, link, timeout, (tid, None), want, fill);
        link.abandon();
        asked
    }

    /// Opens a new response generation on every replica — the migration
    /// cutover barrier. In-flight traffic is settled first; any
    /// response still on its way after that (e.g. an ack stranded on a
    /// slow link while the shard moved away) answers a frame from an
    /// older epoch and is dropped deterministically instead of being
    /// matched against post-cutover traffic.
    pub(crate) fn bump_epochs(&mut self) {
        self.drain();
        for r in &mut self.replicas {
            r.link.abandon();
        }
    }

    /// Collects every outstanding foreground acknowledgement — the
    /// barrier a flush needs when [`ClusterConfig::ack_window`] > 1.
    /// Collection failures degrade the owning replica (and mark the
    /// write dirty) rather than aborting the drain.
    ///
    /// Returns the number of writes confirmed by this call.
    pub fn drain(&mut self) -> usize {
        (0..self.replicas.len())
            .map(|idx| self.drain_replica(idx))
            .sum()
    }

    /// Collects all of replica `idx`'s in-flight acknowledgements.
    fn drain_replica(&mut self, idx: usize) -> usize {
        let mut retired = 0;
        while self.replicas[idx].link.in_flight().len() > 0 {
            if self.collect_oldest(idx).is_some() {
                retired += 1;
            }
        }
        retired
    }

    /// Retires replica `idx`'s oldest in-flight write by collecting one
    /// acknowledgement. Returns the retired `(lba, seq)` on success; on
    /// failure the replica degrades and the write is marked dirty.
    fn collect_oldest(&mut self, idx: usize) -> Option<(Lba, u64)> {
        let link = &mut self.replicas[idx].link;
        let ack = self.probe.collect(idx, link, self.config.ack_timeout);
        match ack.answer {
            Ok(_) => {
                self.probe.acked(idx, ack.trace, ack.waited);
                let r = &mut self.replicas[idx];
                r.consecutive_failures = 0;
                r.acked_writes += 1;
                ack.tag
            }
            Err(e) => {
                self.probe.ack_failed(idx, ack.trace, ack.waited, &e);
                // The frame *was* sent; the replica may have applied it
                // before the link died. Replaying its parity chain
                // could double-XOR, so the block is uncertain.
                self.note_failure(idx, ack.tag, true);
                None
            }
        }
    }

    /// Starts catching replica `idx` up, moving it to
    /// [`ReplicaState::Resyncing`]. Its dirty map is the plan: each
    /// [`resync_step`](Self::resync_step) replays the primary's parity
    /// log for the next dirty blocks, each block's missed chain folded
    /// into one parity frame, or its full image where its base is
    /// unknown (uncertain) or its chain was pruned. Foreground writes
    /// may be interleaved between steps; a write to a dirty block rides
    /// that block's frame.
    ///
    /// The dirty map is all a rejoin catches up. A replica that is not
    /// a copy of the primary catches up through [`scrub`](Self::scrub),
    /// which marks every divergent block uncertain and rejoins.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidTransition`] unless the replica is
    /// Offline or Lagging.
    pub fn rejoin(&mut self, idx: usize) -> Result<(), ClusterError> {
        self.check_idx(idx)?;
        // Settle any in-flight acks first so failures land in the dirty
        // map before the resync reads it.
        self.drain_replica(idx);
        self.transition(idx, ReplicaState::Resyncing)?;
        // A rejoin opens a fresh response generation. Stray responses
        // still queued from before the outage are noise (their writes
        // already booked as failed, their blocks marked uncertain) —
        // they carry an older epoch, so the link drops them on sight
        // instead of guessing with a skip budget.
        self.replicas[idx].link.abandon();
        self.publish_replica_gauges(idx);
        Ok(())
    }

    /// Sends the resync frames of replica `idx`'s first `max_frames`
    /// dirty blocks (in LBA order) and waits for their
    /// acknowledgements. When no dirty block is left, the replica
    /// transitions back to [`ReplicaState::Online`].
    ///
    /// Returns the number of blocks still dirty (0 = resync done).
    ///
    /// # Errors
    ///
    /// On any transport/ack failure the resync aborts and the replica
    /// goes [`ReplicaState::Offline`]; per-frame progress acknowledged
    /// by earlier steps is retained in the dirty map, so a later rejoin
    /// resumes rather than repeats.
    pub fn resync_step(&mut self, idx: usize, max_frames: usize) -> Result<usize, ClusterError> {
        self.check_idx(idx)?;
        self.expect_state(idx, ReplicaState::Resyncing)?;
        // Resync frames share the transport with foreground acks; under
        // a pipelined window, collect those first so the FIFO ack
        // stream stays aligned with the frames sent below. A failure
        // there aborts the resync (the drain took the replica Offline).
        self.drain_replica(idx);
        self.expect_state(idx, ReplicaState::Resyncing)?;

        // Send a batch (pipelined), one frame per block built from the
        // log as it goes out, then collect its acks, recording
        // per-frame progress; the first failure of either kind ends
        // the step.
        let mut batch: Vec<SentFrame> = Vec::new();
        let mut failed = None;
        let mut next = Lba(0);
        while batch.len() < max_frames && failed.is_none() {
            let Some((lba, missed_from)) = self.replicas[idx].dirty.iter_from(next).next() else {
                break;
            };
            next = Lba(lba.index() + 1);
            match self.send_resync_frame(idx, lba, missed_from) {
                Ok(Some(frame)) => batch.push(frame),
                // Nothing was logged since the miss: nothing to send.
                Ok(None) => self.replicas[idx].dirty.clear(lba),
                Err(e) => failed = Some(e),
            }
        }
        for frame in &batch {
            if failed.is_some() {
                break;
            }
            let link = &mut self.replicas[idx].link;
            let ack = self.probe.collect(idx, link, self.config.ack_timeout);
            match ack.answer {
                Ok(_) => {
                    self.probe.acked(idx, None, ack.waited);
                    self.resync_frame_acked(idx, frame);
                }
                Err(e) => {
                    self.probe.ack_failed(idx, None, ack.waited, &e);
                    failed = Some(e.into());
                }
            }
        }
        if let Some(e) = failed {
            // The rest of the batch is given up on; its answers can
            // surface late, so the link closes the generation and they
            // are dropped by tag, not guessed at by count.
            self.replicas[idx].link.abandon();
            // Credit inside an errored batch is unattributable: acks
            // carry no frame identity, so a silently lost repair frame
            // shifts every later ack one frame forward and an
            // "acknowledged" frame may in truth be unapplied (the
            // fuzzer minimizes this to a dropped resync frame plus one
            // healthy neighbour). Re-mark the *whole* batch — acked
            // prefix included — so the next attempt ships full images
            // for all of it.
            for frame in &batch {
                self.replicas[idx]
                    .dirty
                    .mark_uncertain(frame.lba, frame.mark_from);
            }
            self.note_failure(idx, None, false);
            self.publish_replica_gauges(idx);
            return Err(e);
        }

        let remaining = self.replicas[idx].dirty.len();
        if remaining == 0 {
            self.replicas[idx].consecutive_failures = 0;
        }
        self.probe.resync_batch(idx, batch.len(), remaining);
        self.publish_replica_gauges(idx);
        if remaining == 0 {
            self.transition(idx, ReplicaState::Online)?;
        }
        Ok(remaining)
    }

    /// Builds `lba`'s resync frame from the log and puts it on replica
    /// `idx`'s wire: the block's full image where its base is unknown
    /// (uncertain) or the log is pruned past its first miss, else its
    /// chain from `missed_from` folded into one parity (XOR composes).
    /// Returns `None`, sending nothing, if that chain is empty.
    ///
    /// One frame per block is also a safety property: a lost frame can
    /// never leave a same-block successor in the batch to XOR against
    /// a base missing it.
    fn send_resync_frame(
        &mut self,
        idx: usize,
        lba: Lba,
        missed_from: u64,
    ) -> Result<Option<SentFrame>, ClusterError> {
        let log = self.device.log();
        let r = &mut self.replicas[idx];
        let (sent, mark_from, parity) =
            if log.pruned_through() >= missed_from || r.dirty.is_uncertain(lba) {
                let block = self.device.read_block_vec(lba)?;
                let fill = |out: &mut Vec<u8>| put_full(out, lba, &block);
                (r.link.send((None, None), ACK, fill), missed_from, false)
            } else if let Some((seq, folded)) = log.fold_since(lba, missed_from, None, fold_entry) {
                let body = |out: &mut Vec<u8>| out.extend_from_slice(folded.as_bytes());
                let fill = |out: &mut Vec<u8>| put_parity(out, lba, body);
                (r.link.send((None, None), ACK, fill), seq, true)
            } else {
                return Ok(None);
            };
        r.resync_bytes += sent? as u64;
        Ok(Some(SentFrame {
            lba,
            mark_from,
            parity,
        }))
    }

    /// Books replica `idx`'s acknowledgement of one resync frame.
    fn resync_frame_acked(&mut self, idx: usize, frame: &SentFrame) {
        // A parity brings the replica's copy through its last entry;
        // entries logged after it keep the block dirty from there.
        let from = frame.mark_from + 1;
        let more = frame.parity && self.log().fold_since(frame.lba, from, false, |_, _| true);
        let dirty = &mut self.replicas[idx].dirty;
        dirty.clear(frame.lba);
        if more {
            dirty.mark(frame.lba, from);
        }
    }

    /// Refreshes replica `idx`'s resync-progress gauges.
    fn publish_replica_gauges(&self, idx: usize) {
        let r = &self.replicas[idx];
        let pending = if r.state == ReplicaState::Resyncing {
            r.dirty.len()
        } else {
            0
        };
        self.probe.gauges(idx, r.dirty.len(), pending);
    }

    /// Runs [`resync_step`](Self::resync_step) until no dirty block is
    /// left.
    ///
    /// # Errors
    ///
    /// As [`resync_step`](Self::resync_step).
    pub fn resync_to_completion(&mut self, idx: usize, batch: usize) -> Result<(), ClusterError> {
        while self.resync_step(idx, batch.max(1))? > 0 {}
        Ok(())
    }

    /// Background-scrubs replica `idx` over `lbas`: asks the replica to
    /// digest each block *as read back from its own disk* and compares
    /// against the primary's image. Divergent blocks — silent media
    /// corruption no wire checksum can see — are marked uncertain and
    /// repaired through the regular resync path (full image per block).
    ///
    /// Only an [`ReplicaState::Online`] replica is scrubbed; in-flight
    /// foreground acks are drained first so digest responses stay
    /// aligned with the probes.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownReplica`] for a bad index;
    /// [`ClusterError::InvalidTransition`] if the replica is not
    /// Online (or a pre-scrub drain degraded it); any transport,
    /// block, or resync error aborts the pass with the usual
    /// degradation bookkeeping — a later scrub or rejoin resumes.
    pub(crate) fn scrub_replica(
        &mut self,
        idx: usize,
        lbas: &[Lba],
    ) -> Result<ScrubOutcome, ClusterError> {
        self.check_idx(idx)?;
        self.drain_replica(idx);
        self.expect_state(idx, ReplicaState::Online)?;
        let mut outcome = ScrubOutcome::default();
        let mut divergent: Vec<Lba> = Vec::new();
        for &lba in lbas {
            let (sealed_len, answer) =
                self.request(idx, None, DIGEST_ACK, |out| Request::Digest(lba).put(out));
            self.replicas[idx].scrub_bytes += sealed_len as u64;
            let digest = match answer {
                Ok(response) => response.digest(),
                Err(e) => {
                    self.note_failure(idx, None, false);
                    return Err(e.into());
                }
            };
            outcome.probed += 1;
            if digest != Some(crc32c(&self.device.read_block_vec(lba)?)) {
                divergent.push(lba);
            }
        }
        if divergent.is_empty() {
            return Ok(outcome);
        }
        outcome.mismatched = divergent.len();
        // The replica's copy of each divergent block is wrong in an
        // unknown way, so mark it uncertain: the rejoin must ship a
        // full image, never a parity chain XORed over a corrupt base.
        let seq = self.log().current_seq();
        for &lba in &divergent {
            self.replicas[idx].dirty.mark_uncertain(lba, seq);
        }
        self.transition(idx, ReplicaState::Lagging)?;
        self.rejoin(idx)?;
        self.resync_to_completion(idx, divergent.len())?;
        outcome.repaired = divergent.len();
        self.probe.scrub_repaired(outcome.repaired);
        Ok(outcome)
    }

    /// Scrubs every Online replica over a sampled LBA set: every
    /// `stride`-th block starting at `offset` (stride 1 = the whole
    /// volume). Replicas in any other state are skipped — their blocks
    /// are already covered by the dirty map and resync.
    ///
    /// Returns `(replica, outcome)` per scrubbed replica.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidTransition`] if a pre-scrub drain degraded
    /// a replica; any transport, block, or resync error aborts the pass
    /// with the usual degradation bookkeeping — a later scrub or rejoin
    /// resumes.
    pub fn scrub(
        &mut self,
        offset: u64,
        stride: u64,
    ) -> Result<Vec<(usize, ScrubOutcome)>, ClusterError> {
        let lbas: Vec<Lba> = self
            .device
            .geometry()
            .range()
            .iter()
            .skip(offset as usize)
            .step_by(stride.max(1) as usize)
            .collect();
        let mut outcomes = Vec::new();
        for idx in 0..self.replicas.len() {
            if self.replicas[idx].state != ReplicaState::Online {
                continue;
            }
            outcomes.push((idx, self.scrub_replica(idx, &lbas)?));
        }
        Ok(outcomes)
    }

    fn check_idx(&self, idx: usize) -> Result<(), ClusterError> {
        if idx < self.replicas.len() {
            Ok(())
        } else {
            Err(ClusterError::UnknownReplica(idx))
        }
    }

    fn transition(&mut self, idx: usize, to: ReplicaState) -> Result<(), ClusterError> {
        let from = self.replicas[idx].state;
        if !from.can_transition(to) {
            return Err(ClusterError::InvalidTransition {
                replica: idx,
                from,
                to,
            });
        }
        self.replicas[idx].state = to;
        self.probe.state_change(idx, from, to);
        Ok(())
    }

    /// Errs unless replica `idx` is in state `want`.
    fn expect_state(&self, idx: usize, want: ReplicaState) -> Result<(), ClusterError> {
        match self.replicas[idx].state {
            from if from == want => Ok(()),
            from => Err(ClusterError::InvalidTransition {
                replica: idx,
                from,
                to: want,
            }),
        }
    }

    /// Decides what to do with a foreground write for replica `idx`.
    fn route_write(&self, idx: usize, lba: Lba) -> Route {
        let r = &self.replicas[idx];
        match r.state {
            ReplicaState::Offline => Route::Skip,
            ReplicaState::Online => Route::Send,
            // A parity for a block the replica is stale on would be
            // XORed into the wrong base image — defer it: the block's
            // resync frame reads the log when it is sent.
            ReplicaState::Lagging | ReplicaState::Resyncing => {
                if r.dirty.contains(lba) {
                    Route::Defer
                } else {
                    Route::Send
                }
            }
        }
    }

    /// Books a send/ack failure: dirty marking, failure counting, and
    /// the lifecycle transition it triggers. `uncertain` says whether
    /// the frame was handed to the transport (delivery unknown — see
    /// [`DirtyMap::mark_uncertain`]) or never left the primary.
    fn note_failure(&mut self, idx: usize, write: Option<(Lba, u64)>, uncertain: bool) {
        let r = &mut self.replicas[idx];
        if let Some((lba, seq)) = write {
            if uncertain {
                r.dirty.mark_uncertain(lba, seq);
            } else {
                r.dirty.mark(lba, seq);
            }
        }
        r.consecutive_failures += 1;
        let from = r.state;
        let give_up = r.consecutive_failures >= self.config.offline_after;
        r.state = match from {
            ReplicaState::Online | ReplicaState::Lagging if !give_up => ReplicaState::Lagging,
            // A failed resync never limps on: a later rejoin resumes
            // from the dirty map.
            _ => ReplicaState::Offline,
        };
        let to = r.state;
        self.probe.state_change(idx, from, to);
    }
}

enum Route {
    Send,
    Defer,
    Skip,
}

/// Folds one log entry into a block's replay parity (XOR composes),
/// keeping the sequence number of the last entry folded in.
fn fold_entry(acc: Option<(u64, SparseParity)>, e: &TrapEntry) -> Option<(u64, SparseParity)> {
    let parity = match acc {
        Some((_, acc)) => acc.fold(&e.parity),
        None => e.parity.clone(),
    };
    Some((e.seq, parity))
}

impl<D: BlockDevice> std::fmt::Debug for ClusterGroup<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let states: Vec<String> = self.replicas.iter().map(|r| r.state.to_string()).collect();
        f.debug_struct("ClusterGroup")
            .field("replicas", &states)
            .field("seq", &self.log().current_seq())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::{BlockSize, MemDevice};
    use prins_net::{channel_pair, FaultTransport, LinkHandle, LinkModel};
    use prins_repl::{encode_ack, verify_consistent, NAK};
    use rand::{RngExt, SeedableRng};
    use std::sync::Arc;

    struct Harness {
        cluster: ClusterGroup<MemDevice>,
        devices: Vec<Arc<MemDevice>>,
        links: Vec<LinkHandle>,
        workers: Vec<std::thread::JoinHandle<Result<u64, ReplError>>>,
    }

    fn harness(n: usize, blocks: u64, config: ClusterConfig) -> Harness {
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        let mut devices = Vec::new();
        let mut links = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..n {
            let (primary_side, replica_side) = channel_pair(LinkModel::t1());
            let (faulty, link) = FaultTransport::new(primary_side);
            let device = Arc::new(MemDevice::new(BlockSize::kb4(), blocks));
            let dev = Arc::clone(&device);
            workers.push(std::thread::spawn(move || {
                prins_repl::run_replica(&*dev, &replica_side)
            }));
            transports.push(Box::new(faulty));
            devices.push(device);
            links.push(link);
        }
        let cluster =
            ClusterGroup::new(MemDevice::new(BlockSize::kb4(), blocks), config, transports);
        Harness {
            cluster,
            devices,
            links,
            workers,
        }
    }

    fn random_write(
        cluster: &mut ClusterGroup<MemDevice>,
        rng: &mut rand::rngs::StdRng,
        blocks: u64,
    ) -> Result<WriteOutcome, ClusterError> {
        let lba = Lba(rng.random_range(0..blocks));
        let mut block = cluster.device().read_block_vec(lba).unwrap();
        let at = rng.random_range(0..block.len() - 64);
        for b in &mut block[at..at + 64] {
            *b = rng.random();
        }
        cluster.write(lba, &block)
    }

    fn finish(h: Harness) -> Vec<Arc<MemDevice>> {
        let Harness {
            cluster,
            devices,
            workers,
            ..
        } = h;
        drop(cluster);
        for w in workers {
            w.join().unwrap().unwrap();
        }
        devices
    }

    #[test]
    fn healthy_cluster_replicates_and_converges() {
        let mut h = harness(2, 16, ClusterConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..40 {
            let outcome = random_write(&mut h.cluster, &mut rng, 16).unwrap();
            assert_eq!(outcome.acked, 2);
        }
        assert_eq!(h.cluster.state(0), ReplicaState::Online);
        for dev in &h.devices {
            assert!(verify_consistent(h.cluster.device(), &**dev).unwrap());
        }
        finish(h);
    }

    #[test]
    fn reads_offload_round_robin_and_reject_lagging_replicas() {
        let registry = prins_obs::Registry::new();
        let clock = prins_net::SimClock::new();
        let mut h = harness(2, 8, ClusterConfig::default());
        h.cluster
            .attach_observer(Arc::clone(&registry), clock.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..8 {
            random_write(&mut h.cluster, &mut rng, 8).unwrap();
        }

        // In-sync replicas serve reads round-robin, byte-identical to
        // the primary image.
        let want = h.cluster.device().read_block_vec(Lba(3)).unwrap();
        let r = h.cluster.read(Lba(3)).unwrap();
        assert_eq!(r.data, want);
        assert_eq!(r.source, Some(0));
        assert_eq!(r.rejected, 0);
        let r = h.cluster.read(Lba(3)).unwrap();
        assert_eq!((r.data, r.source), (want.clone(), Some(1)));
        assert_eq!(registry.snapshot().counters["reads_offloaded"], 2);

        // Degrade replica 0: its candidacy is rejected by the guard and
        // the read falls through to replica 1 — never stale data.
        h.links[0].sever();
        let outcome = random_write(&mut h.cluster, &mut rng, 8).unwrap();
        assert_eq!(outcome.acked, 1);
        assert_eq!(h.cluster.state(0), ReplicaState::Lagging);
        let want: Vec<Vec<u8>> = (0..8)
            .map(|i| h.cluster.device().read_block_vec(Lba(i)).unwrap())
            .collect();
        for i in 0..8u64 {
            let r = h.cluster.read(Lba(i)).unwrap();
            assert_eq!(r.data, want[i as usize]);
            assert_eq!(r.source, Some(1), "lagging replica 0 must not serve");
        }
        assert!(registry.snapshot().counters["read_rejected_stale"] > 0);

        // After rejoin and resync the replica serves again.
        h.links[0].restore();
        h.cluster.rejoin(0).unwrap();
        h.cluster.resync_to_completion(0, 16).unwrap();
        let r = h.cluster.read(Lba(5)).unwrap();
        assert_eq!(r.data, want[5]);
        assert_eq!(r.source, Some(0));
        finish(h);
    }

    #[test]
    fn link_drop_degrades_instead_of_aborting() {
        let config = ClusterConfig {
            offline_after: 2,
            ..ClusterConfig::default()
        };
        let mut h = harness(2, 16, config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        random_write(&mut h.cluster, &mut rng, 16).unwrap();

        h.links[0].sever();
        // First failure: Online -> Lagging; second (distinct clean
        // block, so it is attempted): -> Offline.
        let o = h.cluster.write(Lba(0), &[1u8; 4096]).unwrap();
        assert_eq!((o.acked, o.skipped), (1, 0));
        assert_eq!(h.cluster.state(0), ReplicaState::Lagging);
        let o = h.cluster.write(Lba(1), &[2u8; 4096]).unwrap();
        assert_eq!(h.cluster.state(0), ReplicaState::Offline);
        assert_eq!(o.acked, 1);
        // Offline replica is skipped entirely, writes keep succeeding.
        let o = random_write(&mut h.cluster, &mut rng, 16).unwrap();
        assert_eq!((o.acked, o.skipped), (1, 1));
        assert!(h.cluster.status(0).dirty_blocks > 0);
        assert_eq!(h.cluster.state(1), ReplicaState::Online);
    }

    #[test]
    fn quorum_loss_is_reported_but_write_applies() {
        let config = ClusterConfig {
            write_quorum: 1,
            offline_after: 1,
            ..ClusterConfig::default()
        };
        let mut h = harness(1, 8, config);
        h.links[0].sever();
        let err = h.cluster.write(Lba(0), &[7u8; 4096]).unwrap_err();
        assert!(matches!(
            err,
            ClusterError::QuorumLost {
                acked: 0,
                quorum: 1
            }
        ));
        // The primary applied the write regardless.
        assert_eq!(
            h.cluster.device().read_block_vec(Lba(0)).unwrap(),
            vec![7u8; 4096]
        );
    }

    #[test]
    fn nak_from_fault_device_degrades_replica() {
        // One replica's device is too small: every write NAKs there.
        let (primary_side, replica_side) = channel_pair(LinkModel::t1());
        let tiny = Arc::new(MemDevice::new(BlockSize::kb4(), 1));
        let dev = Arc::clone(&tiny);
        let worker = std::thread::spawn(move || prins_repl::run_replica(&*dev, &replica_side));
        let config = ClusterConfig {
            offline_after: 1,
            ack_timeout: Duration::from_secs(2),
            ..ClusterConfig::default()
        };
        let mut cluster = ClusterGroup::new(
            MemDevice::new(BlockSize::kb4(), 8),
            config,
            vec![Box::new(primary_side)],
        );
        let outcome = cluster.write(Lba(5), &[1u8; 4096]).unwrap();
        assert_eq!(outcome.acked, 0);
        assert_eq!(cluster.state(0), ReplicaState::Offline);
        assert!(worker.join().unwrap().is_err());
    }

    #[test]
    fn outage_and_rejoin() {
        let config = ClusterConfig {
            offline_after: 1,
            ..ClusterConfig::default()
        };
        let blocks = 32;
        let mut h = harness(2, blocks, config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..20 {
            random_write(&mut h.cluster, &mut rng, blocks).unwrap();
        }

        // Outage: replica 0 misses 30 writes.
        h.links[0].sever();
        for _ in 0..30 {
            random_write(&mut h.cluster, &mut rng, blocks).unwrap();
        }
        assert_eq!(h.cluster.state(0), ReplicaState::Offline);

        // Rejoin and resync in small steps with interleaved writes.
        h.links[0].restore();
        h.cluster.rejoin(0).unwrap();
        assert_eq!(h.cluster.state(0), ReplicaState::Resyncing);
        loop {
            let remaining = h.cluster.resync_step(0, 4).unwrap();
            if remaining == 0 {
                break;
            }
            random_write(&mut h.cluster, &mut rng, blocks).unwrap();
        }
        assert_eq!(h.cluster.state(0), ReplicaState::Online);
        assert_eq!(h.cluster.status(0).dirty_blocks, 0);

        // Post-resync writes replicate everywhere again.
        for _ in 0..10 {
            let o = random_write(&mut h.cluster, &mut rng, blocks).unwrap();
            assert_eq!(o.acked, 2);
        }

        for dev in &h.devices {
            assert!(verify_consistent(h.cluster.device(), &**dev).unwrap());
        }
        finish(h);
    }

    #[test]
    fn parity_log_resync_folds_same_block_chain_into_one_frame() {
        let config = ClusterConfig {
            offline_after: 1,
            ..ClusterConfig::default()
        };
        let mut h = harness(2, 8, config);
        h.cluster.write(Lba(6), &[1u8; 4096]).unwrap();

        // Degrade on a sacrificial block, then miss a three-write chain
        // to block 6 while offline (clean certain misses, no frame ever
        // handed to the transport).
        h.links[0].sever();
        h.cluster.write(Lba(0), &[9u8; 4096]).unwrap();
        assert_eq!(h.cluster.state(0), ReplicaState::Offline);
        for tag in 2u8..=4 {
            h.cluster.write(Lba(6), &[tag; 4096]).unwrap();
        }

        // Four missed writes across two blocks, but block 6's chain
        // folds into one parity frame: a single two-frame step must
        // finish the whole resync. Shipping the chain frame-by-frame
        // would both cost more and reopen the lost-frame/stale-base
        // window inside a pipelined batch.
        h.links[0].restore();
        h.cluster.rejoin(0).unwrap();
        let remaining = h.cluster.resync_step(0, 2).unwrap();
        assert_eq!(remaining, 0, "two frames must cover both blocks");
        assert_eq!(h.cluster.state(0), ReplicaState::Online);
        for dev in &h.devices {
            assert!(verify_consistent(h.cluster.device(), &**dev).unwrap());
        }
        finish(h);
    }

    /// Frames the `resync-batch` events say were sent.
    fn resync_frames(registry: &prins_obs::Registry) -> u32 {
        let ring = registry.events();
        let events = ring.events();
        events
            .iter()
            .filter_map(|e| match e.kind {
                prins_obs::EventKind::ResyncBatch { sent, .. } => Some(sent),
                _ => None,
            })
            .sum()
    }

    #[test]
    fn writes_between_resync_steps_ride_their_blocks_one_frame() {
        let config = ClusterConfig {
            offline_after: 1,
            ..ClusterConfig::default()
        };
        let blocks = 16;
        let mut h = harness(1, blocks, config);
        let registry = prins_obs::Registry::new();
        h.cluster
            .attach_observer(Arc::clone(&registry), prins_net::SimClock::new());
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        h.links[0].sever();
        for _ in 0..24 {
            random_write(&mut h.cluster, &mut rng, blocks).unwrap();
        }
        h.links[0].restore();
        h.cluster.rejoin(0).unwrap();
        let dirty = h.cluster.status(0).dirty_blocks;
        // Between steps, write the last dirty block (its frame is not
        // sent yet, so the write is deferred into it) and a random one.
        while h.cluster.resync_step(0, 2).unwrap() > 0 {
            let (last, _) = h.cluster.replicas[0]
                .dirty
                .iter_from(Lba(0))
                .last()
                .unwrap();
            let mut block = h.cluster.device().read_block_vec(last).unwrap();
            block[100..164].fill(rng.random());
            h.cluster.write(last, &block).unwrap();
            random_write(&mut h.cluster, &mut rng, blocks).unwrap();
        }
        assert_eq!(h.cluster.state(0), ReplicaState::Online);
        // One frame per dirty block, however many writes it took
        // between steps.
        assert_eq!(dirty, 12);
        assert_eq!(resync_frames(&registry), 12);
        assert_eq!(h.cluster.status(0).resync_bytes, 1938);
        assert_eq!(h.cluster.status(0).deferred_writes, 7);
        for dev in &h.devices {
            assert!(verify_consistent(h.cluster.device(), &**dev).unwrap());
        }
        finish(h);
    }

    #[test]
    fn a_log_pruned_after_rejoin_ships_the_unsent_blocks_whole() {
        let config = ClusterConfig {
            offline_after: 1,
            ..ClusterConfig::default()
        };
        let blocks = 16;
        let mut h = harness(1, blocks, config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        h.links[0].sever();
        for _ in 0..20 {
            random_write(&mut h.cluster, &mut rng, blocks).unwrap();
        }
        h.links[0].restore();
        h.cluster.rejoin(0).unwrap();
        h.cluster.resync_step(0, 2).unwrap();
        let unsent = h.cluster.status(0).dirty_blocks as u64;
        let before = h.cluster.status(0).resync_bytes;
        assert!(unsent > 0);
        // The log loses every entry the unsent frames would replay.
        h.cluster.log().prune(h.cluster.log().current_seq());
        h.cluster.resync_to_completion(0, 4).unwrap();
        assert_eq!(h.cluster.state(0), ReplicaState::Online);
        let shipped = h.cluster.status(0).resync_bytes - before;
        assert!(
            shipped >= unsent * 4096,
            "{unsent} blocks shipped {shipped} bytes, not full images"
        );
        for dev in &h.devices {
            assert!(verify_consistent(h.cluster.device(), &**dev).unwrap());
        }
        finish(h);
    }

    #[test]
    fn parity_log_resync_is_far_cheaper_than_full_image() {
        let config = ClusterConfig {
            offline_after: 1,
            ..ClusterConfig::default()
        };
        let blocks = 64;
        let mut h = harness(1, blocks, config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        h.links[0].sever();
        for _ in 0..40 {
            random_write(&mut h.cluster, &mut rng, blocks).unwrap();
        }
        h.links[0].restore();
        h.cluster.rejoin(0).unwrap();
        h.cluster.resync_to_completion(0, 8).unwrap();
        let bytes = h.cluster.status(0).resync_bytes;
        for dev in &h.devices {
            assert!(verify_consistent(h.cluster.device(), &**dev).unwrap());
        }
        finish(h);
        let full_image = blocks * 4096;
        assert!(
            bytes * 10 < full_image,
            "parity-log {bytes} should be >10x below the {full_image}-byte volume image"
        );
    }

    #[test]
    fn a_replica_that_is_not_a_copy_catches_up_through_scrub() {
        // The primary holds data written before the group existed; the
        // replica is all zeros, so no parity chain has a base there.
        let blocks = 16;
        let primary = MemDevice::new(BlockSize::kb4(), blocks);
        let mut written = 0;
        for i in (0..blocks).step_by(3) {
            primary.write_block(Lba(i), &[i as u8 + 1; 4096]).unwrap();
            written += 1;
        }
        let (primary_side, replica_side) = channel_pair(LinkModel::t1());
        let replica = Arc::new(MemDevice::new(BlockSize::kb4(), blocks));
        let dev = Arc::clone(&replica);
        let worker = std::thread::spawn(move || prins_repl::run_replica(&*dev, &replica_side));
        let mut cluster = ClusterGroup::new(
            primary,
            ClusterConfig::default(),
            vec![Box::new(primary_side)],
        );

        let outcomes = cluster.scrub(0, 1).unwrap();
        let (_, o) = outcomes[0];
        assert_eq!(o.probed, blocks as usize);
        assert_eq!(o.repaired, written, "one repair per non-zero block");
        assert_eq!(cluster.state(0), ReplicaState::Online);
        assert!(verify_consistent(cluster.device(), &*replica).unwrap());
        drop(cluster);
        worker.join().unwrap().unwrap();
    }

    #[test]
    fn pruned_log_falls_back_to_full_blocks_and_still_converges() {
        let config = ClusterConfig {
            offline_after: 1,
            ..ClusterConfig::default()
        };
        let blocks = 16;
        let mut h = harness(1, blocks, config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        h.links[0].sever();
        for _ in 0..20 {
            random_write(&mut h.cluster, &mut rng, blocks).unwrap();
        }
        // Truncate the log past part of the outage window.
        let prune_to = h.cluster.log().current_seq() - 5;
        h.cluster.log().prune(prune_to);

        h.links[0].restore();
        h.cluster.rejoin(0).unwrap();
        h.cluster.resync_to_completion(0, 8).unwrap();
        assert_eq!(h.cluster.state(0), ReplicaState::Online);
        for dev in &h.devices {
            assert!(verify_consistent(h.cluster.device(), &**dev).unwrap());
        }
        finish(h);
    }

    #[test]
    fn failure_during_resync_goes_offline_and_can_retry() {
        let config = ClusterConfig {
            offline_after: 1,
            ack_timeout: Duration::from_millis(200),
            ..ClusterConfig::default()
        };
        let blocks = 16;
        let mut h = harness(1, blocks, config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        h.links[0].sever();
        for _ in 0..10 {
            random_write(&mut h.cluster, &mut rng, blocks).unwrap();
        }
        // Rejoin while the link is still down: the first step fails.
        h.cluster.rejoin(0).unwrap();
        assert!(h.cluster.resync_step(0, 4).is_err());
        assert_eq!(h.cluster.state(0), ReplicaState::Offline);

        // Second attempt with the link up succeeds.
        h.links[0].restore();
        h.cluster.rejoin(0).unwrap();
        h.cluster.resync_to_completion(0, 4).unwrap();
        assert_eq!(h.cluster.state(0), ReplicaState::Online);
        for dev in &h.devices {
            assert!(verify_consistent(h.cluster.device(), &**dev).unwrap());
        }
        finish(h);
    }

    #[test]
    fn lifecycle_guards_reject_bad_calls() {
        let mut h = harness(1, 8, ClusterConfig::default());
        assert!(matches!(
            h.cluster.rejoin(5),
            Err(ClusterError::UnknownReplica(5))
        ));
        // Online replicas have nothing to resync.
        assert!(matches!(
            h.cluster.rejoin(0),
            Err(ClusterError::InvalidTransition { .. })
        ));
        assert!(h.cluster.resync_step(0, 4).is_err());
    }

    #[test]
    fn windowed_acks_pipeline_and_drain_retires_them() {
        let config = ClusterConfig {
            ack_window: 8,
            ..ClusterConfig::default()
        };
        let blocks = 16;
        let mut h = harness(2, blocks, config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..20 {
            random_write(&mut h.cluster, &mut rng, blocks).unwrap();
        }
        // Sends run ahead of acks by up to window - 1 writes.
        for idx in 0..2 {
            let s = h.cluster.status(idx);
            assert_eq!(s.in_flight, 7, "window 8 leaves 7 acks in flight");
            assert_eq!(s.acked_writes + s.in_flight as u64, 20);
            assert_eq!(h.cluster.state(idx), ReplicaState::Online);
        }
        assert_eq!(h.cluster.drain(), 14, "7 in flight on each replica");
        for idx in 0..2 {
            let s = h.cluster.status(idx);
            assert_eq!(s.in_flight, 0);
            assert_eq!(s.acked_writes, 20);
        }
        for dev in &h.devices {
            assert!(verify_consistent(h.cluster.device(), &**dev).unwrap());
        }
        finish(h);
    }

    #[test]
    fn quorum_counts_in_flight_writes_under_a_window() {
        let config = ClusterConfig {
            ack_window: 4,
            write_quorum: 1,
            ..ClusterConfig::default()
        };
        let mut h = harness(1, 8, config);
        // None of these fails quorum even though the first few collect
        // no acks at all: the in-flight copy counts optimistically.
        for i in 0u64..6 {
            h.cluster.write(Lba(i % 8), &[(i + 1) as u8; 4096]).unwrap();
        }
        h.cluster.drain();
        assert_eq!(h.cluster.status(0).acked_writes, 6);
        for dev in &h.devices {
            assert!(verify_consistent(h.cluster.device(), &**dev).unwrap());
        }
        finish(h);
    }

    #[test]
    fn a_late_ack_is_not_credited_to_a_frame_sealed_before_its_wait_failed() {
        // A window of two over a link whose far end the test answers by
        // hand. Writes A and B go out under epoch 1; B fills the window,
        // so A's ack is awaited — and does not come.
        let (near, far) = channel_pair(LinkModel::t1());
        let config = ClusterConfig {
            ack_window: 2,
            ack_timeout: Duration::from_millis(20),
            ..ClusterConfig::default()
        };
        let mut cluster = ClusterGroup::new(
            MemDevice::new(BlockSize::kb4(), 8),
            config,
            vec![Box::new(near)],
        );
        let registry = prins_obs::Registry::new();
        cluster.attach_observer(Arc::clone(&registry), prins_net::SimClock::new());
        let (a, b, c) = (Lba(0), Lba(1), Lba(2));
        cluster.write(a, &[1u8; 4096]).unwrap();
        cluster.write(b, &[2u8; 4096]).unwrap();
        assert_eq!(cluster.state(0), ReplicaState::Lagging);

        // A's ACK arrives late, then the replica's NAK of B, both under
        // epoch 1, then the answer to write C, sent under epoch 2.
        // Credited by position, A's ACK would retire B.
        for reply in [encode_ack(ACK, 1), encode_ack(NAK, 1), encode_ack(ACK, 2)] {
            far.send(&reply).unwrap();
        }
        cluster.write(c, &[3u8; 4096]).unwrap();
        cluster.drain();

        let dirty = &cluster.replicas[0].dirty;
        assert!(dirty.is_uncertain(a) && dirty.is_uncertain(b));
        assert!(!dirty.contains(c));
        assert_eq!(cluster.status(0).acked_writes, 1, "C alone");
        // B retired without reading the link; C's wait dropped both.
        assert_eq!(registry.snapshot().counters["wrong_epoch_acks"], 2);
        assert_eq!(cluster.state(0), ReplicaState::Lagging);
    }

    #[test]
    fn a_duplicated_read_answer_is_not_taken_for_the_next_read() {
        // The replica answers with the stock applier but sends its first
        // read answer twice. The copy is still queued when the next read
        // is asked; taken by position, it would serve block 0's image as
        // block 1's.
        let (near, far) = channel_pair(LinkModel::t1());
        let worker = std::thread::spawn(move || {
            let mut applier = prins_repl::ReplicaApplier::new(MemDevice::new(BlockSize::kb4(), 8));
            let mut copies = 2;
            while let Ok(frame) = far.recv() {
                let (answer, _) = applier.respond(&frame);
                let n = if answer[0] == READ_ACK {
                    std::mem::replace(&mut copies, 1)
                } else {
                    1
                };
                for _ in 0..n {
                    far.send(&answer).unwrap();
                }
            }
        });
        let mut cluster = ClusterGroup::new(
            MemDevice::new(BlockSize::kb4(), 8),
            ClusterConfig::default(),
            vec![Box::new(near)],
        );
        let registry = prins_obs::Registry::new();
        cluster.attach_observer(Arc::clone(&registry), prins_net::SimClock::new());
        cluster.write(Lba(0), &[1u8; 4096]).unwrap();
        cluster.write(Lba(1), &[2u8; 4096]).unwrap();
        for (lba, fill) in [(0, 1u8), (1, 2)] {
            let read = cluster.read(Lba(lba)).unwrap();
            assert_eq!(read.source, Some(0));
            assert!(read.data == [fill; 4096], "lba {lba} served another block");
        }
        assert_eq!(registry.snapshot().counters["wrong_epoch_acks"], 1);
        drop(cluster);
        worker.join().unwrap();
    }

    #[test]
    fn severed_window_marks_in_flight_dirty_and_resyncs() {
        let config = ClusterConfig {
            ack_window: 4,
            offline_after: 1,
            ..ClusterConfig::default()
        };
        let blocks = 16;
        let mut h = harness(1, blocks, config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for _ in 0..6 {
            random_write(&mut h.cluster, &mut rng, blocks).unwrap();
        }
        assert!(h.cluster.status(0).in_flight > 0);
        // The link dies with acks in flight: draining fails them, marks
        // the writes dirty, and degrades the replica.
        h.links[0].sever();
        h.cluster.drain();
        assert_eq!(h.cluster.state(0), ReplicaState::Offline);
        let status = h.cluster.status(0);
        assert!(status.dirty_blocks > 0);
        assert_eq!(status.in_flight, 0);

        h.links[0].restore();
        h.cluster.rejoin(0).unwrap();
        h.cluster.resync_to_completion(0, 8).unwrap();
        assert_eq!(h.cluster.state(0), ReplicaState::Online);
        for dev in &h.devices {
            assert!(verify_consistent(h.cluster.device(), &**dev).unwrap());
        }
        finish(h);
    }

    #[test]
    fn observer_records_lifecycle_events_resync_progress_and_ack_rtt() {
        let config = ClusterConfig {
            ack_window: 4,
            offline_after: 1,
            ..ClusterConfig::default()
        };
        let blocks = 16;
        let mut h = harness(1, blocks, config);
        let registry = prins_obs::Registry::new();
        let clock = prins_net::SimClock::new();
        h.cluster
            .attach_observer(Arc::clone(&registry), clock.clone());

        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for _ in 0..5 {
            random_write(&mut h.cluster, &mut rng, blocks).unwrap();
        }
        // Healthy phase: ack RTTs accumulate, no failure events.
        let ring = registry.events();
        assert_eq!(ring.count("nak"), 0);
        assert_eq!(ring.count("ack-error"), 0);
        assert_eq!(ring.count("state-change"), 0);

        // The link dies with acks in flight: draining fails them, one
        // ack-error per in-flight write.
        h.links[0].sever();
        assert!(h.cluster.status(0).in_flight > 0);
        h.cluster.drain();
        assert_eq!(h.cluster.state(0), ReplicaState::Offline);
        assert!(ring.count("ack-error") > 0, "severed window fails acks");
        for _ in 0..3 {
            random_write(&mut h.cluster, &mut rng, blocks).unwrap();
        }
        h.links[0].restore();
        // Acks for the severed-window frames may surface at any point
        // from here on. They are sealed under the pre-sever epoch, so
        // the rejoin needs no purge, settling wait, or skip budget —
        // the ack loop identifies and drops them by tag.
        h.cluster.rejoin(0).unwrap();
        h.cluster.resync_to_completion(0, 4).unwrap();
        assert_eq!(h.cluster.state(0), ReplicaState::Online);

        // The transition chain is exactly the lifecycle walked:
        // online->offline (offline_after: 1), offline->resyncing,
        // resyncing->online — and each hop is machine-legal.
        let transitions: Vec<(String, String)> = ring
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                prins_obs::EventKind::StateChange { from, to } => {
                    Some((from.to_string(), to.to_string()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            transitions,
            vec![
                ("online".into(), "offline".into()),
                ("offline".into(), "resyncing".into()),
                ("resyncing".into(), "online".into()),
            ]
        );
        assert!(ring.count("resync-batch") > 0);

        let snap = registry.snapshot();
        let rtt = &snap.histograms["cluster_ack_rtt_nanos"];
        assert!(rtt.count >= 5, "one RTT sample per collected ack");
        assert_eq!(snap.gauges["replica0_dirty_blocks"], 0);
        assert_eq!(snap.gauges["replica0_resync_pending"], 0);
        for dev in &h.devices {
            assert!(verify_consistent(h.cluster.device(), &**dev).unwrap());
        }
        finish(h);
    }

    #[test]
    fn scrub_detects_and_repairs_replica_media_corruption() {
        let blocks = 8;
        let mut h = harness(2, blocks, ClusterConfig::default());
        let registry = prins_obs::Registry::new();
        let clock = prins_net::SimClock::new();
        h.cluster
            .attach_observer(Arc::clone(&registry), clock.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..6 {
            random_write(&mut h.cluster, &mut rng, blocks).unwrap();
        }
        h.cluster.drain();
        // Flip one bit on replica 0's media behind everyone's back —
        // the silent corruption no wire checksum can see.
        let victim = Lba(3);
        let mut block = h.devices[0].read_block_vec(victim).unwrap();
        block[7] ^= 0x80;
        h.devices[0].write_block(victim, &block).unwrap();

        let outcomes = h.cluster.scrub(0, 1).unwrap();
        assert_eq!(outcomes.len(), 2);
        let (_, o0) = outcomes[0];
        assert_eq!(o0.probed, blocks as usize);
        assert_eq!(o0.mismatched, 1);
        assert_eq!(o0.repaired, 1);
        let (_, o1) = outcomes[1];
        assert_eq!((o1.mismatched, o1.repaired), (0, 0));
        assert_eq!(h.cluster.state(0), ReplicaState::Online);
        assert_eq!(registry.snapshot().counters["scrub_repairs"], 1);
        assert!(h.cluster.status(0).scrub_bytes > 0);
        for dev in &h.devices {
            assert!(verify_consistent(h.cluster.device(), &**dev).unwrap());
        }
        finish(h);
    }

    #[test]
    fn traffic_accounting_separates_foreground_from_resync() {
        let config = ClusterConfig {
            offline_after: 1,
            ..ClusterConfig::default()
        };
        let mut h = harness(1, 16, config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..5 {
            random_write(&mut h.cluster, &mut rng, 16).unwrap();
        }
        let fg = h.cluster.status(0).foreground_bytes;
        assert!(fg > 0);
        assert_eq!(h.cluster.status(0).resync_bytes, 0);

        h.links[0].sever();
        for _ in 0..5 {
            random_write(&mut h.cluster, &mut rng, 16).unwrap();
        }
        h.links[0].restore();
        h.cluster.rejoin(0).unwrap();
        h.cluster.resync_to_completion(0, 8).unwrap();
        let status = h.cluster.status(0);
        assert!(status.resync_bytes > 0);
        assert_eq!(status.foreground_bytes, fg, "outage sends nothing");
    }
}
