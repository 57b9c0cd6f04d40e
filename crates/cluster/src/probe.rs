//! What the cluster plane records.
//!
//! One [`Probe`] per [`ClusterGroup`](crate::ClusterGroup),
//! [`EcGroup`](crate::EcGroup) or
//! [`ShardedCluster`](crate::ShardedCluster) is the only code in the
//! crate that reads a clock or touches a metrics [`Registry`] or a
//! [`TraceSink`] (`ci.sh` greps for it): `group.rs`, `ec_group.rs` and
//! `shard.rs` state what happens and call one probe method per hop;
//! this file alone states what is recorded about it. That includes the
//! wait for every answer on a cluster [`Link`]: [`Probe::collect`]
//! stamps it and turns what the link drops on the way into hops.
//! Both recorders are optional and attached after construction
//! (`attach_observer`, `attach_tracer`), each with the clock that
//! stamps it; detached, a hop costs an `Option` check or an uncontended
//! atomic add. An owner registers only its own [`Plane`]'s instruments,
//! so a registry never grows names its owner cannot move.
//!
//! The catalogue — everything a hop records. A registry event's tags
//! and a trace hop's lane and byte count follow its name in
//! parentheses; trace stages are `prins_obs::TraceStage` names; a hop
//! whose operation began untraced records no trace hop.
//!
//! | hop | plane | histograms, counters, gauges | registry event | trace |
//! |---|---|---|---|---|
//! | `begin` | all | — | — | begins with one hold; `capture` (bytes) |
//! | `released` | all | — | — | drops the hold `begin` opened |
//! | `sent` | group | — | — | `replica-send` (replica, frame bytes), one more completion awaited |
//! | `send_failed` | group | — | — | `send-error` (replica) |
//! | `acked` | group | `cluster_ack_rtt_nanos` (ack wait per foreground or resync frame) | — | `replica-ack` (replica), completing |
//! | `ack_failed` | group, EC | `cluster_ack_rtt_nanos` (group) | `nak` or `ack-error` (replica) | `ack-error` (replica), completing |
//! | `stale_dropped` (from `collect`) | group, EC | counter `wrong_epoch_acks` (group) | — | `wrong-epoch` (replica) on the trace of the frame being awaited, from its link tag |
//! | `corrupt_nak` (from `collect`) | group | counter `checksum_failures` | — | — |
//! | `state_change` | group | — | `state-change` (replica, from, to) | — |
//! | `resync_batch` | group | — | `resync-batch` (replica, sent, remaining) | — |
//! | `gauges` | group | gauges `replica{idx}_dirty_blocks`, `replica{idx}_resync_pending` | — | — |
//! | `read_served` | group | counter `reads_offloaded` (replica-served only) | — | `read-offload` (replica or no lane, block bytes), completing |
//! | `read_rejected` | group | counter `read_rejected_stale` | — | `read-reject` (replica) |
//! | `scrub_repaired` | group | counter `scrub_repairs` | — | — |
//! | `strip_sent` | EC | counters `ec_strip_writes`, `ec_parity_update_bytes` (parity strips) | — | `strip-data` / `strip-parity` (node, frame bytes), one more completion awaited |
//! | `strip_acked` | EC | — | — | `strip-ack` (node), completing |
//! | `rebuilt` | EC | counter `ec_rebuild_bytes`, `ec_rebuild_nanos` | `ec-rebuild` (node, stripes) | — |
//! | `decode_failed` | EC | counter `ec_decode_failures` | — | — |
//! | `migrate_batch` | shard | counter `migration_bytes` | `migrate-batch` (copied, remaining) | `migrate-copy` (target group, bytes), completing |
//! | `cutover` | shard | — | `cutover` (from, to) | — |

use std::sync::Arc;
use std::time::Duration;

use prins_net::Clock;
use prins_obs::{
    Counter, Event, EventKind, Histogram, Registry, TraceId, TraceSink, TraceStage, NO_LANE,
};
use prins_repl::{Link, LinkEvent, ReplError, Response};

use crate::ReplicaState;

/// A cluster frame's tag on its [`Link`]: the trace the frame belongs
/// to — where a stale answer dropped while it is awaited lands — beside
/// the owner's own tag.
pub(crate) type Tagged<T> = (Option<TraceId>, T);

/// What became of one frame sent on a cluster link.
pub(crate) struct Collected<T> {
    /// The owner's tag.
    pub(crate) tag: T,
    pub(crate) trace: Option<TraceId>,
    /// How long the answer was waited for, on the probe's clock.
    pub(crate) waited: u64,
    pub(crate) answer: Result<Response, ReplError>,
}

/// Which kind of owner a probe records for — whose instruments it
/// registers.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Plane {
    Group,
    Ec,
    Shard,
}

/// The attached trace sink and the state that mints its ids.
struct Trace {
    sink: Arc<TraceSink>,
    clock: Arc<dyn Clock>,
    /// Shard tag minted into every trace id — ties the owner's SLO
    /// accounting to its slot in [`prins_obs::TraceConfig::shards`].
    shard: u32,
    /// Monotonic per-owner counter: ids are deterministic functions of
    /// dispatch order, never of randomness or wall time.
    next: u64,
}

/// The cluster plane's recorders (see the module docs). Every
/// instrument of the catalogue starts *detached* — recorded into,
/// listed nowhere — and [`observe`](Self::observe) swaps in the
/// registry's for the owner's plane, so a hop needs no check and
/// touches only atomics.
#[derive(Default)]
pub(crate) struct Probe {
    /// The attached registry and the clock stamping what goes into it.
    reg: Option<(Arc<Registry>, Arc<dyn Clock>)>,
    trace: Option<Trace>,
    ack_rtt: Arc<Histogram>,
    wrong_epoch_acks: Arc<Counter>,
    checksum_failures: Arc<Counter>,
    scrub_repairs: Arc<Counter>,
    reads_offloaded: Arc<Counter>,
    read_rejected_stale: Arc<Counter>,
    strip_writes: Arc<Counter>,
    parity_update_bytes: Arc<Counter>,
    rebuild_bytes: Arc<Counter>,
    decode_failures: Arc<Counter>,
    rebuild_nanos: Arc<Histogram>,
    migration_bytes: Arc<Counter>,
}

impl Probe {
    /// Attaches `registry`, registering `plane`'s instruments in it.
    pub(crate) fn observe(&mut self, plane: Plane, registry: Arc<Registry>, clock: Arc<dyn Clock>) {
        match plane {
            Plane::Group => {
                self.ack_rtt = registry.histogram("cluster_ack_rtt_nanos");
                self.wrong_epoch_acks = registry.counter("wrong_epoch_acks");
                self.checksum_failures = registry.counter("checksum_failures");
                self.scrub_repairs = registry.counter("scrub_repairs");
                self.reads_offloaded = registry.counter("reads_offloaded");
                self.read_rejected_stale = registry.counter("read_rejected_stale");
            }
            Plane::Ec => {
                self.strip_writes = registry.counter("ec_strip_writes");
                self.parity_update_bytes = registry.counter("ec_parity_update_bytes");
                self.rebuild_bytes = registry.counter("ec_rebuild_bytes");
                self.decode_failures = registry.counter("ec_decode_failures");
                self.rebuild_nanos = registry.histogram("ec_rebuild_nanos");
            }
            Plane::Shard => self.migration_bytes = registry.counter("migration_bytes"),
        }
        self.reg = Some((registry, clock));
    }

    /// Attaches `sink`; traces minted from here on carry `shard`.
    pub(crate) fn trace_into(&mut self, sink: Arc<TraceSink>, shard: u32, clock: Arc<dyn Clock>) {
        self.trace = Some(Trace {
            sink,
            clock,
            shard,
            next: 0,
        });
    }

    /// A reading of the registry's clock: 0, and no clock read, when no
    /// registry is attached.
    pub(crate) fn stamp(&self) -> u64 {
        self.reg.as_ref().map_or(0, |(_, clock)| clock.now_nanos())
    }

    fn event(&self, kind: EventKind, replica: Option<usize>) {
        if let Some((registry, clock)) = &self.reg {
            let event = Event::new(clock.now_nanos(), kind);
            let event = replica.map_or(event, |idx| event.replica(idx));
            registry.events().record(event);
        }
    }

    /// Runs `record` with the sink, the trace and a clock reading — if
    /// a sink is attached and the operation began traced.
    fn hop(&self, id: Option<TraceId>, record: impl FnOnce(&TraceSink, TraceId, u64)) {
        if let (Some(t), Some(id)) = (&self.trace, id) {
            record(&t.sink, id, t.clock.now_nanos());
        }
    }

    /// An operation begins: opens the next trace with one hold — the
    /// caller's, dropped by [`released`](Self::released) or by the
    /// operation's one completing hop.
    pub(crate) fn begin(&mut self) -> Option<TraceId> {
        let t = self.trace.as_mut()?;
        let id = TraceId::for_shard(t.shard, t.next);
        t.next += 1;
        t.sink.begin(id, t.shard, 1, t.clock.now_nanos());
        Some(id)
    }

    /// The fan-out is booked: drops the hold `begin` opened.
    pub(crate) fn released(&self, id: Option<TraceId>) {
        self.hop(id, |sink, id, at| sink.release(id, at));
    }

    /// A hop on the way.
    fn mark(&self, id: Option<TraceId>, stage: TraceStage, lane: usize) {
        self.hop(id, |sink, id, at| sink.event(id, stage, lane as u32, at));
    }

    /// A terminal hop: retires one awaited completion.
    fn done(&self, id: Option<TraceId>, stage: TraceStage, lane: u32) {
        self.hop(id, |sink, id, at| sink.complete(id, stage, lane, at));
    }

    /// One more completion awaited, and the hop that asks for it.
    fn fan_out(&self, id: Option<TraceId>, stage: TraceStage, lane: usize) {
        self.hop(id, |sink, id, at| {
            sink.add_pending(id, 1);
            sink.event(id, stage, lane as u32, at);
        });
    }

    /// A foreground write's frame left for `replica`.
    pub(crate) fn sent(&self, id: Option<TraceId>, replica: usize) {
        self.fan_out(id, TraceStage::ReplicaSend, replica);
    }

    /// The transport refused a foreground write's frame.
    pub(crate) fn send_failed(&self, id: Option<TraceId>, replica: usize) {
        self.mark(id, TraceStage::SendError, replica);
    }

    /// `replica` acknowledged a foreground or resync frame after
    /// `waited`.
    pub(crate) fn acked(&self, replica: usize, id: Option<TraceId>, waited: u64) {
        self.ack_rtt.record(waited);
        self.done(id, TraceStage::ReplicaAck, replica as u32);
    }

    /// A frame to `replica` retired after `waited` without an
    /// acknowledgement.
    pub(crate) fn ack_failed(
        &self,
        replica: usize,
        id: Option<TraceId>,
        waited: u64,
        e: &ReplError,
    ) {
        self.ack_rtt.record(waited);
        let kind = match e {
            ReplError::Nak { .. } => EventKind::Nak,
            _ => EventKind::AckError,
        };
        self.event(kind, Some(replica));
        self.done(id, TraceStage::AckError, replica as u32);
    }

    /// A response from an older epoch was dropped while `awaited`'s
    /// answer was being waited for.
    fn stale_dropped(&self, replica: usize, awaited: Option<TraceId>) {
        self.wrong_epoch_acks.inc();
        self.hop(awaited, |sink, id, at| {
            sink.mark_wrong_epoch(id, replica as u32, at)
        });
    }

    /// A replica answered `NAK_CORRUPT` — wire or replica-disk
    /// corruption, caught before anything was applied.
    fn corrupt_nak(&self) {
        self.checksum_failures.inc();
    }

    /// Awaits the answer to the oldest of the frames in flight on
    /// replica (or node) `idx`'s `link`, stamping the wait and recording
    /// what the link drops on the way.
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight.
    pub(crate) fn collect<T>(
        &self,
        idx: usize,
        link: &mut Link<Tagged<T>>,
        timeout: Duration,
    ) -> Collected<T> {
        let started = self.stamp();
        let collected = link.collect_oldest(timeout, |&(trace, _), event| match event {
            LinkEvent::StaleDropped => self.stale_dropped(idx, trace),
            LinkEvent::CorruptNak => self.corrupt_nak(),
        });
        let ((trace, tag), answer) = collected.expect("a frame in flight");
        Collected {
            tag,
            trace,
            waited: self.stamp().saturating_sub(started),
            answer,
        }
    }

    /// Asks replica (or node) `idx` one question: sends what `fill`
    /// appends, tagged `tag`, and awaits its `want` answer. Returns the
    /// sealed request's length (0 if it never left) beside the answer.
    ///
    /// # Panics
    ///
    /// Panics if anything is in flight on `link`: answers arrive in
    /// order, so the caller collects those first.
    pub(crate) fn request<T>(
        &self,
        idx: usize,
        link: &mut Link<Tagged<T>>,
        timeout: Duration,
        tag: Tagged<T>,
        want: u8,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> (usize, Result<Response, ReplError>) {
        assert_eq!(link.in_flight().len(), 0, "a request is asked alone");
        match link.send(tag, want, fill) {
            Ok(sealed_len) => (sealed_len, self.collect(idx, link, timeout).answer),
            Err(e) => (0, Err(e)),
        }
    }

    /// Replica `idx` moved through the lifecycle (a no-op if it did
    /// not move).
    pub(crate) fn state_change(&self, idx: usize, from: ReplicaState, to: ReplicaState) {
        if from != to {
            let (from, to) = (from.name(), to.name());
            self.event(EventKind::StateChange { from, to }, Some(idx));
        }
    }

    /// A resync step shipped `sent` frames to replica `idx`.
    pub(crate) fn resync_batch(&self, idx: usize, sent: usize, remaining: usize) {
        let (sent, remaining) = (sent as u32, remaining as u32);
        self.event(EventKind::ResyncBatch { sent, remaining }, Some(idx));
    }

    /// Replica `idx`'s resync progress.
    pub(crate) fn gauges(&self, idx: usize, dirty_blocks: usize, resync_pending: usize) {
        if let Some((registry, _)) = &self.reg {
            let gauge = |what, v| registry.gauge(&format!("replica{idx}_{what}")).set(v);
            gauge("dirty_blocks", dirty_blocks as u64);
            gauge("resync_pending", resync_pending as u64);
        }
    }

    /// A read was served by replica `source`, or by the primary image.
    pub(crate) fn read_served(&self, id: Option<TraceId>, source: Option<usize>) {
        if source.is_some() {
            self.reads_offloaded.inc();
        }
        let lane = source.map_or(NO_LANE, |idx| idx as u32);
        self.done(id, TraceStage::ReadOffload, lane);
    }

    /// The freshness guard (or a failure mid-read) ruled `replica` out.
    pub(crate) fn read_rejected(&self, id: Option<TraceId>, replica: usize) {
        self.read_rejected_stale.inc();
        self.mark(id, TraceStage::ReadReject, replica);
    }

    /// A scrub pass repaired `blocks` divergent blocks.
    pub(crate) fn scrub_repaired(&self, blocks: usize) {
        self.scrub_repairs.add(blocks as u64);
    }

    /// A `bytes`-long strip delta left for `node`'s data or parity
    /// strip.
    pub(crate) fn strip_sent(&self, id: Option<TraceId>, node: usize, parity: bool, bytes: usize) {
        self.strip_writes.inc();
        if parity {
            self.parity_update_bytes.add(bytes as u64);
        }
        let stage = if parity {
            TraceStage::StripParity
        } else {
            TraceStage::StripData
        };
        self.fan_out(id, stage, node);
    }

    /// `node` acknowledged a strip delta.
    pub(crate) fn strip_acked(&self, id: Option<TraceId>, node: usize) {
        self.done(id, TraceStage::StripAck, node as u32);
    }

    /// Node `lost`'s strips were rebuilt: `stripes` of them, moving
    /// `wire_bytes`, since the [`stamp`](Self::stamp) `started`.
    pub(crate) fn rebuilt(&self, lost: usize, stripes: u64, wire_bytes: u64, started: u64) {
        self.rebuild_bytes.add(wire_bytes);
        self.rebuild_nanos
            .record(self.stamp().saturating_sub(started));
        let stripes = stripes as u32;
        self.event(EventKind::EcRebuild { stripes }, Some(lost));
    }

    /// A reconstruction failed (too many erasures, a corrupt survivor
    /// contribution, a singular repair matrix).
    pub(crate) fn decode_failed(&self) {
        self.decode_failures.inc();
    }

    /// A migration batch copied `copied` blocks (`bytes`) to group `to`.
    pub(crate) fn migrate_batch(
        &self,
        id: Option<TraceId>,
        to: usize,
        copied: u64,
        remaining: u64,
        bytes: u64,
    ) {
        self.migration_bytes.add(bytes);
        let (copied, remaining) = (copied as u32, remaining as u32);
        self.event(EventKind::MigrateBatch { copied, remaining }, None);
        self.done(id, TraceStage::MigrateCopy, to as u32);
    }

    /// Ownership of a migrated range flipped from group `from` to `to`.
    pub(crate) fn cutover(&self, from: usize, to: usize) {
        let (from, to) = (from as u32, to as u32);
        self.event(EventKind::Cutover { from, to }, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_net::SinkTransport;
    use prins_repl::{ACK, DIGEST_ACK};

    #[test]
    #[should_panic(expected = "a request is asked alone")]
    fn a_request_never_queues_behind_a_frame_in_flight() {
        // Its answer would queue behind the write's, and a request has no
        // one to hand that answer to.
        let mut link = Link::new(0, Box::new(SinkTransport::new()));
        link.send((None, 1u32), ACK, |out| out.push(0)).unwrap();
        let probe = Probe::default();
        let digest = |out: &mut Vec<u8>| out.push(7);
        let timeout = Duration::from_secs(1);
        let _ = probe.request(0, &mut link, timeout, (None, 2), DIGEST_ACK, digest);
    }
}
