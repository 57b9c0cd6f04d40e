//! Causal-tracing hookup shared by [`ClusterGroup`](crate::ClusterGroup),
//! [`EcGroup`](crate::EcGroup) and
//! [`ShardedCluster`](crate::ShardedCluster).

use std::sync::Arc;

use prins_net::Clock;
use prins_obs::{TraceId, TraceSink, TraceStage};

/// Mints one deterministic [`TraceId`] per traced operation and appends
/// its hops into a shared [`TraceSink`]. Detached (the default) every
/// call is a no-op; attached, a hop whose operation began untraced
/// (`id` is `None`) is skipped without reading the clock.
#[derive(Default)]
pub(crate) struct Tracer(Option<Attached>);

struct Attached {
    sink: Arc<TraceSink>,
    clock: Arc<dyn Clock>,
    /// Shard tag minted into every trace id — ties the owner's SLO
    /// accounting to its slot in [`prins_obs::TraceConfig::shards`].
    shard: u32,
    /// Monotonic per-owner counter: ids are deterministic functions of
    /// dispatch order, never of randomness or wall time.
    counter: u64,
    /// The trace whose response is currently being awaited, so the
    /// stale-epoch drop sites deep in [`ClusterGroup`](crate::ClusterGroup)'s
    /// response loop can attribute the wrong-epoch hop to the right
    /// trace.
    awaiting: Option<TraceId>,
}

impl Tracer {
    pub fn attach(&mut self, sink: Arc<TraceSink>, shard: u32, clock: Arc<dyn Clock>) {
        self.0 = Some(Attached {
            sink,
            clock,
            shard,
            counter: 0,
            awaiting: None,
        });
    }

    pub fn sink(&self) -> Option<&Arc<TraceSink>> {
        self.0.as_ref().map(|t| &t.sink)
    }

    /// The attached state, the trace and a clock reading, if this hop
    /// is to be recorded.
    fn at(&self, id: Option<TraceId>) -> Option<(&Attached, TraceId, u64)> {
        let t = self.0.as_ref()?;
        Some((t, id?, t.clock.now_nanos()))
    }

    /// Opens the next trace with one hold (the caller's, dropped by
    /// [`release`](Self::release) or the completing hop) and a
    /// `capture` event of `bytes`.
    pub fn begin(&mut self, bytes: usize) -> Option<TraceId> {
        let t = self.0.as_mut()?;
        let id = TraceId::for_shard(t.shard, t.counter);
        t.counter += 1;
        t.sink.begin(id, t.shard, 1, t.clock.now_nanos(), bytes);
        Some(id)
    }

    /// Appends a hop.
    pub fn hop(&self, id: Option<TraceId>, stage: TraceStage, lane: u32, bytes: usize) {
        if let Some((t, id, now)) = self.at(id) {
            t.sink.event(id, stage, lane, now, bytes);
        }
    }

    /// Appends a fan-out hop: the trace waits for one more completion.
    pub fn fan_out(&self, id: Option<TraceId>, stage: TraceStage, lane: u32, bytes: usize) {
        if let Some((t, id, now)) = self.at(id) {
            t.sink.add_pending(id, 1);
            t.sink.event(id, stage, lane, now, bytes);
        }
    }

    /// Appends a terminal hop, retiring one pending completion.
    pub fn complete(&self, id: Option<TraceId>, stage: TraceStage, lane: u32, bytes: usize) {
        if let Some((t, id, now)) = self.at(id) {
            t.sink.complete(id, stage, lane, now, bytes);
        }
    }

    /// Drops the hold [`begin`](Self::begin) opened the trace with.
    pub fn release(&self, id: Option<TraceId>) {
        if let Some((t, id, now)) = self.at(id) {
            t.sink.release(id, now);
        }
    }

    /// Names the trace whose response is being awaited (`None` once it
    /// has arrived).
    pub fn set_awaiting(&mut self, id: Option<TraceId>) {
        if let Some(t) = &mut self.0 {
            t.awaiting = id;
        }
    }

    /// A stale-epoch response on `lane` was dropped while waiting.
    pub fn wrong_epoch(&self, lane: u32) {
        if let Some((t, id, now)) = self.at(self.0.as_ref().and_then(|t| t.awaiting)) {
            t.sink.mark_wrong_epoch(id, lane, now);
        }
    }
}
