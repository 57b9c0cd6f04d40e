//! Builder for [`PrinsEngine`].

use std::sync::Arc;
use std::time::Duration;

use prins_block::BlockDevice;
use prins_net::{Clock, Transport, WallClock};
use prins_policy::{AdaptiveReplicator, PolicyConfig, WorkloadPhase};
use prins_repl::{AckPolicy, ReplicationMode, Replicator};

use crate::obs::Probe;
use crate::pipeline::PipelineConfig;
use crate::PrinsEngine;

/// Configures and starts a [`PrinsEngine`].
///
/// Besides the replication strategy and replica set, the builder tunes
/// the replication pipeline: [`encode_workers`](Self::encode_workers)
/// sizes the parity-encoding pool, [`coalesce`](Self::coalesce) folds
/// back-to-back writes to one LBA into a single parity, and
/// [`batch_frames`](Self::batch_frames) packs queued payloads into one
/// wire frame per acknowledgement round-trip.
///
/// # Example
///
/// ```
/// use prins_block::{BlockSize, MemDevice};
/// use prins_core::EngineBuilder;
/// use prins_repl::ReplicationMode;
/// use std::sync::Arc;
///
/// // An engine with no replicas still works (local-only, encoding
/// // accounted) — useful for overhead measurements.
/// let device = Arc::new(MemDevice::new(BlockSize::kb8(), 16));
/// let engine = EngineBuilder::new(device)
///     .mode(ReplicationMode::Prins)
///     .encode_workers(4)
///     .build();
/// # drop(engine);
/// ```
pub struct EngineBuilder {
    device: Arc<dyn BlockDevice>,
    mode: ReplicationMode,
    adaptive: Option<PolicyConfig>,
    replicas: Vec<Box<dyn Transport>>,
    config: PipelineConfig,
    clock: Option<Arc<dyn Clock>>,
    registry: Option<Arc<prins_obs::Registry>>,
    trace: Option<prins_obs::TraceConfig>,
}

impl EngineBuilder {
    /// Starts configuring an engine over `device`.
    pub fn new(device: Arc<dyn BlockDevice>) -> Self {
        Self {
            device,
            mode: ReplicationMode::Prins,
            adaptive: None,
            replicas: Vec::new(),
            config: PipelineConfig::default(),
            clock: None,
            registry: None,
            trace: None,
        }
    }

    /// Selects the replication strategy (default: [`ReplicationMode::Prins`]).
    pub fn mode(mut self, mode: ReplicationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Drives replication with the adaptive policy engine
    /// ([`AdaptiveReplicator`]): per-region strategy selection plus live
    /// retuning of [`batch_frames`](Self::batch_frames) and
    /// [`coalesce`](Self::coalesce) on workload-phase transitions (the
    /// values configured here become the `Mixed`-phase baseline). With
    /// [`observe`](Self::observe) set, decision and counterfactual
    /// counters register under `policy_*`. Overrides
    /// [`mode`](Self::mode).
    pub fn adaptive(mut self, config: PolicyConfig) -> Self {
        self.adaptive = Some(config);
        self
    }

    /// Adds a replica connection (one sender lane each).
    pub fn replica(mut self, transport: Box<dyn Transport>) -> Self {
        self.replicas.push(transport);
        self
    }

    /// Overrides how long a sender lane waits for each
    /// acknowledgement (default 10 s).
    pub fn ack_timeout(mut self, timeout: Duration) -> Self {
        self.config.ack_timeout = timeout;
        self
    }

    /// Overrides the acknowledgement policy (default: per-write, the
    /// paper's conservative closed-loop model; a window pipelines
    /// frames over the WAN independently on every lane).
    pub fn ack_policy(mut self, policy: AckPolicy) -> Self {
        self.config.ack_window = match policy {
            AckPolicy::PerWrite => 1,
            AckPolicy::Window(n) => n.max(1),
        };
        self
    }

    /// Sizes the parity-encoding worker pool (default 2). Payloads are
    /// released to the senders in admission order regardless. With
    /// [`batch_frames`](Self::batch_frames) above 1 the pool is woken
    /// for `workers × max` queued writes, not for every write.
    pub fn encode_workers(mut self, workers: usize) -> Self {
        self.config.encode_workers = workers.max(1);
        self
    }

    /// Enables XOR-folding write coalescing (default off): a write to
    /// an LBA whose previous write is still queued folds into it,
    /// shipping one parity `A_newest ⊕ A_oldest` for the pair.
    pub fn coalesce(mut self, enabled: bool) -> Self {
        self.config.coalesce = enabled;
        self
    }

    /// Packs up to `max` queued payloads into one wire frame sharing a
    /// single acknowledgement (default 1 = off). A threaded sender lane
    /// then wakes for `max` queued payloads or a flush, not for every
    /// payload, and ships a partial frame once its oldest payload has
    /// waited 500 µs. The encode pool likewise wakes for `max` queued
    /// writes per worker, or within 500 µs, and a flush encodes what is
    /// still queued itself: an unflushed write can leave up to 1 ms
    /// later, a flushed one no later.
    pub fn batch_frames(mut self, max: usize) -> Self {
        self.config.batch_frames = max.max(1);
        self
    }

    /// Attaches a metrics registry (default: none): the engine records
    /// per-stage latency histograms, queue-depth samples and typed
    /// pipeline events into it, and its counters *are* the registry's
    /// — `engine_*`, `lane{i}_*`, `checksum_failures`, `retransmits`
    /// and the gauge `engine_queue_depth_hwm` — which
    /// [`PrinsEngine::stats`](crate::PrinsEngine::stats) reads back.
    /// The buffer pool's `pool_*` gauges and
    /// `engine_bytes_copied_per_write` are published at every
    /// [`Registry::snapshot`](prins_obs::Registry::snapshot). Two
    /// engines on one registry would add into the same counters, so a
    /// registry serves one engine; share it with the other layers
    /// (cluster, meters) for a unified snapshot.
    pub fn observe(mut self, registry: Arc<prins_obs::Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Turns on per-write tracing (default: off): every write mints a
    /// deterministic [`TraceId`](prins_obs::TraceId) at admission and
    /// each pipeline hop appends a stage event; completed traces feed
    /// the latency histogram, tail attribution, SLO burn and anomaly
    /// counts. Read the sink via
    /// [`PrinsEngine::trace_sink`](crate::PrinsEngine::trace_sink).
    pub fn flight_recorder(mut self, config: prins_obs::TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Injects the time source used for all latency accounting
    /// (default: the OS monotonic clock). The simulation harness passes
    /// a shared virtual clock so stats reflect simulated time.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Runs the pipeline without worker threads (default off): admitted
    /// writes sit in the queues until [`PrinsEngine::step`] or a flush
    /// drives encode → reorder → send → ack on the calling thread.
    /// With [`clock`](Self::clock) and a simulated transport this makes
    /// the whole replication path single-threaded and deterministic.
    pub fn manual_stepping(mut self, enabled: bool) -> Self {
        self.config.manual = enabled;
        self
    }

    /// Builds and starts the engine.
    ///
    /// Every replica must start as a copy of the device (fresh all-zero
    /// volumes are): PRINS ships `new ⊕ old`, which only reconstructs
    /// the block on a replica that holds `old`. The stack's catch-up
    /// path for a replica that is not a copy is `prins-cluster`'s
    /// `ClusterGroup::scrub`: it digests every block, marks the
    /// divergent ones uncertain, and ships their full images through
    /// `rejoin`.
    pub fn build(self) -> PrinsEngine {
        let adaptive = self.adaptive.map(|cfg| {
            Arc::new(match &self.registry {
                Some(registry) => AdaptiveReplicator::with_registry(cfg, registry),
                None => AdaptiveReplicator::new(cfg),
            })
        });
        // The adaptive replicator overrides the static strategy the
        // mode names.
        let replicator = match &adaptive {
            Some(adaptive) => Arc::clone(adaptive) as Arc<dyn Replicator>,
            None => Arc::from(self.mode.replicator()),
        };
        let probe = Probe::new(
            self.clock.unwrap_or_else(|| Arc::new(WallClock::new())),
            self.registry,
            self.trace
                .map(|cfg| Arc::new(prins_obs::TraceSink::new(cfg))),
            self.replicas.len(),
        );
        let mut engine =
            PrinsEngine::start(self.device, replicator, self.replicas, &self.config, probe);
        if let Some(adaptive) = adaptive {
            // The phase hook retunes the live pipeline knobs; what the
            // builder configured is the `Mixed`-phase baseline.
            let tuning = Arc::clone(engine.tuning());
            let base_batch = self.config.batch_frames;
            let base_coalesce = self.config.coalesce;
            adaptive.set_phase_hook(move |phase| match phase {
                // Tiny parity payloads: amortize the per-frame seal and
                // ack round-trip over a deep batch.
                WorkloadPhase::SmallDelta => {
                    tuning.set_batch_frames(base_batch.max(8));
                    tuning.set_coalesce(base_coalesce);
                }
                // Back to whatever the builder configured.
                WorkloadPhase::Mixed => {
                    tuning.set_batch_frames(base_batch);
                    tuning.set_coalesce(base_coalesce);
                }
                // Near-full frames gain little from batching, but
                // folding repeated rewrites of one block saves whole
                // block images.
                WorkloadPhase::Churn => {
                    tuning.set_batch_frames(base_batch.min(2));
                    tuning.set_coalesce(true);
                }
            });
            engine.adaptive = Some(adaptive);
        }
        engine
    }
}

impl std::fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("mode", &self.mode)
            .field("replicas", &self.replicas.len())
            .field("pipeline", &self.config)
            .finish_non_exhaustive()
    }
}
